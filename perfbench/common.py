"""State shared by the three workloads of one benchmark child process."""

from __future__ import annotations

import os
import resource
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Sequence

from perfbench.tracing import Tracer


@dataclass
class Run:
    """One workload run inside a fresh child process.

    A run sets up, then repeats one iteration of its workload (a cold pass
    from empty caches, then warm passes over them) for about ``seconds``.
    ``fixed_work`` replaces the time box with a fixed number of
    iterations, so a traced run and its untraced reference do the same
    work and report exactly repeatable counts.  ``setup_only`` stops the
    run once set-up is done.
    """

    seed: int
    seconds: float
    smoke: bool
    work_dir: Path
    spawned_at: float
    traced: bool = False
    fixed_work: bool = False
    setup_only: bool = False
    tracer: Tracer = field(default_factory=Tracer)
    setup_s: Optional[float] = None
    timed_s: float = 0.0
    attempted: int = 0
    failed: int = 0
    metrics: Dict[str, float] = field(default_factory=dict)
    layers: Dict[str, float] = field(default_factory=dict)
    errors: List[str] = field(default_factory=list)
    #: per pass, the time of each of its segments (see :mod:`perfbench.run`)
    segments: Dict[str, List[List[float]]] = field(
        default_factory=lambda: {"cold": [], "warm": []})

    def setup_done(self) -> None:
        """Record the set-up time: process start to the first timed call."""
        self.setup_s = time.monotonic() - self.spawned_at

    def iterations(self, fixed: int = 1) -> Iterator[int]:
        """Number the iterations of the timed phase as the caller makes them.

        A fixed-work run makes ``fixed`` iterations.  A time-boxed run makes
        at least one, and starts another only while that one, as long as
        the slowest so far, would end at most half its length after
        ``seconds``: the timed phase lasts ``seconds`` give or take half an
        iteration.
        """
        start = time.perf_counter()
        slowest = 0.0
        index = 0
        while True:
            began = time.perf_counter()
            yield index
            index += 1
            now = time.perf_counter()
            slowest = max(slowest, now - began)
            if (index >= fixed if self.fixed_work
                    else now - start + slowest / 2 > self.seconds):
                return

    def timed_pass(self, kind: str, segments: List[float]) -> float:
        """Record one cold or warm pass by its segment times; returns its total."""
        self.segments[kind].append(segments)
        return sum(segments)

    def check(self, ok: bool, message: str) -> None:
        """Record an output-check failure (the run then reports incorrect)."""
        if not ok:
            self.errors.append(message)


def peak_rss_mib() -> float:
    """Peak resident set size of this process so far, in MiB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def descendants(pid: int) -> List[int]:
    """Every live descendant of ``pid``, found through ``/proc``."""
    parents: Dict[int, int] = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as handle:
                # the command name may hold spaces: fields resume after ")"
                fields = handle.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        parents[int(entry)] = int(fields[1])
    tree = [pid]
    for member in tree:
        tree += [child for child, parent in parents.items() if parent == member]
    return tree[1:]


def process_tree_hwm_mib(pid: int) -> float:
    """Summed peak RSS (``VmHWM``) of ``pid`` and all its descendants."""
    total_kib = 0
    for member in [pid] + descendants(pid):
        try:
            with open(f"/proc/{member}/status") as handle:
                for line in handle:
                    if line.startswith("VmHWM:"):
                        total_kib += int(line.split()[1])
        except OSError:
            continue
    return total_kib / 1024


def percentile(values: Sequence[float], q: int) -> float:
    """The ``q``-th percentile (1..99) by :func:`statistics.quantiles`."""
    if len(values) == 1:
        return float(values[0])
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]
