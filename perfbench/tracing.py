"""An in-memory span tracer that times the program's layers from outside.

The benchmark does not instrument code under ``src/``.  Instead,
:meth:`Tracer.timed` replaces a function at the dotted name its caller
looks it up under (``repro.experiments.common.run_timing``,
``repro.runner.pool.simulate_vector``, ``repro.runner.cache.ResultCache.load``
...) with a wrapper that records a span around every call.  A target that
no longer exists raises at install time, so a refactor that moves a call
fails loudly instead of silently zeroing a layer.

Spans stay in memory with a link to their parent (the innermost span open
when they started) and are written out once, at the end of the run.  A
span's *self time* is its duration minus the durations of its children,
so self times of all spans in a phase add up to the time covered by that
phase's root spans; the rest of the phase is *unattributed*.

The tracer assumes one thread calls the wrapped functions, which holds for
every workload (the service client's threads only speak HTTP).
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Any, Callable, DefaultDict, Dict, Iterator, List, Optional, Tuple

#: ``on_result(tracer, result)`` hooks turn a call's return value into counts.
ResultHook = Callable[["Tracer", Any], None]


@dataclass
class Span:
    name: str
    phase: str
    start: float
    end: float
    parent: Optional[int]

    @property
    def duration(self) -> float:
        return self.end - self.start


def _resolve(target: str) -> Tuple[Any, str]:
    """Split ``pkg.module[.Class].attr`` into (owner object, attribute)."""
    parts = target.split(".")
    for cut in range(len(parts) - 1, 0, -1):
        try:
            owner = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for name in parts[cut:-1]:
            owner = getattr(owner, name)
        if not hasattr(owner, parts[-1]):
            raise AttributeError(f"trace target {target!r} does not exist")
        return owner, parts[-1]
    raise ImportError(f"no importable module in trace target {target!r}")


class Tracer:
    """Spans, counts and phase windows for one benchmark process."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.counts: DefaultDict[Tuple[str, str], float] = defaultdict(int)
        self.windows: DefaultDict[str, float] = defaultdict(float)
        self.current_phase = "setup"
        self._stack: List[int] = []
        self._undo: List[Callable[[], None]] = []

    # ------------------------------------------------------------------
    # Phases.
    # ------------------------------------------------------------------
    @contextmanager
    def phase(self, name: str) -> Iterator[None]:
        """Attribute spans and wall time inside the block to ``name``."""
        previous = self.current_phase
        self.current_phase = name
        start = time.perf_counter()
        try:
            yield
        finally:
            self.windows[name] += time.perf_counter() - start
            self.current_phase = previous

    # ------------------------------------------------------------------
    # Recording.
    # ------------------------------------------------------------------
    def count(self, name: str, value: float = 1) -> None:
        self.counts[(self.current_phase, name)] += value

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append(
            Span(name, self.current_phase, time.perf_counter(), 0.0, parent)
        )
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[index].end = time.perf_counter()

    # ------------------------------------------------------------------
    # Patching.
    # ------------------------------------------------------------------
    def patch(self, target: str,
              factory: Callable[[Callable[..., Any]], Callable[..., Any]]) -> None:
        """Replace ``target`` with ``factory(original)`` until :meth:`uninstall`."""
        owner, attr = _resolve(target)
        raw = vars(owner).get(attr) if isinstance(owner, type) else None
        if isinstance(raw, classmethod):
            replacement: Any = classmethod(factory(raw.__func__))
        elif raw is not None:
            replacement = factory(raw)
        else:
            raw = getattr(owner, attr)
            replacement = factory(raw)
        setattr(owner, attr, replacement)
        self._undo.append(lambda: setattr(owner, attr, raw))

    def timed(self, target: str, name: str,
              on_result: Optional[ResultHook] = None) -> None:
        """Record a span called ``name`` around every call of ``target``."""

        def factory(original: Callable[..., Any]) -> Callable[..., Any]:
            @functools.wraps(original)
            def wrapper(*args: Any, **kwargs: Any) -> Any:
                with self.span(name):
                    result = original(*args, **kwargs)
                if on_result is not None:
                    on_result(self, result)
                return result
            return wrapper

        self.patch(target, factory)

    def uninstall(self) -> None:
        while self._undo:
            self._undo.pop()()

    # ------------------------------------------------------------------
    # Derived numbers.
    # ------------------------------------------------------------------
    def self_times(self, *phases: str) -> Dict[str, float]:
        """Summed self time per span name over the spans of ``phases``."""
        children: DefaultDict[int, float] = defaultdict(float)
        for span in self.spans:
            if span.parent is not None:
                children[span.parent] += span.duration
        totals: DefaultDict[str, float] = defaultdict(float)
        for index, span in enumerate(self.spans):
            if span.phase in phases:
                totals[span.name] += span.duration - children[index]
        return dict(totals)

    def calls(self, *phases: str) -> Dict[str, int]:
        totals: DefaultDict[str, int] = defaultdict(int)
        for span in self.spans:
            if span.phase in phases:
                totals[span.name] += 1
        return dict(totals)

    def phase_counts(self, *phases: str) -> Dict[str, float]:
        totals: DefaultDict[str, float] = defaultdict(int)
        for (where, name), value in self.counts.items():
            if where in phases:
                totals[name] += value
        return dict(totals)

    def unattributed(self, *phases: str) -> float:
        """Wall time of ``phases`` not covered by any of their root spans."""
        covered = sum(span.duration for span in self.spans
                      if span.phase in phases and span.parent is None)
        return sum(self.windows[phase] for phase in phases) - covered

    def dump(self, path: Path) -> None:
        """Write every span, count and phase window as one JSON document."""
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({
            "windows": dict(self.windows),
            "counts": [{"phase": phase, "name": name, "value": value}
                       for (phase, name), value in sorted(self.counts.items())],
            "spans": [asdict(span) for span in self.spans],
        }))
