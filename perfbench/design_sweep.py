"""``design_sweep``: one large prediction-only grid through ``run_cells``.

Why: this is the design-space loop.  Traces are generated in set-up, so
the guest VM and the timing model are absent from the timed phase: a
kernel or stream-build change shows here, and a timing-model change must
not.  The grid covers every registered predictor kind (tagless over
pattern and path histories, tagged geometries, cascaded, ITTAGE, a btb2
L2 sweep, oracle and last-target) on SPEC-like, server-scale and
re-lowered traces, under two stream signatures per trace, plus a few
cells with history wider than 64 bits that fall back to the engine tier.
"""

from __future__ import annotations

import dataclasses
import shutil
import time
from typing import Any, Dict, List, Sequence, Tuple

from perfbench.common import Run, peak_rss_mib

TRACES = {
    False: ("perl", "gcc", "xlisp", "m88ksim", "webserver_like", "db_like",
            "perl@if_tree", "gcc@clustered"),
    True: ("perl", "gcc@clustered"),
}
TRACE_LENGTH = {False: 20_000, True: 3_000}
#: Warm passes after each cold pass.
WARM_ROUNDS = 2

def grid_configs() -> List[Any]:
    """The engine configs every trace is swept under."""
    from repro.experiments.configs import (
        PATH_SCHEME_LABELS,
        btb2_engine,
        path_scheme_history,
        preset,
        tagged_engine,
        tagless_engine,
    )
    from repro.predictors import EngineConfig, HistoryConfig, HistorySource
    from repro.predictors.history import PathFilter
    from repro.predictors.target_cache import TaggedIndexing, TargetCacheConfig

    per_signature = [
        tagless_engine(scheme, history_bits, address_bits)
        for scheme, history_bits, address_bits in (
            ("gag", 9, 0), ("gas", 8, 1), ("gas", 7, 2), ("gshare", 9, 0),
            ("gshare", 11, 0))
    ]
    per_signature += [
        tagless_engine("gshare", 9, history=path_scheme_history(label))
        for label in PATH_SCHEME_LABELS
    ]
    per_signature.append(tagless_engine(
        "gshare", 9, history=path_scheme_history("control", bits=18,
                                                 bits_per_target=2)))
    per_signature += [tagged_engine(assoc) for assoc in (1, 2, 4, 8, 16)]
    per_signature += [tagged_engine(4, indexing) for indexing in (
        TaggedIndexing.ADDRESS, TaggedIndexing.HISTORY_CONCAT)]
    per_signature += [
        preset("cascaded-256"),
        dataclasses.replace(preset("cascaded-256"), target_cache=TargetCacheConfig(
            kind="cascaded", entries=64, assoc=2)),
        preset("ittage-lite"),
        EngineConfig(target_cache=TargetCacheConfig(kind="ittage", entries=32),
                     history=preset("ittage-lite").history),
    ]
    per_signature += [btb2_engine(l2_entries=l2) for l2 in (0, 1024, 4096, 8192)]
    per_signature += [preset("oracle"), preset("last-target")]
    # A second stream signature: the same predictors behind a 256-entry BTB.
    configs = per_signature + [
        dataclasses.replace(config, btb_sets=64) for config in per_signature
    ]
    # History wider than the 64-bit stream registers: the engine tier.
    configs.append(EngineConfig(
        target_cache=TargetCacheConfig(kind="ittage", entries=128),
        history=HistoryConfig(source=HistorySource.PATH_GLOBAL, bits=72,
                              path_filter=PathFilter.CONTROL),
    ))
    return configs


def tier(config: Any) -> str:
    from repro.predictors import streams_supported, vector_supported

    if vector_supported(config):
        return "vector"
    return "streams" if streams_supported(config) else "engine"


def same_stats(a: Any, b: Any) -> bool:
    """Equal counters (the mask is not collected in this workload)."""
    def counters(stats: Any) -> Tuple[Any, ...]:
        return (stats.instructions, stats.btb_lookups, stats.btb_hits,
                sorted((kind.value, c.executed, c.mispredicted)
                       for kind, c in stats.per_kind.items()))
    return counters(a) == counters(b)


def reference_sample(cells: Sequence[Any]) -> List[int]:
    """Indices of the first and the last cell of each execution tier."""
    by_tier: Dict[str, List[int]] = {}
    for index, cell in enumerate(cells):
        by_tier.setdefault(tier(cell.config), []).append(index)
    return sorted({index for indices in by_tier.values()
                   for index in (indices[0], indices[-1])})


def run(bench: Run) -> None:
    import repro.runner as runner
    from repro.runner import ResultCache, SweepCell
    from repro.workloads import get_trace

    length = TRACE_LENGTH[bench.smoke]
    traces = TRACES[bench.smoke]
    for name in traces:
        get_trace(name, n_instructions=length, seed=bench.seed)
    cells = [SweepCell(name, config) for name in traces
             for config in grid_configs()]
    bench.setup_done()
    if bench.setup_only:
        return

    def sweep(kind: str, cache: Any) -> Tuple[List[Any], float]:
        """The grid through ``run_cells``, one call (one segment) per trace."""
        results: List[Any] = []
        times: List[float] = []
        for name in traces:
            batch = [cell for cell in cells if cell.benchmark == name]
            bench.attempted += len(batch)
            with bench.tracer.phase(kind):
                start = time.perf_counter()
                try:
                    results += runner.run_cells(
                        batch, jobs=1, trace_length=length, seed=bench.seed,
                        result_cache=cache)
                except Exception as exc:  # a failed sweep fails the run
                    bench.failed += len(batch)
                    bench.check(False, f"{name}: {type(exc).__name__}: {exc}")
                times.append(time.perf_counter() - start)
        return results, bench.timed_pass(kind, times)

    # Each iteration sweeps the grid into an empty result cache of its own
    # (the cold pass), then re-reads the whole grid from it (warm passes).
    # The first iteration's cache is kept for the output checks.
    first: List[Any] = []
    passes = 0
    for index in bench.iterations():
        cache = ResultCache(bench.work_dir / f"grid-{index}")
        for kind in ("cold",) + ("warm",) * WARM_ROUNDS:
            results, seconds = sweep(kind, cache)
            bench.timed_s += seconds
            passes += 1
            first = first or results
            bench.check(len(results) == len(first)
                        and all(map(same_stats, first, results)),
                        f"grid pass {passes} differs from pass 1")
        if index:
            shutil.rmtree(cache.directory, ignore_errors=True)
    bench.metrics["peak_rss_mib"] = peak_rss_mib()

    with bench.tracer.phase("check"):
        check(bench, cells, first, ResultCache(bench.work_dir / "grid-0"),
              length)
    bench.layers["cells_per_s"] = len(cells) / sum(bench.segments["cold"][0])


def check(bench: Run, cells: Sequence[Any], first: List[Any],
          cache: Any, length: int) -> None:
    """The first pass equals its cache re-reads and the reference.

    ``cache`` holds the grid of that pass.
    """
    from repro.predictors import simulate
    from repro.runner import cell_key
    from repro.workloads import get_trace

    if first:
        for cell, stats in zip(cells, first):
            cached = cache.load(cell_key(cell.benchmark, cell.config, length,
                                         bench.seed))
            bench.check(cached is not None and same_stats(cached, stats),
                        f"{cell.benchmark} {cell.config}: cache re-read differs")
        for index in reference_sample(cells):
            cell = cells[index]
            trace = get_trace(cell.benchmark, n_instructions=length,
                              seed=bench.seed)
            bench.check(same_stats(simulate(trace, cell.config), first[index]),
                        f"{cell.benchmark} {tier(cell.config)} cell differs "
                        "from the reference simulate")
