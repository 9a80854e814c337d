"""The program's layers as the traced run sees them, and their metrics.

:data:`TARGETS` names every public call the traced run wraps, at the
dotted name its caller looks it up under, with the span name it records.
:func:`layer_metrics` folds one phase of a :class:`~perfbench.tracing.Tracer`
into the per-layer metric names ``BENCHMARK.json`` declares; for the
sweep service, :func:`ledger_metrics` reads the same layers from the
server's own run ledger instead.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

from perfbench.tracing import ResultHook, Tracer


def _count_cells(prefix: str) -> ResultHook:
    def hook(tracer: Tracer, stats: Any) -> None:
        tracer.count(f"{prefix}_cells")
        tracer.count("predictors.mispredicts_total", stats.branch_mispredictions)
    return hook


def _count_loads(tracer: Tracer, stats: Any) -> None:
    tracer.count("runner.cache.loads")
    tracer.count("runner.cache.hits", stats is not None)


#: (target, span name, result hook).  Several targets may share a span name
#: when one layer is reached through more than one name.
TARGETS: List[Tuple[str, str, Optional[ResultHook]]] = [
    # guest
    ("repro.workloads.registry.run_program", "guest.vm",
     lambda tracer, raw: tracer.count("guest.instructions", len(raw.pc))),
    ("repro.workloads.registry.WorkloadSpec.build", "guest.build", None),
    # trace
    ("repro.trace.trace.Trace.from_raw", "trace.from_raw", None),
    ("repro.trace.trace.Trace.validate", "trace.from_raw", None),
    ("repro.trace.io.save_trace", "trace.save", None),
    ("repro.trace.io.load_trace", "trace.load", None),
    # predictors (looked up by the sweep runner)
    ("repro.runner.pool.decode_branches", "predictors.decode", None),
    ("repro.runner.pool.build_streams", "predictors.build_streams",
     lambda tracer, streams: tracer.count("predictors.subset_rows",
                                          streams.subset_size)),
    ("repro.runner.pool.simulate_vector", "predictors.vector",
     _count_cells("predictors.vector")),
    ("repro.runner.pool.simulate_streamed", "predictors.streamed",
     _count_cells("predictors.streamed")),
    ("repro.runner.pool.simulate", "predictors.engine",
     _count_cells("predictors.engine")),
    # runner
    ("repro.runner.run_cells", "runner.run_cells", None),
    ("repro.experiments.common.run_cells", "runner.run_cells", None),
    ("repro.runner.cache.ResultCache.load", "runner.cache.load", _count_loads),
    ("repro.runner.cache.ResultCache.store", "runner.cache.store", None),
    ("repro.runner.cache.ResultCache.load_cycles", "runner.cache.cycles", None),
    ("repro.runner.cache.ResultCache.store_cycles", "runner.cache.cycles", None),
    # pipeline
    ("repro.experiments.common.run_timing", "pipeline.timing",
     lambda tracer, result: tracer.count("pipeline.cycles_total", result.cycles)),
    ("repro.experiments.common.memory_penalties", "pipeline.penalties", None),
    # experiments
    ("repro.experiments.common.run_experiment", "experiments.run", None),
    ("repro.experiments.common.ExperimentTable.format", "experiments.render",
     None),
]

#: Per-layer metric names, in the order ``BENCHMARK.json`` lists them.
METRICS: List[Tuple[str, str]] = [
    ("guest.vm_s", "s"), ("guest.build_s", "s"),
    ("guest.instructions", "count"), ("guest.kinstr_per_s", "1/s"),
    ("trace.from_raw_s", "s"), ("trace.save_s", "s"), ("trace.load_s", "s"),
    ("trace.cache_hits", "count"), ("trace.cache_misses", "count"),
    ("predictors.decode_s", "s"), ("predictors.build_streams_s", "s"),
    ("predictors.build_streams_calls", "count"),
    ("predictors.vector_s", "s"), ("predictors.vector_cells", "count"),
    ("predictors.streamed_s", "s"), ("predictors.streamed_cells", "count"),
    ("predictors.engine_s", "s"), ("predictors.engine_cells", "count"),
    ("predictors.subset_rows", "count"),
    ("predictors.mispredicts_total", "count"),
    ("runner.run_cells_self_s", "s"), ("runner.cache.load_s", "s"),
    ("runner.cache.loads", "count"), ("runner.cache.hit_ratio", "ratio"),
    ("runner.cache.store_s", "s"), ("runner.cache.stores", "count"),
    ("runner.cache.cycles_s", "s"),
    ("pipeline.timing_s", "s"), ("pipeline.timing_runs", "count"),
    ("pipeline.cycles_total", "count"), ("pipeline.penalties_s", "s"),
    ("experiments.self_s", "s"), ("experiments.render_s", "s"),
    ("service.post_ms_p50", "ms"), ("service.wait_ms_p50", "ms"),
    ("service.wait_ms_p99", "ms"), ("service.computed", "count"),
    ("service.cache_hits", "count"), ("service.dedups", "count"),
    ("service.steals", "count"), ("service.saved_ratio", "ratio"),
    ("service.request_s", "s"), ("service.cell_s", "s"),
    ("run.unattributed_s", "s"), ("run.tracing_overhead_ratio", "ratio"),
    # workload-level numbers, from the untraced reference run
    ("paper_err_pp", "pp"), ("cells_per_s", "1/s"), ("requests_per_s", "1/s"),
    ("latency_p50_ms", "ms"), ("latency_p99_ms", "ms"),
]


def install(tracer: Tracer) -> None:
    """Wrap every layer target, plus the trace cache's hit/miss counter."""
    for target, name, hook in TARGETS:
        tracer.timed(target, name, hook)

    def count_trace_cache(original: Callable[..., Any]) -> Callable[..., Any]:
        def cached_trace(key: str, generate: Callable[[], Any],
                         *args: Any, **kwargs: Any) -> Any:
            missed: List[bool] = []

            def generate_and_flag() -> Any:
                missed.append(True)
                return generate()

            trace = original(key, generate_and_flag, *args, **kwargs)
            tracer.count("trace.cache_misses" if missed else "trace.cache_hits")
            return trace
        return cached_trace

    tracer.patch("repro.workloads.registry.cached_trace", count_trace_cache)


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


#: The phases a workload times: its cold pass and its warm passes.
TIMED = ("cold", "warm")


def layer_metrics(tracer: Tracer, *phases: str) -> Dict[str, float]:
    """Every tracer-derived per-layer metric over ``phases``."""
    phases = phases or TIMED
    self_s = tracer.self_times(*phases)
    calls = tracer.calls(*phases)
    counts = tracer.phase_counts(*phases)
    vm_s = self_s.get("guest.vm", 0.0)
    instructions = counts.get("guest.instructions", 0)
    loads = counts.get("runner.cache.loads", 0)
    return {
        "guest.vm_s": vm_s,
        "guest.build_s": self_s.get("guest.build", 0.0),
        "guest.instructions": instructions,
        "guest.kinstr_per_s": _ratio(instructions, vm_s) / 1000,
        "trace.from_raw_s": self_s.get("trace.from_raw", 0.0),
        "trace.save_s": self_s.get("trace.save", 0.0),
        "trace.load_s": self_s.get("trace.load", 0.0),
        "trace.cache_hits": counts.get("trace.cache_hits", 0),
        "trace.cache_misses": counts.get("trace.cache_misses", 0),
        "predictors.decode_s": self_s.get("predictors.decode", 0.0),
        "predictors.build_streams_s": self_s.get("predictors.build_streams", 0.0),
        "predictors.build_streams_calls": calls.get("predictors.build_streams", 0),
        "predictors.vector_s": self_s.get("predictors.vector", 0.0),
        "predictors.vector_cells": counts.get("predictors.vector_cells", 0),
        "predictors.streamed_s": self_s.get("predictors.streamed", 0.0),
        "predictors.streamed_cells": counts.get("predictors.streamed_cells", 0),
        "predictors.engine_s": self_s.get("predictors.engine", 0.0),
        "predictors.engine_cells": counts.get("predictors.engine_cells", 0),
        "predictors.subset_rows": counts.get("predictors.subset_rows", 0),
        "predictors.mispredicts_total":
            counts.get("predictors.mispredicts_total", 0),
        "runner.run_cells_self_s": self_s.get("runner.run_cells", 0.0),
        "runner.cache.load_s": self_s.get("runner.cache.load", 0.0),
        "runner.cache.loads": loads,
        "runner.cache.hit_ratio": _ratio(counts.get("runner.cache.hits", 0), loads),
        "runner.cache.store_s": self_s.get("runner.cache.store", 0.0),
        "runner.cache.stores": calls.get("runner.cache.store", 0),
        "runner.cache.cycles_s": self_s.get("runner.cache.cycles", 0.0),
        "pipeline.timing_s": self_s.get("pipeline.timing", 0.0),
        "pipeline.timing_runs": calls.get("pipeline.timing", 0),
        "pipeline.cycles_total": counts.get("pipeline.cycles_total", 0),
        "pipeline.penalties_s": self_s.get("pipeline.penalties", 0.0),
        "experiments.self_s": self_s.get("experiments.run", 0.0),
        "experiments.render_s": self_s.get("experiments.render", 0.0),
        "run.unattributed_s": tracer.unattributed(*phases),
    }


def fired(tracer: Tracer) -> Dict[str, int]:
    """Calls per span name over the whole run, every phase included."""
    totals: Dict[str, int] = {}
    for span in tracer.spans:
        totals[span.name] = totals.get(span.name, 0) + 1
    return totals


def ledger_metrics(paths: List[Path]) -> Dict[str, float]:
    """Server-side layer numbers from ``repro serve --obs-ledger`` ledgers.

    ``paths`` holds one ledger per server of the run; the numbers are
    summed over them.  The service's pool worker records a ``cell`` span
    per computed cell (tagged with its kernel) and a ``streams.build``
    span per stream build; the server records a ``service.request`` span
    per HTTP request and ``result_cache.*`` counters.
    """
    kernels = {"vector": "predictors.vector", "stream": "predictors.streamed",
               "reference": "predictors.engine"}
    out: Dict[str, float] = {
        "predictors.build_streams_s": 0.0, "predictors.build_streams_calls": 0,
        "service.request_s": 0.0, "service.cell_s": 0.0,
        "runner.cache.loads": 0, "runner.cache.stores": 0,
    }
    for prefix in kernels.values():
        out[f"{prefix}_s"] = 0.0
        out[f"{prefix}_cells"] = 0
    hits = 0
    for line in (line for path in paths
                 for line in path.read_text().splitlines()):
        record = json.loads(line)
        kind, name = record.get("kind"), record.get("name")
        if kind == "span" and name == "cell":
            prefix = kernels[record["meta"]["kernel"]]
            out[f"{prefix}_s"] += record["dur"]
            out[f"{prefix}_cells"] += 1
            out["service.cell_s"] += record["dur"]
        elif kind == "span" and name == "streams.build":
            out["predictors.build_streams_s"] += record["dur"]
            out["predictors.build_streams_calls"] += 1
        elif kind == "span" and name == "service.request":
            out["service.request_s"] += record["dur"]
        elif kind == "counter" and name in ("result_cache.load.hit",
                                            "result_cache.load.miss"):
            out["runner.cache.loads"] += record["value"]
            hits += record["value"] if name.endswith("hit") else 0
        elif kind == "counter" and name == "result_cache.store":
            out["runner.cache.stores"] += record["value"]
    out["runner.cache.hit_ratio"] = _ratio(hits, out["runner.cache.loads"])
    return out
