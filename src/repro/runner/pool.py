"""Process-pool sweep executor.

:func:`run_cells` fans ``(benchmark, EngineConfig)`` cells out across
worker processes.  The design goals, in order:

1. **Bit-identical results** regardless of ``jobs``: every cell simulates a
   fresh engine over the identical trace, results are reassembled by cell
   index, and nothing about scheduling leaks into the outputs.
2. **Ship each trace once per worker**, not once per cell: workers receive
   only ``(benchmark, config)`` descriptors (small frozen dataclasses) and
   load traces themselves from the on-disk trace cache.
3. **Pay for the per-branch walk once per (trace, base config)**: one
   :class:`_TraceMemo` per trace holds the trace, its decoded branch rows
   and the :class:`~repro.predictors.streams.BranchStreams` of every
   :func:`~repro.predictors.streams.stream_signature` it has served, and
   one cell function, :func:`_simulate_cell`, serves each cell from the
   fastest execution tier its config supports: the vectorized columnar
   kernel (:func:`~repro.predictors.vector.simulate_vector`) for kinds
   whose registered traits declare ``vectorizable``, else the stream
   kernel (:func:`~repro.predictors.streams.simulate_streamed`), else —
   for history wider than 64 bits — the reference
   :func:`~repro.predictors.engine.simulate`.  Every tier is bit-identical
   to the reference engine, so the choice changes only speed.
4. **Near-free warm re-runs**: cells whose
   :func:`~repro.runner.keys.cell_key` is already in the persistent
   :class:`~repro.runner.cache.ResultCache` never reach a worker.

The serial path (``jobs=1``) runs in-process through the same cell
function, with one memo per trace for the length of one :func:`run_cells`
call; a pool worker keeps its memos for its lifetime.  A worker pool that
breaks mid-sweep (a worker killed by the OOM killer or a signal) is
downgraded to the serial path for whatever cells were still outstanding,
with a warning.

Every layer is instrumented through :mod:`repro.obs` (a no-op unless a
run ledger is enabled): per-cell spans with the kernel used, result-cache
hit/miss counters, stream build/reuse telemetry, chunk-scheduling events,
and pool lifecycle events (including ``BrokenProcessPool`` recovery).
When the parent's sink is a ledger, workers attach their own shard via
the pool initializer and flush at chunk boundaries.
"""

from __future__ import annotations

import os
import warnings
from concurrent.futures import (
    Executor,
    ProcessPoolExecutor,
    ThreadPoolExecutor,
    as_completed,
)
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, TypeVar

from repro.obs import attach_worker, get_sink
from repro.predictors import (
    BranchStreams,
    EngineConfig,
    PredictionStats,
    StreamConfig,
    build_streams,
    decode_branches,
    load_plugins,
    plugin_modules,
    simulate,
    simulate_streamed,
    simulate_vector,
    stream_signature,
    streams_supported,
    vector_supported,
)
from repro.runner.cache import ResultCache
from repro.runner.keys import cacheable, cell_key
from repro.trace.trace import Trace
from repro.workloads import get_trace


@dataclass(frozen=True)
class SweepCell:
    """One sweep cell: simulate ``benchmark`` under ``config``.

    ``collect_mask`` asks for the per-instruction mispredict mask (needed
    by the timing model; costs one bool per instruction).
    """

    benchmark: str
    config: EngineConfig
    collect_mask: bool = False


def default_jobs() -> int:
    """Worker-process count when the caller does not specify one.

    ``REPRO_JOBS`` overrides; the default is 1 (serial) so library users
    and tests never fork unless asked to.
    """
    # Sizes the worker pool; results are reassembled by cell index and do
    # not depend on parallelism.
    value = os.environ.get("REPRO_JOBS", "").strip()  # repro-lint: ignore[det-env-read]
    if value:
        try:
            return max(1, int(value))
        except ValueError:
            warnings.warn(f"ignoring non-integer REPRO_JOBS={value!r}")
    return 1


# ----------------------------------------------------------------------
# One cell, whichever path submitted it.
# ----------------------------------------------------------------------
class _TraceMemo:
    """One trace with its decoded branch rows and its streams by signature.

    Each :class:`BranchStreams` is built at most once per memo.  The serial
    path keeps a memo per trace for one :func:`run_cells` call; a pool
    worker keeps one per trace for its lifetime.
    """

    def __init__(self, benchmark: str, trace: Trace) -> None:
        self.benchmark = benchmark
        self.trace = trace
        self.decoded = decode_branches(trace)
        self.streams: Dict[StreamConfig, BranchStreams] = {}


def _simulate_cell(memo: _TraceMemo, config: EngineConfig,
                   collect_mask: bool) -> PredictionStats:
    """Serve one cell from the fastest execution tier its config supports.

    The vector kernel if :func:`vector_supported`, else the stream kernel
    if :func:`streams_supported`, else the reference engine.  The stream
    build stays outside the ``cell`` span, which times the kernel alone.
    """
    sink = get_sink()
    if not streams_supported(config):
        sink.incr("runner.backend.engine")
        with sink.span("cell", benchmark=memo.benchmark, kernel="reference"):
            return simulate(memo.trace, config, collect_mask=collect_mask,
                            decoded=memo.decoded)
    signature = stream_signature(config)
    streams = memo.streams.get(signature)
    if streams is None:
        with sink.span("streams.build", benchmark=memo.benchmark):
            streams = build_streams(memo.decoded, signature)
        memo.streams[signature] = streams
    else:
        sink.incr("streams.reuse")
    if vector_supported(config):
        sink.incr("runner.backend.vector")
        with sink.span("cell", benchmark=memo.benchmark, kernel="vector"):
            return simulate_vector(streams, config, collect_mask=collect_mask)
    sink.incr("runner.backend.streams")
    with sink.span("cell", benchmark=memo.benchmark, kernel="stream"):
        return simulate_streamed(streams, config, collect_mask=collect_mask)


# ----------------------------------------------------------------------
# Worker side.  State lives in module globals set by the pool initializer;
# each worker loads a benchmark's trace into a memo at most once.
# ----------------------------------------------------------------------
_WORKER_STATE: Optional[Dict[str, Any]] = None


def _init_worker(trace_length: int, seed: int, use_trace_cache: bool,
                 trace_cache_dir: Optional[str],
                 ledger_path: Optional[str],
                 predictor_plugins: Tuple[str, ...] = ()) -> None:
    # The whole point of the initializer is to install per-worker state;
    # it never leaks into results (cells are pure functions of their
    # spec) and each worker owns its copy exclusively.
    global _WORKER_STATE  # repro-lint: ignore[worker-global-write]
    if trace_cache_dir is not None:
        # Propagate the parent's cache location even under a spawn start
        # method, where mutated parent environment is not inherited.
        # Written once, before any task runs, in this process only.
        os.environ["REPRO_TRACE_CACHE"] = trace_cache_dir  # repro-lint: ignore[det-env-read, worker-env-mutate]
    if ledger_path is not None:
        # Replace any fork-inherited parent sink with a worker-role sink
        # writing this process's own ledger shard.
        attach_worker(ledger_path)
    if predictor_plugins:
        # Re-import the modules that registered third-party predictor
        # kinds in the parent so the same kinds resolve here.  Under the
        # fork start method the registrations are inherited anyway; this
        # covers spawn, where the worker starts from a fresh interpreter.
        load_plugins(predictor_plugins)
    _WORKER_STATE = {
        "trace_length": trace_length,
        "seed": seed,
        "use_trace_cache": use_trace_cache,
        "memos": {},
    }


def _run_chunk(benchmark: str,
               items: List[Tuple[int, EngineConfig, bool]]
               ) -> List[Tuple[int, PredictionStats]]:
    state = _WORKER_STATE
    assert state is not None, "worker used before _init_worker"
    memo = state["memos"].get(benchmark)
    if memo is None:
        memo = _TraceMemo(benchmark, get_trace(
            benchmark, n_instructions=state["trace_length"],
            seed=state["seed"], use_cache=state["use_trace_cache"],
        ))
        # Per-worker memo: keyed by benchmark, value deterministic given
        # the spec, so replication across workers cannot diverge.
        state["memos"][benchmark] = memo  # repro-lint: ignore[worker-global-write]
    out = [(index, _simulate_cell(memo, config, collect_mask))
           for index, config, collect_mask in items]
    # Chunk boundary: persist this worker's shard so nothing is lost if
    # the pool later breaks (the parent merges whatever was flushed).
    get_sink().flush()
    return out


def _service_cell(benchmark: str, config: EngineConfig,
                  collect_mask: bool = False) -> PredictionStats:
    """Worker entry point for single-cell service submissions.

    The sweep service schedules cells one at a time (its shard scheduler
    owns batching, dedup and cache policy in the parent), so its pool
    tasks are single cells rather than chunks.  Delegates to
    :func:`_run_chunk`, so a cell takes the same per-worker memo and cell
    function as a batch sweep and computes the same bytes no matter which
    front end submitted it.
    """
    return _run_chunk(benchmark, [(0, config, collect_mask)])[0][1]


# ----------------------------------------------------------------------
# Parent side.
# ----------------------------------------------------------------------
_T = TypeVar("_T")


def _group_by_signature(
    items: List[Tuple[int, EngineConfig, bool]]
) -> List[Tuple[int, EngineConfig, bool]]:
    """Reorder ``items`` so cells sharing a stream signature are adjacent.

    Chunked contiguously, cells with one signature land in as few workers
    as possible, so each :class:`BranchStreams` is built at most once per
    worker that needs it (results are reassembled by cell index, so the
    order here never leaks into outputs).  Unsupported cells group under
    ``None``.  First-seen signature order keeps the schedule deterministic.
    """
    groups: Dict[Optional[StreamConfig],
                 List[Tuple[int, EngineConfig, bool]]] = {}
    for item in items:
        config = item[1]
        signature = (
            stream_signature(config) if streams_supported(config) else None
        )
        groups.setdefault(signature, []).append(item)
    return [item for group in groups.values() for item in group]


def _split_chunks(items: List[_T], pieces: int) -> List[List[_T]]:
    if not items:
        return []
    pieces = max(1, min(pieces, len(items)))
    base, extra = divmod(len(items), pieces)
    chunks: List[List[_T]] = []
    start = 0
    for i in range(pieces):
        size = base + (1 if i < extra else 0)
        chunks.append(items[start:start + size])
        start += size
    return chunks


def run_cells(cells: Sequence[SweepCell], jobs: Optional[int] = None, *,
              trace_length: int = 400_000, seed: int = 1997,
              use_trace_cache: bool = True,
              result_cache: Optional[ResultCache] = None,
              trace_provider: Optional[Callable[[str], Trace]] = None
              ) -> List[PredictionStats]:
    """Simulate every cell, returning stats in the order given.

    ``result_cache`` (usually :meth:`ResultCache.from_env`) short-circuits
    cells simulated before and stores the rest; cells whose predictor kind
    is not ``deterministic`` bypass it (:func:`~repro.runner.keys.cacheable`).
    ``trace_provider`` lets a caller with traces already in memory (e.g.
    ``ExperimentContext.trace``) supply them instead of hitting the disk
    cache.  Duplicate cells are simulated once.
    """
    jobs = default_jobs() if jobs is None else max(1, jobs)
    sink = get_sink()
    results: List[Optional[PredictionStats]] = [None] * len(cells)

    # Deduplicate and consult the persistent cache.  A cell needs the mask
    # if *any* duplicate asked for it.
    unique: Dict[Tuple[str, EngineConfig], List[int]] = {}
    for index, cell in enumerate(cells):
        unique.setdefault((cell.benchmark, cell.config), []).append(index)
    pending: List[Tuple[str, EngineConfig, bool]] = []
    keys: Dict[Tuple[str, EngineConfig], str] = {}
    for (benchmark, config), indices in unique.items():
        need_mask = any(cells[i].collect_mask for i in indices)
        if result_cache is not None and cacheable(config):
            key = cell_key(benchmark, config, trace_length, seed)
            keys[(benchmark, config)] = key
            hit = result_cache.load(key, need_mask=need_mask)
            if hit is not None:
                sink.incr("runner.cell_cache.hit")
                for i in indices:
                    results[i] = hit
                continue
            sink.incr("runner.cell_cache.miss")
        pending.append((benchmark, config, need_mask))

    if pending:
        computed = _compute(pending, jobs, trace_length, seed,
                            use_trace_cache, trace_provider)
        for (benchmark, config, _), stats in zip(pending, computed):
            key = keys.get((benchmark, config))
            if result_cache is not None and key is not None:
                result_cache.store(key, stats)
            for i in unique[(benchmark, config)]:
                results[i] = stats
    return results  # type: ignore[return-value]


def _compute(pending: List[Tuple[str, EngineConfig, bool]], jobs: int,
             trace_length: int, seed: int, use_trace_cache: bool,
             trace_provider: Optional[Callable[[str], Trace]]
             ) -> List[PredictionStats]:
    """Simulate ``pending`` cells, in order, serially or via the pool."""

    def load_trace(benchmark: str) -> Trace:
        if trace_provider is not None:
            return trace_provider(benchmark)
        return get_trace(benchmark, n_instructions=trace_length, seed=seed,
                         use_cache=use_trace_cache)

    by_benchmark: Dict[str, List[Tuple[int, EngineConfig, bool]]] = {}
    for position, (benchmark, config, need_mask) in enumerate(pending):
        by_benchmark.setdefault(benchmark, []).append(
            (position, config, need_mask)
        )

    sink = get_sink()
    out: List[Optional[PredictionStats]] = [None] * len(pending)
    if jobs <= 1 or len(pending) == 1:
        for benchmark, items in by_benchmark.items():
            memo = _TraceMemo(benchmark, load_trace(benchmark))
            for position, config, need_mask in items:
                out[position] = _simulate_cell(memo, config, need_mask)
        return out  # type: ignore[return-value]

    # Parallel path: make sure each trace exists on disk exactly once
    # before forking, so workers load rather than regenerate it.
    if use_trace_cache:
        for benchmark in by_benchmark:
            load_trace(benchmark)
    chunks = [
        (benchmark, chunk)
        for benchmark, items in by_benchmark.items()
        for chunk in _split_chunks(_group_by_signature(items), jobs)
    ]
    workers = min(jobs, len(chunks))
    sink.gauge("pool.jobs", workers)
    for benchmark, chunk in chunks:
        sink.event("pool.chunk", benchmark=benchmark, cells=len(chunk))
    pool_broke = False
    try:
        with sink.span("pool.run", jobs=workers, chunks=len(chunks),
                       cells=len(pending)):
            with ProcessPoolExecutor(
                max_workers=workers,
                initializer=_init_worker,
                # Forwarding the trace-cache location to workers relocates
                # files only; trace fingerprints key the cached contents.
                initargs=(trace_length, seed, use_trace_cache,
                          os.environ.get("REPRO_TRACE_CACHE"),  # repro-lint: ignore[det-env-read]
                          sink.ledger_path,
                          tuple(plugin_modules())),
            ) as pool:
                try:
                    futures = [
                        pool.submit(_run_chunk, benchmark, chunk)
                        for benchmark, chunk in chunks
                    ]
                    for future in as_completed(futures):
                        for position, stats in future.result():
                            out[position] = stats
                except BrokenProcessPool as exc:
                    # A worker died mid-sweep (OOM killer, signal, crash).
                    # Chunks that already returned are kept; everything
                    # else is recomputed serially below.
                    pool_broke = True
                    sink.event("pool.broken", error=str(exc))
                    warnings.warn(
                        f"worker pool broke mid-sweep ({exc}); finishing "
                        "the remaining cells serially"
                    )
    except (OSError, PermissionError) as exc:  # e.g. sandboxed /dev/shm
        sink.event("pool.unavailable", error=str(exc))
        warnings.warn(
            f"process pool unavailable ({exc}); running sweep serially"
        )
        return _compute(pending, 1, trace_length, seed, use_trace_cache,
                        trace_provider)
    if pool_broke:
        remaining = [i for i, stats in enumerate(out) if stats is None]
        sink.event("pool.recovery", cells=len(remaining))
        redone = _compute([pending[i] for i in remaining], 1, trace_length,
                          seed, use_trace_cache, trace_provider)
        for i, stats in zip(remaining, redone):
            out[i] = stats
    return out  # type: ignore[return-value]


# ----------------------------------------------------------------------
# Reentrant pool handle (the sweep service's execution backend).
# ----------------------------------------------------------------------
class SweepPool:
    """A long-lived, reentrant pool handle for single-cell submissions.

    :func:`run_cells` owns its pool for the duration of one sweep and
    tears it down after; a long-running server wants the opposite — one
    warm pool whose workers keep their trace/stream memos across requests
    — and it submits from an asyncio event loop, one cell at a time, via
    ``loop.run_in_executor(pool.executor, ...)``.  ``jobs >= 1`` builds a
    :class:`ProcessPoolExecutor` with the same initializer as
    :func:`run_cells`, so every worker-side memo and execution-tier rule
    applies unchanged.  ``jobs == 0`` (or :meth:`degrade_to_thread` after
    a broken/unavailable process pool) swaps in a single-thread executor
    that runs :func:`_init_worker` in its one thread: the same worker
    machinery, serialised, with no fork — the fallback for sandboxed
    environments and the deterministic mode tests use.

    Thread mode deliberately passes ``ledger_path=None`` and
    ``trace_cache_dir=None`` to the initializer: the "worker" shares the
    parent process, whose sink and environment are already in place —
    attaching a worker-role sink in-process would clobber the parent's.
    """

    def __init__(self, jobs: Optional[int] = None, *,
                 trace_length: int = 400_000, seed: int = 1997,
                 use_trace_cache: bool = True) -> None:
        self.jobs = default_jobs() if jobs is None else max(0, jobs)
        self.trace_length = trace_length
        self.seed = seed
        self.use_trace_cache = use_trace_cache
        self._mode = "process" if self.jobs >= 1 else "thread"
        self._executor: Optional[Executor] = None

    @property
    def mode(self) -> str:
        """``"process"`` or ``"thread"`` (the degraded/inline mode)."""
        return self._mode

    @property
    def workers(self) -> int:
        return self.jobs if self._mode == "process" else 1

    @property
    def executor(self) -> Executor:
        """The live executor, built lazily on first use."""
        if self._executor is None:
            if self._mode == "process":
                self._executor = ProcessPoolExecutor(
                    max_workers=self.jobs,
                    initializer=_init_worker,
                    initargs=(self.trace_length, self.seed,
                              self.use_trace_cache,
                              os.environ.get("REPRO_TRACE_CACHE"),  # repro-lint: ignore[det-env-read]
                              get_sink().ledger_path,
                              tuple(plugin_modules())),
                )
            else:
                self._executor = ThreadPoolExecutor(
                    max_workers=1,
                    thread_name_prefix="repro-sweep",
                    initializer=_init_worker,
                    initargs=(self.trace_length, self.seed,
                              self.use_trace_cache, None, None),
                )
        return self._executor

    def degrade_to_thread(self) -> None:
        """Swap a broken/unavailable process pool for the thread fallback.

        Idempotent; pending futures on the old executor are abandoned to
        their owners (the scheduler resubmits), and results are unaffected
        — every execution mode is bit-identical by construction.
        """
        old = self._executor
        self._mode = "thread"
        self._executor = None
        get_sink().event("pool.degraded", mode="thread")
        if old is not None:
            old.shutdown(wait=False)

    def close(self) -> None:
        if self._executor is not None:
            self._executor.shutdown(wait=True)
            self._executor = None

    def __enter__(self) -> "SweepPool":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()
