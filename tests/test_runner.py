"""The parallel sweep runner: bit-for-bit equivalence and memoisation.

The acceptance bar for :mod:`repro.runner` is that parallelism and caching
are *invisible* in the numbers: ``run_cells(jobs=4)``, ``run_cells(jobs=1)``
and a warm-result-cache re-run must produce identical
:class:`PredictionStats` counters and mispredict masks.
"""

import os

import numpy as np
import pytest

from repro.experiments.common import ExperimentContext
from repro.guest.isa import BranchKind
from repro.predictors import (
    EngineConfig,
    HistoryConfig,
    HistorySource,
    TargetCacheConfig,
    simulate,
    simulate_many,
)
from repro.runner import ResultCache, SweepCell, run_cells

TRACE_LENGTH = 20_000

#: A representative slice of the design space: BTB-only baseline, tagless
#: pattern-history, tagged path-history, and a cascaded cache.
CONFIGS = [
    EngineConfig(),
    EngineConfig(target_cache=TargetCacheConfig(kind="tagless")),
    EngineConfig(
        target_cache=TargetCacheConfig(kind="tagged", entries=64, assoc=4),
        history=HistoryConfig(source=HistorySource.PATH_GLOBAL, bits=9),
    ),
    EngineConfig(target_cache=TargetCacheConfig(kind="cascaded", entries=64,
                                                assoc=4)),
]


def _cells():
    return [
        SweepCell(benchmark, config, collect_mask=True)
        for benchmark in ("perl", "gcc")
        for config in CONFIGS
    ]


def assert_identical(a, b):
    assert a.instructions == b.instructions
    assert a.btb_lookups == b.btb_lookups
    assert a.btb_hits == b.btb_hits
    for kind in BranchKind:
        assert a.counters(kind).executed == b.counters(kind).executed
        assert a.counters(kind).mispredicted == b.counters(kind).mispredicted
    if a.mispredict_mask is None:
        assert b.mispredict_mask is None
    else:
        assert np.array_equal(a.mispredict_mask, b.mispredict_mask)


class TestRunCellsEquivalence:
    def test_parallel_serial_and_cached_runs_are_bit_identical(self, tmp_path):
        cache = ResultCache(tmp_path / "results")
        serial = run_cells(_cells(), jobs=1, trace_length=TRACE_LENGTH)
        parallel = run_cells(_cells(), jobs=4, trace_length=TRACE_LENGTH,
                             result_cache=cache)
        cached = run_cells(_cells(), jobs=4, trace_length=TRACE_LENGTH,
                           result_cache=cache)
        for one, two, three in zip(serial, parallel, cached):
            assert_identical(one, two)
            assert_identical(one, three)
        # the runs found real work: indirect jumps exist and the target
        # cache beats the BTB baseline on perl
        assert serial[0].indirect_jumps > 100
        assert serial[1].indirect_mispred_rate < serial[0].indirect_mispred_rate

    def test_matches_direct_simulate(self):
        from repro.workloads import get_trace

        trace = get_trace("perl", n_instructions=TRACE_LENGTH)
        config = CONFIGS[1]
        direct = simulate(trace, config, collect_mask=True)
        [via_runner] = run_cells(
            [SweepCell("perl", config, collect_mask=True)],
            jobs=1, trace_length=TRACE_LENGTH,
        )
        assert_identical(direct, via_runner)

    def test_duplicate_cells_simulated_once_and_shared(self):
        cell = SweepCell("perl", EngineConfig())
        first, second = run_cells([cell, cell], jobs=1,
                                  trace_length=TRACE_LENGTH)
        assert first is second

    def test_results_keep_cell_order(self):
        cells = _cells()
        results = run_cells(cells, jobs=4, trace_length=TRACE_LENGTH)
        # perl and gcc have different instruction mixes; ordering mistakes
        # would pair a perl cell with gcc counters
        perl_branches = results[0].branches
        gcc_branches = results[len(CONFIGS)].branches
        assert perl_branches != gcc_branches
        for i, cell in enumerate(cells):
            expected = perl_branches if cell.benchmark == "perl" else gcc_branches
            assert results[i].branches == expected


class TestSimulateMany:
    def test_bit_identical_to_independent_calls(self):
        from repro.workloads import get_trace

        trace = get_trace("gcc", n_instructions=TRACE_LENGTH)
        batched = simulate_many(trace, CONFIGS, collect_mask=True)
        for config, stats in zip(CONFIGS, batched):
            assert_identical(stats, simulate(trace, config, collect_mask=True))


class TestDecodeReuse:
    """Each trace's branch rows are decoded once per batch, not per cell.

    Counts :func:`~repro.predictors.decode_branches` calls instead of
    timing them: a decode is a few milliseconds against far more engine
    work per batch, below a shared host's timing noise.
    """

    @staticmethod
    def count_decodes(monkeypatch):
        import repro.predictors.engine as engine
        import repro.runner.pool as pool

        calls = []
        real = engine.decode_branches

        def counting(trace):
            calls.append(trace)
            return real(trace)

        monkeypatch.setattr(engine, "decode_branches", counting)
        monkeypatch.setattr(pool, "decode_branches", counting)
        return calls

    def test_simulate_many_decodes_once(self, monkeypatch):
        from repro.workloads import get_trace

        trace = get_trace("gcc", n_instructions=TRACE_LENGTH)
        calls = self.count_decodes(monkeypatch)
        simulate_many(trace, CONFIGS)
        assert calls == [trace]
        calls.clear()
        for config in CONFIGS:
            simulate(trace, config)
        assert len(calls) == len(CONFIGS)

    def test_serial_run_cells_decodes_once_per_trace(self, monkeypatch):
        calls = self.count_decodes(monkeypatch)
        results = run_cells(
            [SweepCell(benchmark, config) for benchmark in ("perl", "gcc")
             for config in CONFIGS],
            jobs=1, trace_length=TRACE_LENGTH, result_cache=None,
        )
        assert len(results) == 2 * len(CONFIGS)
        assert [len(trace) for trace in calls] == [TRACE_LENGTH] * 2
        assert calls[0] is not calls[1]


class TestExperimentContextMemo:
    def test_prediction_memoised_per_config(self):
        ctx = ExperimentContext(trace_length=TRACE_LENGTH)
        first = ctx.prediction("perl", EngineConfig())
        second = ctx.prediction("perl", EngineConfig())
        assert first is second

    def test_baseline_equal_cells_share_the_baseline_run(self):
        ctx = ExperimentContext(trace_length=TRACE_LENGTH)
        baseline = ctx.baseline("perl")
        # a table sweeping EngineConfig() cells must reuse the baseline
        assert ctx.prediction("perl", EngineConfig()) is baseline

    def test_mask_request_upgrades_maskless_memo_entry(self):
        ctx = ExperimentContext(trace_length=TRACE_LENGTH)
        config = CONFIGS[1]
        no_mask = ctx.prediction("perl", config)
        assert no_mask.mispredict_mask is None
        with_mask = ctx.prediction("perl", config, collect_mask=True)
        assert with_mask.mispredict_mask is not None
        # counters must agree between the two runs
        for kind in BranchKind:
            assert (no_mask.counters(kind).executed
                    == with_mask.counters(kind).executed)
            assert (no_mask.counters(kind).mispredicted
                    == with_mask.counters(kind).mispredicted)
        # and the memo now serves the maskful stats for both request kinds
        assert ctx.prediction("perl", config) is with_mask

    def test_batch_predictions_fill_the_memo(self):
        ctx = ExperimentContext(trace_length=TRACE_LENGTH, jobs=2)
        cells = [("perl", config) for config in CONFIGS]
        batch = ctx.predictions(cells)
        for cell, stats in zip(cells, batch):
            assert ctx.prediction(*cell) is stats


def _kill_worker(benchmark, items):
    """Chunk runner that dies abruptly, breaking the whole process pool.

    Module-level so the fork-started workers can unpickle it by reference.
    ``os._exit`` skips all cleanup, like an OOM kill or a stray SIGKILL.
    """
    os._exit(1)


class TestPoolFallback:
    def test_worker_death_mid_sweep_recovers_serially(self, monkeypatch):
        import multiprocessing

        import repro.runner.pool as pool_mod

        if multiprocessing.get_start_method() != "fork":
            pytest.skip("needs fork workers to inherit the monkeypatch")
        monkeypatch.setattr(pool_mod, "_run_chunk", _kill_worker)
        cells = [SweepCell("perl", config, collect_mask=True)
                 for config in CONFIGS]
        with pytest.warns(UserWarning, match="broke mid-sweep"):
            results = run_cells(cells, jobs=2, trace_length=TRACE_LENGTH)
        # the serial retry (which never touches _run_chunk) must deliver
        # every cell, bit-identical to a plain serial run
        reference = run_cells(cells, jobs=1, trace_length=TRACE_LENGTH)
        assert len(results) == len(cells)
        for got, want in zip(results, reference):
            assert_identical(got, want)

    def test_pool_failure_degrades_to_serial(self, monkeypatch):
        import repro.runner.pool as pool_mod

        def broken_pool(*args, **kwargs):
            raise OSError("no process pool in this sandbox")

        monkeypatch.setattr(pool_mod, "ProcessPoolExecutor", broken_pool)
        with pytest.warns(UserWarning, match="running sweep serially"):
            results = run_cells(
                [SweepCell("perl", config) for config in CONFIGS[:2]],
                jobs=4, trace_length=TRACE_LENGTH,
            )
        reference = run_cells(
            [SweepCell("perl", config) for config in CONFIGS[:2]],
            jobs=1, trace_length=TRACE_LENGTH,
        )
        for got, want in zip(results, reference):
            assert_identical(got, want)


class TestSweepPoolWorkerState:
    """Every ``SweepPool`` computes with its own trace length, including
    thread-mode pools, whose initializer runs in the parent process."""

    @staticmethod
    def _instructions(pool):
        from repro.runner.pool import _service_cell

        future = pool.executor.submit(_service_cell, "perl", EngineConfig())
        return future.result().instructions

    def test_pools_in_one_process_do_not_share_state(self):
        from repro.runner import SweepPool

        with SweepPool(0, trace_length=5_000) as first, \
                SweepPool(0, trace_length=8_000) as second, \
                SweepPool(1, trace_length=6_000) as process:
            assert self._instructions(first) == 5_000
            assert self._instructions(second) == 8_000
            assert self._instructions(process) == 6_000
            assert self._instructions(first) == 5_000


class TestSplitChunks:
    """Edge cases of the chunking helper behind ``run_cells``."""

    def test_empty_items_yield_no_chunks(self):
        from repro.runner.pool import _split_chunks

        assert _split_chunks([], 4) == []

    def test_more_pieces_than_items_caps_at_item_count(self):
        from repro.runner.pool import _split_chunks

        chunks = _split_chunks([1, 2], 8)
        assert chunks == [[1], [2]]

    def test_zero_pieces_clamps_to_one(self):
        from repro.runner.pool import _split_chunks

        assert _split_chunks([1, 2, 3], 0) == [[1, 2, 3]]

    def test_order_is_preserved_and_partition_is_exact(self):
        from repro.runner.pool import _split_chunks

        items = list(range(11))
        chunks = _split_chunks(items, 3)
        assert [x for chunk in chunks for x in chunk] == items
        # Balanced: sizes differ by at most one.
        sizes = [len(chunk) for chunk in chunks]
        assert max(sizes) - min(sizes) <= 1


class TestDefaultJobs:
    def test_env_override_is_honoured(self, monkeypatch):
        from repro.runner import default_jobs

        monkeypatch.setenv("REPRO_JOBS", "4")
        assert default_jobs() == 4

    def test_zero_clamps_to_one(self, monkeypatch):
        from repro.runner import default_jobs

        monkeypatch.setenv("REPRO_JOBS", "0")
        assert default_jobs() == 1

    def test_non_integer_warns_and_defaults(self, monkeypatch):
        from repro.runner import default_jobs

        monkeypatch.setenv("REPRO_JOBS", "many")
        with pytest.warns(UserWarning, match="REPRO_JOBS"):
            assert default_jobs() == 1

    def test_unset_defaults_to_serial(self, monkeypatch):
        from repro.runner import default_jobs

        monkeypatch.delenv("REPRO_JOBS", raising=False)
        assert default_jobs() == 1
