"""The JSONL run ledger: sharding, merging, crash-safety, and neutrality.

The two load-bearing guarantees:

* **Process safety** — every process writes only its own pid-named shard,
  the parent merges on close, and a worker killed mid-run costs at most
  its unflushed tail (never a torn line in the merged ledger).
* **Result neutrality** — simulation outputs are bit-identical with the
  ledger enabled and disabled; obs only observes.
"""

import json
import os

import numpy as np
import pytest

from repro.guest.isa import BranchKind
from repro.obs import LedgerSink, get_sink, install, read_ledger, shutdown
from repro.predictors import EngineConfig, HistoryConfig, HistorySource, TargetCacheConfig
from repro.runner import SweepCell, run_cells

TRACE_LENGTH = 20_000

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


@pytest.fixture(autouse=True)
def _restore_sink():
    previous = get_sink()
    yield
    install(previous)


def _assert_identical(a, b):
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


class TestShardMechanics:
    def test_shard_exists_immediately_with_the_run_start_event(self, tmp_path):
        ledger = tmp_path / "run.jsonl"
        sink = LedgerSink(ledger)
        shard = tmp_path / f"run.jsonl.{os.getpid()}.part"
        assert shard.exists()
        [record] = [json.loads(line) for line in
                    shard.read_text().splitlines()]
        assert record["kind"] == "run"
        assert record["name"] == "start"
        assert record["role"] == "parent"
        assert record["pid"] == os.getpid()
        sink.close()

    def test_events_buffer_until_flush(self, tmp_path):
        sink = LedgerSink(tmp_path / "run.jsonl")
        shard = tmp_path / f"run.jsonl.{os.getpid()}.part"
        before = shard.read_text()
        sink.event("pool.chunk", cells=7)
        assert shard.read_text() == before  # buffered
        sink.flush()
        last = json.loads(shard.read_text().splitlines()[-1])
        assert last["kind"] == "event"
        assert last["meta"] == {"cells": 7}
        sink.close()

    def test_counters_accumulate_and_drain_once_per_flush(self, tmp_path):
        sink = LedgerSink(tmp_path / "run.jsonl")
        for _ in range(5):
            sink.incr("hits")
        sink.incr("hits", 10)
        sink.close()
        records = read_ledger(tmp_path / "run.jsonl")
        counters = [r for r in records if r["kind"] == "counter"]
        assert counters == [
            {"t": counters[0]["t"], "pid": os.getpid(), "kind": "counter",
             "name": "hits", "value": 15}
        ]

    def test_invalid_role_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="role"):
            LedgerSink(tmp_path / "run.jsonl", role="supervisor")

    def test_parent_clears_stale_shards_from_a_crashed_run(self, tmp_path):
        stale = tmp_path / "run.jsonl.99999.part"
        stale.write_text('{"kind":"span"}\n')
        sink = LedgerSink(tmp_path / "run.jsonl")
        assert not stale.exists()
        sink.close()

    def test_worker_role_never_merges(self, tmp_path):
        ledger = tmp_path / "run.jsonl"
        worker = LedgerSink(ledger, role="worker")
        worker.event("from-worker")
        worker.close()
        assert not ledger.exists()  # only the parent writes the final path
        shard = tmp_path / f"run.jsonl.{os.getpid()}.part"
        assert shard.exists()

    def test_closed_sink_drops_further_events(self, tmp_path):
        ledger = tmp_path / "run.jsonl"
        sink = LedgerSink(ledger)
        sink.close()
        n = len(read_ledger(ledger))
        sink.event("late")
        sink.flush()
        sink.close()
        assert len(read_ledger(ledger)) == n


class TestMerge:
    def test_merge_is_parent_first_then_workers_by_pid(self, tmp_path):
        ledger = tmp_path / "run.jsonl"
        sink = LedgerSink(ledger)
        my_pid = os.getpid()
        for fake_pid in (my_pid + 2, my_pid + 1):
            shard = tmp_path / f"run.jsonl.{fake_pid}.part"
            shard.write_text(json.dumps({"pid": fake_pid, "kind": "run",
                                         "name": "start",
                                         "role": "worker"}) + "\n")
        sink.close()
        pids = [record["pid"] for record in read_ledger(ledger)]
        assert pids == [my_pid, my_pid + 1, my_pid + 2]
        assert list(tmp_path.glob("*.part")) == []

    def test_merge_drops_torn_trailing_bytes(self, tmp_path):
        ledger = tmp_path / "run.jsonl"
        sink = LedgerSink(ledger)
        shard = tmp_path / "run.jsonl.99999.part"
        complete = json.dumps({"pid": 99999, "kind": "event", "name": "ok"})
        shard.write_text(complete + "\n" + '{"pid": 99999, "kind": "ev')
        sink.close()
        records = read_ledger(ledger)  # raises if any line is malformed
        assert {"pid": 99999, "kind": "event", "name": "ok"} in records

    def test_shard_with_no_complete_line_contributes_nothing(self, tmp_path):
        ledger = tmp_path / "run.jsonl"
        sink = LedgerSink(ledger)
        (tmp_path / "run.jsonl.99999.part").write_text('{"torn')
        sink.close()
        assert all(r["pid"] != 99999 for r in read_ledger(ledger))


class TestPoolLedger:
    def test_parallel_sweep_merges_worker_shards(self, tmp_path):
        ledger = tmp_path / "run.jsonl"
        install(LedgerSink(ledger))
        try:
            cells = [SweepCell("perl", config) for config in CONFIGS]
            run_cells(cells, jobs=2, trace_length=TRACE_LENGTH)
        finally:
            shutdown()
        records = read_ledger(ledger)  # well-formed JSONL or it raises
        assert list(tmp_path.glob("*.part")) == []
        roles = {(r["pid"], r["role"]) for r in records if r["kind"] == "run"}
        worker_pids = {pid for pid, role in roles if role == "worker"}
        parent_pids = {pid for pid, role in roles if role == "parent"}
        assert parent_pids == {os.getpid()}
        assert len(worker_pids) >= 1
        assert worker_pids.isdisjoint(parent_pids)
        # worker cell spans made it through the chunk-boundary flush
        cell_pids = {r["pid"] for r in records
                     if r["kind"] == "span" and r["name"] == "cell"}
        assert cell_pids <= worker_pids
        assert len([r for r in records if r["kind"] == "span"
                    and r["name"] == "cell"]) == len(cells)

    def test_worker_death_leaves_a_wellformed_ledger_with_recovery(
            self, tmp_path, monkeypatch):
        import multiprocessing

        import repro.runner.pool as pool_mod

        if multiprocessing.get_start_method() != "fork":
            pytest.skip("needs fork workers to inherit the monkeypatch")
        monkeypatch.setattr(pool_mod, "_run_chunk", _kill_worker)
        ledger = tmp_path / "run.jsonl"
        install(LedgerSink(ledger))
        try:
            cells = [SweepCell("perl", config) for config in CONFIGS]
            with pytest.warns(UserWarning, match="broke mid-sweep"):
                results = run_cells(cells, jobs=2, trace_length=TRACE_LENGTH)
        finally:
            shutdown()
        assert len(results) == len(cells)
        records = read_ledger(ledger)  # no torn lines despite the kill
        events = {r["name"] for r in records if r["kind"] == "event"}
        assert "pool.broken" in events
        assert "pool.recovery" in events
        recovery = [r for r in records if r["kind"] == "event"
                    and r["name"] == "pool.recovery"]
        assert recovery[0]["meta"]["cells"] == len(cells)
        # the dead workers' run-start lines (flushed at attach) survived
        assert any(r["kind"] == "run" and r["role"] == "worker"
                   for r in records)


class TestTraceGenerationSpan:
    def test_one_span_per_uncached_trace(self, tmp_path):
        """A miss builds, runs and validates the trace inside one
        ``trace.generate`` span; the cache hit after it records none."""
        from repro.workloads import get_trace

        ledger = tmp_path / "run.jsonl"
        install(LedgerSink(ledger))
        try:
            first = get_trace("perl@if_tree", n_instructions=2_000, seed=7)
            assert get_trace("perl@if_tree", n_instructions=2_000, seed=7) == first
        finally:
            shutdown()
        spans = [r for r in read_ledger(ledger)
                 if r["kind"] == "span" and r["name"] == "trace.generate"]
        assert len(spans) == 1
        assert spans[0]["meta"] == {"workload": "perl", "lowering": "if_tree",
                                    "length": 2_000, "seed": 7}
        assert spans[0]["dur"] > 0


class TestResultNeutrality:
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_results_bit_identical_with_obs_on_and_off(self, tmp_path, jobs):
        cells = [SweepCell("perl", config, collect_mask=True)
                 for config in CONFIGS]
        install(LedgerSink(tmp_path / "run.jsonl"))
        try:
            with_obs = run_cells(cells, jobs=jobs, trace_length=TRACE_LENGTH)
        finally:
            shutdown()
        without_obs = run_cells(cells, jobs=jobs, trace_length=TRACE_LENGTH)
        for one, two in zip(with_obs, without_obs):
            _assert_identical(one, two)


def _kill_worker(benchmark, items):
    """Chunk runner that dies like an OOM kill (module-level: workers
    resolve it by reference under fork)."""
    os._exit(1)
