"""The sweep service: scheduler savings, HTTP endpoints, multi-instance splits.

The service's contract has two halves.  *Performance*: concurrent
identical cells cost one simulation (in-flight dedup), cached cells cost
zero (result-cache short-circuit), and two instances sharing a cache
directory split a sweep between them (claim files).  *Correctness*: no
matter which savings path a cell takes, the numbers are bit-identical to
a direct ``run_cells`` sweep — scheduling must be invisible in results.
"""

import asyncio
import collections
import contextlib
import json
import os
import select
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.obs import LedgerSink, install, read_ledger, shutdown
from repro.predictors import EngineConfig, TargetCacheConfig
from repro.runner import ResultCache, SweepCell, SweepPool, cell_key, run_cells
from repro.service import SweepService
from repro.service import scheduler as scheduler_module
from repro.service import server as server_module
from repro.service.server import SweepJob
from repro.service.http import ProtocolError, Request
from repro.service.loadgen import (
    ServiceClient,
    build_mix,
    percentile,
    run_load,
    spec_population,
)
from repro.service.scheduler import ShardScheduler
from repro.sweepspec import parse_spec_document

TRACE_LENGTH = 20_000

CONFIGS = [
    EngineConfig(),
    EngineConfig(target_cache=TargetCacheConfig(kind="tagless")),
    EngineConfig(target_cache=TargetCacheConfig(kind="tagged", entries=64,
                                                assoc=2)),
]


def make_pool():
    # Thread mode: deterministic, fork-free, and shares the test process.
    return SweepPool(0, trace_length=TRACE_LENGTH)


def assert_identical(a, b):
    assert a.instructions == b.instructions
    assert a.per_kind.keys() == b.per_kind.keys()
    for kind in a.per_kind:
        assert a.counters(kind).executed == b.counters(kind).executed
        assert (a.counters(kind).mispredicted
                == b.counters(kind).mispredicted)


# ----------------------------------------------------------------------
# Scheduler unit behaviour.
# ----------------------------------------------------------------------
class TestShardScheduler:
    def test_results_match_run_cells(self, tmp_path):
        async def go():
            with make_pool() as pool:
                scheduler = ShardScheduler(
                    pool, shards=3,
                    result_cache=ResultCache(tmp_path / "svc"),
                )
                futures = [scheduler.submit("perl", config)
                           for config in CONFIGS]
                stats = await asyncio.gather(*futures)
                await scheduler.close()
                return stats

        via_service = asyncio.run(go())
        direct = run_cells(
            [SweepCell("perl", config) for config in CONFIGS],
            jobs=1, trace_length=TRACE_LENGTH, result_cache=None,
        )
        for a, b in zip(via_service, direct):
            assert_identical(a, b)

    def test_concurrent_identical_cells_share_one_future(self, tmp_path):
        async def go():
            with make_pool() as pool:
                scheduler = ShardScheduler(
                    pool, shards=2,
                    result_cache=ResultCache(tmp_path / "svc"),
                )
                futures = [scheduler.submit("perl", CONFIGS[0])
                           for _ in range(8)]
                assert len({id(f) for f in futures}) == 1
                await asyncio.gather(*futures)
                counters = dict(scheduler.counters)
                await scheduler.close()
                return counters

        counters = asyncio.run(go())
        assert counters["submitted"] == 8
        assert counters["dedup"] == 7
        assert counters["computed"] == 1

    def test_cache_short_circuits_second_round(self, tmp_path):
        cache_dir = tmp_path / "svc"

        async def one_round():
            with make_pool() as pool:
                scheduler = ShardScheduler(
                    pool, shards=2, result_cache=ResultCache(cache_dir)
                )
                await asyncio.gather(*[
                    scheduler.submit("perl", config) for config in CONFIGS
                ])
                counters = dict(scheduler.counters)
                await scheduler.close()
                return counters

        first = asyncio.run(one_round())
        second = asyncio.run(one_round())
        assert first["computed"] == len(CONFIGS)
        assert second["computed"] == 0
        assert second["cache_hit"] == len(CONFIGS)

    def test_a_cached_cell_resolves_at_submit(self, tmp_path):
        """A cell whose record is cached gets a future that is already done
        when ``submit`` returns: it never enters a shard queue, so it is
        never stolen, and a second submit of it is another cache hit, not a
        dedup of a queued one."""
        cache = ResultCache(tmp_path / "svc")
        direct = run_cells(
            [SweepCell("perl", config) for config in CONFIGS],
            jobs=1, trace_length=TRACE_LENGTH, result_cache=None,
        )

        async def go():
            with make_pool() as pool:
                for config, stats in zip(CONFIGS, direct):
                    cache.store(cell_key("perl", config, pool.trace_length,
                                         pool.seed), stats)
                scheduler = ShardScheduler(pool, shards=4,
                                           result_cache=cache)
                futures, depths = [], []
                for config in CONFIGS + CONFIGS:
                    futures.append(scheduler.submit("perl", config))
                    depths.append(scheduler.queue_depths())
                done = [future.done() for future in futures]
                stats = await asyncio.gather(*futures)
                counters = dict(scheduler.counters)
                await scheduler.close()
                return done, depths, stats, counters

        done, depths, stats, counters = asyncio.run(go())
        assert all(done)
        assert all(depth == [0, 0, 0, 0] for depth in depths), depths
        for got, expected in zip(stats, direct + direct):
            assert_identical(got, expected)
        assert counters["cache_hit"] == 2 * len(CONFIGS)
        assert counters["computed"] == 0
        assert counters["dedup"] == 0
        assert counters["steals"] == 0

    def test_a_maskless_record_does_not_answer_a_mask_request(self, tmp_path):
        cache = ResultCache(tmp_path / "svc")
        [maskless] = run_cells([SweepCell("perl", CONFIGS[1])], jobs=1,
                               trace_length=TRACE_LENGTH, result_cache=None)
        assert maskless.mispredict_mask is None

        async def go():
            with make_pool() as pool:
                cache.store(cell_key("perl", CONFIGS[1], pool.trace_length,
                                     pool.seed), maskless)
                scheduler = ShardScheduler(pool, shards=2,
                                           result_cache=cache)
                future = scheduler.submit("perl", CONFIGS[1],
                                          collect_mask=True)
                queued = (future.done(), sum(scheduler.queue_depths()))
                stats = await future
                counters = dict(scheduler.counters)
                await scheduler.close()
                return queued, stats, counters

        queued, stats, counters = asyncio.run(go())
        assert queued == (False, 1)
        assert stats.mispredict_mask is not None
        assert_identical(stats, maskless)
        assert counters["computed"] == 1
        assert counters["cache_hit"] == 0

    @pytest.mark.parametrize("cached", [True, False],
                             ids=["result-cache", "no-result-cache"])
    def test_a_mask_submit_does_not_share_a_maskless_future(self, tmp_path,
                                                           cached):
        """A mask request for a cell in flight without a mask gets a future
        of its own: the maskless one's stats carry no mask."""
        async def go():
            with SweepPool(0, trace_length=5_000) as pool:
                scheduler = ShardScheduler(
                    pool, shards=2, poll_interval_s=0.01,
                    result_cache=ResultCache(tmp_path / "svc") if cached
                    else None,
                )
                maskless = scheduler.submit("perl", CONFIGS[1])
                masked = scheduler.submit("perl", CONFIGS[1],
                                          collect_mask=True)
                shared = masked is maskless
                stats = await asyncio.gather(maskless, masked)
                counters = dict(scheduler.counters)
                await scheduler.close()
                return shared, stats, counters

        shared, (maskless, masked), counters = asyncio.run(go())
        assert not shared
        assert maskless.mispredict_mask is None
        assert masked.mispredict_mask is not None
        assert len(masked.mispredict_mask) == 5_000
        assert_identical(maskless, masked)
        assert counters["dedup"] == 0
        assert counters["computed"] == 2

    def test_a_remembered_cell_costs_no_record_read(self, tmp_path):
        """Once a scheduler has stored a cell, a maskless submit of it is
        answered from the memo: a done future and no record read, counted
        as a memo hit and as a cache hit."""
        direct = run_cells(
            [SweepCell("perl", config) for config in CONFIGS],
            jobs=1, trace_length=TRACE_LENGTH, result_cache=None,
        )

        async def go():
            with make_pool() as pool:
                cache = ResultCache(tmp_path / "svc")
                scheduler = ShardScheduler(pool, shards=2,
                                           result_cache=cache)
                await asyncio.gather(*[scheduler.submit("perl", config)
                                       for config in CONFIGS])
                before = dict(scheduler.counters)

                def no_read(key, need_mask=False):
                    raise AssertionError(f"record read for {key[:12]}")

                cache.load = no_read
                futures = [scheduler.submit("perl", config)
                           for config in CONFIGS]
                done = [future.done() for future in futures]
                stats = await asyncio.gather(*futures)
                after = dict(scheduler.counters)
                await scheduler.close()
                return before, done, stats, after

        before, done, stats, after = asyncio.run(go())
        assert before["computed"] == len(CONFIGS)
        assert before["memo_hit"] == 0
        assert all(done)
        for got, expected in zip(stats, direct):
            assert_identical(got, expected)
            assert got.mispredict_mask is None
        assert after["memo_hit"] == len(CONFIGS)
        assert after["cache_hit"] == before["cache_hit"] + len(CONFIGS)
        assert after["computed"] == len(CONFIGS)
        assert after["dedup"] == before["dedup"]

    def test_a_maskless_memo_entry_does_not_answer_a_mask_request(
            self, tmp_path):
        async def go():
            with make_pool() as pool:
                scheduler = ShardScheduler(
                    pool, shards=2,
                    result_cache=ResultCache(tmp_path / "svc"))
                maskless = await scheduler.submit("perl", CONFIGS[1])
                future = scheduler.submit("perl", CONFIGS[1],
                                          collect_mask=True)
                queued = (future.done(), sum(scheduler.queue_depths()))
                masked = await future
                counters = dict(scheduler.counters)
                # The mask compute refilled the memo without its mask.
                again = await scheduler.submit("perl", CONFIGS[1])
                memo_hits = scheduler.counters["memo_hit"]
                await scheduler.close()
                return maskless, queued, masked, counters, again, memo_hits

        maskless, queued, masked, counters, again, memo_hits = asyncio.run(
            go())
        assert queued == (False, 1)
        assert maskless.mispredict_mask is None
        assert masked.mispredict_mask is not None
        assert_identical(masked, maskless)
        assert counters["computed"] == 2
        assert counters["memo_hit"] == 0
        assert counters["cache_hit"] == 0
        assert memo_hits == 1
        assert again.mispredict_mask is None
        assert_identical(again, maskless)

    def test_the_result_memo_evicts_its_least_recent_cell(self, tmp_path,
                                                          monkeypatch):
        monkeypatch.setattr(scheduler_module, "RESULT_MEMO_SIZE", 2)

        async def go():
            with make_pool() as pool:
                scheduler = ShardScheduler(
                    pool, shards=2,
                    result_cache=ResultCache(tmp_path / "svc"))
                keys = [cell_key("perl", config, pool.trace_length,
                                 pool.seed) for config in CONFIGS]
                for config in CONFIGS:  # stored in this order
                    await scheduler.submit("perl", config)
                first = list(scheduler._memo)
                for index in (1, 2, 0):
                    await scheduler.submit("perl", CONFIGS[index])
                second = list(scheduler._memo)
                counters = dict(scheduler.counters)
                await scheduler.close()
                return keys, first, second, counters

        keys, first, second, counters = asyncio.run(go())
        assert first == [keys[1], keys[2]]
        # Cells 1 and 2 were memo hits; cell 0 was read from its record,
        # which evicted the least recent entry, cell 1.
        assert second == [keys[2], keys[0]]
        assert counters["memo_hit"] == 2
        assert counters["cache_hit"] == 3
        assert counters["computed"] == len(CONFIGS)

    def test_two_schedulers_with_memos_compute_each_cell_once(self,
                                                              tmp_path):
        """Memos sit in front of the shared cache: mirrored sweeps, twice
        over, still compute every cell once across both instances, and the
        second round is answered from each instance's memo."""
        cache_dir = tmp_path / "shared"

        async def go():
            with make_pool() as pool_a, make_pool() as pool_b:
                schedulers = [
                    ShardScheduler(pool, shards=2,
                                   result_cache=ResultCache(cache_dir),
                                   poll_interval_s=0.01)
                    for pool in (pool_a, pool_b)
                ]
                rounds = []
                for _ in range(2):
                    rounds.append(await asyncio.gather(*[
                        s.submit("perl", config)
                        for config in CONFIGS for s in schedulers
                    ]))
                counters = [dict(s.counters) for s in schedulers]
                for s in schedulers:
                    await s.close()
                return rounds, counters

        rounds, (ca, cb) = asyncio.run(go())
        assert ca["computed"] + cb["computed"] == len(CONFIGS)
        assert ca["memo_hit"] == cb["memo_hit"] == len(CONFIGS)
        direct = run_cells(
            [SweepCell("perl", config) for config in CONFIGS],
            jobs=1, trace_length=TRACE_LENGTH, result_cache=None,
        )
        for stats in rounds:
            for i, expected in enumerate(direct):
                assert_identical(stats[2 * i], expected)
                assert_identical(stats[2 * i + 1], expected)

    def test_idle_shards_steal_queued_cells(self, tmp_path):
        async def go():
            with make_pool() as pool:
                scheduler = ShardScheduler(
                    pool, shards=4,
                    result_cache=ResultCache(tmp_path / "svc"),
                )
                # Submit before the loops can drain anything: whichever
                # shards the cells hash to, four loops contend for them.
                futures = [scheduler.submit("perl", config)
                           for config in CONFIGS]
                await asyncio.gather(*futures)
                counters = dict(scheduler.counters)
                await scheduler.close()
                return counters

        counters = asyncio.run(go())
        assert counters["computed"] == len(CONFIGS)

    def test_without_cache_inflight_future_is_the_memo(self):
        async def go():
            with make_pool() as pool:
                scheduler = ShardScheduler(pool, shards=2, result_cache=None)
                first = scheduler.submit("perl", CONFIGS[0])
                await first
                again = scheduler.submit("perl", CONFIGS[0])
                counters = dict(scheduler.counters)
                await scheduler.close()
                assert again is first
                return counters

        counters = asyncio.run(go())
        assert counters["computed"] == 1
        assert counters["dedup"] == 1

    def test_two_schedulers_share_a_cache_directory(self, tmp_path):
        """Two instances splitting one sweep: claims prevent double work
        and the merged rows are bit-identical to a direct run."""
        cache_dir = tmp_path / "shared"

        async def go():
            with make_pool() as pool_a, make_pool() as pool_b:
                a = ShardScheduler(pool_a, shards=2,
                                   result_cache=ResultCache(cache_dir),
                                   poll_interval_s=0.01)
                b = ShardScheduler(pool_b, shards=2,
                                   result_cache=ResultCache(cache_dir),
                                   poll_interval_s=0.01)
                # Both instances receive the *whole* sweep, as when a
                # load balancer mirrors requests.
                futures = [s.submit("perl", config)
                           for config in CONFIGS for s in (a, b)]
                stats = await asyncio.gather(*futures)
                counters = (dict(a.counters), dict(b.counters))
                await a.close()
                await b.close()
                return stats, counters

        stats, (ca, cb) = asyncio.run(go())
        # Each cell was computed exactly once across both instances.
        assert ca["computed"] + cb["computed"] == len(CONFIGS)
        # Claim losers parked and were served from the shared cache.
        assert (ca["cache_hit"] + cb["cache_hit"]
                + ca["computed"] + cb["computed"]) == 2 * len(CONFIGS)
        direct = run_cells(
            [SweepCell("perl", config) for config in CONFIGS],
            jobs=1, trace_length=TRACE_LENGTH, result_cache=None,
        )
        for i, config in enumerate(CONFIGS):
            assert_identical(stats[2 * i], direct[i])
            assert_identical(stats[2 * i + 1], direct[i])

    def test_stale_claim_is_broken(self, tmp_path):
        """A crashed instance's leftover claim must not wedge the cell."""
        cache_dir = tmp_path / "svc"
        cache = ResultCache(cache_dir)
        # The dead instance claimed exactly the cell we want to run.
        key = cell_key("perl", CONFIGS[0], TRACE_LENGTH, 1997)
        assert cache.claim(key)

        async def go():
            with make_pool() as pool:
                scheduler = ShardScheduler(
                    pool, shards=1, result_cache=ResultCache(cache_dir),
                    claim_ttl_s=0.0,  # every foreign claim is already stale
                    poll_interval_s=0.01,
                )
                future = scheduler.submit("perl", CONFIGS[0])
                stats = await asyncio.wait_for(future, timeout=60)
                counters = dict(scheduler.counters)
                await scheduler.close()
                return stats, counters

        stats, counters = asyncio.run(go())
        assert stats.instructions == TRACE_LENGTH
        assert counters["computed"] == 1


# ----------------------------------------------------------------------
# The HTTP server, end to end over a real socket.
# ----------------------------------------------------------------------
class TestServerEndToEnd:
    def run_server(self, coro_fn, tmp_path):
        async def main():
            service = SweepService(
                host="127.0.0.1", port=0, jobs=0,
                trace_length=TRACE_LENGTH,
                result_cache=ResultCache(tmp_path / "svc"),
            )
            await service.start()
            client = ServiceClient("127.0.0.1", service.port)
            await client.connect()
            try:
                return await coro_fn(service, client)
            finally:
                await client.close()
                await service.close()

        return asyncio.run(main())

    def test_health_and_stats(self, tmp_path):
        async def scenario(service, client):
            status, health = await client.request("GET", "/healthz")
            assert status == 200 and health["ok"] is True
            status, stats = await client.request("GET", "/stats")
            assert status == 200
            assert stats["pool"]["mode"] == "thread"
            assert stats["scheduler"]["submitted"] == 0
            return True

        assert self.run_server(scenario, tmp_path)

    def test_submit_poll_and_stream(self, tmp_path):
        spec = {
            "benchmarks": ["perl"],
            "cells": [{"preset": "btb-only"},
                      {"preset": "tagless-gshare9", "label": "t"}],
        }

        async def scenario(service, client):
            status, submitted = await client.request("POST", "/sweeps", spec)
            assert status == 202
            assert submitted["cells"] == 2
            # The chunked event stream replays every cell then 'done'.
            status, events = await client.request(
                "GET", submitted["links"]["events"]
            )
            assert status == 200
            assert events[-1]["event"] == "done"
            assert events[-1]["status"] == "done"
            assert [e["event"] for e in events[:-1]] == ["cell", "cell"]
            status, job = await client.request(
                "GET", submitted["links"]["result"]
            )
            assert status == 200 and job["status"] == "done"
            return job

        job = self.run_server(scenario, tmp_path)
        assert [row["label"] for row in job["rows"]] == ["btb-only", "t"]
        for row in job["rows"]:
            assert 0.0 <= row["indirect"] <= 1.0
            assert 0.0 <= row["overall"] <= 1.0

    def test_a_ledger_times_the_parse_and_the_submit(self, tmp_path):
        """Each ``POST /sweeps`` records one ``service.parse`` and one
        ``service.submit`` span inside its ``service.request``."""
        spec = {"benchmarks": ["perl"],
                "cells": [{"preset": "btb-only"},
                          {"preset": "tagless-gshare9"}]}

        async def scenario(service, client):
            for _ in range(2):
                status, submitted = await client.request(
                    "POST", "/sweeps", spec)
                assert status == 202
                status, events = await client.request(
                    "GET", submitted["links"]["events"])
                assert events[-1]["status"] == "done"

        ledger = tmp_path / "serve.jsonl"
        previous = install(LedgerSink(ledger))
        try:
            self.run_server(scenario, tmp_path)
        finally:
            shutdown()
            install(previous)
        spans = collections.Counter(
            record["name"] for record in read_ledger(ledger)
            if record["kind"] == "span")
        assert spans["service.parse"] == 2
        assert spans["service.submit"] == 2
        submits = [record["meta"] for record in read_ledger(ledger)
                   if record["name"] == "service.submit"]
        assert submits == [{"cells": 2}, {"cells": 2}]

    def test_the_parse_span_says_whether_the_plan_memo_answered(
            self, tmp_path):
        """Every ``POST /sweeps`` records one ``service.parse`` span, memo
        hit or not, and a rejected body is a miss each time."""
        spec = {"benchmarks": ["perl"], "cells": [{"preset": "btb-only"}]}
        bad = {"cells": [{"preset": "nope"}]}

        async def scenario(service, client):
            for document, expected in ((spec, 202), (spec, 202), (bad, 400),
                                       (bad, 400)):
                status, submitted = await client.request(
                    "POST", "/sweeps", document)
                assert status == expected
                if status == 202:
                    _, events = await client.request(
                        "GET", submitted["links"]["events"])
                    assert events[-1]["status"] == "done"

        ledger = tmp_path / "serve.jsonl"
        previous = install(LedgerSink(ledger))
        try:
            self.run_server(scenario, tmp_path)
        finally:
            shutdown()
            install(previous)
        parses = [record["meta"] for record in read_ledger(ledger)
                  if record["name"] == "service.parse"]
        assert parses == [{"memo": "miss"}, {"memo": "hit"},
                          {"memo": "miss"}, {"memo": "miss"}]

    def test_rows_match_direct_sweep(self, tmp_path):
        """The wire numbers are the batch numbers: same cells, same rates."""
        spec = {"benchmarks": ["perl"],
                "cells": [{"preset": "btb-only"},
                          {"preset": "tagless-gshare9"}]}

        async def scenario(service, client):
            _, submitted = await client.request("POST", "/sweeps", spec)
            while True:
                _, job = await client.request(
                    "GET", submitted["links"]["result"]
                )
                if job["status"] != "running":
                    return job
                await asyncio.sleep(0.01)

        job = self.run_server(scenario, tmp_path)
        plan = parse_spec_document(spec)
        direct = run_cells(
            [SweepCell(row.benchmark, row.config) for row in plan.rows],
            jobs=1, trace_length=TRACE_LENGTH, result_cache=None,
        )
        assert job["status"] == "done"
        for row, stats in zip(job["rows"], direct):
            assert row["indirect"] == stats.indirect_mispred_rate
            assert row["conditional"] == stats.conditional_mispred_rate
            assert row["overall"] == stats.overall_mispred_rate

    def test_bad_specs_get_400_with_key_path(self, tmp_path):
        async def scenario(service, client):
            status, error = await client.request(
                "POST", "/sweeps", {"cells": [{"preset": "nope"}]}
            )
            assert status == 400
            assert "cells[0].preset" in error["error"]
            status, error = await client.request("POST", "/sweeps", {})
            assert status == 400 and "cells" in error["error"]
            return True

        assert self.run_server(scenario, tmp_path)

    def test_plugin_that_raises_gets_400(self, tmp_path,
                                         raising_spec_plugin):
        spec = {"plugins": [raising_spec_plugin],
                "cells": [{"preset": "btb-only"}]}

        async def scenario(service, client):
            return await client.request("POST", "/sweeps", spec)

        status, error = self.run_server(scenario, tmp_path)
        assert status == 400
        assert error["error"] == (
            f"'plugins[0]': importing '{raising_spec_plugin}' raised "
            "ValueError: plugin body failed"
        )

    def test_unknown_routes_and_jobs_get_404(self, tmp_path):
        async def scenario(service, client):
            status, error = await client.request("GET", "/sweeps/zzz")
            assert status == 404 and "zzz" in error["error"]
            status, error = await client.request("GET", "/nope")
            assert status == 404 and "routes" in error
            return True

        assert self.run_server(scenario, tmp_path)

    def test_connection_survives_requests(self, tmp_path):
        """Keep-alive: many requests on one connection, no reconnects."""
        async def scenario(service, client):
            for _ in range(20):
                status, _ = await client.request("GET", "/healthz")
                assert status == 200
            return True

        assert self.run_server(scenario, tmp_path)

    def test_spec_plugins_load_before_cells_are_checked(self, tmp_path,
                                                        spec_plugin):
        """A cell may name a kind that the spec's own plugin registers."""
        module, kind = spec_plugin
        spec = {"plugins": [module], "benchmarks": ["perl"],
                "cells": [{"engine": {"target_cache": {"kind": kind}}}]}

        async def scenario(service, client):
            status, submitted = await client.request("POST", "/sweeps", spec)
            assert status == 202, submitted
            _, events = await client.request(
                "GET", submitted["links"]["events"]
            )
            assert events[-1] == {"event": "done", "status": "done"}
            _, job = await client.request(
                "GET", submitted["links"]["result"]
            )
            return job

        job = self.run_server(scenario, tmp_path)
        assert [row["label"] for row in job["rows"]] == [f"{kind}()"]

    def test_two_servers_share_one_cache_directory(self, tmp_path):
        """The acceptance scenario: two instances, one cache dir, one
        sweep mirrored to both — merged rows bit-identical to batch."""
        spec = {"benchmarks": ["perl"],
                "cells": [{"preset": "btb-only"},
                          {"preset": "tagless-gshare9"},
                          {"preset": "tagged-4way"}]}
        cache_dir = tmp_path / "shared"

        async def main():
            services = [
                SweepService(host="127.0.0.1", port=0, jobs=0,
                             trace_length=TRACE_LENGTH,
                             result_cache=ResultCache(cache_dir))
                for _ in range(2)
            ]
            for service in services:
                service.scheduler.poll_interval_s = 0.01
                await service.start()
            clients = [ServiceClient("127.0.0.1", s.port) for s in services]
            for client in clients:
                await client.connect()
            try:
                submits = [await c.request("POST", "/sweeps", spec)
                           for c in clients]
                jobs = []
                for client, (_, submitted) in zip(clients, submits):
                    while True:
                        _, job = await client.request(
                            "GET", submitted["links"]["result"]
                        )
                        if job["status"] != "running":
                            break
                        await asyncio.sleep(0.01)
                    jobs.append(job)
                stats = [
                    (await c.request("GET", "/stats"))[1] for c in clients
                ]
                return jobs, stats
            finally:
                for client in clients:
                    await client.close()
                for service in services:
                    await service.close()

        jobs, stats = asyncio.run(main())
        assert all(job["status"] == "done" for job in jobs)
        assert jobs[0]["rows"] == jobs[1]["rows"]
        computed = sum(s["scheduler"]["computed"] for s in stats)
        assert computed == 3  # each cell simulated once across the fleet
        plan = parse_spec_document(spec)
        direct = run_cells(
            [SweepCell(row.benchmark, row.config) for row in plan.rows],
            jobs=1, trace_length=TRACE_LENGTH, result_cache=None,
        )
        for row, cell_stats in zip(jobs[0]["rows"], direct):
            assert row["indirect"] == cell_stats.indirect_mispred_rate
            assert row["overall"] == cell_stats.overall_mispred_rate


class _RecordingWriter:
    """A stream writer that records each ``write`` and counts drains."""

    def __init__(self):
        self.writes = []
        self.drains = 0

    def write(self, data):
        self.writes.append(bytes(data))

    async def drain(self):
        self.drains += 1

    def close(self):
        pass

    async def wait_closed(self):
        pass


class TestEventStream:
    """``GET /sweeps/{id}/events`` sends what is pending as one write."""

    #: The head every events response opens with, and the last chunk.
    HEAD = (b"HTTP/1.1 200 OK\r\n"
            b"Content-Type: application/x-ndjson\r\n"
            b"Transfer-Encoding: chunked\r\n"
            b"Connection: keep-alive\r\n\r\n")
    LAST = b"0\r\n\r\n"

    @staticmethod
    def chunks(events):
        """One ``<hex len>\\r\\n<json line>\\r\\n`` chunk per event."""
        data = b""
        for event in events:
            line = (json.dumps(event, sort_keys=True) + "\n").encode("utf-8")
            data += f"{len(line):x}\r\n".encode() + line + b"\r\n"
        return data

    @staticmethod
    def serve_events(service, job_id, writer):
        """One connection that asks for a job's events, then closes."""
        reader = asyncio.StreamReader()
        reader.feed_data(f"GET /sweeps/{job_id}/events HTTP/1.1\r\n"
                         "Host: test\r\n\r\n".encode("latin-1"))
        reader.feed_eof()
        return asyncio.ensure_future(
            service._handle_connection(reader, writer))

    def test_a_finished_job_is_one_write_of_the_same_bytes(self, tmp_path):
        spec = {"benchmarks": ["perl", "gcc"],
                "cells": [{"preset": "btb-only"},
                          {"preset": "tagless-gshare9"}]}

        async def main():
            service = SweepService(
                host="127.0.0.1", port=0, jobs=0,
                trace_length=TRACE_LENGTH,
                result_cache=ResultCache(tmp_path / "svc"),
            )
            await service.start()
            client = ServiceClient("127.0.0.1", service.port)
            await client.connect()
            try:
                _, submitted = await client.request("POST", "/sweeps", spec)
                _, events = await client.request(
                    "GET", submitted["links"]["events"])
                writer = _RecordingWriter()
                await self.serve_events(service, submitted["id"], writer)
                return events, writer
            finally:
                await client.close()
                await service.close()

        events, writer = asyncio.run(main())
        assert [event["event"] for event in events] == ["cell"] * 4 + ["done"]
        assert writer.writes == [self.HEAD + self.chunks(events) + self.LAST]
        assert writer.drains == 1

    def test_a_running_job_streams_each_batch_as_it_lands(self):
        plan = parse_spec_document(
            {"benchmarks": ["perl"], "cells": [{"preset": "btb-only"}]})
        cell = {"event": "cell", "benchmark": "perl", "done": 1, "total": 1,
                "indirect_mispredict_rate": 0.25}
        done = {"event": "done", "status": "done"}

        async def main():
            service = SweepService(port=0, jobs=0, trace_length=TRACE_LENGTH,
                                   use_result_cache=False)
            job = SweepJob(id="s-stream", plan=plan)
            service._jobs[job.id] = job
            writer = _RecordingWriter()
            stream = self.serve_events(service, job.id, writer)

            async def writes(count):
                for _ in range(100):
                    if len(writer.writes) >= count:
                        return
                    await asyncio.sleep(0)
                raise AssertionError(f"no write {count}: {writer.writes}")

            await writes(1)
            job.emit(cell)
            await writes(2)
            job.status = "done"
            job.emit(done)
            await asyncio.wait_for(stream, timeout=5)
            return writer

        writer = asyncio.run(main())
        assert writer.writes == [
            self.HEAD, self.chunks([cell]), self.chunks([done]) + self.LAST,
        ]


class TestPlanMemo:
    """``POST /sweeps`` keeps parsed plans by the bytes of their bodies."""

    @staticmethod
    def counting_parse(monkeypatch):
        """Count the server's ``parse_spec_document`` calls."""
        calls = []
        real = server_module.parse_spec_document

        def parse(document):
            calls.append(document)
            return real(document)

        monkeypatch.setattr(server_module, "parse_spec_document", parse)
        return calls

    @staticmethod
    def body(preset, **extra):
        return json.dumps({"benchmarks": ["perl"],
                           "cells": [{"preset": preset, **extra}]}).encode()

    @staticmethod
    def post_all(tmp_path, bodies):
        """``POST /sweeps`` each raw body in turn on a fresh service;
        returns each (status, error or ``None``) and the memo's bodies."""
        async def main():
            service = SweepService(port=0, jobs=0, trace_length=TRACE_LENGTH,
                                   result_cache=ResultCache(tmp_path / "svc"))
            answers = []
            try:
                for body in bodies:
                    writer = _RecordingWriter()
                    status = service._post_sweep(
                        Request(method="POST", path="/sweeps", body=body),
                        writer)
                    payload = json.loads(
                        writer.writes[-1].split(b"\r\n\r\n", 1)[1])
                    answers.append((status, payload.get("error")))
                return answers, list(service._plans)
            finally:
                await service.close()

        return asyncio.run(main())

    def test_a_repeated_body_is_parsed_once(self, tmp_path, monkeypatch):
        calls = self.counting_parse(monkeypatch)
        spec = {"benchmarks": ["perl", "gcc"],
                "cells": [{"preset": "btb-only"},
                          {"preset": "tagless-gshare9", "label": "t"}]}

        async def scenario(service, client):
            jobs = []
            for _ in range(3):
                status, submitted = await client.request("POST", "/sweeps",
                                                         spec)
                assert status == 202
                await client.request("GET", submitted["links"]["events"])
                _, job = await client.request("GET",
                                              submitted["links"]["result"])
                jobs.append(job)
            return jobs

        jobs = TestServerEndToEnd().run_server(scenario, tmp_path)
        assert len(calls) == 1
        assert all(job["status"] == "done" for job in jobs)
        assert jobs[0]["rows"] == jobs[1]["rows"] == jobs[2]["rows"]
        plan = parse_spec_document(spec)
        direct = run_cells(
            [SweepCell(row.benchmark, row.config) for row in plan.rows],
            jobs=1, trace_length=TRACE_LENGTH, result_cache=None,
        )
        assert [(row["label"], row["benchmark"]) for row in jobs[0]["rows"]] \
            == [(row.label, row.benchmark) for row in plan.rows]
        for row, stats in zip(jobs[0]["rows"], direct):
            assert row["indirect"] == stats.indirect_mispred_rate
            assert row["conditional"] == stats.conditional_mispred_rate
            assert row["overall"] == stats.overall_mispred_rate

    def test_a_bad_or_oversized_body_is_never_memoised(
            self, tmp_path, monkeypatch, raising_spec_plugin):
        calls = self.counting_parse(monkeypatch)
        oversized = self.body(
            "btb-only", label="x" * server_module.PLAN_MEMO_MAX_BODY_BYTES)
        bodies = [
            b'{"cells": [',                                  # bad JSON
            self.body("no-such-preset"),                     # SpecError
            json.dumps({"plugins": [raising_spec_plugin],
                        "cells": [{"preset": "btb-only"}]}).encode(),
            oversized,                                       # valid, too big
        ]
        answers, memo = self.post_all(
            tmp_path, [body for body in bodies for _ in range(2)])
        statuses = [status for status, _ in answers]
        assert statuses == [400, 400, 400, 400, 400, 400, 202, 202]
        assert answers[0] == answers[1]
        assert answers[0][1].startswith("request body is not valid JSON:")
        assert "cells[0].preset" in answers[2][1]
        assert answers[4][1].startswith("'plugins[0]': importing")
        assert answers[4] == answers[5]
        assert memo == []
        # Bad JSON never reaches the parser; the others are parsed twice.
        assert len(calls) == 6

    def test_the_plan_memo_evicts_its_least_recent_body(self, tmp_path,
                                                        monkeypatch):
        monkeypatch.setattr(server_module, "PLAN_MEMO_SIZE", 2)
        calls = self.counting_parse(monkeypatch)
        a, b, c = (self.body(name) for name in
                   ("btb-only", "tagless-gshare9", "tagged-4way"))
        answers, memo = self.post_all(tmp_path, [a, b, a, c, a, b])
        assert [status for status, _ in answers] == [202] * 6
        # a and b miss; a hits; c misses and evicts b; a hits; b misses
        # again and evicts c.
        assert [call["cells"][0]["preset"] for call in calls] == [
            "btb-only", "tagless-gshare9", "tagged-4way", "tagless-gshare9"]
        assert memo == [a, b]


# ----------------------------------------------------------------------
# The btb2 kind through the full service path (PR: server-scale BTB).
# ----------------------------------------------------------------------
class TestBtb2ServicePath:
    """A backstop-trait kind must be a first-class service citizen: the
    server accepts btb2 sweeps over server workloads, the wire numbers
    are bit-identical to a direct batch run, and the scheduler's savings
    levels (dedup, result cache) apply to btb2 cells like any other."""

    SPEC = {
        "benchmarks": ["webserver_like"],
        "cells": [
            {"preset": "btb-only"},
            {"preset": "btb2-micro", "label": "micro"},
            {"engine": {"target_cache": {"kind": "btb2", "entries": 64,
                                         "assoc": 4, "l2_entries": 8192,
                                         "l2_assoc": 8}},
             "label": "btb2-8k"},
        ],
    }

    def _submit_and_wait(self, tmp_path):
        async def scenario(service, client):
            _, submitted = await client.request("POST", "/sweeps", self.SPEC)
            while True:
                _, job = await client.request(
                    "GET", submitted["links"]["result"]
                )
                if job["status"] != "running":
                    break
                await asyncio.sleep(0.01)
            # Same spec again: every cell is warm now (dedup or cache).
            _, submitted = await client.request("POST", "/sweeps", self.SPEC)
            while True:
                _, again = await client.request(
                    "GET", submitted["links"]["result"]
                )
                if again["status"] != "running":
                    break
                await asyncio.sleep(0.01)
            _, stats = await client.request("GET", "/stats")
            return job, again, stats

        return TestServerEndToEnd().run_server(scenario, tmp_path)

    def test_btb2_sweep_matches_direct_run_and_replays_warm(self, tmp_path):
        job, again, stats = self._submit_and_wait(tmp_path)
        assert job["status"] == "done"
        plan = parse_spec_document(self.SPEC)
        direct = run_cells(
            [SweepCell(row.benchmark, row.config) for row in plan.rows],
            jobs=1, trace_length=TRACE_LENGTH, result_cache=None,
        )
        for row, cell_stats in zip(job["rows"], direct):
            assert row["indirect"] == cell_stats.indirect_mispred_rate
            assert row["overall"] == cell_stats.overall_mispred_rate
        # The capacity story survives the wire: on the server workload the
        # two-level BTB beats the BTB-only baseline.
        baseline, micro, big = (row["indirect"] for row in job["rows"])
        assert micro < baseline
        assert big < baseline
        # Warm replay: the scheduler computed each cell exactly once.
        assert again["status"] == "done"
        assert again["rows"] == job["rows"]
        scheduler = stats["scheduler"]
        assert scheduler["computed"] == len(self.SPEC["cells"])
        assert (scheduler["dedup"] + scheduler["cache_hit"]
                == len(self.SPEC["cells"]))

    def test_loadgen_population_includes_btb2(self):
        population = spec_population(("webserver_like",))
        presets = [doc["cells"][0].get("preset") for doc in population]
        assert "btb2-micro" in presets


# ----------------------------------------------------------------------
# HTTP plumbing edge cases.
# ----------------------------------------------------------------------
class TestHttpPlumbing:
    def _read(self, payload: bytes):
        async def go():
            reader = asyncio.StreamReader()
            reader.feed_data(payload)
            reader.feed_eof()
            from repro.service.http import read_request

            return await read_request(reader)

        return asyncio.run(go())

    def test_parses_request_line_headers_and_body(self):
        request = self._read(
            b"POST /sweeps?x=1 HTTP/1.1\r\nHost: h\r\n"
            b"Content-Length: 2\r\n\r\n{}"
        )
        assert request.method == "POST"
        assert request.path == "/sweeps"
        assert request.query == {"x": "1"}
        assert request.body == b"{}"
        assert request.keep_alive

    def test_connection_close_disables_keep_alive(self):
        request = self._read(
            b"GET / HTTP/1.1\r\nConnection: close\r\n\r\n"
        )
        assert not request.keep_alive

    def test_clean_eof_returns_none(self):
        assert self._read(b"") is None

    def test_torn_request_raises_protocol_error(self):
        with pytest.raises(ProtocolError):
            self._read(b"GET / HT")

    def test_malformed_request_line_raises(self):
        with pytest.raises(ProtocolError):
            self._read(b"NONSENSE\r\n\r\n")

    def test_oversized_body_raises(self):
        with pytest.raises(ProtocolError):
            self._read(
                b"POST / HTTP/1.1\r\nContent-Length: 999999999\r\n\r\n"
            )


# ----------------------------------------------------------------------
# The load generator.
# ----------------------------------------------------------------------
class TestLoadgen:
    def test_population_covers_table4_and_presets(self):
        population = spec_population(("perl",))
        assert len(population) > 8
        assert all(len(doc["cells"]) == 1 for doc in population)

    def test_mix_is_seeded_and_skewed(self):
        mix_a = build_mix(200, seed=3, benchmarks=("perl",))
        mix_b = build_mix(200, seed=3, benchmarks=("perl",))
        assert mix_a == mix_b  # reproducible
        counts = {}
        for doc in mix_a:
            counts[json.dumps(doc, sort_keys=True)] = (
                counts.get(json.dumps(doc, sort_keys=True), 0) + 1
            )
        # Zipf skew: the hottest spec dominates the median one.
        assert max(counts.values()) >= 5 * sorted(counts.values())[
            len(counts) // 2
        ]

    def test_percentile_nearest_rank(self):
        values = [1.0, 2.0, 3.0, 4.0]
        assert percentile(values, 0.0) == 1.0
        assert percentile(values, 1.0) == 4.0
        assert percentile(values, 0.5) == 3.0
        assert percentile([], 0.5) == 0.0

    def test_replay_against_live_server_hits_cache(self, tmp_path):
        """Second replay of the same mix: >=90% of cells dedup/cache."""
        async def main():
            service = SweepService(
                host="127.0.0.1", port=0, jobs=0,
                trace_length=TRACE_LENGTH,
                result_cache=ResultCache(tmp_path / "svc"),
            )
            await service.start()
            try:
                first = await run_load(
                    "127.0.0.1", service.port, requests=30, concurrency=8,
                    seed=11, benchmarks=("perl",),
                )
                second = await run_load(
                    "127.0.0.1", service.port, requests=30, concurrency=8,
                    seed=11, benchmarks=("perl",),
                )
                return first, second
            finally:
                await service.close()

        first, second = asyncio.run(main())
        for payload in (first, second):
            assert payload["throughput"]["requests_done"] == 30
            assert payload["throughput"]["requests_failed"] == 0
            assert payload["errors"] == []
            assert payload["latency"]["p50_s"] > 0.0
            assert payload["latency"]["p99_s"] >= payload["latency"]["p50_s"]
            assert payload["gate_metrics"] == [
                "latency.p50_s", "latency.p95_s", "latency.p99_s"
            ]
        # The replay finds every cell warm: the acceptance bar is >=90%.
        assert second["scheduler"]["saved_rate"] >= 0.9
        assert second["scheduler"]["computed"] == 0
        # ... and in the scheduler's memo, which loadgen reports but never
        # gates on.
        assert second["scheduler"]["memo_hit_rate"] >= 0.9
        assert (second["scheduler"]["memo_hit"]
                <= second["scheduler"]["cache_hit"])
        assert "scheduler.memo_hit_rate" in second["info_metrics"]
        assert "scheduler.memo_hit" in second["info_metrics"]

    def test_computed_sweep_costs_two_requests(self, tmp_path, monkeypatch):
        """A submit and one events stream read to ``done``: no polling, so
        the latency is not rounded up to a poll interval."""
        sent = []
        real_request = ServiceClient.request

        async def recording_request(self, method, path, payload=None):
            if path.startswith("/sweeps"):
                sent.append((method, path))
            return await real_request(self, method, path, payload)

        monkeypatch.setattr(ServiceClient, "request", recording_request)

        async def main():
            service = SweepService(
                host="127.0.0.1", port=0, jobs=0,
                trace_length=TRACE_LENGTH,
                result_cache=ResultCache(tmp_path / "svc"),
            )
            await service.start()
            try:
                return await run_load(
                    "127.0.0.1", service.port, requests=1, concurrency=1,
                    seed=11, benchmarks=("perl",),
                )
            finally:
                await service.close()

        payload = asyncio.run(main())
        assert payload["scheduler"]["computed"] == 1
        assert payload["throughput"]["requests_done"] == 1
        assert [method for method, _ in sent] == ["POST", "GET"]
        assert sent[1][1].endswith("/events")


# ----------------------------------------------------------------------
# The `repro serve` process and its signals.
# ----------------------------------------------------------------------
def _stat_fields(pid):
    """The fields of ``/proc/<pid>/stat`` after the command name, or
    ``None`` once the process is gone."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return None
    return stat.rpartition(")")[2].split()


def _children(pid):
    children = []
    for entry in Path("/proc").iterdir():
        if entry.name.isdigit():
            fields = _stat_fields(entry.name)
            if fields is not None and int(fields[1]) == pid:
                children.append(int(entry.name))
    return children


def _alive(pid):
    fields = _stat_fields(pid)
    return fields is not None and fields[0] != "Z"


def _line_with(stream, needle, timeout_s):
    deadline = time.monotonic() + timeout_s
    while True:
        left = deadline - time.monotonic()
        if left <= 0 or not select.select([stream], [], [], left)[0]:
            raise AssertionError(f"no {needle!r} line within {timeout_s}s")
        line = stream.readline()
        if not line:
            raise AssertionError(f"the process exited before {needle!r}")
        if needle in line:
            return line


class _ServeProcess:
    """A ``repro serve --jobs 1`` subprocess and the pids it forked."""

    def __init__(self):
        self.process = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "--jobs", "1", "--trace-length", "2000"],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
        )
        self.children = []
        try:
            line = _line_with(self.process.stdout, "listening", timeout_s=60)
        except BaseException:
            self.kill_all()
            raise
        self.port = int(line.split("http://", 1)[1].split()[0].rsplit(":", 1)[1])

    def compute_a_cell(self, index=0):
        """Run one uncached cell, which forks the pool's worker."""
        async def submit():
            client = ServiceClient("127.0.0.1", self.port)
            await client.connect(retry_s=5.0)
            try:
                status, job = await client.request(
                    "POST", "/sweeps", spec_population(("perl",))[index])
                assert status == 202
                status, events = await client.request(
                    "GET", job["links"]["events"])
                assert events[-1]["status"] == "done"
            finally:
                await client.close()

        asyncio.run(asyncio.wait_for(submit(), timeout=60))
        self.children = sorted(set(self.children) | set(_children(self.process.pid)))
        assert self.children, "no pool worker was started"

    def kill_all(self):
        for pid in [self.process.pid, *self.children]:
            if _alive(pid):
                with contextlib.suppress(ProcessLookupError):
                    os.kill(pid, signal.SIGKILL)
        self.process.wait(timeout=30)
        self.process.stdout.close()


def _wait_until_gone(pids, timeout_s=10):
    deadline = time.monotonic() + timeout_s
    while any(map(_alive, pids)) and time.monotonic() < deadline:
        time.sleep(0.05)
    return [pid for pid in pids if _alive(pid)]


@pytest.fixture
def serve_process():
    if not Path("/proc/self/stat").exists():
        pytest.skip("reads /proc")
    server = _ServeProcess()
    try:
        yield server
    finally:  # never leave a process behind, whatever failed
        server.kill_all()


def test_sigterm_stops_the_server_and_its_pool_worker(serve_process):
    """A plain ``kill`` runs the same shutdown as Ctrl-C: the server exits
    cleanly and takes its fork-started pool worker with it."""
    serve_process.compute_a_cell()
    serve_process.process.send_signal(signal.SIGTERM)
    assert serve_process.process.wait(timeout=30) == 0
    assert _wait_until_gone(serve_process.children) == []


def test_sigterm_to_the_pool_worker_ends_only_the_worker(serve_process):
    """The worker inherits the SIGTERM handler, so it dies like a worker
    hit by Ctrl-C; the server degrades its pool and keeps answering."""
    serve_process.compute_a_cell()
    worker = serve_process.children[0]
    os.kill(worker, signal.SIGTERM)
    assert _wait_until_gone([worker]) == []
    serve_process.compute_a_cell(index=1)
    assert serve_process.process.poll() is None
