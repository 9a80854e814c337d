"""The sweep service: scheduler savings, HTTP endpoints, multi-instance splits.

The service's contract has two halves.  *Performance*: concurrent
identical cells cost one simulation (in-flight dedup), cached cells cost
zero (result-cache short-circuit), and two instances sharing a cache
directory split a sweep between them (claim files).  *Correctness*: no
matter which savings path a cell takes, the numbers are bit-identical to
a direct ``run_cells`` sweep — scheduling must be invisible in results.
"""

import asyncio
import json

import pytest

from repro.predictors import EngineConfig, TargetCacheConfig
from repro.runner import ResultCache, SweepCell, SweepPool, run_cells
from repro.service import SweepService
from repro.service.http import ProtocolError
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
        from repro.runner import cell_key

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
