"""``repro loadgen``: an async load generator for the sweep service.

Replays thousands of concurrent spec submissions against a running
``repro serve`` instance and reports what a capacity planner wants to
know: request latency percentiles (p50/p95/p99), sustained throughput,
and how much of the offered work the service *didn't* have to compute —
the in-flight dedup rate and persistent cache hit rate read from
``/stats`` deltas.

The request mix is **Zipf-skewed** over a population of single-row spec
documents built from the paper's Table 4 cells plus the named presets
(seeded ``random.Random``, so a run is reproducible): a few hot specs
dominate, a long tail keeps the cache honest — the shape a shared
service actually sees, and the one that exercises all three savings
levels of the scheduler.

Results are written as ``BENCH_serve.json``; the payload declares its
own ``gate_metrics`` (latency percentiles) and ``info_metrics``
(throughput, hit rates), which ``repro report --compare`` honours, so CI
gates service latency the same way it gates sweep kernel time.
"""

from __future__ import annotations

import asyncio
import json
import os
import platform
import time
from typing import Any, Dict, List, Optional, Tuple

from repro.bench import vector_sweep_configs
from repro.experiments.configs import PRESETS
from repro.obs import get_sink

#: Zipf exponent for the spec popularity distribution: s=1.1 gives the
#: classic few-hot-many-cold shape without starving the tail entirely.
DEFAULT_ZIPF_S = 1.1

DEFAULT_REQUESTS = 1000
DEFAULT_CONCURRENCY = 64

#: How long to keep retrying the initial connection (server boot race in
#: CI: the server process is started in the background moments earlier).
CONNECT_RETRY_S = 30.0


# ----------------------------------------------------------------------
# Spec population.
# ----------------------------------------------------------------------
def spec_population(benchmarks: Tuple[str, ...] = ("perl", "gcc"),
                    ) -> List[Dict[str, Any]]:
    """Single-row spec documents: Table-4 cells plus the named presets.

    Each document is one ``(benchmark, config)`` cell, so dedup and cache
    hit rates map 1:1 onto request outcomes.
    """
    population: List[Dict[str, Any]] = []
    for benchmark in benchmarks:
        for config in vector_sweep_configs():
            population.append({
                "benchmarks": [benchmark],
                "cells": [{"engine": config.to_spec()}],
            })
        for name in sorted(PRESETS):
            if name == "oracle":
                continue  # oracle rows need mask collection; keep the mix uniform
            population.append({
                "benchmarks": [benchmark],
                "cells": [{"preset": name}],
            })
    return population


def zipf_weights(n: int, s: float = DEFAULT_ZIPF_S) -> List[float]:
    """Unnormalised Zipf weights ``1/rank**s`` for ranks ``1..n``."""
    return [1.0 / (rank ** s) for rank in range(1, n + 1)]


def build_mix(requests: int, *, seed: int = 1997,
              zipf_s: float = DEFAULT_ZIPF_S,
              benchmarks: Tuple[str, ...] = ("perl", "gcc"),
              ) -> List[Dict[str, Any]]:
    """The request sequence: ``requests`` Zipf-skewed draws (seeded)."""
    import random

    population = spec_population(benchmarks)
    rng = random.Random(seed)
    weights = zipf_weights(len(population), zipf_s)
    return rng.choices(population, weights=weights, k=requests)


# ----------------------------------------------------------------------
# Minimal async HTTP client (keep-alive, one connection per worker).
# ----------------------------------------------------------------------
class ServiceClient:
    """A keep-alive HTTP/1.1 client for one loadgen worker."""

    def __init__(self, host: str, port: int) -> None:
        self.host = host
        self.port = port
        self._reader: Optional[asyncio.StreamReader] = None
        self._writer: Optional[asyncio.StreamWriter] = None

    async def connect(self, retry_s: float = 0.0) -> None:
        deadline = time.monotonic() + retry_s
        while True:
            try:
                self._reader, self._writer = await asyncio.open_connection(
                    self.host, self.port
                )
                return
            except OSError:
                if time.monotonic() >= deadline:
                    raise
                await asyncio.sleep(0.2)

    async def close(self) -> None:
        if self._writer is not None:
            self._writer.close()
            try:
                await self._writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass
            self._reader = self._writer = None

    async def request(self, method: str, path: str,
                      payload: Any = None) -> Tuple[int, Any]:
        """One request/response on the persistent connection."""
        if self._writer is None or self._reader is None:
            await self.connect()
        assert self._reader is not None and self._writer is not None
        body = b""
        if payload is not None:
            body = json.dumps(payload).encode("utf-8")
        head = (
            f"{method} {path} HTTP/1.1\r\n"
            f"Host: {self.host}:{self.port}\r\n"
            "Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n"
            "Connection: keep-alive\r\n"
            "\r\n"
        )
        self._writer.write(head.encode("latin-1") + body)
        await self._writer.drain()
        status_line = await self._reader.readline()
        parts = status_line.decode("latin-1").split(" ", 2)
        if len(parts) < 2:
            raise ConnectionError(f"bad status line: {status_line!r}")
        status = int(parts[1])
        headers: Dict[str, str] = {}
        while True:
            line = await self._reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        if headers.get("transfer-encoding") == "chunked":
            chunks: List[bytes] = []
            while True:
                size_line = await self._reader.readline()
                size = int(size_line.strip() or b"0", 16)
                if size == 0:
                    await self._reader.readline()  # trailing CRLF
                    break
                chunks.append(await self._reader.readexactly(size))
                await self._reader.readexactly(2)  # chunk CRLF
            raw = b"".join(chunks)
            # Chunked bodies are JSONL event streams: one object per line.
            return status, [
                json.loads(line)
                for line in raw.splitlines() if line.strip()
            ]
        raw = await self._reader.readexactly(
            int(headers.get("content-length", "0"))
        )
        decoded = json.loads(raw) if raw.strip().startswith(b"{") else None
        return status, decoded


# ----------------------------------------------------------------------
# The run itself.
# ----------------------------------------------------------------------
async def _worker(client: ServiceClient, queue: "asyncio.Queue[Any]",
                  latencies: List[float], errors: List[str]) -> None:
    """Drain spec documents: submit, read the events stream to ``done``,
    record the latency."""
    await client.connect(retry_s=CONNECT_RETRY_S)
    try:
        while True:
            spec = await queue.get()
            if spec is None:
                return
            start = time.perf_counter()
            try:
                status, submitted = await client.request(
                    "POST", "/sweeps", spec
                )
                if status != 202 or submitted is None:
                    errors.append(f"submit -> {status}")
                    continue
                status, events = await client.request(
                    "GET", submitted["links"]["events"]
                )
                done: Dict[str, Any] = (
                    events[-1] if isinstance(events, list) and events else {})
                if status != 200 or done.get("event") != "done":
                    errors.append(f"events -> {status}")
                elif done["status"] != "done":
                    errors.append(done.get("error", "job error"))
                else:
                    latencies.append(time.perf_counter() - start)
            except (OSError, ConnectionError, asyncio.IncompleteReadError):
                errors.append("connection lost")
                await client.close()
                await client.connect(retry_s=CONNECT_RETRY_S)
    finally:
        await client.close()


def percentile(sorted_values: List[float], fraction: float) -> float:
    """Nearest-rank percentile of an ascending list (0 on empty input)."""
    if not sorted_values:
        return 0.0
    rank = min(len(sorted_values) - 1,
               max(0, round(fraction * (len(sorted_values) - 1))))
    return sorted_values[rank]


async def run_load(host: str, port: int, *,
                   requests: int = DEFAULT_REQUESTS,
                   concurrency: int = DEFAULT_CONCURRENCY,
                   seed: int = 1997, zipf_s: float = DEFAULT_ZIPF_S,
                   benchmarks: Tuple[str, ...] = ("perl", "gcc")) -> Dict[str, Any]:
    """Drive the service; return the ``BENCH_serve.json`` payload.

    Each request's latency runs from sending ``POST /sweeps`` to reading
    the ``done`` line of ``GET /sweeps/{id}/events``.
    """
    sink = get_sink()
    mix = build_mix(requests, seed=seed, zipf_s=zipf_s,
                    benchmarks=benchmarks)
    control = ServiceClient(host, port)
    await control.connect(retry_s=CONNECT_RETRY_S)
    status, _ = await control.request("GET", "/healthz")
    if status != 200:
        raise ConnectionError(f"/healthz -> {status}")
    _, stats_before = await control.request("GET", "/stats")

    queue: "asyncio.Queue[Any]" = asyncio.Queue()
    for spec in mix:
        queue.put_nowait(spec)
    n_workers = max(1, min(concurrency, requests))
    for _ in range(n_workers):
        queue.put_nowait(None)
    latencies: List[float] = []
    errors: List[str] = []
    clients = [ServiceClient(host, port) for _ in range(n_workers)]
    with sink.span("loadgen.run", requests=requests,
                   concurrency=n_workers):
        start = time.perf_counter()
        await asyncio.gather(*(
            _worker(client, queue, latencies, errors)
            for client in clients
        ))
        wall_s = time.perf_counter() - start

    _, stats_after = await control.request("GET", "/stats")
    await control.close()

    latencies.sort()
    done = len(latencies)
    before = (stats_before or {}).get("scheduler", {})
    after = (stats_after or {}).get("scheduler", {})

    def delta(name: str) -> int:
        return int(after.get(name, 0)) - int(before.get(name, 0))

    submitted = delta("submitted")
    saved = delta("dedup") + delta("cache_hit")
    payload: Dict[str, Any] = {
        "schema": 1,
        "bench": "serve",
        "params": {
            "requests": requests, "concurrency": n_workers,
            "seed": seed, "zipf_s": zipf_s,
            "benchmarks": list(benchmarks),
            "population": len(spec_population(benchmarks)),
        },
        "environment": {
            "python": platform.python_version(),
            "platform": platform.platform(),
            "cpu_count": os.cpu_count(),
            "server": (stats_after or {}).get("pool", {}),
            "server_params": (stats_after or {}).get("params", {}),
        },
        "latency": {
            "p50_s": percentile(latencies, 0.50),
            "p95_s": percentile(latencies, 0.95),
            "p99_s": percentile(latencies, 0.99),
            "mean_s": sum(latencies) / done if done else 0.0,
            "max_s": latencies[-1] if latencies else 0.0,
        },
        "throughput": {
            "wall_s": wall_s,
            "requests_done": done,
            "requests_failed": len(errors),
            "requests_per_s": done / wall_s if wall_s > 0 else 0.0,
        },
        "scheduler": {
            "submitted": submitted,
            "dedup": delta("dedup"),
            "cache_hit": delta("cache_hit"),
            "computed": delta("computed"),
            "steals": delta("steals"),
            "dedup_rate": delta("dedup") / submitted if submitted else 0.0,
            "cache_hit_rate":
                delta("cache_hit") / submitted if submitted else 0.0,
            "saved_rate": saved / submitted if submitted else 0.0,
        },
        "errors": errors[:20],
        # compare_bench reads these: latency percentiles gate (lower is
        # better, like the sweep-bench timings); the rest is context.
        "gate_metrics": ["latency.p50_s", "latency.p95_s", "latency.p99_s"],
        "info_metrics": ["throughput.requests_per_s",
                         "scheduler.dedup_rate",
                         "scheduler.cache_hit_rate",
                         "scheduler.saved_rate"],
    }
    sink.event("loadgen.done", requests=requests, done=done,
               failed=len(errors),
               p95_s=payload["latency"]["p95_s"],
               saved_rate=payload["scheduler"]["saved_rate"])
    return payload


def format_loadgen(payload: Dict[str, Any]) -> str:
    """Render a loadgen payload for the terminal."""
    latency = payload["latency"]
    throughput = payload["throughput"]
    scheduler = payload["scheduler"]
    lines = [
        f"loadgen: {throughput['requests_done']} done, "
        f"{throughput['requests_failed']} failed in "
        f"{throughput['wall_s']:.2f}s "
        f"({throughput['requests_per_s']:.1f} req/s)",
        f"  latency  p50 {latency['p50_s'] * 1e3:8.1f} ms   "
        f"p95 {latency['p95_s'] * 1e3:8.1f} ms   "
        f"p99 {latency['p99_s'] * 1e3:8.1f} ms",
        f"  cells    submitted {scheduler['submitted']}  "
        f"dedup {scheduler['dedup']}  cache {scheduler['cache_hit']}  "
        f"computed {scheduler['computed']}  steals {scheduler['steals']}",
        f"  saved    {100.0 * scheduler['saved_rate']:.1f}% "
        f"(dedup {100.0 * scheduler['dedup_rate']:.1f}% + "
        f"cache {100.0 * scheduler['cache_hit_rate']:.1f}%)",
    ]
    return "\n".join(lines)
