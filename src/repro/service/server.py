"""The ``repro serve`` HTTP server: sweeps as a long-running service.

Endpoints (HTTP+JSON over ``asyncio.start_server``; see
``docs/SERVICE.md`` for the full wire contract):

``POST /sweeps``
    Body is a spec document — byte-for-byte the ``repro sweep --spec``
    file format (:mod:`repro.sweepspec`).  Returns ``202`` with the sweep
    id immediately; cells run asynchronously through the
    :class:`~repro.service.scheduler.ShardScheduler`.
``GET /sweeps/{id}``
    Status and (once done) the result rows — the same misprediction
    rates ``repro sweep`` prints, as JSON.
``GET /sweeps/{id}/events``
    Chunked JSONL progress stream: one line per completed cell, then a
    terminal ``{"event": "done"}`` line.  Safe to connect late (events
    are replayed) and on keep-alive connections.
``GET /healthz``
    Liveness: ``{"ok": true, ...}``.
``GET /stats``
    Scheduler counters (dedup/cache/steal), queue depths, pool mode,
    and job counts — the numbers ``repro loadgen`` reports as rates.

Every request is wrapped in a ``service.request`` obs span and counted
under ``service.http.<status>``, so a run ledger breaks down server
behaviour with ``repro report`` exactly like a batch sweep.  Inside a
``POST /sweeps`` request, ``service.parse`` times the spec parse (meta
``memo``: ``hit`` or ``miss``) and ``service.submit`` the scheduler
submits of its cells.

The server keeps the last :data:`PLAN_MEMO_SIZE` plans it parsed by the
raw bytes of their request bodies, so a repeated body skips JSON
decoding and :func:`~repro.sweepspec.parse_spec_document`.  A plan
depends only on its body, so an entry never goes stale.  Only successful
parses of bodies of at most :data:`PLAN_MEMO_MAX_BODY_BYTES` are kept: a
malformed body gets its 400 every time, and the memo's size stays small.
"""

from __future__ import annotations

import asyncio
import time
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.obs import get_sink
from repro.predictors import PredictionStats
from repro.runner import ResultCache, SweepPool
from repro.service.http import (
    CHUNKED_JSONL_HEAD,
    LAST_CHUNK,
    ProtocolError,
    Request,
    json_chunk,
    json_response,
    read_request,
)
from repro.service.scheduler import ShardScheduler
from repro.sweepspec import SpecError, SweepPlan, parse_spec_document

#: Default TCP port ("serve" on a phone keypad starts with 7...).
DEFAULT_PORT = 8797

#: Parsed plans the server keeps by request body, and the largest body it
#: keeps one for: a single-cell spec document is a few hundred bytes.
PLAN_MEMO_SIZE = 256
PLAN_MEMO_MAX_BODY_BYTES = 4096


@dataclass
class SweepJob:
    """One submitted sweep request and its accumulated progress."""

    id: str
    plan: SweepPlan
    status: str = "running"  # running | done | error
    error: Optional[str] = None
    cells_total: int = 0
    cells_done: int = 0
    rows: List[Dict[str, Any]] = field(default_factory=list)
    events: List[Dict[str, Any]] = field(default_factory=list)
    changed: asyncio.Event = field(default_factory=asyncio.Event)

    def emit(self, event: Dict[str, Any]) -> None:
        self.events.append(event)
        self.changed.set()

    def summary(self) -> Dict[str, Any]:
        payload: Dict[str, Any] = {
            "id": self.id, "status": self.status,
            "cells": {"total": self.cells_total, "done": self.cells_done},
            "rows": self.rows if self.status == "done" else [],
        }
        if self.error is not None:
            payload["error"] = self.error
        return payload


class SweepService:
    """The asyncio HTTP server around one :class:`ShardScheduler`."""

    def __init__(self, *, host: str = "127.0.0.1", port: int = DEFAULT_PORT,
                 pool: Optional[SweepPool] = None,
                 jobs: Optional[int] = None, shards: Optional[int] = None,
                 trace_length: int = 400_000, seed: int = 1997,
                 use_trace_cache: bool = True,
                 result_cache: Optional[ResultCache] = None,
                 use_result_cache: bool = True) -> None:
        self.host = host
        self.port = port
        self.pool = pool if pool is not None else SweepPool(
            jobs, trace_length=trace_length, seed=seed,
            use_trace_cache=use_trace_cache,
        )
        if result_cache is None and use_result_cache:
            result_cache = ResultCache.from_env()
        # Enough shards to keep every pool worker fed while some shards
        # sit in cache polls or foreign-claim waits.
        self.scheduler = ShardScheduler(
            self.pool,
            shards=shards if shards is not None
            else max(4, 2 * self.pool.workers),
            result_cache=result_cache,
        )
        self._jobs: Dict[str, SweepJob] = {}
        self._job_tasks: "Dict[str, asyncio.Task[None]]" = {}
        self._plans: "OrderedDict[bytes, SweepPlan]" = OrderedDict()
        self._connections: "set[asyncio.Task[Any]]" = set()
        self._next_job = 0
        self._server: Optional[asyncio.base_events.Server] = None
        self._started_monotonic = 0.0

    # ------------------------------------------------------------------
    # Lifecycle.
    # ------------------------------------------------------------------
    async def start(self) -> None:
        self.scheduler.start()
        self._server = await asyncio.start_server(
            self._handle_connection, host=self.host, port=self.port
        )
        sockets = self._server.sockets or []
        if sockets:
            self.port = sockets[0].getsockname()[1]
        # Uptime bookkeeping for /healthz; telemetry only (the service
        # package is outside the determinism-lint scope by design: wall
        # time here schedules and reports, it never feeds a result).
        self._started_monotonic = time.monotonic()
        get_sink().event("service.start", host=self.host, port=self.port,
                         shards=self.scheduler.n_shards,
                         pool_mode=self.pool.mode)

    async def serve_forever(self) -> None:
        assert self._server is not None, "call start() first"
        await self._server.serve_forever()

    async def close(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        # wait_closed() does not wait for in-flight connection handlers;
        # cancel them so shutdown is quiet and bounded.
        for task in list(self._connections):
            task.cancel()
        for task in list(self._connections):
            try:
                await task
            except asyncio.CancelledError:
                pass
        self._connections.clear()
        for task in self._job_tasks.values():
            task.cancel()
        for task in self._job_tasks.values():
            try:
                await task
            except asyncio.CancelledError:
                pass
        self._job_tasks.clear()
        await self.scheduler.close()
        self.pool.close()
        get_sink().event("service.stop")

    def _uptime_s(self) -> float:
        # Telemetry only (healthz/stats); never feeds a result.
        return max(0.0, time.monotonic() - self._started_monotonic)

    # ------------------------------------------------------------------
    # Connection handling.
    # ------------------------------------------------------------------
    async def _handle_connection(self, reader: asyncio.StreamReader,
                                 writer: asyncio.StreamWriter) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._connections.add(task)
        try:
            while True:
                try:
                    request = await read_request(reader)
                except ProtocolError:
                    break
                if request is None:
                    break
                keep_alive = await self._dispatch(request, writer)
                await writer.drain()
                if not keep_alive:
                    break
        except (ConnectionResetError, BrokenPipeError,
                asyncio.IncompleteReadError):
            pass
        except asyncio.CancelledError:
            pass  # server shutdown; close the socket quietly
        finally:
            if task is not None:
                self._connections.discard(task)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass

    async def _dispatch(self, request: Request,
                        writer: asyncio.StreamWriter) -> bool:
        """Route one request; returns whether to keep the connection."""
        sink = get_sink()
        status = 500
        with sink.span("service.request", method=request.method,
                       path=request.path):
            try:
                status = await self._route(request, writer)
            except asyncio.CancelledError:
                raise
            except Exception as exc:  # one request must not kill the server
                sink.event("service.error", path=request.path,
                           error=str(exc))
                json_response(writer, 500, {"error": str(exc)},
                              keep_alive=request.keep_alive)
                status = 500
        sink.incr(f"service.http.{status}")
        return request.keep_alive

    async def _route(self, request: Request,
                     writer: asyncio.StreamWriter) -> int:
        method, path = request.method, request.path
        if path == "/healthz" and method == "GET":
            json_response(writer, 200, {
                "ok": True, "uptime_s": round(self._uptime_s(), 3),
                "pool_mode": self.pool.mode,
            }, keep_alive=request.keep_alive)
            return 200
        if path == "/stats" and method == "GET":
            json_response(writer, 200, self.stats(),
                          keep_alive=request.keep_alive)
            return 200
        if path == "/sweeps" and method == "POST":
            return self._post_sweep(request, writer)
        if path.startswith("/sweeps/"):
            rest = path[len("/sweeps/"):]
            if rest.endswith("/events") and method == "GET":
                return await self._stream_events(
                    rest[:-len("/events")], request, writer
                )
            if method == "GET":
                job = self._jobs.get(rest)
                if job is None:
                    json_response(writer, 404,
                                  {"error": f"unknown sweep {rest!r}"},
                                  keep_alive=request.keep_alive)
                    return 404
                json_response(writer, 200, job.summary(),
                              keep_alive=request.keep_alive)
                return 200
        json_response(
            writer, 404,
            {"error": f"no route for {method} {path}",
             "routes": ["POST /sweeps", "GET /sweeps/{id}",
                        "GET /sweeps/{id}/events", "GET /healthz",
                        "GET /stats"]},
            keep_alive=request.keep_alive,
        )
        return 404

    # ------------------------------------------------------------------
    # Sweep submission and progress.
    # ------------------------------------------------------------------
    def _post_sweep(self, request: Request,
                    writer: asyncio.StreamWriter) -> int:
        sink = get_sink()
        plan = self._plans.get(request.body)
        try:
            with sink.span("service.parse",
                           memo="miss" if plan is None else "hit"):
                if plan is None:
                    plan = self._parse(request)
                else:
                    self._plans.move_to_end(request.body)
        except SpecError as exc:
            json_response(writer, 400, {"error": str(exc)},
                          keep_alive=request.keep_alive)
            return 400
        job = SweepJob(id=f"s{self._next_job:06d}", plan=plan)
        self._next_job += 1
        self._jobs[job.id] = job
        unique = list(dict.fromkeys(plan.cells()))
        job.cells_total = len(unique)
        with sink.span("service.submit", cells=len(unique)):
            futures = {
                cell: self.scheduler.submit(cell[0], cell[1])
                for cell in unique
            }
        self._job_tasks[job.id] = asyncio.get_running_loop().create_task(
            self._run_job(job, futures)
        )
        sink.event("service.sweep.submitted", job=job.id,
                   rows=len(plan.rows), cells=len(unique))
        json_response(writer, 202, {
            "id": job.id, "status": job.status,
            "rows": len(plan.rows), "cells": len(unique),
            "links": {"result": f"/sweeps/{job.id}",
                      "events": f"/sweeps/{job.id}/events"},
        }, keep_alive=request.keep_alive)
        return 202

    def _parse(self, request: Request) -> SweepPlan:
        """Decode and validate the body into a plan, and remember the plan
        if the body is small enough; a bad body raises :exc:`SpecError`."""
        try:
            document = request.json()
        except ValueError as exc:
            raise SpecError(f"request body is not valid JSON: {exc}") from exc
        plan = parse_spec_document(document)
        if len(request.body) <= PLAN_MEMO_MAX_BODY_BYTES:
            self._plans[request.body] = plan
            if len(self._plans) > PLAN_MEMO_SIZE:
                self._plans.popitem(last=False)
        return plan

    async def _run_job(
        self, job: SweepJob,
        futures: "Dict[Tuple[str, Any], asyncio.Future[PredictionStats]]",
    ) -> None:
        results: Dict[Tuple[str, Any], PredictionStats] = {}
        try:
            for cell, future in futures.items():
                stats = await asyncio.shield(future)
                results[cell] = stats
                job.cells_done += 1
                job.emit({
                    "event": "cell", "benchmark": cell[0],
                    "done": job.cells_done, "total": job.cells_total,
                    "indirect_mispredict_rate":
                        stats.indirect_mispred_rate,
                })
            for row in job.plan.rows:
                stats = results[(row.benchmark, row.config)]
                job.rows.append({
                    "label": row.label, "benchmark": row.benchmark,
                    "indirect": stats.indirect_mispred_rate,
                    "conditional": stats.conditional_mispred_rate,
                    "overall": stats.overall_mispred_rate,
                })
            job.status = "done"
        except asyncio.CancelledError:
            job.status = "error"
            job.error = "server shut down"
            raise
        except Exception as exc:
            job.status = "error"
            job.error = str(exc)
        finally:
            job.emit({"event": "done", "status": job.status,
                      **({"error": job.error} if job.error else {})})
            self._job_tasks.pop(job.id, None)

    async def _stream_events(self, job_id: str, request: Request,
                             writer: asyncio.StreamWriter) -> int:
        job = self._jobs.get(job_id)
        if job is None:
            json_response(writer, 404,
                          {"error": f"unknown sweep {job_id!r}"},
                          keep_alive=request.keep_alive)
            return 404
        # Each wake-up sends everything pending as one write, so a job that
        # finished before this request costs one write and the caller's one
        # drain, while a running job still streams each batch as it lands.
        pending = [CHUNKED_JSONL_HEAD]
        sent = 0
        while True:
            pending.extend(json_chunk(event) for event in job.events[sent:])
            sent = len(job.events)
            if job.status != "running":
                pending.append(LAST_CHUNK)
                writer.write(b"".join(pending))
                return 200
            writer.write(b"".join(pending))
            pending = []
            await writer.drain()
            job.changed.clear()
            if sent == len(job.events):
                await job.changed.wait()

    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, Any]:
        counters = dict(self.scheduler.counters)
        submitted = counters["submitted"]
        saved = counters["dedup"] + counters["cache_hit"]
        jobs_by_status: Dict[str, int] = {}
        for job in self._jobs.values():
            jobs_by_status[job.status] = jobs_by_status.get(job.status, 0) + 1
        return {
            "uptime_s": round(self._uptime_s(), 3),
            "pool": {"mode": self.pool.mode, "workers": self.pool.workers},
            "scheduler": {
                **counters,
                "shards": self.scheduler.n_shards,
                "queue_depths": self.scheduler.queue_depths(),
                "dedup_rate": counters["dedup"] / submitted
                if submitted else 0.0,
                "cache_hit_rate": counters["cache_hit"] / submitted
                if submitted else 0.0,
                "saved_rate": saved / submitted if submitted else 0.0,
            },
            "jobs": {"total": len(self._jobs), **jobs_by_status},
            "params": {"trace_length": self.pool.trace_length,
                       "seed": self.pool.seed},
        }


async def run_service(service: SweepService) -> None:
    """Start ``service`` and block until cancelled (SIGINT/SIGTERM)."""
    await service.start()
    try:
        await service.serve_forever()
    except asyncio.CancelledError:
        pass
    finally:
        await service.close()
