"""``service_replay``: a seeded Zipf mix of sweep specs against ``repro serve``.

Why: this is the only workload where HTTP, the shard scheduler and the
result-cache read path dominate.  Kernels run only on a cell's first
touch; the guest VM and the timing model do not run at all.

Set-up generates the traces and boots ``repro serve`` with its default
single pool worker.  Each iteration of the timed phase sends a fixed mix
of requests to a server with an empty result cache (the cold pass), then
the same mix again (the warm pass, every cell cached); the next iteration
boots a fresh server.  The request count per server is fixed: a server
keeps every finished job, so its memory grows with the count.  The passes
are closed loops: each of at most ``nproc`` (and at most two) keep-alive
connections submits its next spec only after the previous one finished,
because sweep callers wait for their rows.  A request's latency runs from
sending ``POST /sweeps`` to reading the ``done`` line of
``GET /sweeps/{id}/events``.
"""

from __future__ import annotations

import http.client
import json
import os
import random
import re
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Tuple

from perfbench.common import Run, descendants, percentile, process_tree_hwm_mib

BENCHMARKS = {False: ("perl", "gcc", "xlisp", "db_like"), True: ("perl",)}
TRACE_LENGTH = {False: 40_000, True: 3_000}
#: Requests per pass.
REQUESTS = {False: 500, True: 40}
#: Iterations of a fixed-work run: their cold passes make 1000 latency
#: samples, ten of them beyond p99.
FIXED_ITERATIONS = {False: 2, True: 1}
#: Requests per timed segment of a pass.
WINDOW = 10
#: Popularity skew of the spec population.  With the population below it
#: keeps the cells a cold pass computes at 17-19% of its requests (seeds
#: 1-10): far from 1%, where p99 would fall back into the cache-hit mode,
#: and from 50%, where p50 would leave it.
ZIPF_S = 1.0
BOOT_TIMEOUT_S = 60.0
#: Scheduler counters of ``GET /stats``, summed over the servers of a run.
COUNTERS = ("submitted", "computed", "cache_hit", "dedup", "steals")


def cell_specs() -> Dict[str, List[Dict[str, Any]]]:
    """Engine specs by family; each family is also one multi-cell sweep."""
    from repro.experiments.configs import (
        btb2_engine,
        path_scheme_history,
        preset,
        tagged_engine,
        tagless_engine,
    )
    from repro.predictors.target_cache import TaggedIndexing

    families = {
        "table4": [tagless_engine(scheme, bits, address_bits)
                   for scheme, bits, address_bits in (
                       ("gag", 9, 0), ("gas", 8, 1), ("gas", 7, 2),
                       ("gshare", 9, 0), ("gshare", 10, 0), ("gshare", 11, 0))],
        "paths": [tagless_engine("gshare", 9, history=path_scheme_history(label))
                  for label in ("per-addr", "branch", "control", "ind jmp",
                                "call/ret")]
        + [tagless_engine("gas", 8, 1, history=path_scheme_history("control"))],
        "tagged": [tagged_engine(assoc) for assoc in (1, 2, 4, 16)]
        + [tagged_engine(4, TaggedIndexing.ADDRESS)],
        "capacity": [preset("cascaded-256"), preset("ittage-lite")]
        + [btb2_engine(l2_entries=l2) for l2 in (1024, 4096, 8192)]
        + [preset("last-target"), preset("btb-only")],
    }
    return {name: [config.to_spec() for config in configs]
            for name, configs in families.items()}


def population(benchmarks: Tuple[str, ...]) -> List[Dict[str, Any]]:
    """Spec documents in popularity order: single cells, then family sweeps.

    The order interleaves benchmarks and families, so the hot head mixes
    cheap and expensive cells and does not depend on the seed; only the
    draws from it do.
    """
    families = cell_specs()
    width = max(len(specs) for specs in families.values())
    singles = [
        {"benchmarks": [benchmark], "cells": [{"engine": specs[position]}]}
        for position in range(width)
        for specs in families.values() if position < len(specs)
        for benchmark in benchmarks
    ]
    sweeps = [
        {"benchmarks": [benchmark],
         "cells": [{"engine": spec} for spec in specs]}
        for specs in families.values() for benchmark in benchmarks
    ]
    return singles + sweeps


def request_mix(seed: int, count: int,
                benchmarks: Tuple[str, ...]) -> List[Dict[str, Any]]:
    docs = population(benchmarks)
    weights = [1.0 / rank ** ZIPF_S for rank in range(1, len(docs) + 1)]
    return random.Random(seed).choices(docs, weights=weights, k=count)


# ----------------------------------------------------------------------
# Client.
# ----------------------------------------------------------------------
@dataclass
class Outcome:
    index: int
    ok: bool
    started: float = 0.0
    latency_s: float = 0.0
    post_s: float = 0.0
    rows: List[Dict[str, Any]] = field(default_factory=list)
    error: str = ""


def _json(response: http.client.HTTPResponse, expect: int) -> Any:
    body = response.read()
    if response.status != expect:
        raise RuntimeError(f"HTTP {response.status}: {body[:200]!r}")
    return json.loads(body)


def submit(conn: http.client.HTTPConnection, index: int,
           doc: Dict[str, Any]) -> Outcome:
    """One closed-loop request: submit, wait for ``done``, fetch the rows."""
    body = json.dumps(doc)
    start = time.perf_counter()
    conn.request("POST", "/sweeps", body=body,
                 headers={"Content-Type": "application/json"})
    sweep_id = _json(conn.getresponse(), 202)["id"]
    posted = time.perf_counter()
    conn.request("GET", f"/sweeps/{sweep_id}/events")
    events = conn.getresponse()
    status = None
    while status is None:
        line = events.readline()
        if not line:
            raise RuntimeError("events stream ended before 'done'")
        event = json.loads(line)
        if event.get("event") == "done":
            status = event.get("status")
    done = time.perf_counter()
    events.read()  # the terminating chunk, so the connection is reusable
    if status != "done":
        raise RuntimeError(f"sweep {sweep_id} ended with status {status!r}")
    conn.request("GET", f"/sweeps/{sweep_id}")
    rows = _json(conn.getresponse(), 200)["rows"]
    return Outcome(index, True, start, done - start, posted - start, rows)


def replay(port: int, mix: List[Dict[str, Any]], connections: int) -> List[Outcome]:
    """Drive ``mix`` through ``connections`` closed-loop clients."""
    lock = threading.Lock()
    queue: Iterator[Tuple[int, Dict[str, Any]]] = iter(enumerate(mix))
    outcomes: List[Outcome] = []

    def client() -> None:
        conn = http.client.HTTPConnection("127.0.0.1", port, timeout=120)
        try:
            while True:
                with lock:
                    item = next(queue, None)
                if item is None:
                    return
                started = time.perf_counter()
                try:
                    outcome = submit(conn, *item)
                except (OSError, RuntimeError, ValueError,
                        http.client.HTTPException) as exc:
                    outcome = Outcome(item[0], False, started,
                                      error=f"{type(exc).__name__}: {exc}")
                    conn.close()  # reconnects on the next request
                with lock:
                    outcomes.append(outcome)
        finally:
            conn.close()

    threads = [threading.Thread(target=client) for _ in range(connections)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return sorted(outcomes, key=lambda outcome: outcome.index)


def windows(outcomes: List[Outcome], end: float) -> List[float]:
    """A pass split into segments of :data:`WINDOW` consecutive requests.

    Requests start in mix order, so segment ``k`` runs from the start of
    request ``k * WINDOW`` to the start of request ``(k + 1) * WINDOW``.
    """
    starts = [outcome.started for outcome in outcomes[::WINDOW]] + [end]
    return [later - earlier for earlier, later in zip(starts, starts[1:])]


def get_json(port: int, path: str) -> Any:
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
    try:
        conn.request("GET", path)
        return _json(conn.getresponse(), 200)
    finally:
        conn.close()


# ----------------------------------------------------------------------
# Server lifecycle.
# ----------------------------------------------------------------------
def _default_sigint() -> None:
    # A server started from a shell that ignores SIGINT would inherit the
    # ignore and could not shut down cleanly (nor merge its ledger).
    signal.signal(signal.SIGINT, signal.SIG_DFL)


class Server:
    """``python -m repro serve`` on a free port."""

    def __init__(self, length: int, seed: int,
                 ledger: Optional[Path] = None) -> None:
        command = [sys.executable, "-m", "repro", "serve", "--port", "0",
                   "--trace-length", str(length), "--seed", str(seed)]
        command += ["--obs-ledger", str(ledger)] if ledger else ["--no-obs"]
        self.process = subprocess.Popen(
            command, stdout=subprocess.PIPE, text=True,
            preexec_fn=_default_sigint,
        )
        self.port = 0
        try:
            assert self.process.stdout is not None
            line = self.process.stdout.readline()
            match = re.search(r"listening on http://[^:]+:(\d+)", line)
            if match is None:
                raise RuntimeError(f"repro serve did not start: {line!r}")
            self.port = int(match.group(1))
            deadline = time.monotonic() + BOOT_TIMEOUT_S
            while not get_json(self.port, "/healthz").get("ok"):
                if time.monotonic() > deadline:
                    raise RuntimeError("repro serve never became healthy")
                time.sleep(0.05)
        except BaseException:
            self.stop()
            raise

    def peak_rss_mib(self) -> float:
        return process_tree_hwm_mib(self.process.pid)

    def stop(self) -> None:
        """Interrupt the server (it closes its pool and ledger) and wait."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGINT)
            try:
                self.process.wait(timeout=30)
            except subprocess.TimeoutExpired:
                for pid in descendants(self.process.pid):
                    try:
                        os.kill(pid, signal.SIGKILL)
                    except ProcessLookupError:
                        pass
                self.process.kill()
        self.process.wait()
        if self.process.stdout is not None:
            self.process.stdout.close()


# ----------------------------------------------------------------------
# The workload.
# ----------------------------------------------------------------------
def boot(bench: Run, length: int, index: int) -> Server:
    """A fresh server over an empty result cache of its own."""
    os.environ["REPRO_RESULT_CACHE"] = str(bench.work_dir / f"results-{index}")
    ledger = (bench.work_dir / f"serve-ledger-{index}.jsonl"
              if bench.traced else None)
    return Server(length, bench.seed, ledger)


def run(bench: Run) -> None:
    from repro.workloads import get_trace

    # The client, the server and its worker share one CPU (the servers
    # inherit it): a request then passes between them without waking an
    # idle vCPU, whose wake-up latency varies most on a shared host.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    length = TRACE_LENGTH[bench.smoke]
    benchmarks = BENCHMARKS[bench.smoke]
    for name in benchmarks:
        get_trace(name, n_instructions=length, seed=bench.seed)
    mix = request_mix(bench.seed, REQUESTS[bench.smoke], benchmarks)
    traces = sorted(os.listdir(os.environ["REPRO_TRACE_CACHE"]))
    connections = max(1, min(2, os.cpu_count() or 1))
    cold: List[Outcome] = []
    sent: List[Outcome] = []
    cold_s = 0.0
    rss = 0.0
    totals: Dict[str, int] = {}
    server = boot(bench, length, 0)
    try:
        bench.setup_done()
        if bench.setup_only:
            return
        for index in bench.iterations(FIXED_ITERATIONS[bench.smoke]):
            if index:
                server.stop()
                server = boot(bench, length, index)
            stats = [get_json(server.port, "/stats")["scheduler"]]
            for kind in ("cold", "warm"):
                with bench.tracer.phase(kind):
                    outcomes = replay(server.port, mix, connections)
                    end = time.perf_counter()
                seconds = bench.timed_pass(kind, windows(outcomes, end))
                bench.timed_s += seconds
                sent += outcomes
                if kind == "cold":
                    cold += outcomes
                    cold_s += seconds
                stats.append(get_json(server.port, "/stats")["scheduler"])
            bench.check(stats[2]["computed"] == stats[1]["computed"],
                        f"the warm pass of iteration {index + 1} computed cells")
            for key in COUNTERS:
                totals[key] = totals.get(key, 0) + int(
                    stats[2][key] - stats[0][key])
            rss = max(rss, server.peak_rss_mib())
    finally:
        server.stop()
    bench.check(sorted(os.listdir(os.environ["REPRO_TRACE_CACHE"])) == traces,
                "the server generated traces")

    done = [outcome for outcome in sent if outcome.ok]
    bench.attempted = len(sent)
    bench.failed = len(sent) - len(done)
    for outcome in sent:
        bench.check(outcome.ok, f"request {outcome.index}: {outcome.error}")
    with bench.tracer.phase("check"):
        check_rows(bench, mix, done, length)

    cold = [outcome for outcome in cold if outcome.ok]
    latencies = [outcome.latency_s * 1000 for outcome in cold] or [0.0]
    waits = [(outcome.latency_s - outcome.post_s) * 1000
             for outcome in cold] or [0.0]
    posts = [outcome.post_s * 1000 for outcome in cold] or [0.0]
    print(f"service_replay: {len(mix)} requests per pass on {connections} "
          f"connection(s), {len(bench.segments['cold'])} server(s); "
          f"{totals['computed']} cells computed, so at most "
          f"{totals['computed'] / len(cold or [None]):.1%} of cold requests "
          f"computed; {len(cold) // 100} samples beyond p99", file=sys.stderr)
    bench.metrics["peak_rss_mib"] = rss
    bench.layers.update({
        "requests_per_s": len(cold) / cold_s,
        "latency_p50_ms": percentile(latencies, 50),
        "latency_p99_ms": percentile(latencies, 99),
        "service.post_ms_p50": percentile(posts, 50),
        "service.wait_ms_p50": percentile(waits, 50),
        "service.wait_ms_p99": percentile(waits, 99),
        "service.computed": totals["computed"],
        "service.cache_hits": totals["cache_hit"],
        "service.dedups": totals["dedup"],
        "service.steals": totals["steals"],
        "service.saved_ratio": (totals["dedup"] + totals["cache_hit"])
        / max(1, totals["submitted"]),
    })
    if bench.traced:
        from perfbench.layers import ledger_metrics

        bench.layers.update(ledger_metrics(
            sorted(bench.work_dir.glob("serve-ledger-*.jsonl"))))


def check_rows(bench: Run, mix: List[Dict[str, Any]], done: List[Outcome],
               length: int) -> None:
    """Every completed request's rows equal ``run_cells`` on its cells."""
    import repro.runner as runner
    from repro.sweepspec import parse_spec_document

    plans = {outcome.index: parse_spec_document(mix[outcome.index])
             for outcome in done}
    cells = list(dict.fromkeys(cell for plan in plans.values()
                               for cell in plan.cells()))
    results = runner.run_cells([runner.SweepCell(*cell) for cell in cells],
                               jobs=1, trace_length=length, seed=bench.seed)
    expected = dict(zip(cells, results))
    for outcome in done:
        plan = plans[outcome.index]
        want = [
            {"label": row.label, "benchmark": row.benchmark,
             "indirect": expected[(row.benchmark, row.config)].indirect_mispred_rate,
             "conditional":
                 expected[(row.benchmark, row.config)].conditional_mispred_rate,
             "overall": expected[(row.benchmark, row.config)].overall_mispred_rate}
            for row in plan.rows
        ]
        bench.check(outcome.rows == want,
                    f"request {outcome.index}: rows differ from run_cells")
