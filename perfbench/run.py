"""Run one workload of the repository benchmark and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload paper_cold --seed 1997 --seconds 50 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace 0``
the metrics are the end-to-end ones, measured with tracing off; with
``--trace 1`` they are the per-layer ones, from one traced run and one
untraced reference run of the same fixed work.  Every run happens in
fresh child processes with fresh caches under ``.perfbench/`` in the
checkout; see ``perfbench/README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench.layers import METRICS as PER_LAYER  # noqa: E402

OUT = ROOT / ".perfbench"
#: The workloads ``BENCHMARK.json`` declares.
WORKLOADS = ("paper_cold", "service_replay")
#: Runnable, but not declared: at the run length that the time budget of
#: a third declared workload would leave, its cold grid did not hold
#: steady within its bounds on a noisy two-vCPU host.
EXTRA_WORKLOADS = ("design_sweep",)
#: Fresh-process set-ups in one untraced run; it reports their median.
SETUPS = 5
#: A run must end within 180 s; children share what is left of this.
DEADLINE_S = 170.0

END_TO_END = [("setup_s", "s"), ("cold_s", "s"), ("warm_s", "s"),
              ("peak_rss_mib", "MiB"), ("success_ratio", "ratio")]
#: Workload-level numbers the traced run reports from its untraced reference.
WORKLOAD_LEVEL = ("paper_err_pp", "cells_per_s", "requests_per_s",
                  "latency_p50_ms", "latency_p99_ms")

#: Per-layer metrics the traced run must see non-zero in the timed phase:
#: a call that moved or stopped being reached fails the run.
MUST_MOVE = {
    "paper_cold": (
        "guest.vm_s", "guest.build_s", "trace.from_raw_s", "trace.save_s",
        "trace.load_s", "trace.cache_hits", "trace.cache_misses",
        "predictors.decode_s", "predictors.build_streams_calls",
        "predictors.vector_cells", "predictors.streamed_cells",
        "runner.run_cells_self_s", "runner.cache.loads", "runner.cache.stores",
        "runner.cache.cycles_s", "pipeline.timing_runs", "pipeline.penalties_s",
        "experiments.self_s", "experiments.render_s"),
    "design_sweep": (
        "trace.load_s", "trace.cache_hits", "predictors.decode_s",
        "predictors.build_streams_calls", "predictors.vector_cells",
        "predictors.streamed_cells", "predictors.engine_cells",
        "predictors.subset_rows", "runner.run_cells_self_s",
        "runner.cache.loads", "runner.cache.stores"),
    "service_replay": (
        "service.request_s", "service.cell_s", "predictors.vector_cells",
        "predictors.streamed_cells", "predictors.build_streams_calls",
        "runner.cache.loads", "runner.cache.stores", "service.computed",
        "service.cache_hits"),
}
#: ... and must see zero: these layers have no business in that timed phase.
MUST_STAY = {
    "paper_cold": (),
    "design_sweep": ("guest.instructions", "pipeline.timing_runs"),
    "service_replay": ("guest.instructions", "pipeline.timing_runs"),
}
#: Spans that must fire somewhere in every traced run, set-up included.
MUST_FIRE = ("guest.vm", "guest.build", "trace.from_raw", "trace.save")


class BenchError(Exception):
    """A run that cannot report metrics."""


def spawn(args: argparse.Namespace, work_dir: Path, deadline: float,
          *flags: str) -> Dict[str, Any]:
    """Run :mod:`perfbench.child` in a fresh process and return its result."""
    work_dir.mkdir(parents=True)
    out = work_dir / "result.json"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(ROOT)])
    command = [sys.executable, "-m", "perfbench.child",
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--work-dir", str(work_dir),
               "--out", str(out), *flags]
    if args.smoke:
        command.append("--smoke")
    spawned_at = time.monotonic()
    command += ["--spawned-at", repr(spawned_at)]
    # Its own session, so a timeout can stop the child and everything it
    # started (the sweep server and its pool worker) in one signal.
    child = subprocess.Popen(command, cwd=ROOT, env=env, stdout=sys.stderr,
                             start_new_session=True)
    try:
        code = child.wait(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise BenchError(f"{args.workload} child timed out") from None
    finally:
        if child.poll() is None:  # timed out, or this process is stopping
            os.killpg(child.pid, signal.SIGTERM)
            try:
                child.wait(timeout=10)
            except subprocess.TimeoutExpired:
                os.killpg(child.pid, signal.SIGKILL)
                child.wait()
    if code != 0:
        raise BenchError(f"{args.workload} child exited with code {code}")
    result: Dict[str, Any] = json.loads(out.read_text())
    for error in result["errors"][:20]:
        print(f"perfbench: check failed: {error}", file=sys.stderr)
    return result


def fastest_segments(passes: List[List[float]]) -> float:
    """Sum, over the segments of a pass, of the fastest time any pass took.

    Every pass of one kind does the same work in the same order, segment
    by segment, so this is the pass time with the host noise of each
    segment filtered out separately.  The host this benchmark was sized on
    runs identical code up to twice as slow, in phases from a fraction of
    a second to minutes long; the fastest of many passes spread over the
    run is steadier than their mean or median, though no statistic of one
    run removes a slow phase that outlasts it.
    """
    return sum(min(times) for times in zip(*passes))


def untraced(args: argparse.Namespace, run_dir: Path,
             deadline: float) -> Dict[str, Any]:
    """:data:`SETUPS` fresh set-ups; the middle one then iterates for the run."""
    runs = [spawn(args, run_dir / f"setup-{index}", deadline, "--setup-only")
            if index != SETUPS // 2 else spawn(args, run_dir / "run", deadline)
            for index in range(SETUPS)]
    run = runs[SETUPS // 2]
    for kind, passes in run["segments"].items():
        print(f"perfbench: {len(passes)} {kind} passes: " + " ".join(
            f"{sum(times):.3f}" for times in passes), file=sys.stderr)
    metrics = {
        "setup_s": statistics.median(child["setup_s"] for child in runs),
        "cold_s": fastest_segments(run["segments"]["cold"]),
        "warm_s": fastest_segments(run["segments"]["warm"]),
        "peak_rss_mib": run["metrics"]["peak_rss_mib"],
        "success_ratio": (run["attempted"] - run["failed"])
        / max(1, run["attempted"]),
    }
    return {
        "correct": not any(child["errors"] for child in runs),
        "attempted": run["attempted"], "failed": run["failed"],
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in END_TO_END},
    }


def traced(args: argparse.Namespace, run_dir: Path,
           deadline: float) -> Dict[str, Any]:
    reference = spawn(args, run_dir / "reference", deadline, "--fixed-work")
    run = spawn(args, run_dir / "traced", deadline, "--fixed-work", "--traced")
    layers = dict(run["layers"])
    for name in WORKLOAD_LEVEL:
        layers[name] = reference["layers"].get(name, 0.0)
    layers["run.tracing_overhead_ratio"] = (
        run["timed_s"] / reference["timed_s"] - 1)
    problems = [f"{name} is zero in the timed phase"
                for name in MUST_MOVE[args.workload] if not layers[name]]
    problems += [f"{name} is {layers[name]} in the timed phase, expected 0"
                 for name in MUST_STAY[args.workload] if layers[name]]
    problems += [f"span {name} never fired" for name in MUST_FIRE
                 if not run["fired"].get(name)]
    for problem in problems:
        print(f"perfbench: layer check failed: {problem}", file=sys.stderr)
    spans = OUT / "spans" / f"{args.workload}-seed{args.seed}.json"
    spans.parent.mkdir(parents=True, exist_ok=True)
    shutil.copyfile(run_dir / "traced" / "spans.json", spans)
    print(f"perfbench: spans written to {spans.relative_to(ROOT)}",
          file=sys.stderr)
    for phase, self_s in run["split"].items():
        top = sorted(self_s.items(), key=lambda item: -item[1])[:8]
        print(f"perfbench: {phase} self time: " + ", ".join(
            f"{name} {seconds:.3f}" for name, seconds in top), file=sys.stderr)
    for name, _ in PER_LAYER:
        print(f"perfbench: {name:32} {layers.get(name, 0.0):.6g}", file=sys.stderr)
    return {
        "correct": not (problems or run["errors"] or reference["errors"]),
        "attempted": run["attempted"], "failed": run["failed"],
        "metrics": {name: {"value": layers.get(name, 0.0), "unit": unit}
                    for name, unit in PER_LAYER},
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/run.py",
                                     description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + EXTRA_WORKLOADS,
                        required=True)
    parser.add_argument("--seed", type=int, default=1997,
                        help="workload seed (1997 is the calibration seed)")
    parser.add_argument("--seconds", type=float, default=50.0,
                        help="length of the timed phase: iterations of a "
                             "cold pass and its warm passes")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs, for the benchmark's own tests")
    args = parser.parse_args(argv)
    # Unwind through ``spawn``'s cleanup when stopped, like on Ctrl-C.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    run_dir = OUT / "runs" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        result = (traced if args.trace else untraced)(args, run_dir, deadline)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
