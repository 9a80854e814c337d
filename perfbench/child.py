"""One workload run in a fresh process: ``python -m perfbench.child ...``.

:mod:`perfbench.run` starts this module once per repetition of a run,
with ``src`` on ``PYTHONPATH`` and a fresh working directory.  It points
the trace and result caches into that directory, runs the workload, and
writes what it measured as JSON to ``--out``.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional

from perfbench.common import Run


def _workloads() -> Dict[str, Callable[[Run], None]]:
    from perfbench import design_sweep, paper_cold, service_replay

    return {"paper_cold": paper_cold.run, "design_sweep": design_sweep.run,
            "service_replay": service_replay.run}


def _terminate(signum: int, frame: Any) -> None:
    # Unwind through every ``finally``, so a running server is stopped.
    raise SystemExit(128 + signum)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench.child")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--work-dir", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--fixed-work", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    signal.signal(signal.SIGTERM, _terminate)

    work_dir = Path(args.work_dir)
    os.environ["REPRO_TRACE_CACHE"] = str(work_dir / "traces")
    os.environ["REPRO_RESULT_CACHE"] = str(work_dir / "results")
    for name in ("REPRO_JOBS", "REPRO_OBS", "REPRO_TRACE_LENGTH"):
        os.environ.pop(name, None)
    bench = Run(seed=args.seed, seconds=args.seconds, smoke=args.smoke,
                work_dir=work_dir, spawned_at=args.spawned_at,
                traced=args.traced, fixed_work=args.fixed_work,
                setup_only=args.setup_only)
    if args.traced:
        from perfbench.layers import install

        install(bench.tracer)
    _workloads()[args.workload](bench)
    bench.tracer.uninstall()

    result: Dict[str, Any] = {
        "setup_s": bench.setup_s, "timed_s": bench.timed_s,
        "attempted": bench.attempted, "failed": bench.failed,
        "metrics": bench.metrics, "errors": bench.errors,
        "segments": bench.segments,
    }
    if args.traced:
        from perfbench.layers import TIMED, fired, layer_metrics

        result["layers"] = {**layer_metrics(bench.tracer), **bench.layers}
        result["fired"] = fired(bench.tracer)
        result["split"] = {phase: bench.tracer.self_times(phase)
                           for phase in ("setup",) + TIMED}
        bench.tracer.dump(work_dir / "spans.json")
    else:
        result["layers"] = bench.layers
    Path(args.out).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
