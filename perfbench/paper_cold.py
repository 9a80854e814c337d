"""``paper_cold``: regenerate the paper's eleven experiments, then replay warm.

Why: this is what a paper reader runs first, and what every new seed,
trace length or ``name@lowering`` pays.  The cold pass is where the guest
VM and the ``run_timing`` pipeline model do most of their work; the warm
replays read everything back from the trace and result caches.
"""

from __future__ import annotations

import os
import shutil
import time
from typing import Any, List, Tuple

from perfbench.common import Run, peak_rss_mib

#: The paper's tables and figures, in ``repro all`` order.
EXPERIMENTS = ("table1", "figures1_8", "table2", "table4", "table5", "table6",
               "table7", "table8", "table9", "figures12_13", "headline")

TRACE_LENGTH = {False: 20_000, True: 3_000}
#: Warm replays after each cold pass.
WARM_REPLAYS = 2


def paper_err_pp(table1: Any) -> float:
    """Mean |simulated - paper| BTB indirect misprediction, in points."""
    simulated = table1.columns.index("BTB mispred")
    paper = table1.columns.index("paper mispred")
    gaps = [abs(values[simulated] - values[paper]) for _, values in table1.rows]
    return 100 * sum(gaps) / len(gaps)


def run(bench: Run) -> None:
    import repro.experiments.common as common
    from repro.workloads import workload_names

    for name in EXPERIMENTS:  # imports are set-up, not experiment time
        __import__(common.EXPERIMENT_MODULES[name])
    length = TRACE_LENGTH[bench.smoke]
    bench.setup_done()
    if bench.setup_only:
        return

    def replay(kind: str) -> Tuple[List[Any], List[str], float]:
        """Every experiment through a fresh context over the current caches.

        Each experiment, rendering included, is one segment of the pass.
        """
        ctx = common.ExperimentContext(trace_length=length, seed=bench.seed,
                                       jobs=1)
        tables, rendered, times = [], [], []
        for name in EXPERIMENTS:
            bench.attempted += 1
            with bench.tracer.phase(kind):
                start = time.perf_counter()
                try:
                    table = common.run_experiment(name, ctx)
                    rendered.append(table.format())
                except Exception as exc:  # a failed experiment fails the run
                    bench.failed += 1
                    bench.check(False, f"{name}: {type(exc).__name__}: {exc}")
                    table = None
                    rendered.append("")
                times.append(time.perf_counter() - start)
            tables.append(table)
        return tables, rendered, bench.timed_pass(kind, times)

    # Each iteration regenerates everything into empty trace and result
    # caches of its own (the cold pass), then replays warm from them.
    first: List[str] = []
    table1: Any = None
    timed_s = 0.0
    for index in bench.iterations():
        caches = bench.work_dir / f"caches-{index}"
        os.environ["REPRO_TRACE_CACHE"] = str(caches / "traces")
        os.environ["REPRO_RESULT_CACHE"] = str(caches / "results")
        tables, cold, cold_s = replay("cold")
        timed_s += cold_s
        if index == 0:
            first, table1 = cold, tables[EXPERIMENTS.index("table1")]
        bench.check(cold == first, f"cold pass {index + 1} rendered tables "
                                   "that differ from the first")
        for number in range(1, WARM_REPLAYS + 1):
            _, warm, warm_s = replay("warm")
            timed_s += warm_s
            bench.check(warm == cold, f"warm replay {number} of iteration "
                                      f"{index + 1} rendered tables that "
                                      "differ from its cold pass")
        shutil.rmtree(caches, ignore_errors=True)
    bench.timed_s = timed_s
    rss = peak_rss_mib()

    bench.check(table1 is not None
                and [label for label, _ in table1.rows] == workload_names(),
                "table1 rows are not the eight paper workloads")
    bench.metrics["peak_rss_mib"] = rss
    bench.layers["paper_err_pp"] = (
        paper_err_pp(table1) if table1 is not None else 0.0)
