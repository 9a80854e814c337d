"""The benchmark's own tests: tracer mechanics and a smoke run per workload.

Run from the repository root with ``python3 -m pytest perfbench -q``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
import types
from pathlib import Path
from typing import Any, Dict, List

import pytest

from perfbench import layers, run
from perfbench.common import Run
from perfbench.tracing import Tracer

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))  # the wrapped layers live in repro


# ----------------------------------------------------------------------
# Tracer.
# ----------------------------------------------------------------------
def test_self_time_subtracts_children_and_unattributed_is_the_rest() -> None:
    tracer = Tracer()
    with tracer.phase("cold"):
        with tracer.span("outer"):
            time.sleep(0.02)
            with tracer.span("inner"):
                time.sleep(0.03)
        time.sleep(0.01)
    self_s = tracer.self_times("cold")
    assert 0.015 < self_s["outer"] < 0.03
    assert 0.025 < self_s["inner"] < 0.045
    assert 0.005 < tracer.unattributed("cold") < 0.02
    assert tracer.spans[1].parent == 0 and tracer.spans[0].parent is None


class _Target:
    @classmethod
    def build(cls, value: int) -> int:
        return value + 1

    def method(self, value: int) -> int:
        return value * 2


def test_patch_wraps_functions_methods_and_classmethods_then_restores() -> None:
    module = types.ModuleType("perfbench_fake_target")
    module.function = lambda value: value - 1  # type: ignore[attr-defined]
    module.Target = _Target  # type: ignore[attr-defined]
    sys.modules[module.__name__] = module
    tracer = Tracer()
    try:
        tracer.timed(f"{module.__name__}.function", "f")
        tracer.timed(f"{module.__name__}.Target.build", "b",
                     lambda t, result: t.count("built", result))
        tracer.timed(f"{module.__name__}.Target.method", "m")
        assert module.function(5) == 4  # type: ignore[attr-defined]
        assert _Target.build(1) == 2
        assert _Target().method(3) == 6
        assert tracer.calls("setup") == {"f": 1, "b": 1, "m": 1}
        assert tracer.phase_counts("setup") == {"built": 2}
        tracer.uninstall()
        assert isinstance(vars(_Target)["build"], classmethod)
        assert _Target.build(1) == 2 and len(tracer.spans) == 3
    finally:
        tracer.uninstall()
        del sys.modules[module.__name__]


def test_a_missing_trace_target_fails_loudly() -> None:
    with pytest.raises(AttributeError):
        Tracer().timed("repro.experiments.common.no_such_layer", "x")


def test_every_layer_target_exists() -> None:
    tracer = Tracer()
    try:
        layers.install(tracer)
    finally:
        tracer.uninstall()


# ----------------------------------------------------------------------
# Iterations.
# ----------------------------------------------------------------------
def _bench(seconds: float, fixed_work: bool = False) -> Run:
    return Run(seed=1, seconds=seconds, smoke=True, work_dir=Path("."),
               spawned_at=0.0, fixed_work=fixed_work)


def test_a_fixed_work_run_makes_exactly_the_fixed_iterations() -> None:
    assert list(_bench(0.0, fixed_work=True).iterations(2)) == [0, 1]


def test_a_time_boxed_run_makes_one_iteration_at_least() -> None:
    assert list(_bench(0.0).iterations(5)) == [0]


def test_a_time_boxed_run_ends_within_half_an_iteration_of_its_box() -> None:
    start = time.perf_counter()
    lengths: List[float] = []
    for _ in _bench(0.2).iterations():
        began = time.perf_counter()
        time.sleep(0.05)
        lengths.append(time.perf_counter() - began)
    elapsed = time.perf_counter() - start
    half = max(lengths) / 2
    assert len(lengths) >= 2
    assert 0.2 - half - 0.01 < elapsed <= 0.2 + half + 0.01


# ----------------------------------------------------------------------
# The declared benchmark.
# ----------------------------------------------------------------------
def _declared() -> Dict[str, Any]:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_benchmark_json_declares_what_the_runner_prints() -> None:
    declared = _declared()
    assert [w["name"] for w in declared["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in declared["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in declared["per_layer"]] == layers.METRICS
    setup = next(m for m in declared["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in declared["end_to_end"])


def _run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("workload", run.WORKLOADS + run.EXTRA_WORKLOADS)
@pytest.mark.parametrize("trace", ["0", "1"])
def test_smoke_run_is_correct_and_prints_every_metric(workload: str,
                                                      trace: str) -> None:
    done = _run("--workload", workload, "--seed", "3", "--seconds", "0.2",
                "--trace", trace, "--smoke")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] is True, done.stderr
    assert result["attempted"] >= 1 and result["failed"] == 0
    kind = "per_layer" if trace == "1" else "end_to_end"
    expected: List[str] = [m["name"] for m in _declared()[kind]]
    assert list(result["metrics"]) == expected
    if trace == "0":
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_without_the_program_it_fails_without_a_result(tmp_path: Path) -> None:
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = _run("--workload", "paper_cold", "--smoke", cwd=tmp_path)
    assert done.returncode != 0
    assert done.stdout.strip() == ""
