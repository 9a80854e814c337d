"""Benchmark-harness fixtures.

Each benchmark regenerates one of the paper's tables/figures and prints the
rows (run with ``pytest benchmarks/ --benchmark-only -s`` to see them).
Experiments are full simulations, so every benchmark executes exactly once
(``benchmark.pedantic`` with one round) — the interesting number is the
wall-clock of one regeneration, and the assertions freeze the paper's
qualitative findings.

``REPRO_BENCH_TRACE_LENGTH`` (default 100000) sizes the traces.
"""

import os

import pytest

from repro.experiments.common import ExperimentContext


@pytest.fixture(scope="session", autouse=True)
def _hermetic_caches(tmp_path_factory):
    """Benchmarks measure real regenerations, not result-cache hits, and
    leave no traces in the user's cache directories."""
    patch = pytest.MonkeyPatch()
    patch.setenv("REPRO_TRACE_CACHE", str(tmp_path_factory.mktemp("trace-cache")))
    patch.setenv("REPRO_RESULT_CACHE", str(tmp_path_factory.mktemp("result-cache")))
    yield
    patch.undo()


def bench_trace_length() -> int:
    return int(os.environ.get("REPRO_BENCH_TRACE_LENGTH", "100000"))


@pytest.fixture(scope="session")
def ctx():
    """Shared experiment context: traces and baselines computed once."""
    return ExperimentContext(trace_length=bench_trace_length())


@pytest.fixture
def run_once(benchmark):
    """Run a callable exactly once under the benchmark timer."""

    def runner(func, *args, **kwargs):
        return benchmark.pedantic(func, args=args, kwargs=kwargs,
                                  rounds=1, iterations=1)

    return runner
