"""Speed guard for the sweep fast path.

Asserts the structural win of :func:`repro.predictors.simulate_many`: over
a batch of configs it must beat the same number of independent
:func:`simulate` calls, because the per-call trace decode (boolean scan,
fancy indexing, numpy-scalar unboxing, enum table lookups) happens once
instead of N times.  Timing is min-of-rounds, with the two blocks run in
turn round by round, so a burst of scheduler noise lands on both rather
than on one; a failure lists every round's two times, so it shows
whether one round or all of them were slow.  If every round is slower
batched, someone re-introduced per-call work into the batched path.

Needs no pytest-benchmark; runs with plain pytest:
``PYTHONPATH=src python -m pytest -q benchmarks/test_runner_speed.py``.
"""

import os

import pytest

from repro.predictors import EngineConfig, simulate, simulate_many
from repro.workloads import get_trace

#: ijpeg has the lowest branch density of the eight workloads, i.e. the
#: largest decode share — the clearest signal for this guard.
WORKLOAD = "ijpeg"
N_CONFIGS = 8
ROUNDS = 5


def _trace_length() -> int:
    return int(os.environ.get("REPRO_BENCH_TRACE_LENGTH", "100000"))


@pytest.fixture(scope="module")
def trace():
    return get_trace(WORKLOAD, n_instructions=_trace_length())


@pytest.fixture(scope="module")
def configs():
    # BTB-geometry sweep: eight distinct cells, no shared predictor state
    return [EngineConfig(btb_sets=1 << bits) for bits in range(4, 4 + N_CONFIGS)]


def test_simulate_many_beats_independent_calls(trace, configs,
                                               alternating_rounds):
    rounds = alternating_rounds(
        lambda: [simulate(trace, c) for c in configs],
        lambda: simulate_many(trace, configs), ROUNDS)
    independent = min(alone for alone, _ in rounds)
    batched = min(together for _, together in rounds)
    listed = ", ".join(f"({alone:.3f}, {together:.3f})"
                       for alone, together in rounds)
    assert batched < independent, (
        f"simulate_many over {N_CONFIGS} configs took {batched:.3f}s but "
        f"{N_CONFIGS} independent simulate calls took {independent:.3f}s — "
        "the batched path lost its decode reuse; (independent, batched) "
        f"seconds per round: {listed}"
    )


def test_simulate_many_results_match_independent_calls(trace, configs):
    # the guard is worthless if the fast path drifts numerically
    batched = simulate_many(trace, configs)
    for config, stats in zip(configs, batched):
        reference = simulate(trace, config)
        assert stats.branches == reference.branches
        assert stats.branch_mispredictions == reference.branch_mispredictions
        assert stats.btb_hits == reference.btb_hits
