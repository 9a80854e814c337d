"""Speed guard for the segment-memoised timing model.

The paper's execution-time tables time one trace under a family of
mispredict masks that differ only at a few branch rows.  Timing Table 5's
31 perl masks through one fresh :class:`~repro.pipeline.TimingMemo`,
build included, must beat the per-row loop the memo replaced
(``tests/timing_reference.py``) by at least 3x, because only the stretches
between drained redirects that a mask changes are re-simulated.  On a
2-vCPU host it measured 4.2x at 20k instructions (3.2-3.5x at 60k-100k,
where the masks of one family diverge more).

The length is fixed at 20k, the length the repository benchmark's paper
run times, rather than read from ``REPRO_BENCH_TRACE_LENGTH``.  Timing is
min-of-rounds so scheduler noise cannot mask a regression.  Runs with
plain pytest from the repository root:
``PYTHONPATH=src python -m pytest -q benchmarks/test_timing_speed.py``.
"""

import time

import pytest

from repro.experiments.common import ExperimentContext
from repro.experiments.configs import (
    PATH_SCHEME_LABELS,
    path_scheme_history,
    tagless_engine,
)
from repro.experiments.table5 import ADDRESS_BITS
from repro.pipeline import TimingMemo, run_timing
from repro.predictors import EngineConfig
from tests.timing_reference import reference_timing

TRACE_LENGTH = 20_000
ROUNDS = 3
MIN_SPEEDUP = 3.0


@pytest.fixture(scope="module")
def family():
    """Table 5's perl cells: the baseline plus 6 address bits x 5 schemes."""
    configs = [EngineConfig()] + [
        tagless_engine(history=path_scheme_history(
            scheme, bits=9, bits_per_target=1, address_bit=address_bit))
        for address_bit in ADDRESS_BITS
        for scheme in PATH_SCHEME_LABELS
    ]
    ctx = ExperimentContext(trace_length=TRACE_LENGTH, jobs=1)
    stats = ctx.predictions([("perl", config) for config in configs],
                            collect_mask=True)
    masks = [cell.mispredict_mask for cell in stats]
    return ctx.trace("perl"), ctx.machine, ctx.penalty("perl"), masks


def _min_time(func, rounds=ROUNDS):
    best = float("inf")
    for _ in range(rounds):
        start = time.perf_counter()
        func()
        best = min(best, time.perf_counter() - start)
    return best


def test_memo_times_a_mask_family_3x_faster(family):
    trace, machine, penalty, masks = family
    assert len(masks) == 31

    def memoised():
        memo = TimingMemo(trace, machine, penalty)
        return [run_timing(trace, machine, mask, penalty, memo=memo)
                for mask in masks]

    reference = _min_time(
        lambda: [reference_timing(trace, machine, mask, penalty)
                 for mask in masks])
    fast = _min_time(memoised)
    speedup = reference / fast
    assert speedup >= MIN_SPEEDUP, (
        f"timing {len(masks)} masks through a fresh memo took {fast:.3f}s vs "
        f"{reference:.3f}s for the per-row loop ({speedup:.1f}x < "
        f"{MIN_SPEEDUP:.0f}x) — the memo stopped reusing segments"
    )


def test_memo_results_match_reference(family):
    # the guard is worthless if the fast path drifts
    trace, machine, penalty, masks = family
    memo = TimingMemo(trace, machine, penalty)
    for mask in masks:
        assert (run_timing(trace, machine, mask, penalty, memo=memo)
                == reference_timing(trace, machine, mask, penalty))
