"""The segment-memoised timing model against the frozen per-row loop.

:class:`~repro.pipeline.TimingMemo` re-simulates only the stretches
between drained mispredict redirects that a mask has not shown it yet.
Every test here compares whole :class:`~repro.pipeline.TimingResult`s
with ``tests/timing_reference.py``, the loop the memo replaced, over
every workload family, machine shapes at the edges of the drain rule,
and the masks the experiments produce.
"""

import numpy as np
import pytest

from repro.guest.isa import InstrClass
from repro.pipeline import (
    LATENCIES,
    MachineConfig,
    TimingMemo,
    memory_penalties,
    run_timing,
)
from repro.predictors import EngineConfig, TargetCacheConfig, simulate
from repro.workloads import get_trace, workload_names
from tests.timing_reference import reference_timing

try:
    from hypothesis import given, settings
    from hypothesis import strategies as st

    HAVE_HYPOTHESIS = True
except ImportError:  # pragma: no cover
    HAVE_HYPOTHESIS = False

TRACE_LENGTH = 3_000

#: Every registered workload, one server preset and two switch lowerings.
TRACES = workload_names(include_oo=True) + [
    "db_like", "perl@if_tree", "gcc@clustered"]

MACHINES = {
    "default": MachineConfig(),
    # No slack at all: the trace start is not even drained, and its
    # retire-bandwidth slots decide every retire cycle.
    "zero_latency": MachineConfig(
        fetch_width=1, retire_width=1, window=4, frontend_depth=0,
        memory_latency=0, latencies={c: 0 for c in InstrClass}),
    # With every latency >= 2 the drain slack is frontend_depth; the
    # tempting frontend_depth + min_latency - 1 lets a window stall slip.
    "slow": MachineConfig(latencies={c: v + 2 for c, v in LATENCIES.items()}),
    "wide_window": MachineConfig(fetch_width=8, retire_width=8, window=256),
}

PREDICTORS = {
    "btb": EngineConfig(),
    "tagless": EngineConfig(target_cache=TargetCacheConfig(kind="tagless")),
    "tagged": EngineConfig(target_cache=TargetCacheConfig(kind="tagged")),
    "oracle": EngineConfig(target_cache=TargetCacheConfig(kind="oracle")),
}


def _masks(trace):
    """The masks an experiment produces, the edge masks, random flips."""
    n = len(trace)
    masks = [None, np.ones(n, dtype=bool), np.arange(n) == n - 1]
    for config in PREDICTORS.values():
        masks.append(simulate(trace, config, collect_mask=True).mispredict_mask)
    rng = np.random.default_rng(1997)
    for density in (0.002, 0.01, 0.05):
        masks.append(masks[3] ^ (rng.random(n) < density))
    return masks


@pytest.fixture(scope="module")
def workloads():
    traces = {}
    for name in TRACES:
        trace = get_trace(name, n_instructions=TRACE_LENGTH, use_cache=False)
        traces[name] = (trace, _masks(trace))
    return traces


@pytest.mark.parametrize("machine_name", sorted(MACHINES))
@pytest.mark.parametrize("name", TRACES)
def test_memo_matches_reference(workloads, name, machine_name):
    """One memo fed every mask in shuffled order, and a fresh one per mask."""
    trace, masks = workloads[name]
    machine = MACHINES[machine_name]
    penalty = memory_penalties(trace, machine)
    memo = TimingMemo(trace, machine, penalty)
    rng = np.random.default_rng(
        [TRACES.index(name), sorted(MACHINES).index(machine_name)])
    for index in rng.permutation(len(masks)):
        mask = masks[index]
        expected = reference_timing(trace, machine, mask, penalty)
        assert run_timing(trace, machine, mask, penalty, memo=memo) == expected
        assert run_timing(trace, machine, mask, penalty) == expected


class TestReuse:
    @pytest.fixture(scope="class")
    def perl(self):
        trace = get_trace("perl", n_instructions=TRACE_LENGTH, use_cache=False)
        return trace, simulate(trace, EngineConfig(),
                               collect_mask=True).mispredict_mask

    def test_first_run_simulates_each_row_once(self, perl):
        trace, mask = perl
        memo = TimingMemo(trace, MachineConfig())
        memo.run(mask)
        assert memo.rows_simulated == len(trace)

    def test_repeated_mask_simulates_nothing(self, perl):
        trace, mask = perl
        memo = TimingMemo(trace, MachineConfig())
        first = memo.run(mask)
        assert memo.run(mask.copy()) == first
        assert memo.rows_simulated == len(trace)

    def test_late_change_reuses_the_prefix(self, perl):
        trace, mask = perl
        machine = MachineConfig()
        memo = TimingMemo(trace, machine)
        memo.run(mask)
        changed = mask.copy()
        last = int(np.flatnonzero(mask[:-1])[-1])
        changed[last] = False
        assert memo.run(changed) == reference_timing(trace, machine, changed)
        assert memo.rows_simulated - len(trace) < len(trace) // 10

    def test_empty_trace(self, perl):
        trace, _ = perl
        empty = trace[:0]
        assert run_timing(empty, MachineConfig()) == reference_timing(
            empty, MachineConfig())


class TestMemoBinding:
    @pytest.fixture(scope="class")
    def setup(self):
        trace = get_trace("gcc", n_instructions=TRACE_LENGTH, use_cache=False)
        machine = MachineConfig()
        penalty = memory_penalties(trace, machine)
        return trace, machine, penalty, TimingMemo(trace, machine, penalty)

    def test_other_trace_raises(self, setup):
        trace, machine, penalty, memo = setup
        with pytest.raises(ValueError, match="another trace"):
            run_timing(trace[:100], machine, None, penalty[:100], memo=memo)

    def test_other_machine_raises(self, setup):
        trace, _, penalty, memo = setup
        with pytest.raises(ValueError, match="another trace"):
            run_timing(trace, MachineConfig(), None, penalty, memo=memo)

    def test_other_penalty_array_raises(self, setup):
        trace, machine, penalty, memo = setup
        with pytest.raises(ValueError, match="another trace"):
            run_timing(trace, machine, None, penalty.copy(), memo=memo)
        with pytest.raises(ValueError, match="another trace"):
            run_timing(trace, machine, None, None, memo=memo)

    def test_negative_latency_raises(self, setup):
        trace, _, _, _ = setup
        machine = MachineConfig(latencies={c: -1 for c in InstrClass})
        with pytest.raises(ValueError, match="non-negative"):
            run_timing(trace, machine)


@pytest.mark.skipif(not HAVE_HYPOTHESIS, reason="hypothesis not installed")
class TestRandomMachines:
    @pytest.fixture(scope="class")
    def xlisp(self):
        trace = get_trace("xlisp", n_instructions=2_000, use_cache=False)
        return trace, simulate(trace, EngineConfig(),
                               collect_mask=True).mispredict_mask

    if HAVE_HYPOTHESIS:
        machines = st.builds(
            lambda widths, window, frontend, latencies, memory: MachineConfig(
                fetch_width=widths[0], retire_width=widths[1], window=window,
                frontend_depth=frontend, memory_latency=memory,
                latencies=dict(zip(InstrClass, latencies))),
            widths=st.tuples(st.integers(1, 8), st.integers(1, 8)),
            window=st.integers(1, 64),
            frontend=st.integers(0, 8),
            latencies=st.lists(st.integers(0, 10), min_size=len(InstrClass),
                               max_size=len(InstrClass)),
            memory=st.integers(0, 20),
        )

        @settings(max_examples=40, deadline=None)
        @given(machine=machines,
               flips=st.lists(st.tuples(st.integers(0, 2**32 - 1),
                                        st.sampled_from([0.0, 0.005, 0.05, 0.3])),
                              min_size=1, max_size=3))
        def test_random_machine_and_masks(self, xlisp, machine, flips):
            trace, base = xlisp
            penalty = memory_penalties(trace, machine)
            memo = TimingMemo(trace, machine, penalty)
            for seed, density in flips:
                rng = np.random.default_rng(seed)
                mask = base ^ (rng.random(len(trace)) < density)
                assert (run_timing(trace, machine, mask, penalty, memo=memo)
                        == reference_timing(trace, machine, mask, penalty))
