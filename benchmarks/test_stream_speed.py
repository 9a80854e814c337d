"""Speed guard for the stream-factored sweep kernel.

The acceptance bar for :mod:`repro.predictors.streams`: once the streams
for a (trace, signature) pair are built, simulating a cell must cost at
least 5x less than the reference :func:`simulate_many` path, because the
per-cell loop touches only the target-cache-relevant subset of branches
(a few percent) instead of every dynamic branch.  A second assertion keeps
the stream build itself amortisable: build + warm sweep must beat the
reference sweep outright, otherwise grouping cells by signature in
``run_cells`` would no longer pay.  A third keeps the build itself at
array speed: building perl's streams for Table 2's two signatures must
beat the frozen per-row walk it replaced (``tests/streams_reference.py``)
by at least 1.6x.  On a shared 2-vCPU host its measurement read
2.6-3.4x at 60k instructions over four runs, and 1.04x with
``build_streams`` pointed back at the frozen walk.

Timing is min-of-rounds (like ``test_runner_speed.py``) so scheduler noise
cannot mask a regression; the build guard runs its two timed blocks in
turn, round by round, as ``test_timing_speed.py`` does, and a failure
lists every round's two times.  Runs with plain pytest from the
repository root:
``PYTHONPATH=src python -m pytest -q benchmarks/test_stream_speed.py``.
"""

import os
import time

import pytest

from repro.predictors import (
    EngineConfig,
    TargetCacheConfig,
    build_streams,
    decode_branches,
    simulate,
    simulate_many,
    simulate_streamed,
    stream_signature,
)
from repro.predictors.btb import UpdateStrategy
from repro.workloads import get_trace
from tests.streams_reference import reference_build_streams

#: perl is the paper's indirect-jump-heavy headline workload; its subset
#: fraction is realistic for the sweeps the kernel exists to accelerate.
WORKLOAD = "perl"
N_CONFIGS = 12
ROUNDS = 3
MIN_WARM_SPEEDUP = 5.0
BUILD_ROUNDS = 5
BUILDS_PER_ROUND = 3
MIN_BUILD_SPEEDUP = 1.6


def _trace_length() -> int:
    return int(os.environ.get("REPRO_BENCH_TRACE_LENGTH", "100000"))


@pytest.fixture(scope="module")
def trace():
    return get_trace(WORKLOAD, n_instructions=_trace_length())


@pytest.fixture(scope="module")
def configs():
    # a Table 7/8-style tagged-geometry sweep: one stream signature
    return [
        EngineConfig(
            target_cache=TargetCacheConfig(kind="tagged", entries=entries,
                                           assoc=assoc)
        )
        for entries in (128, 256, 512, 1024)
        for assoc in (1, 2, 4)
    ][:N_CONFIGS]


def _min_time(func, rounds=ROUNDS):
    best = float("inf")
    for _ in range(rounds):
        start = time.perf_counter()
        func()
        best = min(best, time.perf_counter() - start)
    return best


def test_warm_stream_sweep_is_5x_faster_per_cell(trace, configs):
    decoded = decode_branches(trace)
    signature = stream_signature(configs[0])
    streams = build_streams(decoded, signature)

    reference = _min_time(lambda: simulate_many(trace, configs))
    warm = _min_time(
        lambda: [simulate_streamed(streams, config) for config in configs]
    )
    speedup = reference / warm
    assert speedup >= MIN_WARM_SPEEDUP, (
        f"warm stream sweep over {len(configs)} cells took {warm:.3f}s vs "
        f"{reference:.3f}s reference ({speedup:.1f}x < "
        f"{MIN_WARM_SPEEDUP:.0f}x) — the stream kernel lost its "
        "subset-only per-cell loop"
    )


def test_build_plus_warm_sweep_beats_reference(trace, configs):
    decoded = decode_branches(trace)
    signature = stream_signature(configs[0])

    reference = _min_time(lambda: simulate_many(trace, configs))

    def cold_sweep():
        streams = build_streams(decoded, signature)
        return [simulate_streamed(streams, config) for config in configs]

    cold = _min_time(cold_sweep)
    assert cold < reference, (
        f"stream build + sweep took {cold:.3f}s but the reference sweep "
        f"took {reference:.3f}s — building streams no longer amortises "
        f"over {len(configs)} cells"
    )


def test_stream_results_match_reference(trace, configs):
    # the guard is worthless if the fast path drifts numerically
    decoded = decode_branches(trace)
    streams = build_streams(decoded, stream_signature(configs[0]))
    for config in configs:
        reference = simulate(trace, config, decoded=decoded)
        got = simulate_streamed(streams, config)
        assert got.branches == reference.branches
        assert got.branch_mispredictions == reference.branch_mispredictions
        assert got.btb_hits == reference.btb_hits


def test_build_is_1_6x_faster_than_reference(trace, alternating_rounds):
    decoded = decode_branches(trace)
    signatures = [stream_signature(EngineConfig(btb_strategy=strategy))
                  for strategy in UpdateStrategy]

    def builds(build):
        return lambda: [build(decoded, signature)
                        for _ in range(BUILDS_PER_ROUND)
                        for signature in signatures]

    rounds = alternating_rounds(builds(reference_build_streams),
                                builds(build_streams), BUILD_ROUNDS)
    measured = (min(reference for reference, _ in rounds)
                / min(build for _, build in rounds))
    listed = ", ".join(f"({reference:.3f}, {build:.3f})"
                       for reference, build in rounds)
    assert measured >= MIN_BUILD_SPEEDUP, (
        f"building {WORKLOAD}'s streams ran {measured:.2f}x faster than the "
        f"frozen per-row walk (< {MIN_BUILD_SPEEDUP}x) — the build is back "
        f"to a method call per row; (reference, build) seconds per round: "
        f"{listed}"
    )
