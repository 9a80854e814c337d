"""Stream-factored kernel: bit-for-bit equivalence with the reference engine.

:mod:`repro.predictors.streams` exists purely as a performance layer — its
contract is that :func:`simulate_streamed` produces byte-identical
:class:`PredictionStats` (counters, BTB statistics, and per-instruction
mispredict masks) to :func:`repro.predictors.engine.simulate` for every
supported config.  These tests pin that contract across all eight
workloads, a representative slice of the paper's Table 4/7/9 design space,
the engine's edge cases (oracle priming, returns-through-target-cache,
2-bit BTB hysteresis, PAs direction prediction), and a hypothesis sweep of
random :class:`EngineConfig`s.
"""

import numpy as np
import pytest

from repro.guest.isa import BranchKind
from repro.predictors import (
    EngineConfig,
    HistoryConfig,
    HistorySource,
    TargetCacheConfig,
    build_streams,
    decode_branches,
    simulate,
    simulate_streamed,
    stream_signature,
    streams_supported,
)
from repro.predictors.btb import UpdateStrategy
from repro.predictors.direction import DirectionConfig
from repro.predictors.history import PathFilter
from repro.workloads import get_trace

try:
    from hypothesis import given, settings
    from hypothesis import strategies as st

    HAVE_HYPOTHESIS = True
except ImportError:  # pragma: no cover
    HAVE_HYPOTHESIS = False


def _pattern(bits=9):
    return HistoryConfig(source=HistorySource.PATTERN, bits=bits)


def _path(path_filter, bits=9, bits_per_target=1, address_bit=2):
    return HistoryConfig(
        source=HistorySource.PATH_GLOBAL, bits=bits,
        bits_per_target=bits_per_target, address_bit=address_bit,
        path_filter=path_filter,
    )


def _per_addr(bits=9, bits_per_target=3):
    return HistoryConfig(
        source=HistorySource.PATH_PER_ADDRESS, bits=bits,
        bits_per_target=bits_per_target,
    )


#: Representative slice of the paper's sweeps: Table 4 (tagless index
#: schemes over pattern history), Table 7 (tagged associativity), Table 9
#: (tagged vs bounding predictors), plus every routing edge case the
#: stream kernel must replicate exactly.
REPRESENTATIVE_CONFIGS = [
    # BTB-only baseline (Tables 1-2)
    EngineConfig(),
    EngineConfig(btb_strategy=UpdateStrategy.TWO_BIT),
    # Table 4: tagless schemes, pattern history
    EngineConfig(target_cache=TargetCacheConfig(kind="tagless", scheme="gag"),
                 history=_pattern()),
    EngineConfig(
        target_cache=TargetCacheConfig(kind="tagless", scheme="gas",
                                       history_bits=6, address_bits=3),
        history=_pattern(),
    ),
    EngineConfig(target_cache=TargetCacheConfig(kind="tagless"),
                 history=_pattern()),
    # Table 5/6-style path histories feeding a tagless cache
    EngineConfig(target_cache=TargetCacheConfig(kind="tagless"),
                 history=_path(PathFilter.IND_JMP, bits_per_target=3)),
    EngineConfig(target_cache=TargetCacheConfig(kind="tagless"),
                 history=_path(PathFilter.CALL_RET, address_bit=4)),
    EngineConfig(target_cache=TargetCacheConfig(kind="tagless"),
                 history=_per_addr()),
    # Table 7: tagged associativity sweep
    EngineConfig(target_cache=TargetCacheConfig(kind="tagged", entries=64,
                                                assoc=1)),
    EngineConfig(target_cache=TargetCacheConfig(kind="tagged", entries=64,
                                                assoc=4)),
    # Table 9 companions: bounding predictors and extensions
    EngineConfig(target_cache=TargetCacheConfig(kind="oracle")),
    EngineConfig(target_cache=TargetCacheConfig(kind="last_target")),
    EngineConfig(target_cache=TargetCacheConfig(kind="cascaded", entries=64,
                                                assoc=2)),
    # routing edge cases
    EngineConfig(target_cache=TargetCacheConfig(kind="tagless"),
                 target_cache_handles_returns=True),
    EngineConfig(target_cache_handles_returns=True),
    EngineConfig(direction=DirectionConfig(scheme="pas", history_bits=6,
                                           address_bits=4),
                 target_cache=TargetCacheConfig(kind="tagless")),
    EngineConfig(btb_sets=32, btb_ways=1, ras_depth=2,
                 target_cache=TargetCacheConfig(kind="tagged", entries=32,
                                                assoc=2)),
]


def assert_identical(a, b):
    assert a.instructions == b.instructions
    assert a.btb_lookups == b.btb_lookups
    assert a.btb_hits == b.btb_hits
    assert set(a.per_kind) == set(b.per_kind)
    for kind in BranchKind:
        assert a.counters(kind).executed == b.counters(kind).executed
        assert a.counters(kind).mispredicted == b.counters(kind).mispredicted
    if a.mispredict_mask is None:
        assert b.mispredict_mask is None
    else:
        assert np.array_equal(a.mispredict_mask, b.mispredict_mask)


class TestEquivalenceAcrossWorkloads:
    def test_bit_identical_on_every_workload(self, all_small_traces):
        for name, trace in all_small_traces.items():
            decoded = decode_branches(trace)
            streams_memo = {}
            for config in REPRESENTATIVE_CONFIGS:
                assert streams_supported(config)
                signature = stream_signature(config)
                streams = streams_memo.get(signature)
                if streams is None:
                    streams = build_streams(decoded, signature)
                    streams_memo[signature] = streams
                reference = simulate(trace, config, collect_mask=True,
                                     decoded=decoded)
                streamed = simulate_streamed(streams, config,
                                             collect_mask=True)
                assert_identical(streamed, reference)
            # the amortisation claim: one stream set served many cells
            assert len(streams_memo) < len(REPRESENTATIVE_CONFIGS)

    def test_masks_optional_like_reference(self, perl_trace):
        decoded = decode_branches(perl_trace)
        config = REPRESENTATIVE_CONFIGS[4]
        streams = build_streams(decoded, stream_signature(config))
        assert simulate_streamed(streams, config).mispredict_mask is None
        mask = simulate_streamed(streams, config,
                                 collect_mask=True).mispredict_mask
        assert mask is not None and mask.dtype == np.bool_


class TestSignature:
    def test_projection_drops_cell_local_fields(self):
        base = EngineConfig()
        tagless = EngineConfig(target_cache=TargetCacheConfig(kind="tagless"))
        tagged = EngineConfig(
            target_cache=TargetCacheConfig(kind="tagged", entries=64, assoc=2),
            history=_path(PathFilter.BRANCH, bits=12),
        )
        assert stream_signature(base) == stream_signature(tagless)
        assert stream_signature(base) == stream_signature(tagged)

    def test_projection_keeps_stream_relevant_fields(self):
        base = stream_signature(EngineConfig())
        assert stream_signature(EngineConfig(btb_sets=64)) != base
        assert stream_signature(
            EngineConfig(btb_strategy=UpdateStrategy.TWO_BIT)
        ) != base
        assert stream_signature(EngineConfig(ras_depth=4)) != base
        assert stream_signature(
            EngineConfig(direction=DirectionConfig(scheme="gag"))
        ) != base
        assert stream_signature(
            EngineConfig(target_cache_handles_returns=True)
        ) != base

    def test_supported_gates_on_wide_history(self):
        assert streams_supported(EngineConfig())
        assert streams_supported(
            EngineConfig(target_cache=TargetCacheConfig(),
                         history=_pattern(bits=64))
        )
        assert not streams_supported(
            EngineConfig(target_cache=TargetCacheConfig(),
                         history=_pattern(bits=65))
        )
        # without a target cache the history width is never consumed
        assert streams_supported(EngineConfig(history=_pattern(bits=65)))
        assert not streams_supported(
            EngineConfig(direction=DirectionConfig(history_bits=65))
        )

    def test_mismatched_signature_raises(self, perl_trace):
        decoded = decode_branches(perl_trace)
        streams = build_streams(decoded, stream_signature(EngineConfig()))
        with pytest.raises(ValueError, match="does not project"):
            simulate_streamed(streams, EngineConfig(btb_sets=64))


@pytest.mark.skipif(not HAVE_HYPOTHESIS, reason="hypothesis not installed")
class TestRandomConfigs:
    @pytest.fixture(scope="class")
    def small_trace(self):
        return get_trace("go", n_instructions=15_000, use_cache=False)

    @pytest.fixture(scope="class")
    def prepared(self, small_trace):
        return small_trace, decode_branches(small_trace), {}

    if HAVE_HYPOTHESIS:
        engine_configs = st.builds(
            EngineConfig,
            btb_sets=st.sampled_from([64, 256]),
            btb_ways=st.sampled_from([1, 4]),
            btb_strategy=st.sampled_from(list(UpdateStrategy)),
            direction=st.builds(
                DirectionConfig,
                scheme=st.sampled_from(["gshare", "gag", "gas", "pas"]),
                history_bits=st.integers(min_value=2, max_value=14),
                address_bits=st.integers(min_value=0, max_value=4),
            ),
            ras_depth=st.integers(min_value=1, max_value=32),
            target_cache=st.one_of(
                st.none(),
                st.builds(
                    TargetCacheConfig,
                    kind=st.sampled_from(
                        ["tagless", "tagged", "cascaded", "oracle",
                         "last_target"]
                    ),
                    scheme=st.sampled_from(["gag", "gas", "gshare"]),
                    history_bits=st.integers(min_value=2, max_value=10),
                    address_bits=st.integers(min_value=0, max_value=3),
                    entries=st.sampled_from([32, 128]),
                    assoc=st.sampled_from([1, 2, 4]),
                ),
            ),
            history=st.builds(
                HistoryConfig,
                source=st.sampled_from(list(HistorySource)),
                bits=st.integers(min_value=4, max_value=24),
                bits_per_target=st.integers(min_value=1, max_value=4),
                address_bit=st.integers(min_value=0, max_value=5),
                path_filter=st.sampled_from(list(PathFilter)),
            ),
            target_cache_handles_returns=st.booleans(),
        )

        @settings(max_examples=25, deadline=None)
        @given(config=engine_configs)
        def test_random_config_bit_identical(self, prepared, config):
            trace, decoded, streams_memo = prepared
            assert streams_supported(config)
            signature = stream_signature(config)
            streams = streams_memo.get(signature)
            if streams is None:
                streams = build_streams(decoded, signature)
                streams_memo[signature] = streams
            reference = simulate(trace, config, collect_mask=True,
                                 decoded=decoded)
            streamed = simulate_streamed(streams, config, collect_mask=True)
            assert_identical(streamed, reference)
