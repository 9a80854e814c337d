"""The stream build against its frozen oracle, field by field.

``build_streams`` runs its direction predictor as a numpy-indexed pass
and its BTB and RAS as one plain-int walk; the per-row method-call walk
it replaced lives on as ``tests/streams_reference.py``.  These tests hold
the two builds to the same :class:`BranchStreams`:

* every workload under every lowering (``jump_table`` is the plain
  trace), at 5k instructions and seeds 1997 and 2027, under seven stream
  signatures: every array field
  by dtype and bytes, ``subset_rows``, ``btb_lookups`` and ``btb_hits``,
  and every history variant (pattern, each path filter, per-address)
  against the frozen variant code;
* synthetic decoded rows that no real trace reaches: a pc whose kind
  changes between rows (the stale-entry rows, ``_SEL_ZERO`` among them),
  pcs that share a BTB word, RAS underflow and overflow, and an indirect
  jump that alternates targets under TWO_BIT; fixed cases plus a
  hypothesis sweep;
* the direction pass row by row against ``DirectionPredictor.predict``
  for all four schemes.
"""

from typing import List, Sequence, Tuple

import numpy as np
import pytest

from repro.guest.isa import BranchKind
from repro.guest.lowering import lowering_names
from repro.predictors import DecodedBranches, build_streams, decode_branches
from repro.predictors.btb import UpdateStrategy
from repro.predictors.direction import DirectionConfig, DirectionPredictor
from repro.predictors.history import PathFilter
from repro.predictors.streams import (
    _SEL_ZERO,
    _TAKEN_THRESHOLD,
    _WIDE_MASK,
    BranchStreams,
    StreamConfig,
    _direction_counters,
)
from repro.workloads.registry import get_trace, workload_names
from tests.streams_reference import (
    reference_build_streams,
    reference_path_variant,
    reference_pattern_variant,
)

try:
    from hypothesis import given, settings
    from hypothesis import strategies as st

    HAVE_HYPOTHESIS = True
except ImportError:  # pragma: no cover
    HAVE_HYPOTHESIS = False

ARRAY_FIELDS = (
    "executed_by_kind", "base_mispredicts_by_kind",
    "fixed_mispredicts_by_kind", "base_mispredict_rows",
    "fixed_mispredict_rows", "backstop_fixed_mispredicts_by_kind",
    "backstop_fixed_mispredict_rows", "subset_indices", "subset_selectors",
)

SIGNATURES = {
    "default": StreamConfig(),
    "two_bit": StreamConfig(btb_strategy=UpdateStrategy.TWO_BIT),
    "64x2-ras4": StreamConfig(btb_sets=64, btb_ways=2, ras_depth=4),
    "16x1-two_bit-returns": StreamConfig(
        btb_sets=16, btb_ways=1, btb_strategy=UpdateStrategy.TWO_BIT,
        target_cache_handles_returns=True),
    "pas(6,3)": StreamConfig(direction=DirectionConfig("pas", 6, 3)),
    "gag(10)": StreamConfig(direction=DirectionConfig("gag", 10)),
    "gas(8,2)-ras1": StreamConfig(direction=DirectionConfig("gas", 8, 2),
                                  ras_depth=1),
}

#: (bits per target, address bit) pairs for the path variants.
PATH_SHAPES = ((1, 2), (3, 4))

WORKLOAD_LOWERINGS = [
    (name, lowering)
    for name in workload_names(include_oo=True, include_server=True)
    for lowering in lowering_names()
]

DIRECTION_CONFIGS = (
    DirectionConfig("gshare", 12), DirectionConfig("gag", 10),
    DirectionConfig("gas", 8, 2), DirectionConfig("pas", 6, 3),
)


def _assert_same_streams(expected: BranchStreams,
                         actual: BranchStreams) -> None:
    for name in ARRAY_FIELDS:
        want = getattr(expected, name)
        got = getattr(actual, name)
        assert got.dtype == want.dtype, name
        assert got.tobytes() == want.tobytes(), name
    assert actual.subset_rows == expected.subset_rows
    assert [tuple(map(type, row)) for row in actual.subset_rows] == [
        tuple(map(type, row)) for row in expected.subset_rows]
    assert actual.btb_lookups == expected.btb_lookups
    assert actual.btb_hits == expected.btb_hits


def _assert_same_variants(expected: BranchStreams,
                          actual: BranchStreams) -> None:
    pairs = [(reference_pattern_variant(expected), actual._variant(("pattern",)))]
    for path_filter in PathFilter:
        for bits_per_target, address_bit in PATH_SHAPES:
            pairs.append((
                reference_path_variant(expected, path_filter,
                                       bits_per_target, address_bit),
                actual._variant(("path", path_filter.value, bits_per_target,
                                 address_bit)),
            ))
    for bits_per_target, address_bit in PATH_SHAPES:
        key = ("addr", bits_per_target, address_bit)
        pairs.append((expected._variant(key), actual._variant(key)))
    for want, got in pairs:
        assert got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("seed", [1997, 2027])
@pytest.mark.parametrize("name,lowering", WORKLOAD_LOWERINGS)
def test_build_matches_reference_on_every_workload(name, lowering, seed):
    trace = get_trace(name, n_instructions=5_000, seed=seed, use_cache=False,
                      lowering=lowering)
    decoded = decode_branches(trace)
    for label, signature in SIGNATURES.items():
        expected = reference_build_streams(decoded, signature)
        actual = build_streams(decoded, signature)
        try:
            _assert_same_streams(expected, actual)
            _assert_same_variants(expected, actual)
        except AssertionError as exc:
            raise AssertionError(f"signature {label}: {exc}") from exc


# ----------------------------------------------------------------------
# Synthetic rows
# ----------------------------------------------------------------------
#: (pc, kind, taken, target, next_pc) per synthetic branch row.
_Row = Tuple[int, BranchKind, bool, int, int]


def _decoded(rows: Sequence[_Row]) -> DecodedBranches:
    """Decoded branches for hand-written rows, one trace row apart."""
    n = len(rows)
    return DecodedBranches(
        instructions=2 * n + 1,
        row_column=np.arange(n, dtype=np.int64) * 2,
        pc_column=np.array([row[0] for row in rows], dtype=np.int64),
        kind_column=np.array([int(row[1]) for row in rows], dtype=np.uint8),
        taken_column=np.array([row[2] for row in rows], dtype=bool),
        target_column=np.array([row[3] for row in rows], dtype=np.uint64),
        next_pc_column=np.array([row[4] for row in rows], dtype=np.int64),
    )


def _taken(pc: int, kind: BranchKind, target: int) -> _Row:
    return (pc, kind, True, target, target)


def _check(rows: Sequence[_Row], signature: StreamConfig) -> BranchStreams:
    decoded = _decoded(rows)
    expected = reference_build_streams(decoded, signature)
    actual = build_streams(decoded, signature)
    _assert_same_streams(expected, actual)
    _assert_same_variants(expected, actual)
    return actual


#: One pc that is a conditional branch, then an indirect jump, then a
#: direct call, then a return: each later row hits the entry the earlier
#: row left, with a stale kind.
STALE_KIND_ROWS: List[_Row] = [
    (0x100, BranchKind.COND_DIRECT, True, 0x200, 0x200),
    (0x100, BranchKind.IND_JUMP, True, 0x300, 0x300),
    (0x100, BranchKind.COND_DIRECT, False, 0x200, 0x104),
    (0x100, BranchKind.CALL_DIRECT, True, 0x400, 0x400),
    (0x100, BranchKind.IND_JUMP, True, 0x300, 0x300),
    (0x100, BranchKind.RETURN, True, 0x104, 0x104),
    (0x100, BranchKind.CALL_INDIRECT, True, 0x500, 0x500),
    (0x100, BranchKind.IND_JUMP, True, 0x300, 0x300),
]


@pytest.mark.parametrize("label", sorted(SIGNATURES))
def test_stale_kind_rows_match_reference(label):
    streams = _check(STALE_KIND_ROWS, SIGNATURES[label])
    # the row after the conditional one hits a stale non-indirect entry:
    # the engine never computes a history there
    assert _SEL_ZERO in streams.subset_selectors.tolist()


def test_pcs_sharing_a_word_keep_the_first_fallthrough():
    # 0x101 and 0x102 share one BTB word: the entry keeps the fallthrough
    # of the pc that allocated it, so the call that hits it pushes 0x105,
    # not its own pc + 4, and the return that pops it at fetch is right
    rows = [
        _taken(0x900, BranchKind.RETURN, 0x105),
        _taken(0x101, BranchKind.CALL_DIRECT, 0x800),
        _taken(0x102, BranchKind.CALL_DIRECT, 0x800),
        _taken(0x900, BranchKind.RETURN, 0x105),
    ]
    streams = _check(rows, StreamConfig())
    assert streams.btb_hits == 2
    assert streams.base_mispredict_rows.tolist() == [0, 2]


@pytest.mark.parametrize("depth", [1, 2])
def test_ras_underflow_and_overflow_match_reference(depth):
    calls = [_taken(0x100 + 8 * k, BranchKind.CALL_DIRECT, 0x800)
             for k in range(4)]
    returns = [_taken(0x900, BranchKind.RETURN, 0x100 + 8 * k + 4)
               for k in reversed(range(4))]
    # twice, so the second pass hits every entry and pops at fetch; the
    # returns outnumber the stack depth, so the later pops underflow
    rows = (calls + returns) * 2 + returns
    _check(rows, StreamConfig(ras_depth=depth))


@pytest.mark.parametrize("strategy", list(UpdateStrategy))
def test_alternating_indirect_targets_match_reference(strategy):
    targets = [0x400, 0x500, 0x500, 0x400, 0x600, 0x600, 0x600, 0x400]
    rows = [_taken(0x100, BranchKind.IND_JUMP, target)
            for target in targets * 3]
    streams = _check(rows, StreamConfig(btb_strategy=strategy))
    assert streams.btb_hits == len(rows) - 1


if HAVE_HYPOTHESIS:
    _PCS = (0x100, 0x101, 0x108, 0x110, 0x118, 0x120, 0x200)
    _TARGETS = (0x104, 0x300, 0x304, 0x400, 0x10c)

    @st.composite
    def _rows(draw):
        count = draw(st.integers(min_value=1, max_value=60))
        rows = []
        for _ in range(count):
            pc = draw(st.sampled_from(_PCS))
            kind = draw(st.sampled_from([kind for kind in BranchKind
                                         if kind is not BranchKind.NOT_BRANCH]))
            taken = draw(st.booleans())
            target = draw(st.sampled_from(_TARGETS))
            next_pc = draw(st.sampled_from((target, pc + 4, 0x104)))
            rows.append((pc, kind, taken, target, next_pc))
        return rows

    _signatures = st.builds(
        StreamConfig,
        btb_sets=st.sampled_from([1, 2, 4]),
        btb_ways=st.integers(min_value=1, max_value=3),
        btb_strategy=st.sampled_from(list(UpdateStrategy)),
        direction=st.sampled_from([
            DirectionConfig("gshare", 3), DirectionConfig("gag", 2),
            DirectionConfig("gas", 2, 2), DirectionConfig("pas", 2, 1),
        ]),
        ras_depth=st.integers(min_value=1, max_value=3),
        target_cache_handles_returns=st.booleans(),
    )

    @settings(max_examples=100, deadline=None)
    @given(rows=_rows(), signature=_signatures)
    def test_synthetic_rows_match_reference(rows, signature):
        _check(rows, signature)

    @settings(max_examples=40, deadline=None)
    @given(rows=_rows(), config=st.sampled_from(DIRECTION_CONFIGS))
    def test_direction_pass_matches_predictor_on_synthetic_rows(rows, config):
        _assert_direction_pass_matches(_decoded(rows), config)


# ----------------------------------------------------------------------
# The direction pass
# ----------------------------------------------------------------------
def _assert_direction_pass_matches(decoded: DecodedBranches,
                                   config: DirectionConfig) -> None:
    predictor = DirectionPredictor(config)
    pattern = 0
    expected = []
    for pc, kind, taken in zip(decoded.pcs, decoded.kinds, decoded.takens):
        expected.append(predictor.predict(pc, pattern))
        if kind is BranchKind.COND_DIRECT:
            predictor.update(pc, pattern, taken)
            pattern = ((pattern << 1) | int(taken)) & _WIDE_MASK
    counters = _direction_counters(decoded, config)
    assert [counter >= _TAKEN_THRESHOLD for counter in counters] == expected


@pytest.mark.parametrize("config", DIRECTION_CONFIGS,
                         ids=lambda config: config.scheme)
@pytest.mark.parametrize("name", ["perl", "gcc", "xlisp"])
def test_direction_pass_matches_predictor_row_by_row(name, config):
    trace = get_trace(name, n_instructions=5_000, use_cache=False)
    _assert_direction_pass_matches(decode_branches(trace), config)
