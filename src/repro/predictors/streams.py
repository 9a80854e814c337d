"""Stream-factored sweep kernel: per-trace precomputation shared by cells.

The paper's experiment matrix (Tables 4-9, Figures 12-13) sweeps dozens of
target-cache configurations over the same eight traces.  In the retire-order
non-speculative simulation of :func:`repro.predictors.engine.simulate`, the
BTB, the RAS, the direction predictor, and every history register evolve as
functions of the *trace and the base config only* — the target cache merely
reads history values and produces predictions, and nothing about its
contents ever feeds back into the other structures (the BTB trains on
``entry.target == target``, the RAS on BTB routing, the histories on retired
control flow).  This module exploits that invariance:

* :func:`stream_signature` projects an :class:`EngineConfig` onto the
  fields the shared streams depend on (:class:`StreamConfig`): BTB
  geometry/strategy, direction config, RAS depth, and the
  returns-through-target-cache ablation flag.  Everything else — the whole
  target-cache design space and the history *widths* — varies freely
  between cells sharing one stream set.
* :func:`build_streams` walks the decoded trace once per signature and
  materialises :class:`BranchStreams`: NumPy arrays of per-branch BTB
  hit/kind/stored-target and routing outcomes, mispredict outcomes of every
  branch the target cache cannot influence, and — lazily, per history
  variant actually requested — the 64-bit-wide pattern / global-path /
  per-address path history value each target-cache access would see.
* :func:`simulate_streamed` consumes the streams for one cell: it loops
  over just the target-cache-relevant subset of branches (typically a few
  percent), driving the real target-cache object with exactly the
  ``predict``/``update``/``prime`` call sequence the reference engine would
  issue, then assembles :class:`PredictionStats` bit-identical to
  :func:`~repro.predictors.engine.simulate`.

History widths are handled with a suffix trick: every history register here
is a shift register, so the low ``bits`` bits of a 64-bit-wide register
equal the value of a ``bits``-wide register fed the same updates.  One wide
stream therefore serves every requested width up to 64
(:func:`streams_supported` gates the rest back to the reference engine).

The reference :func:`~repro.predictors.engine.simulate` stays the oracle:
``tests/test_streams.py`` asserts bit-identical stats and mispredict masks
across workloads, configs, and hypothesis-generated ``EngineConfig``s.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import repeat
from typing import Dict, Iterable, List, Optional, Tuple

import numpy as np
import numpy.typing as npt

from repro.guest.isa import INSTRUCTION_BYTES, BranchKind
from repro.predictors.btb import BranchTargetBuffer, UpdateStrategy
from repro.predictors.direction import DirectionConfig, DirectionPredictor
from repro.predictors.engine import (
    _CALL_KINDS,
    _TARGET_CACHE_KINDS,
    DecodedBranches,
    EngineConfig,
    HistorySource,
    PredictionStats,
)
from repro.predictors.history import PathFilter
from repro.predictors.ras import ReturnAddressStack
from repro.predictors.registry import registration

#: Width of the shared wide history registers.  Any cell needing more bits
#: than this falls back to the reference engine (see streams_supported).
WIDE_HISTORY_BITS = 64
_WIDE_MASK = (1 << WIDE_HISTORY_BITS) - 1

#: Per-subset-row history selection: which register snapshot the engine
#: would hand the target cache.
_SEL_PRE = 0    #: fetch-time value (BTB identified the jump)
_SEL_POST = 1   #: resolve-time value after this branch's own updates
_SEL_ZERO = 2   #: engine quirk: BTB hit with a stale non-indirect kind

#: Branch-kind *values* (ints) accepted by each global path-history filter,
#: mirroring PathFilter.accepts without per-branch enum property calls.
_FILTER_KIND_VALUES: Dict[PathFilter, Tuple[int, ...]] = {
    PathFilter.CONTROL: tuple(
        int(kind) for kind in BranchKind if kind is not BranchKind.NOT_BRANCH
    ),
    PathFilter.BRANCH: (int(BranchKind.COND_DIRECT),),
    PathFilter.CALL_RET: (
        int(BranchKind.CALL_DIRECT),
        int(BranchKind.CALL_INDIRECT),
        int(BranchKind.RETURN),
    ),
    PathFilter.IND_JMP: (
        int(BranchKind.CALL_INDIRECT),
        int(BranchKind.IND_JUMP),
    ),
}

#: Kind values that update the per-address path history (module frozenset
#: so the per-row test in the variant walk is an int membership).
_PER_ADDRESS_KIND_VALUES = frozenset(int(kind) for kind in _TARGET_CACHE_KINDS)

_N_KINDS = max(BranchKind) + 1

#: One target-cache-relevant row, pre-unpacked for the cell kernel:
#: (pc, kind value, target, next_pc, fallback prediction, routed-at-fetch,
#:  updates-the-cache, trace row index, BTB-missed).  The fallback is the
#: BTB's stored target on routed rows and the fall-through address on
#: BTB-missed rows (read only by ``predicts_on_btb_miss`` kinds there).
_SubsetRow = Tuple[int, int, int, int, int, bool, bool, int, bool]


@dataclass(frozen=True)
class SubsetColumns:
    """The target-cache subset as parallel numpy columns.

    The columnar twin of ``BranchStreams.subset_rows``: one array per
    field, aligned by position, shared read-only by every vector-tier
    cell (:mod:`repro.predictors.vector`).  Built lazily because the
    scalar stream kernel never needs it.
    """

    pcs: "npt.NDArray[np.int64]"
    kind_values: "npt.NDArray[np.int64]"
    targets: "npt.NDArray[np.int64]"
    next_pcs: "npt.NDArray[np.int64]"
    fallbacks: "npt.NDArray[np.int64]"
    routed: "npt.NDArray[np.bool_]"
    updates: "npt.NDArray[np.bool_]"
    rows: "npt.NDArray[np.int64]"
    btb_missed: "npt.NDArray[np.bool_]"
    #: 0..n-1, cached so per-cell kernels skip the arange
    positions: "npt.NDArray[np.int64]"


@dataclass(frozen=True)
class StreamConfig:
    """The stream-relevant projection of an :class:`EngineConfig`.

    Two cells whose configs project to the same ``StreamConfig`` share one
    :class:`BranchStreams`: the fields left out (the target-cache config
    and the history widths/sources) cannot change any shared stream.
    """

    btb_sets: int = 256
    btb_ways: int = 4
    btb_strategy: UpdateStrategy = UpdateStrategy.DEFAULT
    direction: DirectionConfig = DirectionConfig()
    ras_depth: int = 32
    target_cache_handles_returns: bool = False


def stream_signature(config: EngineConfig) -> StreamConfig:
    """Project ``config`` onto the fields the shared streams depend on."""
    return StreamConfig(
        btb_sets=config.btb_sets,
        btb_ways=config.btb_ways,
        btb_strategy=config.btb_strategy,
        direction=config.direction,
        ras_depth=config.ras_depth,
        target_cache_handles_returns=config.target_cache_handles_returns,
    )


def streams_supported(config: EngineConfig) -> bool:
    """Whether :func:`simulate_streamed` can reproduce ``config`` exactly.

    The wide-register suffix trick needs every consumed history width to
    fit in :data:`WIDE_HISTORY_BITS`; anything wider goes through the
    reference engine (the sweep runner falls back automatically).  A
    registered predictor kind can also opt out wholesale by declaring
    ``streams_supported=False`` in its traits.
    """
    if config.direction.history_bits > WIDE_HISTORY_BITS:
        return False
    if config.target_cache is not None:
        if not registration(config.target_cache.kind).traits.streams_supported:
            return False
        if config.history.bits > WIDE_HISTORY_BITS:
            return False
    return True


class BranchStreams:
    """Precomputed per-branch streams for one ``(trace, StreamConfig)``.

    Everything here is a pure function of the decoded trace and the stream
    config — never of any target-cache contents — so a single instance
    serves every cell whose config projects to the same signature.
    History-variant streams are materialised lazily on first request and
    memoised (a Table 7 sweep needs one variant; a Table 5 sweep several).
    """

    def __init__(self, decoded: DecodedBranches, config: StreamConfig,
                 btb_lookups: int, btb_hits: int,
                 executed_by_kind: "npt.NDArray[np.int64]",
                 base_mispredicts_by_kind: "npt.NDArray[np.int64]",
                 fixed_mispredicts_by_kind: "npt.NDArray[np.int64]",
                 base_mispredict_rows: "npt.NDArray[np.int64]",
                 fixed_mispredict_rows: "npt.NDArray[np.int64]",
                 backstop_fixed_mispredicts_by_kind: "npt.NDArray[np.int64]",
                 backstop_fixed_mispredict_rows: "npt.NDArray[np.int64]",
                 subset_indices: "npt.NDArray[np.int64]",
                 subset_selectors: "npt.NDArray[np.int8]",
                 subset_rows: List[_SubsetRow]) -> None:
        self.decoded = decoded
        self.config = config
        self.instructions = decoded.instructions
        self.n_branches = len(decoded.rows)
        self.btb_lookups = btb_lookups
        self.btb_hits = btb_hits
        #: executed branches per BranchKind value
        self.executed_by_kind = executed_by_kind
        #: mispredicts per kind when every target-cache access structurally
        #: misses (= the exact counts of any cell with no target cache)
        self.base_mispredicts_by_kind = base_mispredicts_by_kind
        #: mispredicts per kind on branches the target cache never predicts
        #: (fixed across every cell sharing these streams)
        self.fixed_mispredicts_by_kind = fixed_mispredicts_by_kind
        #: trace row indices behind the two mispredict counters above
        self.base_mispredict_rows = base_mispredict_rows
        self.fixed_mispredict_rows = fixed_mispredict_rows
        #: like the fixed counters, but additionally excluding BTB-missed
        #: target-cache rows — those become variable for a kind whose
        #: traits declare ``predicts_on_btb_miss`` (the engine consults
        #: the cache there instead of predicting fall-through)
        self.backstop_fixed_mispredicts_by_kind = (
            backstop_fixed_mispredicts_by_kind
        )
        self.backstop_fixed_mispredict_rows = backstop_fixed_mispredict_rows
        #: positions (into the decoded branch arrays) of the target-cache
        #: relevant subset, plus each row's history-snapshot selector
        self.subset_indices = subset_indices
        self.subset_selectors = subset_selectors
        #: the same subset pre-unpacked into plain tuples for the kernel
        self.subset_rows = subset_rows
        self._variants: Dict[Tuple[object, ...], "npt.NDArray[np.uint64]"] = {}
        self._masked: Dict[Tuple[object, ...], List[int]] = {}
        self._masked_arrays: Dict[
            Tuple[object, ...], "npt.NDArray[np.uint64]"
        ] = {}
        self._columns: Optional[SubsetColumns] = None

    # ------------------------------------------------------------------
    @property
    def subset_size(self) -> int:
        return len(self.subset_rows)

    # ------------------------------------------------------------------
    def columns(self) -> SubsetColumns:
        """The subset rows as parallel numpy columns (lazily memoised)."""
        cached = self._columns
        if cached is None:
            matrix = np.array(self.subset_rows, dtype=np.int64)
            if matrix.size == 0:
                matrix = matrix.reshape(0, 9)  # the 9 _SubsetRow fields
            cached = SubsetColumns(
                pcs=matrix[:, 0].copy(),
                kind_values=matrix[:, 1].copy(),
                targets=matrix[:, 2].copy(),
                next_pcs=matrix[:, 3].copy(),
                fallbacks=matrix[:, 4].copy(),
                routed=matrix[:, 5].astype(bool),
                updates=matrix[:, 6].astype(bool),
                rows=matrix[:, 7].copy(),
                btb_missed=matrix[:, 8].astype(bool),
                positions=np.arange(len(matrix), dtype=np.int64),
            )
            self._columns = cached
        return cached

    # ------------------------------------------------------------------
    def _history_key(self, config: EngineConfig) -> Tuple[Tuple[object, ...], int]:
        """(variant key, consumed width) pair for ``config.history``."""
        history = config.history
        source = history.source
        if source is HistorySource.PATTERN:
            key: Tuple[object, ...] = ("pattern",)
            width = max(self.config.direction.history_bits, history.bits)
        elif source is HistorySource.PATH_GLOBAL:
            key = ("path", history.path_filter.value,
                   history.bits_per_target, history.address_bit)
            width = history.bits
        else:
            key = ("addr", history.bits_per_target, history.address_bit)
            width = history.bits
        if width > WIDE_HISTORY_BITS:
            raise ValueError(
                f"history width {width} exceeds the {WIDE_HISTORY_BITS}-bit "
                "stream registers; use the reference simulate"
            )
        return key, width

    # ------------------------------------------------------------------
    def tc_history_values(self, config: EngineConfig) -> List[int]:
        """History value per subset row, exactly as the engine computes it.

        Selects the variant named by ``config.history``, applies the
        PRE/POST/ZERO snapshot selection recorded at build time, and masks
        the wide register down to the width the engine's registers would
        have under ``config`` (the suffix property makes the mask exact).
        """
        key, width = self._history_key(config)
        masked_key = key + (width,)
        cached = self._masked.get(masked_key)
        if cached is None:
            cached = self.tc_history_array(config).tolist()
            self._masked[masked_key] = cached
        return cached

    # ------------------------------------------------------------------
    def tc_history_array(self, config: EngineConfig) -> "npt.NDArray[np.uint64]":
        """Array form of :meth:`tc_history_values` for the vector tier.

        Same variant selection and width masking, but kept as a uint64
        column (memoised separately) so whole-array index schemes can
        consume it without a Python-level materialisation.
        """
        key, width = self._history_key(config)
        masked_key = key + (width,)
        cached = self._masked_arrays.get(masked_key)
        if cached is None:
            wide = self._variant(key)
            width_mask = (1 << width) - 1
            cached = wide & np.uint64(width_mask)
            self._masked_arrays[masked_key] = cached
        return cached

    # ------------------------------------------------------------------
    def _variant(self, key: Tuple[object, ...]) -> "npt.NDArray[np.uint64]":
        values = self._variants.get(key)
        if values is None:
            if key[0] == "pattern":
                values = self._pattern_variant()
            elif key[0] == "path":
                assert isinstance(key[1], str)
                assert isinstance(key[2], int) and isinstance(key[3], int)
                values = self._path_variant(PathFilter(key[1]), key[2], key[3])
            else:
                assert isinstance(key[1], int) and isinstance(key[2], int)
                values = self._per_address_variant(key[1], key[2])
            self._variants[key] = values
        return values

    def _pattern_variant(self) -> "npt.NDArray[np.uint64]":
        """Wide global pattern history (conditional outcomes) per subset row."""
        decoded = self.decoded
        kind_values = np.fromiter(
            (int(kind) for kind in decoded.kinds), dtype=np.int64,
            count=self.n_branches,
        )
        qualifying = np.flatnonzero(kind_values == int(BranchKind.COND_DIRECT))
        takens = np.asarray(decoded.takens, dtype=np.int64)
        fragments = takens[qualifying]
        return _variant_walk(
            qualifying.tolist(), fragments.tolist(),
            self.subset_indices.tolist(), self.subset_selectors.tolist(), 1,
        )

    def _path_variant(self, path_filter: PathFilter, bits_per_target: int,
                      address_bit: int) -> "npt.NDArray[np.uint64]":
        """Wide global path history for one (filter, bpt, bit) variant."""
        decoded = self.decoded
        kind_values = np.fromiter(
            (int(kind) for kind in decoded.kinds), dtype=np.int64,
            count=self.n_branches,
        )
        accepted = np.isin(
            kind_values, np.asarray(_FILTER_KIND_VALUES[path_filter])
        )
        # the engine records only redirecting executions (redirected=taken)
        accepted &= np.asarray(decoded.takens, dtype=bool)
        qualifying = np.flatnonzero(accepted)
        destinations = np.asarray(decoded.next_pcs, dtype=np.int64)[qualifying]
        fragment_mask = (1 << bits_per_target) - 1
        fragments = (destinations >> address_bit) & fragment_mask
        return _variant_walk(
            qualifying.tolist(), fragments.tolist(),
            self.subset_indices.tolist(), self.subset_selectors.tolist(),
            bits_per_target,
        )

    def _per_address_variant(self, bits_per_target: int,
                             address_bit: int) -> "npt.NDArray[np.uint64]":
        """Wide per-address path history per subset row.

        Per-address registers update only on indirect jump/call rows and
        are read only at target-cache accesses — both inside the subset —
        so this walk never touches the other branches.
        """
        fragment_mask = (1 << bits_per_target) - 1
        registers: Dict[int, int] = {}
        selectors = self.subset_selectors.tolist()
        out = [0] * len(selectors)
        get_register = registers.get
        for j, (pc, kind_value, target, _next_pc, _fallback, _routed,
                _updates, _row, _btb_missed) in enumerate(self.subset_rows):
            selector = selectors[j]
            value = get_register(pc, 0)
            if selector == _SEL_PRE:
                out[j] = value
            if kind_value in _PER_ADDRESS_KIND_VALUES:
                fragment = (target >> address_bit) & fragment_mask
                value = ((value << bits_per_target) | fragment) & _WIDE_MASK
                registers[pc] = value
            if selector == _SEL_POST:
                out[j] = value
        return np.array(out, dtype=np.uint64)


def _variant_walk(qualifying: List[int], fragments: List[int],
                  subset: List[int], selectors: List[int],
                  bits_per_target: int) -> "npt.NDArray[np.uint64]":
    """Replay one shift register, sampling it at the subset rows.

    ``qualifying``/``fragments`` name the branch positions that shift the
    register and what they shift in; ``subset``/``selectors`` name where to
    sample and whether the engine reads the register before (PRE) or after
    (POST) that row's own update — or not at all (ZERO).
    """
    out = [0] * len(subset)
    value = 0
    cursor = 0
    n_qualifying = len(qualifying)
    for j, row in enumerate(subset):
        while cursor < n_qualifying and qualifying[cursor] < row:
            value = ((value << bits_per_target) | fragments[cursor]) & _WIDE_MASK
            cursor += 1
        selector = selectors[j]
        if selector == _SEL_PRE:
            out[j] = value
        if cursor < n_qualifying and qualifying[cursor] == row:
            value = ((value << bits_per_target) | fragments[cursor]) & _WIDE_MASK
            cursor += 1
        if selector == _SEL_POST:
            out[j] = value
    return np.array(out, dtype=np.uint64)


def build_streams(decoded: DecodedBranches,
                  config: StreamConfig) -> BranchStreams:
    """Walk ``decoded`` once under ``config`` and materialise the streams.

    This is the amortised cost: one reference-speed pass over every branch
    (BTB + RAS + direction predictor, no target cache), after which every
    cell sharing the signature pays only for its target-cache subset.
    """
    btb = BranchTargetBuffer(sets=config.btb_sets, ways=config.btb_ways,
                             strategy=config.btb_strategy)
    direction = DirectionPredictor(config.direction)
    ras = ReturnAddressStack(depth=config.ras_depth)
    handles_returns = config.target_cache_handles_returns
    if handles_returns:
        tc_kinds = _TARGET_CACHE_KINDS | {BranchKind.RETURN}
    else:
        tc_kinds = _TARGET_CACHE_KINDS

    lookup = btb.lookup
    update_btb = btb.update
    predict_direction = direction.predict
    update_direction = direction.update
    push_ras = ras.push
    pop_ras = ras.pop
    cond_kind = BranchKind.COND_DIRECT
    return_kind = BranchKind.RETURN
    call_kinds = _CALL_KINDS
    sel_pre, sel_post, sel_zero = _SEL_PRE, _SEL_POST, _SEL_ZERO

    pattern = 0
    base_mispredicts: List[bool] = []
    append_mispredict = base_mispredicts.append
    subset_index: List[int] = []
    subset_selector: List[int] = []
    subset_rows: List[_SubsetRow] = []
    append_subset = subset_rows.append
    append_index = subset_index.append
    append_selector = subset_selector.append
    routed_positions: List[int] = []
    append_routed = routed_positions.append
    missed_positions: List[int] = []
    append_missed = missed_positions.append

    for i, (row, pc, kind, taken, target, next_pc) in enumerate(zip(
        decoded.rows, decoded.pcs, decoded.kinds, decoded.takens,
        decoded.targets, decoded.next_pcs,
    )):
        fallthrough = pc + INSTRUCTION_BYTES
        entry = lookup(pc)
        routed = False
        popped_ras = False
        if entry is None:
            hit = False
            stored_target = 0
            base_prediction = fallthrough
        else:
            hit = True
            entry_kind = entry.kind
            stored_target = entry.target
            if entry_kind is cond_kind:
                if predict_direction(pc, pattern):
                    base_prediction = stored_target
                else:
                    base_prediction = fallthrough
            elif entry_kind is return_kind and not handles_returns:
                popped = pop_ras()
                popped_ras = True
                base_prediction = popped if popped is not None else fallthrough
            elif entry_kind in tc_kinds:
                # a structural target-cache miss falls back to the BTB's
                # stored target; cells adjust routed rows from here
                routed = True
                base_prediction = stored_target
            else:
                base_prediction = stored_target
            if entry_kind in call_kinds:
                push_ras(entry.fallthrough)
        append_mispredict(base_prediction != next_pc)

        # ----- resolve-time updates, mirroring process_branch exactly
        if kind is cond_kind:
            update_direction(pc, pattern, taken)
            pattern = ((pattern << 1) | (1 if taken else 0)) & _WIDE_MASK
        updates_cache = kind in tc_kinds
        if updates_cache or routed:
            btb_missed = False
            fallback = stored_target
            if not updates_cache:
                selector = sel_pre
            elif not hit:
                # no fetch-time access happened; the engine indexes with
                # the history as of resolve (after this branch's updates).
                # A predicts_on_btb_miss kind still predicts here, falling
                # back to fall-through when it too structurally misses.
                selector = sel_post
                btb_missed = True
                fallback = fallthrough
                append_missed(i)
            elif routed:
                selector = sel_pre
            else:
                # BTB hit with a stale non-indirect kind: the engine never
                # computes a history and updates with index 0
                selector = sel_zero
            append_index(i)
            append_selector(selector)
            append_subset((pc, int(kind), target, next_pc, fallback,
                           routed, updates_cache, row, btb_missed))
            if routed:
                append_routed(i)
        if kind is return_kind and not popped_ras:
            pop_ras()
        if kind in call_kinds and entry is None:
            push_ras(fallthrough)
        update_btb(pc, kind, target,
                   predicted_target_correct=hit and stored_target == target)

    n = len(decoded.rows)
    kind_values = np.fromiter(
        (int(kind) for kind in decoded.kinds), dtype=np.int64, count=n,
    )
    mispredicted = np.asarray(base_mispredicts, dtype=bool)
    routed_mask = np.zeros(n, dtype=bool)
    if routed_positions:
        routed_mask[np.asarray(routed_positions, dtype=np.int64)] = True
    missed_mask = np.zeros(n, dtype=bool)
    if missed_positions:
        missed_mask[np.asarray(missed_positions, dtype=np.int64)] = True
    rows = np.asarray(decoded.rows, dtype=np.int64)
    fixed = mispredicted & ~routed_mask
    backstop_fixed = fixed & ~missed_mask
    return BranchStreams(
        decoded=decoded,
        config=config,
        btb_lookups=btb.lookups,
        btb_hits=btb.hits,
        executed_by_kind=np.bincount(kind_values, minlength=_N_KINDS),
        base_mispredicts_by_kind=np.bincount(
            kind_values[mispredicted], minlength=_N_KINDS
        ),
        fixed_mispredicts_by_kind=np.bincount(
            kind_values[fixed], minlength=_N_KINDS
        ),
        base_mispredict_rows=rows[mispredicted],
        fixed_mispredict_rows=rows[fixed],
        backstop_fixed_mispredicts_by_kind=np.bincount(
            kind_values[backstop_fixed], minlength=_N_KINDS
        ),
        backstop_fixed_mispredict_rows=rows[backstop_fixed],
        subset_indices=np.asarray(subset_index, dtype=np.int64),
        subset_selectors=np.asarray(subset_selector, dtype=np.int8),
        subset_rows=subset_rows,
    )


def simulate_streamed(streams: BranchStreams, config: EngineConfig,
                      collect_mask: bool = False) -> PredictionStats:
    """Simulate one cell against precomputed streams.

    Bit-identical to :func:`repro.predictors.engine.simulate` on the same
    trace and config (stats, counters, and mispredict mask), but the
    per-cell work is proportional to the target-cache-relevant subset of
    branches instead of the whole trace.
    """
    if stream_signature(config) != streams.config:
        raise ValueError(
            "config does not project onto these streams; build streams for "
            f"{stream_signature(config)!r}"
        )
    stats = PredictionStats(instructions=streams.instructions)
    counters = {kind: stats.counters(kind) for kind in BranchKind}
    executed = streams.executed_by_kind

    variable_mispredicts = [0] * _N_KINDS
    mispredict_rows: List[int] = []
    if config.target_cache is None:
        # Without a target cache the engine predicts routed rows from the
        # BTB's stored target — exactly the structural-miss fallback the
        # base stream already measured.
        fixed = streams.base_mispredicts_by_kind
        fixed_rows = streams.base_mispredict_rows
    else:
        reg = registration(config.target_cache.kind)
        backstop = reg.traits.predicts_on_btb_miss
        if backstop:
            # BTB-missed target-cache rows are variable for this kind: the
            # engine consults the cache there instead of predicting
            # fall-through, so their base-walk mispredicts must not be
            # double-counted as fixed.
            fixed = streams.backstop_fixed_mispredicts_by_kind
            fixed_rows = streams.backstop_fixed_mispredict_rows
        else:
            fixed = streams.fixed_mispredicts_by_kind
            fixed_rows = streams.fixed_mispredict_rows
        cache = reg.factory(config.target_cache)
        predict = cache.predict
        update = cache.update
        prime = cache.prime if reg.traits.is_oracle else None
        # A kind whose traits promise it ignores history gets a constant
        # zero stream: no variant walk, identical call sequence to the
        # engine (which also passes whatever value it captured — ignored).
        histories: Iterable[int] = (
            streams.tc_history_values(config)
            if reg.traits.needs_history
            else repeat(0)
        )
        append_row = mispredict_rows.append
        for history, (pc, kind_value, target, next_pc, fallback, routed,
                      updates_cache, row, btb_missed) in zip(
                          histories, streams.subset_rows):
            if routed or (backstop and btb_missed):
                if prime is not None:
                    prime(target)
                guess = predict(pc, history)
                predicted = fallback if guess is None else guess
                if predicted != next_pc:
                    variable_mispredicts[kind_value] += 1
                    append_row(row)
            if updates_cache:
                update(pc, history, target)

    for kind in BranchKind:
        counter = counters[kind]
        counter.executed = int(executed[kind])
        counter.mispredicted = int(fixed[kind]) + variable_mispredicts[kind]
    stats.btb_lookups = streams.btb_lookups
    stats.btb_hits = streams.btb_hits
    if collect_mask:
        mask = np.zeros(streams.instructions, dtype=bool)
        mask[fixed_rows] = True
        if mispredict_rows:
            mask[np.asarray(mispredict_rows, dtype=np.int64)] = True
        stats.mispredict_mask = mask
    return stats

