"""Frozen stream build: the oracle for :func:`repro.predictors.streams.build_streams`.

This is the walk ``build_streams`` ran before its direction pass moved to
numpy and its BTB and RAS to plain-int state, kept verbatim (only renamed)
so every :class:`~repro.predictors.streams.BranchStreams` field the new
build produces can be checked against it.  Each branch row calls the real
``BranchTargetBuffer``, ``DirectionPredictor`` and ``ReturnAddressStack``
methods, as the reference engine does.  The two history variants that
re-derived the kind, taken and next-pc columns from the decoded lists on
every call are kept too, as functions of the streams (``self`` renamed
``streams``).  It is test-only code: nothing under ``src/`` imports it.
"""

from __future__ import annotations

from typing import List

import numpy as np
import numpy.typing as npt

from repro.guest.isa import INSTRUCTION_BYTES, BranchKind
from repro.predictors.btb import BranchTargetBuffer
from repro.predictors.direction import DirectionPredictor
from repro.predictors.engine import _CALL_KINDS, _TARGET_CACHE_KINDS, DecodedBranches
from repro.predictors.history import PathFilter
from repro.predictors.ras import ReturnAddressStack
from repro.predictors.streams import (
    _FILTER_KIND_VALUES,
    _N_KINDS,
    _SEL_POST,
    _SEL_PRE,
    _SEL_ZERO,
    _WIDE_MASK,
    BranchStreams,
    StreamConfig,
    _SubsetRow,
    _variant_walk,
)


def reference_build_streams(decoded: DecodedBranches,
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


def reference_pattern_variant(streams: BranchStreams) -> "npt.NDArray[np.uint64]":
    """Wide global pattern history (conditional outcomes) per subset row."""
    decoded = streams.decoded
    kind_values = np.fromiter(
        (int(kind) for kind in decoded.kinds), dtype=np.int64,
        count=streams.n_branches,
    )
    qualifying = np.flatnonzero(kind_values == int(BranchKind.COND_DIRECT))
    takens = np.asarray(decoded.takens, dtype=np.int64)
    fragments = takens[qualifying]
    return _variant_walk(
        qualifying.tolist(), fragments.tolist(),
        streams.subset_indices.tolist(), streams.subset_selectors.tolist(), 1,
    )


def reference_path_variant(streams: BranchStreams, path_filter: PathFilter,
                           bits_per_target: int,
                           address_bit: int) -> "npt.NDArray[np.uint64]":
    """Wide global path history for one (filter, bpt, bit) variant."""
    decoded = streams.decoded
    kind_values = np.fromiter(
        (int(kind) for kind in decoded.kinds), dtype=np.int64,
        count=streams.n_branches,
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
        streams.subset_indices.tolist(), streams.subset_selectors.tolist(),
        bits_per_target,
    )
