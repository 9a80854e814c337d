"""Vectorized columnar execution tier: whole-array cell simulation.

The stream kernel (:mod:`repro.predictors.streams`) already reduced a cell
to "drive one target-cache object over the target-cache-relevant subset",
but that drive is still a per-branch Python loop.  This module removes the
loop for the kinds whose semantics admit it, declared per registration via
``PredictorTraits.vectorizable``:

* **tagless family** — the table is write-through with no replacement
  policy, so ``predict(pc, history)`` is exactly *the target most recently
  stored at the same index*, a "last-write-per-index" recurrence.  Sorting
  the subset rows by table index (stable, so original order survives
  within an index group) turns the recurrence into a grouped running
  maximum over update positions; a shift-by-one keeps each row from seeing
  its own update, exactly encoding the engine's predict-before-update
  ordering.  Index values come from
  :meth:`~repro.predictors.indexing.IndexScheme.index_array` over the
  memoised pc/history columns — no per-branch work anywhere.
* **last_target** — the same recurrence with the fetch address itself as
  the index (an unbounded, conflict-free table).
* **oracle** — the engine primes it with the actual target immediately
  before every fetch-time ``predict``, so the prediction *is* the target;
  no table replay at all.

Stateful replacement policies (tagged / cascaded / ITTAGE) keep
``vectorizable=False`` and fall back to the stream kernel.

The contract is the stream kernel's, one tier up: bit-identical
:class:`~repro.predictors.engine.PredictionStats` (counters, BTB stats,
mispredict masks) to :func:`~repro.predictors.engine.simulate`, pinned by
``tests/test_vector.py`` across every Table 4/7/9 cell and all eight
workloads.  ``benchmarks/test_vector_speed.py`` guards the >=10x warm
per-cell speedup over :func:`~repro.predictors.streams.simulate_streamed`
on Table 4 cells.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np
import numpy.typing as npt

from repro.guest.isa import BranchKind
from repro.predictors.engine import EngineConfig, PredictionStats
from repro.predictors.indexing import IndexScheme
from repro.predictors.registry import registration
from repro.predictors.streams import (
    _N_KINDS,
    BranchStreams,
    stream_signature,
    streams_supported,
)

__all__ = [
    "vector_supported",
    "simulate_vector",
]


def vector_supported(config: EngineConfig) -> bool:
    """Whether :func:`simulate_vector` can reproduce ``config`` exactly.

    The vector tier sits strictly above the stream kernel: it consumes the
    same :class:`BranchStreams`, so every stream-kernel precondition
    applies, plus the target-cache kind (if any) must declare
    ``vectorizable`` in its registered traits.
    """
    if not streams_supported(config):
        return False
    target_cache = config.target_cache
    if target_cache is None:
        return True
    # PredictorTraits rejects vectorizable with predicts_on_btb_miss: the
    # vector kernel replays routed rows only, never BTB-missed ones.
    return registration(target_cache.kind).traits.vectorizable


def _last_write_predictions(
    indices: "npt.NDArray[np.int64]",
    updates: "npt.NDArray[np.bool_]",
    targets: "npt.NDArray[np.int64]",
    positions: "Optional[npt.NDArray[np.int64]]" = None,
) -> Tuple["npt.NDArray[np.bool_]", "npt.NDArray[np.int64]"]:
    """The last-write-per-index recurrence as whole-array passes.

    For each row ``j`` (in subset order): the target stored by the most
    recent update row ``k < j`` with ``indices[k] == indices[j]``, and
    whether such a row exists (a structural hit).  Rows are grouped by
    sorting on (index, position) — within an index group, sorted order
    *is* subset order — then a running maximum over update positions
    finds each row's predecessor; the shift-by-one excludes the row's own
    update, matching the engine's fetch-time-predict / resolve-time-update
    ordering.  ``indices`` must be non-negative; ``positions`` is
    ``arange(n)`` (passed in when the caller has it cached).
    """
    n = len(indices)
    if n == 0:
        empty_valid = np.zeros(0, dtype=bool)
        empty_hits = np.zeros(0, dtype=np.int64)
        return empty_valid, empty_hits
    if positions is None:
        positions = np.arange(n, dtype=np.int64)
    # The sort is the kernel's dominant cost; pick the cheapest stable
    # grouping the index range allows.  Small tables (every Table 4/7
    # geometry) take numpy's radix sort, which is stable and only kicks
    # in for <= 16-bit integers; mid-range indices get stability from the
    # default (faster, unstable) sort via the composite key
    # index*n + position, which ranks by index then original position;
    # anything that could overflow int64 falls back to a stable argsort.
    largest = int(indices.max())
    if largest < (1 << 15):
        order = np.argsort(indices.astype(np.int16), kind="stable")
    elif largest < (1 << 62) // n:
        order = np.argsort(indices * np.int64(n) + positions)
    else:
        order = np.argsort(indices, kind="stable")
    sorted_indices = indices[order]
    update_positions = np.where(updates[order], positions, np.int64(-1))
    last_update = np.maximum.accumulate(update_positions)
    previous = np.empty(n, dtype=np.int64)
    previous[0] = -1
    previous[1:] = last_update[:-1]
    # A predecessor is a real hit only when it lies in the same index
    # group; the running maximum never decreases, so a cross-group
    # predecessor shows up as an index mismatch.  previous == -1 (no
    # update anywhere yet) is clamped to 0 for the gather and rejected by
    # the explicit >= 0 term.
    clamped = np.maximum(previous, 0)
    valid_sorted = (previous >= 0) & (
        sorted_indices[clamped] == sorted_indices
    )
    hits_sorted = targets[order][clamped]
    valid = np.empty(n, dtype=bool)
    hits = np.empty(n, dtype=np.int64)
    valid[order] = valid_sorted
    hits[order] = hits_sorted
    return valid, hits


def simulate_vector(streams: BranchStreams, config: EngineConfig,
                    collect_mask: bool = False) -> PredictionStats:
    """Simulate one cell as whole-array passes over precomputed streams.

    Bit-identical to :func:`repro.predictors.engine.simulate` (and hence
    :func:`~repro.predictors.streams.simulate_streamed`) on the same trace
    and config; requires :func:`vector_supported`.
    """
    if stream_signature(config) != streams.config:
        raise ValueError(
            "config does not project onto these streams; build streams for "
            f"{stream_signature(config)!r}"
        )
    stats = PredictionStats(instructions=streams.instructions)
    executed = streams.executed_by_kind

    variable = np.zeros(_N_KINDS, dtype=np.int64)
    variable_rows: "npt.NDArray[np.int64]" = np.zeros(0, dtype=np.int64)
    if config.target_cache is None:
        # Without a target cache every routed row falls back to the BTB's
        # stored target — the base stream already measured exactly that.
        fixed = streams.base_mispredicts_by_kind
        fixed_rows = streams.base_mispredict_rows
    else:
        fixed = streams.fixed_mispredicts_by_kind
        fixed_rows = streams.fixed_mispredict_rows
        reg = registration(config.target_cache.kind)
        if not reg.traits.vectorizable:
            raise ValueError(
                f"target-cache kind {config.target_cache.kind!r} is not "
                "vectorizable; use simulate_streamed"
            )
        columns = streams.columns()
        routed = columns.routed
        if reg.traits.is_oracle:
            # Primed immediately before every routed predict, the oracle
            # returns the actual target: no table replay needed.
            predicted = columns.targets
        else:
            if reg.traits.needs_history:
                scheme = getattr(reg.factory(config.target_cache),
                                 "scheme", None)
                if not isinstance(scheme, IndexScheme):
                    raise ValueError(
                        f"vectorizable kind {config.target_cache.kind!r} "
                        "with needs_history must expose an IndexScheme "
                        "via a 'scheme' attribute"
                    )
                indices = scheme.index_array(
                    columns.pcs, streams.tc_history_array(config)
                )
            else:
                # last-target family: an unbounded per-pc table — the
                # fetch address is the index.
                indices = columns.pcs
            valid, hits = _last_write_predictions(
                indices, columns.updates, columns.targets, columns.positions
            )
            predicted = np.where(valid, hits, columns.fallbacks)
        mispredicted = routed & (predicted != columns.next_pcs)
        variable = np.bincount(
            columns.kind_values[mispredicted], minlength=_N_KINDS
        )
        variable_rows = columns.rows[mispredicted]

    counters = {kind: stats.counters(kind) for kind in BranchKind}
    for kind in BranchKind:  # repro-lint: ignore[vector-python-loop]
        counter = counters[kind]
        counter.executed = int(executed[kind])
        counter.mispredicted = int(fixed[kind]) + int(variable[kind])
    stats.btb_lookups = streams.btb_lookups
    stats.btb_hits = streams.btb_hits
    if collect_mask:
        mask = np.zeros(streams.instructions, dtype=bool)
        mask[fixed_rows] = True
        mask[variable_rows] = True
        stats.mispredict_mask = mask
    return stats

