"""Fetch-engine composite and the trace-driven prediction simulator.

This module wires the structures together exactly as the paper's §3
describes: "during instruction fetch, the BTB and the target cache are
examined concurrently.  If the BTB detects an indirect branch, then the
selected target cache entry is used for target prediction.  When the
indirect branch is resolved, the target cache entry is updated with its
target address."

Per dynamic branch the engine:

1. looks up the BTB; a miss predicts fall-through (the fetch hardware does
   not know the instruction is a branch);
2. on a hit, routes by the stored branch kind — conditional branches go to
   the two-level direction predictor, returns to the RAS, direct jumps and
   calls to the BTB target, and indirect jumps/calls to the target cache
   (falling back to the BTB's last-target on a target-cache structural
   miss);
3. at resolve time updates, in order: the direction predictor (with the
   same history used to predict), the shared pattern history register, the
   global path history register, the per-address path history, the target
   cache (with the history value captured at prediction time — "the target
   cache is accessed again using index A"), the BTB, and the RAS.

The simulation is in retire order with no wrong-path pollution; for the
non-speculative sweeps of the paper's tables the fetch-time and retire-time
history contents coincide.  The speculative-update variant is exercised by
the cycle-stepped pipeline model (``repro.pipeline.core``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Dict, List, Mapping, Optional, Sequence

import numpy as np
import numpy.typing as npt

import repro.predictors.spec as spec_codec
from repro.guest.isa import INSTRUCTION_BYTES, BranchKind
from repro.predictors.btb import BranchTargetBuffer, UpdateStrategy
from repro.predictors.direction import DirectionConfig, DirectionPredictor
from repro.predictors.history import (
    PathFilter,
    PathHistoryRegister,
    PatternHistoryRegister,
    PerAddressPathHistory,
)
from repro.predictors.ras import ReturnAddressStack
from repro.predictors.registry import registration
from repro.predictors.spec import Spec
from repro.predictors.target_cache import TargetCacheConfig, TargetPredictor
from repro.trace.trace import Trace


#: value -> BranchKind, indexable by the raw uint8 stored in a trace row.
#: Hot loops use this instead of calling the ``BranchKind`` constructor per
#: dynamic branch (enum ``__call__`` is a by-value hash lookup plus a
#: function call; a tuple index is ~10x cheaper).
KIND_BY_VALUE = tuple(BranchKind(value) for value in range(max(BranchKind) + 1))

#: Kinds the paper routes through the target cache (module-level so the
#: per-branch test is a frozenset membership, not an enum property call).
_TARGET_CACHE_KINDS = frozenset(
    {BranchKind.CALL_INDIRECT, BranchKind.IND_JUMP}
)
_CALL_KINDS = frozenset({BranchKind.CALL_DIRECT, BranchKind.CALL_INDIRECT})


class HistorySource(Enum):
    """Which history value indexes the target cache (paper §3.1)."""

    PATTERN = "pattern"
    PATH_GLOBAL = "path_global"
    PATH_PER_ADDRESS = "path_per_address"


@dataclass(frozen=True)
class HistoryConfig:
    """History supplied to the target cache.

    ``bits`` is the register width.  For path histories,
    ``bits_per_target`` and ``address_bit`` control how many bits of each
    destination address are recorded and from which bit position (paper
    Tables 5 and 6); ``path_filter`` selects the global variant (paper
    §3.1: Control / Branch / Call-ret / Ind-jmp).
    """

    source: HistorySource = HistorySource.PATTERN
    bits: int = 9
    bits_per_target: int = 1
    address_bit: int = 2
    path_filter: PathFilter = PathFilter.CONTROL

    def describe(self) -> str:
        if self.source is HistorySource.PATTERN:
            return f"pattern({self.bits})"
        if self.source is HistorySource.PATH_PER_ADDRESS:
            return f"path-per-addr({self.bits}b/{self.bits_per_target}bpt)"
        return (
            f"path-{self.path_filter.value}({self.bits}b/"
            f"{self.bits_per_target}bpt@{self.address_bit})"
        )

    def to_spec(self) -> Spec:
        """Lossless JSON-ready rendering (see :mod:`repro.predictors.spec`)."""
        return spec_codec.to_spec(self)

    @classmethod
    def from_spec(cls, spec: Mapping[str, object]) -> "HistoryConfig":
        """Build a config from a (possibly partial) spec dict."""
        return spec_codec.from_spec(cls, spec)


@dataclass(frozen=True)
class EngineConfig:
    """Full fetch-engine configuration for one experiment cell."""

    btb_sets: int = 256
    btb_ways: int = 4
    btb_strategy: UpdateStrategy = UpdateStrategy.DEFAULT
    direction: DirectionConfig = field(default_factory=DirectionConfig)
    ras_depth: int = 32
    target_cache: Optional[TargetCacheConfig] = None
    history: HistoryConfig = field(default_factory=HistoryConfig)
    #: Ablation: route returns through the target cache instead of the RAS
    #: (the paper's footnote 1 argues this is unnecessary).
    target_cache_handles_returns: bool = False

    def to_spec(self) -> Spec:
        """Lossless JSON-ready rendering (see :mod:`repro.predictors.spec`).

        The result-cache key (:func:`repro.runner.keys.cell_key`) is built
        from this spec, and ``repro sweep --spec`` files contain exactly
        this shape under each cell's ``"engine"`` key.
        """
        return spec_codec.to_spec(self)

    @classmethod
    def from_spec(cls, spec: Mapping[str, object]) -> "EngineConfig":
        """Build a config from a (possibly partial) spec dict."""
        return spec_codec.from_spec(cls, spec)


@dataclass
class KindCounters:
    executed: int = 0
    mispredicted: int = 0

    @property
    def rate(self) -> float:
        return self.mispredicted / self.executed if self.executed else 0.0


@dataclass
class PredictionStats:
    """Outcome of one trace-driven prediction run."""

    instructions: int = 0
    per_kind: Dict[BranchKind, KindCounters] = field(default_factory=dict)
    btb_lookups: int = 0
    btb_hits: int = 0
    #: per-instruction mask aligned to the full trace: True where this
    #: instruction's next-pc was mispredicted (consumed by the timing model)
    mispredict_mask: Optional["npt.NDArray[np.bool_]"] = None

    def counters(self, kind: BranchKind) -> KindCounters:
        return self.per_kind.setdefault(kind, KindCounters())

    @property
    def branches(self) -> int:
        return sum(c.executed for c in self.per_kind.values())

    @property
    def branch_mispredictions(self) -> int:
        return sum(c.mispredicted for c in self.per_kind.values())

    @property
    def indirect_jumps(self) -> int:
        return (
            self.counters(BranchKind.IND_JUMP).executed
            + self.counters(BranchKind.CALL_INDIRECT).executed
        )

    @property
    def indirect_mispredictions(self) -> int:
        return (
            self.counters(BranchKind.IND_JUMP).mispredicted
            + self.counters(BranchKind.CALL_INDIRECT).mispredicted
        )

    @property
    def indirect_mispred_rate(self) -> float:
        executed = self.indirect_jumps
        return self.indirect_mispredictions / executed if executed else 0.0

    @property
    def conditional_mispred_rate(self) -> float:
        return self.counters(BranchKind.COND_DIRECT).rate

    @property
    def overall_mispred_rate(self) -> float:
        branches = self.branches
        return self.branch_mispredictions / branches if branches else 0.0


class FetchEngine:
    """Stateful composite of all prediction structures.

    Use :func:`simulate` to run a whole trace; the engine itself exposes
    :meth:`process_branch` so the cycle-stepped pipeline can drive it one
    branch at a time with speculative history management.
    """

    def __init__(self, config: EngineConfig) -> None:
        self.config = config
        self.btb = BranchTargetBuffer(
            sets=config.btb_sets, ways=config.btb_ways, strategy=config.btb_strategy
        )
        self.direction = DirectionPredictor(config.direction)
        self.ras = ReturnAddressStack(depth=config.ras_depth)
        self.target_cache: Optional[TargetPredictor] = None
        self._oracle = False
        self._backstop = False
        if config.target_cache is not None:
            reg = registration(config.target_cache.kind)
            self.target_cache = reg.factory(config.target_cache)
            self._oracle = reg.traits.is_oracle
            self._backstop = reg.traits.predicts_on_btb_miss
        history = config.history
        pattern_bits = max(config.direction.history_bits, history.bits)
        self.pattern_history = PatternHistoryRegister(pattern_bits)
        self.path_history = PathHistoryRegister(
            bits=history.bits,
            bits_per_target=history.bits_per_target,
            address_bit=history.address_bit,
            path_filter=history.path_filter,
        )
        self.per_address_history = PerAddressPathHistory(
            bits=history.bits,
            bits_per_target=history.bits_per_target,
            address_bit=history.address_bit,
        )
        # Hot-loop precomputation: the set of kinds this engine routes to
        # the target cache never changes after construction, so the
        # per-branch dispatch is a frozenset membership instead of a chain
        # of attribute lookups and property calls.
        self._tc_handles_returns = config.target_cache_handles_returns
        if self.target_cache is None:
            self._tc_kinds: frozenset = frozenset()
        elif self._tc_handles_returns:
            self._tc_kinds = _TARGET_CACHE_KINDS | {BranchKind.RETURN}
        else:
            self._tc_kinds = _TARGET_CACHE_KINDS
        self._history_source = history.source

    # ------------------------------------------------------------------
    def target_cache_history(self, pc: int) -> int:
        """The history value that indexes the target cache for jump ``pc``."""
        source = self._history_source
        if source is HistorySource.PATTERN:
            return self.pattern_history.value
        if source is HistorySource.PATH_GLOBAL:
            return self.path_history.value
        return self.per_address_history.value(pc)

    def _uses_target_cache(self, kind: BranchKind) -> bool:
        return kind in self._tc_kinds

    # ------------------------------------------------------------------
    def process_branch(self, pc: int, kind: BranchKind, taken: bool,
                       target: int, next_pc: int) -> bool:
        """Predict and then resolve one dynamic branch; return mispredict.

        ``target`` is the computed taken-target, ``next_pc`` the address
        actually executed next.
        """
        fallthrough = pc + INSTRUCTION_BYTES
        entry = self.btb.lookup(pc)
        history_for_tc = 0
        popped_ras = False

        if entry is None:
            if self._backstop and kind in self._tc_kinds and (
                cache := self.target_cache
            ) is not None:
                # A predicts_on_btb_miss kind (two-level BTB) still
                # identifies the branch when the primary BTB misses: its
                # backing level is pc-tagged, so it only answers for
                # indirect jumps it was trained on.  Prediction-only — no
                # BTB/RAS/history state changes.  The history argument is
                # contractually ignored (needs_history=False, enforced
                # when its PredictorTraits is built).
                guess = cache.predict(pc, 0)
                predicted = guess if guess is not None else fallthrough
            else:
                predicted = fallthrough
        else:
            entry_kind = entry.kind
            if entry_kind is BranchKind.COND_DIRECT:
                if self.direction.predict(pc, self.pattern_history.value):
                    predicted = entry.target
                else:
                    predicted = fallthrough
            elif entry_kind is BranchKind.RETURN and not self._tc_handles_returns:
                popped = self.ras.pop()
                popped_ras = True
                predicted = popped if popped is not None else fallthrough
            elif entry_kind in self._tc_kinds and (
                cache := self.target_cache
            ) is not None:
                history_for_tc = self.target_cache_history(pc)
                if self._oracle:
                    cache.prime(target)
                guess = cache.predict(pc, history_for_tc)
                predicted = guess if guess is not None else entry.target
            else:
                # Direct jumps/calls, and indirect ones without a target
                # cache: the BTB's stored (last) target.
                predicted = entry.target
            if entry_kind in _CALL_KINDS:
                self.ras.push(entry.fallthrough)

        mispredicted = predicted != next_pc

        # ----- resolve-time updates, in the order listed in the module doc
        if kind is BranchKind.COND_DIRECT:
            self.direction.update(pc, self.pattern_history.value, taken)
            self.pattern_history.update(taken)
        self.path_history.update(kind, next_pc, redirected=taken)
        if kind in _TARGET_CACHE_KINDS:
            self.per_address_history.update(pc, target)
        if kind in self._tc_kinds and (cache := self.target_cache) is not None:
            if entry is None:
                # The BTB did not identify the jump, so no fetch-time access
                # happened; index with the history as of now (identical in
                # this in-order simulation).
                history_for_tc = self.target_cache_history(pc)
            cache.update(pc, history_for_tc, target)
        if kind is BranchKind.RETURN and not popped_ras:
            # The BTB missed on this return, so fetch never consumed the
            # RAS; consume it now to keep call/return pairing balanced.
            self.ras.pop()
        if kind in _CALL_KINDS and entry is None:
            self.ras.push(fallthrough)
        stored_target_correct = entry is not None and entry.target == target
        self.btb.update(pc, kind, target, predicted_target_correct=stored_target_correct)
        return mispredicted


class DecodedBranches:
    """Branch rows of one trace, pre-extracted into plain Python lists.

    Decoding (boolean scan, fancy indexing, numpy-scalar unboxing, enum
    conversion) is identical for every :class:`EngineConfig`, so sweeps that
    simulate the same trace under many configs should decode once via
    :func:`decode_branches` and pass the result to :func:`simulate` — or use
    :func:`simulate_many`, which does exactly that.

    ``row_column``, ``pc_column``, ``kind_column``, ``taken_column`` and
    ``next_pc_column`` hold the same rows as numpy arrays (int64, except
    the trace's own uint8 ``BranchKind`` values and bool outcomes), so the
    stream build and its history variants read them instead of re-deriving
    them from the lists on every call.
    """

    __slots__ = ("instructions", "rows", "pcs", "kinds", "takens",
                 "targets", "next_pcs", "row_column", "pc_column",
                 "kind_column", "taken_column", "next_pc_column")

    def __init__(self, instructions: int,
                 row_column: "npt.NDArray[np.int64]",
                 pc_column: "npt.NDArray[np.int64]",
                 kind_column: "npt.NDArray[np.uint8]",
                 taken_column: "npt.NDArray[np.bool_]",
                 target_column: "npt.NDArray[np.uint64]",
                 next_pc_column: "npt.NDArray[np.int64]") -> None:
        kind_table = KIND_BY_VALUE
        self.instructions = instructions
        self.row_column = row_column
        self.pc_column = pc_column
        self.kind_column = kind_column
        self.taken_column = taken_column
        self.next_pc_column = next_pc_column
        self.rows: List[int] = row_column.tolist()
        self.pcs: List[int] = pc_column.tolist()
        self.kinds: List[BranchKind] = [
            kind_table[v] for v in kind_column.tolist()
        ]
        self.takens: List[bool] = taken_column.tolist()
        self.targets: List[int] = target_column.tolist()
        self.next_pcs: List[int] = next_pc_column.tolist()


def decode_branches(trace: Trace) -> DecodedBranches:
    """Extract ``trace``'s branch rows into loop-ready lists and columns."""
    branch_rows = np.flatnonzero(trace.is_branch)
    return DecodedBranches(
        instructions=len(trace),
        row_column=branch_rows,
        pc_column=trace.pc[branch_rows].astype(np.int64),
        kind_column=trace.branch_kind[branch_rows],
        taken_column=trace.taken[branch_rows],
        target_column=trace.target[branch_rows],
        next_pc_column=trace.next_pc_array()[branch_rows].astype(np.int64),
    )


def simulate(trace: Trace, config: EngineConfig,
             collect_mask: bool = False,
             decoded: Optional[DecodedBranches] = None) -> PredictionStats:
    """Run ``trace`` through a fresh :class:`FetchEngine`.

    Only control-flow rows touch predictor state, so the loop walks just
    those; ``collect_mask=True`` additionally materialises the full-length
    per-instruction mispredict mask the timing model needs.  ``decoded``
    lets callers sweeping many configs over one trace amortise the row
    decode (see :func:`simulate_many`).
    """
    if decoded is None:
        decoded = decode_branches(trace)
    engine = FetchEngine(config)
    stats = PredictionStats(instructions=decoded.instructions)
    mask = np.zeros(decoded.instructions, dtype=bool) if collect_mask else None

    process = engine.process_branch
    counters = {kind: stats.counters(kind) for kind in BranchKind}
    for row, pc, kind, taken, target, next_pc in zip(
        decoded.rows, decoded.pcs, decoded.kinds, decoded.takens,
        decoded.targets, decoded.next_pcs
    ):
        mispredicted = process(pc, kind, taken, target, next_pc)
        counter = counters[kind]
        counter.executed += 1
        if mispredicted:
            counter.mispredicted += 1
            if mask is not None:
                mask[row] = True

    stats.btb_lookups = engine.btb.lookups
    stats.btb_hits = engine.btb.hits
    stats.mispredict_mask = mask
    return stats


def simulate_many(trace: Trace, configs: Sequence[EngineConfig],
                  collect_mask: bool = False) -> List[PredictionStats]:
    """Simulate ``trace`` under each config, decoding the trace only once.

    The sweep fast path: re-slicing the trace per cell costs a full pass
    over the instruction array plus per-branch enum construction, all of it
    config-independent.  Results are bit-identical to independent
    :func:`simulate` calls (each config still gets a fresh engine).
    """
    decoded = decode_branches(trace)
    return [
        simulate(trace, config, collect_mask=collect_mask, decoded=decoded)
        for config in configs
    ]
