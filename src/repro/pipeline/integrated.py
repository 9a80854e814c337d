"""Integrated cycle-level simulation: predictors driven *speculatively*.

The trace-driven harness (`repro.predictors.simulate`) updates history
registers in retire order, which is exact only when no prediction is in
flight while another resolves.  A real HPS-class machine predicts with
*speculative* history — each in-flight branch's predicted outcome is
shifted in at fetch, and checkpoint repair restores the registers when a
misprediction resolves (the paper's §4.1 machine keeps checkpoints per
branch for precise repair).

This module couples the fetch engine to the cycle-stepped core:

* at **fetch**, a branch is predicted with the current speculative history;
  the registers are then updated with the *predicted* outcome and a
  checkpoint is attached to the branch;
* at **resolve** (execution complete), a mispredicted branch restores its
  checkpoint and applies the actual outcome; fetch restarts the next cycle
  on the correct path;
* at **retire**, the prediction *tables* (2-bit counters, BTB entries,
  target-cache entries) train on actual outcomes, in order.

Because the harness is trace-driven, wrong-path instructions are not
fetched; the modelled speculation effect is history pollution by in-flight
predicted branches, which is exactly what the retire-vs-speculative
ablation quantifies.  The RAS is updated speculatively without repair (a
common real-hardware simplification; its mispredictions are counted).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Any, Deque, Dict, List, Optional, Tuple

import numpy.typing as npt

from repro.guest.isa import INSTRUCTION_BYTES, BranchKind, InstrClass
from repro.pipeline.caches import memory_penalties
from repro.pipeline.config import MachineConfig
from repro.predictors.engine import EngineConfig, FetchEngine, PredictionStats
from repro.trace.trace import Trace


@dataclass
class IntegratedResult:
    """Cycles plus the prediction statistics of one integrated run."""

    cycles: int
    stats: PredictionStats

    @property
    def ipc(self) -> float:
        return (self.stats.instructions / self.cycles) if self.cycles else 0.0


@dataclass
class _Slot:
    index: int
    min_issue: int
    producers: List["_Slot"]
    latency: int
    # branch bookkeeping (None for non-branches)
    kind: Optional[BranchKind] = None
    mispredicted: bool = False
    checkpoint: Optional[Tuple[int, int]] = None  # (pattern, path) values
    actual_taken: bool = False
    actual_target: int = 0
    next_pc: int = 0
    tc_history: int = 0
    btb_entry_target: Optional[int] = None
    issued: bool = False
    complete: Optional[int] = None
    resolved: bool = False

    def operands_ready(self, cycle: int) -> bool:
        for producer in self.producers:
            if producer.complete is None or producer.complete > cycle:
                return False
        return True


class IntegratedCore:
    """Cycle-stepped core with speculative fetch-time prediction."""

    def __init__(self, trace: Trace, engine_config: EngineConfig,
                 machine: MachineConfig,
                 mem_penalty: Optional["npt.NDArray[Any]"] = None) -> None:
        self.trace = trace
        self.machine = machine
        self.engine = FetchEngine(engine_config)
        if mem_penalty is None:
            mem_penalty = memory_penalties(trace, machine)
        self._penalty = mem_penalty.tolist()
        self._classes = trace.instr_class.tolist()
        self._kinds = trace.branch_kind.tolist()
        self._pcs = trace.pc.tolist()
        self._takens = trace.taken.tolist()
        self._targets = trace.target.tolist()
        self._next_pcs = trace.next_pc_array().tolist()
        self._src1 = trace.src1.tolist()
        self._src2 = trace.src2.tolist()
        self._dst = trace.dst.tolist()
        self._mem = trace.mem_addr.tolist()
        self.stats = PredictionStats(instructions=len(trace))

    # ------------------------------------------------------------------
    # Speculative fetch-time prediction
    # ------------------------------------------------------------------
    def _predict_at_fetch(self, slot: _Slot) -> None:
        """Predict the branch in ``slot`` and speculatively update history."""
        engine = self.engine
        index = slot.index
        pc = self._pcs[index]
        kind = BranchKind(self._kinds[index])
        actual_taken = bool(self._takens[index])
        actual_target = self._targets[index]
        next_pc = self._next_pcs[index]
        fallthrough = pc + INSTRUCTION_BYTES

        slot.kind = kind
        slot.actual_taken = actual_taken
        slot.actual_target = actual_target
        slot.next_pc = next_pc
        slot.checkpoint = (engine.pattern_history.value,
                           engine.path_history.value)

        entry = engine.btb.lookup(pc)
        predicted_taken = actual_taken  # non-conditionals: always taken
        if entry is None:
            predicted = fallthrough
            predicted_taken = False
        else:
            entry_kind = entry.kind
            slot.btb_entry_target = entry.target
            if entry_kind is BranchKind.COND_DIRECT:
                predicted_taken = engine.direction.predict(
                    pc, engine.pattern_history.value
                )
                predicted = entry.target if predicted_taken else fallthrough
            elif entry_kind is BranchKind.RETURN:
                popped = engine.ras.pop()
                predicted = popped if popped is not None else fallthrough
            elif entry_kind.is_predicted_by_target_cache and engine.target_cache is not None:
                slot.tc_history = engine.target_cache_history(pc)
                guess = engine.target_cache.predict(pc, slot.tc_history)
                predicted = guess if guess is not None else entry.target
            else:
                predicted = entry.target
            if entry_kind.is_call:
                engine.ras.push(entry.fallthrough)

        slot.mispredicted = predicted != next_pc

        # ---- speculative history update with the *predicted* outcome ----
        if kind is BranchKind.COND_DIRECT:
            engine.pattern_history.update(predicted_taken)
            predicted_redirect = predicted_taken
        else:
            # non-conditional branches always redirect, even when the
            # predicted target happens to equal the fall-through address
            # (a dispatch handler laid out right after the jump)
            predicted_redirect = entry is not None
        engine.path_history.update(kind, predicted,
                                   redirected=predicted_redirect)

    def _resolve(self, slot: _Slot) -> None:
        """Checkpoint repair: fix the history registers at resolution."""
        engine = self.engine
        if slot.mispredicted and slot.checkpoint is not None:
            pattern, path = slot.checkpoint
            engine.pattern_history.restore(pattern)
            engine.path_history.restore(path)
            kind = slot.kind
            if kind is BranchKind.COND_DIRECT:
                engine.pattern_history.update(slot.actual_taken)
            engine.path_history.update(kind, slot.next_pc,
                                       redirected=slot.actual_taken)
        slot.resolved = True

    def _retire(self, slot: _Slot) -> None:
        """Train the prediction tables on the actual outcome, in order."""
        engine = self.engine
        kind = slot.kind
        if kind is None:
            return
        if not slot.resolved:
            # the branch completed and retired within the same cycle, so
            # the per-cycle resolve scan never saw it: repair here
            self._resolve(slot)
        index = slot.index
        pc = self._pcs[index]
        counter = self.stats.counters(kind)
        counter.executed += 1
        if slot.mispredicted:
            counter.mispredicted += 1
        if kind is BranchKind.COND_DIRECT:
            # counters train with the history as of prediction (the
            # checkpoint), matching the fetch-time index
            history = slot.checkpoint[0] if slot.checkpoint else 0
            engine.direction.update(pc, history, slot.actual_taken)
        if kind.is_predicted_by_target_cache:
            engine.per_address_history.update(pc, slot.actual_target)
            if engine.target_cache is not None:
                engine.target_cache.update(pc, slot.tc_history,
                                           slot.actual_target)
        if kind is BranchKind.RETURN and slot.btb_entry_target is None:
            engine.ras.pop()  # keep pairing when the BTB missed the return
        if kind.is_call and slot.btb_entry_target is None:
            engine.ras.push(pc + INSTRUCTION_BYTES)
        stored_correct = slot.btb_entry_target == slot.actual_target
        engine.btb.update(pc, kind, slot.actual_target,
                          predicted_target_correct=stored_correct)

    # ------------------------------------------------------------------
    def run(self) -> IntegratedResult:
        machine = self.machine
        n = len(self.trace)
        window: Deque[int] = deque()
        last_writer: Dict[int, _Slot] = {}
        last_store: Dict[int, _Slot] = {}
        load_class = int(InstrClass.LOAD)
        store_class = int(InstrClass.STORE)
        not_branch = int(BranchKind.NOT_BRANCH)

        next_fetch = 0
        stall_slot: Optional[_Slot] = None
        stalled_until = -1
        retired = 0
        cycle = 0

        while retired < n:
            # retire completed head-of-window instructions in order
            retired_now = 0
            while (window and retired_now < machine.retire_width
                   and window[0].complete is not None
                   and window[0].complete <= cycle):
                slot = window.popleft()
                self._retire(slot)
                retired += 1
                retired_now += 1

            # issue/execute; resolve branches as they complete
            for slot in window:
                if (not slot.issued and slot.min_issue <= cycle
                        and slot.operands_ready(cycle)):
                    slot.issued = True
                    slot.complete = cycle + slot.latency
                if (slot.kind is not None and not slot.resolved
                        and slot.complete is not None
                        and slot.complete <= cycle):
                    self._resolve(slot)

            # fetch along the (correct-path) trace
            if cycle > stalled_until:
                fetched = 0
                while (fetched < machine.fetch_width and next_fetch < n
                       and len(window) < machine.window):
                    index = next_fetch
                    producers = []
                    s = self._src1[index]
                    if s > 0 and s in last_writer:
                        producers.append(last_writer[s])
                    s = self._src2[index]
                    if s > 0 and s in last_writer:
                        producers.append(last_writer[s])
                    cls = self._classes[index]
                    if cls == load_class:
                        store = last_store.get(self._mem[index])
                        if store is not None:
                            producers.append(store)
                    slot = _Slot(
                        index=index,
                        min_issue=cycle + machine.frontend_depth,
                        producers=producers,
                        latency=machine.latency_of(cls) + self._penalty[index],
                    )
                    if self._kinds[index] != not_branch:
                        self._predict_at_fetch(slot)
                    d = self._dst[index]
                    if d > 0:
                        last_writer[d] = slot
                    elif cls == store_class:
                        last_store[self._mem[index]] = slot
                    window.append(slot)
                    next_fetch += 1
                    fetched += 1
                    if slot.mispredicted:
                        stalled_until = 1 << 62
                        stall_slot = slot
                        break

            if stall_slot is not None and stall_slot.complete is not None:
                stalled_until = max(stall_slot.complete, cycle)
                stall_slot = None

            cycle += 1
            if cycle > 1000 * n + 10_000:  # liveness guard
                raise RuntimeError("integrated core failed to make progress")

        self.stats.btb_lookups = self.engine.btb.lookups
        self.stats.btb_hits = self.engine.btb.hits
        return IntegratedResult(cycles=cycle, stats=self.stats)


def run_integrated(trace: Trace, engine_config: EngineConfig,
                   machine: Optional[MachineConfig] = None,
                   mem_penalty: Optional["npt.NDArray[Any]"] = None) -> IntegratedResult:
    """Run the speculative integrated simulation end to end."""
    return IntegratedCore(
        trace, engine_config, machine or MachineConfig(), mem_penalty
    ).run()
