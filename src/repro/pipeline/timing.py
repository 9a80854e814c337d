"""Fast dataflow timing model, memoised per trace across mispredict masks.

Each trace row gets an issue, completion and retire cycle from:

* **fetch availability** — instructions are fetched ``fetch_width`` per
  cycle along the predicted path; a mispredicted branch (per the mask from
  :func:`repro.predictors.engine.simulate`) stalls fetch until the branch
  resolves, restarting the cycle after (checkpoint repair);
* **operand readiness** — true register dataflow from the trace's
  src/dst fields, plus store-to-load forwarding from the last store to the
  same address;
* **window occupancy** — an instruction cannot enter the machine until the
  instruction ``window`` slots ahead of it has retired;
* **retire bandwidth** — in-order retirement, ``retire_width`` per cycle.

This is the standard one-pass approximation of an out-of-order core (no
wrong-path execution, unlimited functional units as in the paper's §4.1
"each functional unit can execute instructions from any of the instruction
classes").  ``repro.pipeline.core`` cross-validates it cycle-by-cycle.

**Segments.**  The paper's tables time one trace under many predictor
configurations, whose mispredict masks differ only at a few branch rows.
:class:`TimingMemo` splits a run at *drained* redirects and reuses every
stretch it has timed before.  A mispredicted row ``b`` redirects fetch to
``T = complete(b) + 1``; it is drained when::

    retire(b) <= T + frontend_depth + min(0, min_latency - 1)

where ``min_latency`` is the smallest per-row latency of the trace.
Retirement is in order and never precedes completion, so ``retire(b)``
bounds every stored time of rows ``<= b``: register results, forwarded
stores, the window slots and the retire-bandwidth slots.  Every later
dispatch is at least ``T + frontend_depth`` and every later completion at
least ``T + frontend_depth + min_latency``, so none of those stored times
can win a later ``max`` or add a window stall.  Everything after a drained
``b`` is therefore ``T`` plus a function of the mask rows after ``b`` —
the result is exact, not an approximation.  A mispredict on the last row
never redirects.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, NamedTuple, Optional, Tuple, Union, cast

import numpy as np
import numpy.typing as npt

from repro.guest.isa import NUM_REGISTERS, InstrClass
from repro.pipeline.caches import memory_penalties
from repro.pipeline.config import MachineConfig
from repro.trace.trace import Trace


@dataclass(frozen=True)
class TimingResult:
    """Outcome of one timing run."""

    cycles: int
    instructions: int
    #: fetch cycles lost to branch-misprediction redirects
    mispredict_stall_cycles: int
    #: loads/stores that missed in the data cache
    dcache_misses: int
    #: cycles instructions spent waiting for a window slot (sum over
    #: instructions of dispatch delay; an approximate CPI-stack component)
    window_stall_cycles: int = 0
    #: total extra memory latency injected by data-cache misses (upper
    #: bound on the memory CPI-stack component — overlap is not deducted)
    memory_penalty_cycles: int = 0

    @property
    def ipc(self) -> float:
        return self.instructions / self.cycles if self.cycles else 0.0

    @property
    def cpi(self) -> float:
        return self.cycles / self.instructions if self.instructions else 0.0

    def summary(self) -> str:
        """One-line report with the approximate stall attribution."""
        return (
            f"{self.cycles} cycles, IPC {self.ipc:.2f} "
            f"(mispredict stalls {self.mispredict_stall_cycles}, "
            f"window stalls {self.window_stall_cycles}, "
            f"memory penalty {self.memory_penalty_cycles} over "
            f"{self.dcache_misses} misses)"
        )


#: A timed segment: (cycle delta, mispredict-stall delta, window-stall delta).
_Leaf = Tuple[int, int, int]
#: Trie node: next mispredicted row -> child node, or the leaf of the
#: segment that row (or the end-of-trace key) closes.
_Node = Dict[int, Union["_Node", _Leaf]]


class _Columns(NamedTuple):
    """Mask-independent per-row inputs, built once per memo.

    Classes and register indices fit a byte each, and indexing ``bytes``
    yields the interpreter's cached small ints, so those columns cost one
    byte per row instead of a list slot.
    """

    #: execution latency including the data-cache penalty
    latency: List[int]
    classes: bytes
    src1: bytes
    src2: bytes
    dst: bytes
    mem_addrs: List[int]
    #: drain slack: ``frontend_depth + min(0, min_latency - 1)``
    slack: int
    dcache_misses: int
    memory_penalty_cycles: int


def _register_bytes(column: "npt.NDArray[Any]") -> bytes:
    """A register column as bytes.  An unused operand (-1) reads as
    register 0, which carries no dependence either."""
    return np.maximum(column, 0).astype(np.uint8).tobytes()


def _build_columns(trace: Trace, machine: MachineConfig,
                   mem_penalty: "npt.NDArray[Any]") -> _Columns:
    by_class = np.array([machine.latency_of(c) for c in range(len(InstrClass))],
                        dtype=np.int64)
    penalty = np.asarray(mem_penalty, dtype=np.int64)
    latency = by_class[trace.instr_class] + penalty
    min_latency = int(latency.min())
    if min_latency < 0 or machine.frontend_depth < 0:
        raise ValueError("the timing model needs non-negative latencies "
                         "and frontend_depth")
    return _Columns(
        latency=latency.tolist(),
        classes=trace.instr_class.astype(np.uint8).tobytes(),
        src1=_register_bytes(trace.src1),
        src2=_register_bytes(trace.src2),
        dst=_register_bytes(trace.dst),
        mem_addrs=trace.mem_addr.tolist(),
        slack=machine.frontend_depth + min(0, min_latency - 1),
        dcache_misses=int(np.count_nonzero(penalty)),
        memory_penalty_cycles=int(penalty.sum()),
    )


class TimingMemo:
    """Segment memo over one ``(trace, machine, mem_penalty)``.

    :meth:`run` times the trace under a mispredict mask.  It walks the
    mask's mispredicted rows through a trie keyed by a drained start row
    (``-1`` for the trace start) and then each following mispredicted row;
    a leaf holds the cycle, mispredict-stall and window-stall deltas of
    the segment that ends at the next drained redirect or at the trace
    end.  A path it has not seen is simulated once from the canonical
    drained state and stored.  Results are bit-identical to timing every
    row for every mask.
    """

    def __init__(self, trace: Trace, machine: MachineConfig,
                 mem_penalty: Optional["npt.NDArray[Any]"] = None) -> None:
        self.trace = trace
        self.machine = machine
        #: the penalty array this memo was built for (``None``: computed)
        self.mem_penalty = mem_penalty
        #: trace rows simulated so far, over every :meth:`run`
        self.rows_simulated = 0
        self._columns: Optional[_Columns] = None
        self._segments: Dict[int, _Node] = {}

    def run(self, mispredict_mask: Optional["npt.NDArray[Any]"] = None
            ) -> TimingResult:
        """Time the trace with ``mispredict_mask`` (``None``: no mispredicts)."""
        n = len(self.trace)
        if n == 0:
            return TimingResult(cycles=0, instructions=0,
                                mispredict_stall_cycles=0, dcache_misses=0)
        columns = self._columns
        if columns is None:
            penalty = self.mem_penalty
            if penalty is None:
                penalty = memory_penalties(self.trace, self.machine)
            columns = self._columns = _build_columns(self.trace, self.machine,
                                                     penalty)
        # The walk: every mispredicted row that redirects, then the
        # end-of-trace key ``n``.
        walk: List[int] = []
        if mispredict_mask is not None:
            walk = np.flatnonzero(mispredict_mask[: n - 1]).tolist()
        walk.append(n)

        cycles = stalls = window_stalls = 0
        start, first = -1, 0
        while True:
            leaf, end = self._lookup(start, walk, first)
            if leaf is None:
                leaf, end = self._simulate(columns, start, walk, first)
            cycles += leaf[0]
            stalls += leaf[1]
            window_stalls += leaf[2]
            if end == len(walk) - 1:
                break
            start, first = walk[end], end + 1
        return TimingResult(
            cycles=cycles,
            instructions=n,
            mispredict_stall_cycles=stalls,
            dcache_misses=columns.dcache_misses,
            window_stall_cycles=window_stalls,
            memory_penalty_cycles=columns.memory_penalty_cycles,
        )

    def _lookup(self, start: int, walk: List[int],
                first: int) -> Tuple[Optional[_Leaf], int]:
        """The stored segment from ``start`` along ``walk[first:]``, if any,
        and the walk index of the key that closes it."""
        node = self._segments.get(start)
        index = first
        while node is not None:
            entry = node.get(walk[index])
            if isinstance(entry, tuple):
                return entry, index
            node = entry
            index += 1
        return None, index

    def _simulate(self, columns: _Columns, start: int, walk: List[int],
                  first: int) -> Tuple[_Leaf, int]:
        """Simulate from the drained state after row ``start`` up to the
        next drained redirect or the trace end; store and return the
        segment's leaf and the walk index of the key that closes it.

        Times are relative to the redirect cycle, so fetch restarts at 0.
        The times rows ``<= start`` left behind cannot matter (module
        docstring), so every buffer starts empty: zero is neutral, as no
        dispatch precedes cycle 0.  The trace start differs from a drained
        redirect only in its retire-bandwidth slots, which start at 0.
        """
        latency = columns.latency
        classes = columns.classes
        src1 = columns.src1
        src2 = columns.src2
        dst = columns.dst
        mem_addrs = columns.mem_addrs
        slack = columns.slack
        load_class = int(InstrClass.LOAD)
        store_class = int(InstrClass.STORE)
        machine = self.machine
        width = machine.fetch_width
        retire_width = machine.retire_width
        window = machine.window
        frontend = machine.frontend_depth

        reg_ready = [0] * NUM_REGISTERS
        store_ready: Dict[int, int] = {}
        retire_ring = [0] * window        # retire cycle of instruction i-window
        retire_recent = [0 if start < 0 else -1] * retire_width

        fetch_cycle = 0
        fetch_slots = 0
        redirect_at = -1
        stalls = 0
        window_stalls = 0
        last_retire = 0
        index = first
        next_mispredict = walk[index]

        for i in range(start + 1, len(latency)):
            # ---- fetch (a redirect lies past the fetch cycle, as no
            # branch completes before it is fetched) --------------------
            if redirect_at >= 0:
                stalls += redirect_at - fetch_cycle
                fetch_cycle = redirect_at
                fetch_slots = 0
                redirect_at = -1
            if fetch_slots >= width:
                fetch_cycle += 1
                fetch_slots = 0
            fetch_slots += 1

            # ---- dispatch: window occupancy ----------------------------
            slot = i % window
            window_free = retire_ring[slot]
            dispatch = fetch_cycle + frontend
            if window_free > dispatch:
                window_stalls += window_free - dispatch
                dispatch = window_free

            # ---- operands -----------------------------------------------
            ready = dispatch
            s = src1[i]
            if s > 0 and reg_ready[s] > ready:
                ready = reg_ready[s]
            s = src2[i]
            if s > 0 and reg_ready[s] > ready:
                ready = reg_ready[s]
            cls = classes[i]
            if cls == load_class:
                forwarded = store_ready.get(mem_addrs[i])
                if forwarded is not None and forwarded > ready:
                    ready = forwarded

            # ---- execute ------------------------------------------------
            complete = ready + latency[i]
            d = dst[i]
            if d > 0:
                reg_ready[d] = complete
            elif cls == store_class:
                store_ready[mem_addrs[i]] = complete

            # ---- in-order retirement ------------------------------------
            retire = complete if complete > last_retire else last_retire
            bandwidth_slot = i % retire_width
            bandwidth_floor = retire_recent[bandwidth_slot] + 1
            if retire < bandwidth_floor:
                retire = bandwidth_floor
            retire_recent[bandwidth_slot] = retire
            retire_ring[slot] = retire
            last_retire = retire

            # ---- branch resolution --------------------------------------
            if i == next_mispredict:
                redirect_at = complete + 1
                if retire <= redirect_at + slack:     # drained
                    stalls += redirect_at - fetch_cycle
                    leaf = (redirect_at, stalls, window_stalls)
                    break
                index += 1
                next_mispredict = walk[index]
        else:       # the trace end closes the segment: walk[index] == n
            leaf = (last_retire, stalls, window_stalls)

        self.rows_simulated += i - start
        node = self._segments.setdefault(start, {})
        for row in walk[first:index]:
            node = cast(_Node, node.setdefault(row, {}))
        node[walk[index]] = leaf
        return leaf, index


def run_timing(trace: Trace, machine: MachineConfig,
               mispredict_mask: Optional["npt.NDArray[Any]"] = None,
               mem_penalty: Optional["npt.NDArray[Any]"] = None, *,
               memo: Optional[TimingMemo] = None) -> TimingResult:
    """Schedule ``trace`` on ``machine``; returns cycle counts.

    ``mispredict_mask`` marks instructions whose next-pc the fetch engine
    mispredicted (``None`` = perfect prediction).  ``mem_penalty`` is the
    per-row extra memory latency from :func:`memory_penalties`; it is
    computed here when not supplied (pass it explicitly when sweeping many
    predictor configurations over one trace).  ``memo`` reuses the
    segments earlier masks timed on the same ``(trace, machine,
    mem_penalty)``; without one, a fresh :class:`TimingMemo` serves this
    call alone.
    """
    if memo is None:
        memo = TimingMemo(trace, machine, mem_penalty)
    elif (memo.trace is not trace or memo.machine is not machine
          or memo.mem_penalty is not mem_penalty):
        raise ValueError("memo was built for another trace, machine or "
                         "mem_penalty array")
    return memo.run(mispredict_mask)


def execution_cycles(trace: Trace, machine: MachineConfig,
                     mispredict_mask: Optional["npt.NDArray[Any]"] = None,
                     mem_penalty: Optional["npt.NDArray[Any]"] = None) -> int:
    """Convenience wrapper returning just the cycle count."""
    return run_timing(trace, machine, mispredict_mask, mem_penalty).cycles
