"""Frozen per-row timing loop: the oracle for :class:`repro.pipeline.TimingMemo`.

This is the one-pass dataflow scheduler that ``run_timing`` ran before it
memoised segments, kept verbatim (only renamed) so the memo can be
checked field by field against it.  It visits every trace row once in
program order and computes its fetch, dispatch, completion and retire
cycles.  It is test-only code: nothing under ``src/`` imports it.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

import numpy as np
import numpy.typing as npt

from repro.guest.isa import NUM_REGISTERS, InstrClass
from repro.pipeline.caches import memory_penalties
from repro.pipeline.config import MachineConfig
from repro.pipeline.timing import TimingResult
from repro.trace.trace import Trace


def reference_timing(trace: Trace, machine: MachineConfig,
                     mispredict_mask: Optional["npt.NDArray[Any]"] = None,
                     mem_penalty: Optional["npt.NDArray[Any]"] = None) -> TimingResult:
    """Schedule ``trace`` on ``machine``; returns cycle counts.

    ``mispredict_mask`` marks instructions whose next-pc the fetch engine
    mispredicted (``None`` = perfect prediction).  ``mem_penalty`` is the
    per-row extra memory latency from :func:`memory_penalties`; it is
    computed here when not supplied (pass it explicitly when sweeping many
    predictor configurations over one trace).
    """
    n = len(trace)
    if n == 0:
        return TimingResult(cycles=0, instructions=0,
                            mispredict_stall_cycles=0, dcache_misses=0)
    if mem_penalty is None:
        mem_penalty = memory_penalties(trace, machine)
    if mispredict_mask is None:
        mispredict_mask = np.zeros(n, dtype=bool)

    classes = trace.instr_class.tolist()
    src1 = trace.src1.tolist()
    src2 = trace.src2.tolist()
    dst = trace.dst.tolist()
    mem_addrs = trace.mem_addr.tolist()
    penalties = mem_penalty.tolist()
    mispredicted = mispredict_mask.tolist()
    latency_by_class = [machine.latency_of(c) for c in range(len(InstrClass))]
    load_class = int(InstrClass.LOAD)
    store_class = int(InstrClass.STORE)

    width = machine.fetch_width
    retire_width = machine.retire_width
    window = machine.window
    frontend = machine.frontend_depth

    reg_ready = [0] * NUM_REGISTERS
    store_ready: Dict[int, int] = {}
    retire_ring = [0] * window        # retire cycle of instruction i-window
    retire_recent = [0] * retire_width

    fetch_cycle = 0
    fetch_slots = 0
    redirect_at = -1                  # fetch restarts at this cycle
    mispredict_stalls = 0
    window_stalls = 0
    memory_penalty_total = 0
    dcache_misses = 0
    last_retire = 0

    for i in range(n):
        # ---- fetch ----------------------------------------------------
        if redirect_at >= 0:
            if redirect_at > fetch_cycle:
                mispredict_stalls += redirect_at - fetch_cycle
                fetch_cycle = redirect_at
                fetch_slots = 0
            redirect_at = -1
        if fetch_slots >= width:
            fetch_cycle += 1
            fetch_slots = 0
        fetch_slots += 1

        # ---- dispatch: window occupancy -------------------------------
        window_free = retire_ring[i % window]  # retire time of i-window
        dispatch = fetch_cycle + frontend
        if window_free > dispatch:
            window_stalls += window_free - dispatch
            dispatch = window_free

        # ---- operands --------------------------------------------------
        ready = dispatch
        s = src1[i]
        if s > 0 and reg_ready[s] > ready:
            ready = reg_ready[s]
        s = src2[i]
        if s > 0 and reg_ready[s] > ready:
            ready = reg_ready[s]
        cls = classes[i]
        penalty = penalties[i]
        if penalty:
            dcache_misses += 1
            memory_penalty_total += penalty
        if cls == load_class:
            forwarded = store_ready.get(mem_addrs[i])
            if forwarded is not None and forwarded > ready:
                ready = forwarded

        # ---- execute ---------------------------------------------------
        complete = ready + latency_by_class[cls] + penalty
        d = dst[i]
        if d > 0:
            reg_ready[d] = complete
        elif cls == store_class:
            store_ready[mem_addrs[i]] = complete

        # ---- branch resolution ------------------------------------------
        if mispredicted[i]:
            redirect_at = complete + 1

        # ---- in-order retirement ----------------------------------------
        retire = complete
        if retire < last_retire:
            retire = last_retire
        bandwidth_floor = retire_recent[i % retire_width] + 1
        if retire < bandwidth_floor:
            retire = bandwidth_floor
        retire_recent[i % retire_width] = retire
        retire_ring[i % window] = retire
        last_retire = retire

    return TimingResult(
        cycles=last_retire,
        instructions=n,
        mispredict_stall_cycles=mispredict_stalls,
        dcache_misses=dcache_misses,
        window_stall_cycles=window_stalls,
        memory_penalty_cycles=memory_penalty_total,
    )
