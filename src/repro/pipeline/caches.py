"""Data-cache model and the per-trace memory-penalty precomputation.

The data cache is predictor-independent: whether a branch was mispredicted
does not change which loads hit (wrong-path pollution is out of scope for
this trace-driven model).  Experiments therefore compute the per-load
penalty array once per trace with :func:`memory_penalties` and reuse it
across every predictor configuration — this is what makes the paper's big
execution-time sweeps tractable.
"""

from __future__ import annotations

from typing import Dict, List

import numpy as np
import numpy.typing as npt

from repro.guest.isa import InstrClass
from repro.pipeline.config import DataCacheConfig, MachineConfig
from repro.trace.trace import Trace


class DataCache:
    """Set-associative LRU data cache; :meth:`access` returns hit/miss."""

    def __init__(self, config: DataCacheConfig = DataCacheConfig()) -> None:
        self.config = config
        self.n_sets = config.n_sets
        self._set_mask = self.n_sets - 1
        self._set_bits = self.n_sets.bit_length() - 1
        self._line_shift = config.line_bytes.bit_length() - 1
        self._assoc = config.assoc
        # Insertion-ordered dict per set: tag -> True; first key is LRU.
        self._sets: List[Dict[int, bool]] = [dict() for _ in range(self.n_sets)]
        self.accesses = 0
        self.misses = 0

    def access(self, address: int) -> bool:
        """Reference ``address``; returns True on hit.  Allocate on miss
        (write-allocate: loads and stores are treated alike)."""
        self.accesses += 1
        line = address >> self._line_shift
        bucket = self._sets[line & self._set_mask]
        tag = line >> self._set_bits
        if tag in bucket:
            del bucket[tag]
            bucket[tag] = True
            return True
        self.misses += 1
        if len(bucket) >= self._assoc:
            del bucket[next(iter(bucket))]
        bucket[tag] = True
        return False

    @property
    def miss_rate(self) -> float:
        return self.misses / self.accesses if self.accesses else 0.0


def memory_penalties(trace: Trace, machine: MachineConfig) -> "npt.NDArray[np.int32]":
    """Per-instruction extra latency (cycles) from data-cache misses.

    Returns an int32 array aligned to the trace: zero for non-memory
    instructions and cache hits, ``machine.memory_latency`` for misses.
    """
    penalties = np.zeros(len(trace), dtype=np.int32)
    is_mem = (trace.instr_class == int(InstrClass.LOAD)) | (
        trace.instr_class == int(InstrClass.STORE)
    )
    rows = np.flatnonzero(is_mem)
    addresses = trace.mem_addr[rows].tolist()
    cache = DataCache(machine.dcache)
    access = cache.access
    latency = machine.memory_latency
    for row, address in zip(rows.tolist(), addresses):
        if not access(address):
            penalties[row] = latency
    return penalties
