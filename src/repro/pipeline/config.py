"""Machine configuration for the HPS-like timing models.

Defaults reproduce the paper's §4.1 machine as closely as the (partly
garbled) text allows:

* "wide issue" — fetch/issue/retire width 4 with a 32-entry window (the
  paper's exact window size is illegible; DESIGN.md records this as an
  assumption — only *relative* execution times are claimed);
* Table 3 latencies: INT 1, FP-add 3, MUL 3, DIV 8, LOAD 2, STORE 1,
  BITFIELD 1, BRANCH 1;
* perfect instruction cache; 16KB data cache; 10-cycle memory latency;
* checkpoint repair: "once a branch misprediction is determined,
  instructions from the correct path are fetched in the next cycle" — a
  mispredicted branch restarts fetch the cycle after it executes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

from repro.guest.isa import InstrClass

#: Execution latencies per instruction class (paper Table 3).
LATENCIES: Dict[InstrClass, int] = {
    InstrClass.INT: 1,
    InstrClass.FP_ADD: 3,
    InstrClass.MUL: 3,
    InstrClass.DIV: 8,
    InstrClass.LOAD: 2,       # cache-hit latency; misses add memory latency
    InstrClass.STORE: 1,
    InstrClass.BITFIELD: 1,
    InstrClass.BRANCH: 1,
}


@dataclass(frozen=True)
class DataCacheConfig:
    """16KB 4-way 32B-line data cache (the paper gives only the size)."""

    size_bytes: int = 16 * 1024
    assoc: int = 4
    line_bytes: int = 32

    @property
    def n_sets(self) -> int:
        sets = self.size_bytes // (self.assoc * self.line_bytes)
        if sets <= 0 or sets & (sets - 1):
            raise ValueError("cache geometry must give a power-of-two set count")
        return sets


@dataclass(frozen=True)
class MachineConfig:
    """The simulated machine."""

    fetch_width: int = 4
    retire_width: int = 4
    #: maximum instructions in flight ("in the machine") at once
    window: int = 32
    #: pipeline stages between fetch and earliest execute.  Chosen so the
    #: effective misprediction penalty (frontend refill + resolve latency)
    #: lands in the range that reproduces the paper's execution-time
    #: reductions at our workloads' indirect-jump densities.
    frontend_depth: int = 6
    memory_latency: int = 10
    dcache: DataCacheConfig = field(default_factory=DataCacheConfig)
    latencies: Dict[InstrClass, int] = field(
        default_factory=lambda: dict(LATENCIES)
    )

    def __hash__(self) -> int:
        # The generated hash would fail on the ``latencies`` dict; hash it
        # as sorted items so equal machines hash equal (the result cache's
        # timing-key memo keys on the machine).
        return hash((
            self.fetch_width, self.retire_width, self.window,
            self.frontend_depth, self.memory_latency, self.dcache,
            tuple(sorted(self.latencies.items())),
        ))

    def latency_of(self, instr_class: int) -> int:
        return self.latencies[InstrClass(instr_class)]
