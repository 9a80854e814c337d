"""HPS-like out-of-order timing models.

The paper measures "reduction in execution time" on a simulated HPS
machine: wide-issue, out-of-order (Tomasulo scheduling), checkpoint repair
on branch mispredictions, perfect I-cache, 16KB data cache with a 10-cycle
memory, and the per-class execution latencies of Table 3.

Two models share one :class:`~repro.pipeline.config.MachineConfig`:

* :mod:`~repro.pipeline.timing` — a fast dataflow scheduler used for the
  paper's big parameter sweeps (an instruction's issue time is the max of
  its fetch availability, its operands' completion times, and
  window/width constraints; a per-trace memo re-simulates only the
  stretches that a new mispredict mask changes);
* :mod:`~repro.pipeline.core` — a cycle-stepped model with explicit fetch /
  issue / execute / retire stages and checkpoint-style recovery, used to
  cross-validate the fast model and for the pipeline example.

Both are trace-driven from the *correct-path* trace: a misprediction stalls
fetch until the branch resolves (wrong-path instructions are not executed,
the standard trace-driven approximation).
"""

from repro.pipeline.caches import DataCache, memory_penalties
from repro.pipeline.config import LATENCIES, DataCacheConfig, MachineConfig
from repro.pipeline.core import CycleCore, run_cycle_core
from repro.pipeline.integrated import IntegratedCore, IntegratedResult, run_integrated
from repro.pipeline.timing import TimingMemo, TimingResult, execution_cycles, run_timing

__all__ = [
    "LATENCIES",
    "DataCacheConfig",
    "MachineConfig",
    "DataCache",
    "memory_penalties",
    "TimingMemo",
    "TimingResult",
    "execution_cycles",
    "run_timing",
    "CycleCore",
    "run_cycle_core",
    "IntegratedCore",
    "IntegratedResult",
    "run_integrated",
]
