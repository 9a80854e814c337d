"""Dynamic-instruction traces and their statistics.

The paper's experiments are trace-driven ("measured by trace-driven
simulations using an instruction level simulator", §4.1).  This package is
the trace substrate: a columnar, numpy-backed container produced by the guest
VM, summary statistics matching the paper's Table 1 and Figures 1-8, and a
checksummed on-disk record (:mod:`repro.trace.io`) so traces can be cached
between runs.
"""

from repro.trace.io import load_trace, save_trace
from repro.trace.stats import (
    BranchMix,
    TargetProfile,
    branch_mix,
    indirect_target_histogram,
    polymorphic_fraction,
    target_profile,
    transition_rate,
)
from repro.trace.trace import Trace

__all__ = [
    "Trace",
    "BranchMix",
    "TargetProfile",
    "branch_mix",
    "indirect_target_histogram",
    "target_profile",
    "load_trace",
    "polymorphic_fraction",
    "save_trace",
    "transition_rate",
]
