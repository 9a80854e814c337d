"""Speed guard for the pre-decoded guest VM.

Generating a trace is ``run_program`` plus ``Trace.from_raw``.  For perl,
gcc and xlisp at a fixed 20k instructions it must beat the interpreter
loop the pre-decoded VM replaced (``tests/vm_reference.py``), together
with that loop's list-to-array conversion, by at least 3x: the pre-decoded
loop compares plain-int opcodes and records only the pc plus the sparse
dynamic values, and numpy gathers every pc-only column afterwards.
Decoding is inside the timed call, since every ``run()`` decodes afresh.

The length is fixed at 20k, the length the repository benchmark's paper
run generates, rather than read from ``REPRO_BENCH_TRACE_LENGTH``.
Timing is min-of-rounds so scheduler noise cannot mask a regression.
Runs with plain pytest from the repository root:
``PYTHONPATH=src python -m pytest -q benchmarks/test_vm_speed.py``.
"""

import time

import pytest

from repro.guest.vm import run_program
from repro.trace.trace import Trace
from repro.workloads.registry import build_program
from tests.vm_reference import reference_run_program, reference_trace

TRACE_LENGTH = 20_000
ROUNDS = 3
MIN_SPEEDUP = 3.0
WORKLOADS = ("perl", "gcc", "xlisp")


def _min_time(func, rounds=ROUNDS):
    best = float("inf")
    for _ in range(rounds):
        start = time.perf_counter()
        func()
        best = min(best, time.perf_counter() - start)
    return best


@pytest.mark.parametrize("name", WORKLOADS)
def test_vm_generates_a_trace_3x_faster(name):
    program = build_program(name)

    def generate():
        return Trace.from_raw(run_program(program, TRACE_LENGTH))

    def generate_reference():
        return reference_trace(reference_run_program(program, TRACE_LENGTH))

    # the guard is worthless if the fast path drifts
    assert generate() == generate_reference()
    reference = _min_time(generate_reference)
    fast = _min_time(generate)
    speedup = reference / fast
    assert speedup >= MIN_SPEEDUP, (
        f"{name}: generating {TRACE_LENGTH} instructions took {fast:.4f}s vs "
        f"{reference:.4f}s for the reference loop ({speedup:.1f}x < "
        f"{MIN_SPEEDUP:.0f}x) — the pre-decoded loop lost its edge"
    )
