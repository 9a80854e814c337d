"""Lowering-equivalence harness: one dispatch construct, many shapes.

Every migrated workload must produce the *same architectural execution*
under all registered lowerings — the lowering changes only the control-flow
shape of dispatch, never what the program computes.  The harness runs each
workload to a common synchronization point (the Nth arrival at a
workload-level loop label, via the VM's ``stop_pc``) and compares:

* final data-memory state (delta against the initial data segment);
* final workload registers (r5..r31; r1-r4 are dispatch scratch);
* the handler-visit sequence (perl, where handler names are known).

It also asserts what must *differ*: the static branch-site mix (``if_tree``
has no ``jr``-dispatch sites where ``jump_table`` has many), the dynamic
conditional-branch count, and the runner cell keys (no cache aliasing).
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

import pytest

from repro.bench import vector_sweep_configs
from repro.guest.isa import GuestProgram, Op
from repro.guest.lowering import lowering_names
from repro.guest.vm import VM, RawTrace
from repro.predictors import EngineConfig, simulate_many
from repro.runner.keys import cell_key
from repro.workloads import build_program, get_trace

#: (workload, sync label, arrivals to run).  The sync label is a loop head
#: owned by the workload (never emitted by a lowering), so the Nth arrival
#: is the same architectural point under every lowering.
SYNC_POINTS = [
    ("perl", "loop", 150),
    ("gcc", "outer", 2),
    ("xlisp", "expr_loop", 40),
    ("m88ksim", "fetch", 150),
    ("vortex", "obj_loop", 60),
    ("webserver_like", "req_loop", 40),
    ("compress", "byte_loop", 120),
    ("go", "scan_loop", 60),
    ("ijpeg", "row_loop", 30),
]

#: Workloads whose only indirect branches come from switch sites; under
#: ``if_tree`` their code must contain no indirect jumps or calls at all.
FULLY_STRUCTURED = {
    "perl", "gcc", "xlisp", "m88ksim", "vortex", "compress", "go", "ijpeg",
}

MAX_INSTRUCTIONS = 400_000


def _run_to_sync(name: str, lowering: Optional[str], label: str,
                 visits: int) -> Tuple[GuestProgram, VM, RawTrace]:
    program = build_program(name, lowering=lowering)
    vm = VM(program, max_instructions=MAX_INSTRUCTIONS,
            stop_pc=program.address_of(label), stop_visits=visits)
    trace = vm.run()
    assert not trace.halted, f"{name}@{lowering}: unexpected HALT"
    assert vm.retired < MAX_INSTRUCTIONS, (
        f"{name}@{lowering}: never reached {label} x{visits}"
    )
    return program, vm, trace


def _memory_delta(program: GuestProgram, vm: VM) -> Dict[int, float]:
    initial: Dict[int, float] = dict(program.data)
    return {
        addr: value
        for addr, value in vm.memory.items()
        if initial.get(addr) != value
    }


def _indirect_count(program: GuestProgram) -> int:
    return sum(1 for ins in program.code if ins.op in (Op.JR, Op.CALLR))


@pytest.mark.parametrize("name,label,visits", SYNC_POINTS)
def test_lowerings_architecturally_equivalent(name: str, label: str,
                                              visits: int) -> None:
    results = {}
    for lowering in lowering_names():
        program, vm, trace = _run_to_sync(name, lowering, label, visits)
        results[lowering] = (program, vm, trace)

    baseline_name = "jump_table"
    base_program, base_vm, base_trace = results[baseline_name]
    base_delta = _memory_delta(base_program, base_vm)
    base_regs = base_vm.registers[5:]

    for lowering, (program, vm, trace) in results.items():
        if lowering == baseline_name:
            continue
        # Same data layout: switch tables are allocated at the same program
        # points regardless of lowering.  (Values may differ — table words
        # hold label addresses, and code addresses shift with the lowering.)
        assert program.data.keys() == base_program.data.keys(), (
            f"{name}@{lowering}: data segment layout diverged"
        )
        assert _memory_delta(program, vm) == base_delta, (
            f"{name}@{lowering}: memory state diverged at sync point"
        )
        assert vm.registers[5:] == base_regs, (
            f"{name}@{lowering}: workload registers diverged at sync point"
        )
        assert len(vm.call_stack) == len(base_vm.call_stack), (
            f"{name}@{lowering}: call depth diverged at sync point"
        )


@pytest.mark.parametrize("name,label,visits", SYNC_POINTS)
def test_static_branch_site_mix_differs(name: str, label: str,
                                        visits: int) -> None:
    del label, visits
    programs = {
        lowering: build_program(name, lowering=lowering)
        for lowering in lowering_names()
    }
    jt = _indirect_count(programs["jump_table"])
    tree = _indirect_count(programs["if_tree"])
    assert jt > tree, f"{name}: if_tree must remove indirect dispatch sites"
    if name in FULLY_STRUCTURED:
        assert tree == 0, f"{name}: if_tree left {tree} indirect sites"
    # clustered keeps at least one table dispatch per hot run — its static
    # site count may even exceed jump_table's (one site can split into
    # several table pieces); "in between" is a *dynamic* property.  Tiny
    # switches (compress: 3 cases, below the minimum run length) legally
    # degenerate to the pure tree.
    clustered = _indirect_count(programs["clustered"])
    assert clustered >= tree
    if name != "compress":
        assert clustered > tree, f"{name}: clustered kept no table pieces"


def test_perl_handler_visit_sequence_identical() -> None:
    """The strongest equivalence check: the exact order of handler entries."""
    k = 22  # PerlParams default token_types
    handler_names = (
        [f"tok_{i}" for i in range(k)] + ["tok_jz"]
        + [f"binop_{i}" for i in range(5)]
    )
    sequences = {}
    for lowering in lowering_names():
        program, _, trace = _run_to_sync("perl", lowering, "loop", 200)
        by_address = {program.address_of(h): h for h in handler_names}
        sequences[lowering] = [
            by_address[pc] for pc in trace.pc if pc in by_address
        ]
    reference = sequences["jump_table"]
    assert len(reference) > 150  # the window really exercises dispatch
    for lowering, sequence in sequences.items():
        assert sequence == reference, f"perl@{lowering}: visit order diverged"


def test_if_tree_trades_indirect_for_conditional() -> None:
    """Dynamic mix: if_tree removes indirect jumps, inflates conditionals."""
    counts: Dict[str, Tuple[int, int]] = {}
    for lowering in ("jump_table", "if_tree", "clustered"):
        _, _, trace = _run_to_sync("perl", lowering, "loop", 150)
        indirect = sum(1 for kind in trace.branch_kind if kind in (4, 6))
        conditional = sum(1 for kind in trace.branch_kind if kind == 1)
        counts[lowering] = (indirect, conditional)
    assert counts["jump_table"][0] > 0
    assert counts["if_tree"][0] == 0
    assert counts["if_tree"][1] > counts["jump_table"][1]
    # clustered keeps some table dispatch but fewer dynamic indirects than
    # the pure table only when cold cases actually execute; at minimum it
    # must not exceed the pure table's count.
    assert counts["clustered"][0] <= counts["jump_table"][0]
    assert counts["clustered"][1] >= counts["jump_table"][1]


def test_cell_keys_never_alias_across_lowerings() -> None:
    config = EngineConfig()
    keys = {
        cell_key(f"perl@{lowering}" if lowering != "jump_table" else "perl",
                 config, 60_000, 1997)
        for lowering in lowering_names()
    }
    assert len(keys) == len(lowering_names())


def test_vm_stop_pc_sync() -> None:
    """stop_pc halts before the Nth arrival, exactly."""
    program = build_program("perl")
    loop = program.address_of("loop")
    vm1 = VM(program, max_instructions=50_000, stop_pc=loop, stop_visits=1)
    trace1 = vm1.run()
    assert vm1.pc == loop
    assert loop not in trace1.pc  # stopped *before* executing the loop head
    vm2 = VM(program, max_instructions=50_000, stop_pc=loop, stop_visits=3)
    vm2.run()
    assert vm2.pc == loop
    assert vm2.retired > vm1.retired


def test_target_cache_recovers_jump_table_dispatch() -> None:
    """The best Table-4 tagless cell recovers >10% of jump_table perl MPKI.

    The tier-1 twin of the ``recovered`` floor on ``repro bench``'s
    lowering slice: 17.4% at 20k instructions and seed 1997 (17.5% at
    seed 2027).  MPKI counts every branch kind per 1000 instructions.
    """
    trace = get_trace("perl", n_instructions=20_000, use_cache=False)
    baseline, *tagless = simulate_many(
        trace, [EngineConfig()] + vector_sweep_configs())
    best = min(stats.branch_mispredictions for stats in tagless)
    recovered = 1 - best / baseline.branch_mispredictions
    assert recovered > 0.10, f"recovered only {recovered:.1%}"
