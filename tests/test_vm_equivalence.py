"""The pre-decoded guest VM against pinned digests and its frozen oracle.

Two checks keep ``repro.guest.vm.VM`` byte-identical to the interpreter
loop it replaced, which lives on as ``tests/vm_reference.py``:

* :data:`PINNED_DIGESTS` holds a sha256 over every column's name, dtype and
  bytes for every workload x lowering at 2k instructions and seed 1997.
  The digests were recorded with the reference loop, before the VM was
  rewritten; the trace cache key hashes the generator sources, not the
  trace bytes, so nothing else would notice a trace that changed.
* the differential tests run both VMs on the same program and compare the
  nine columns with their dtypes, ``halted``, and the VM's end state:
  registers (with their Python types), memory, call stack, ``pc`` and
  ``retired``.  They cover every workload x lowering at 5k instructions
  and seeds 1997 and 2027, a ``stop_pc`` stop with resumed ``run()``
  calls, a halting program that executes every opcode, and each fault.
  One test checks the VM alone: runs resumed after a ``stop_visits=1``
  stop, where the VM no longer follows the frozen loop.
"""

import hashlib
from typing import Any, Dict, Tuple

import numpy as np
import pytest

from repro.guest.builder import ProgramBuilder
from repro.guest.isa import GuestProgram, Instruction, Op
from repro.guest.lowering import lowering_names
from repro.guest.vm import VM, VMError
from repro.trace.trace import Trace
from repro.workloads.registry import build_program, get_trace, workload_names
from tests.vm_reference import ReferenceRawTrace, ReferenceVM, reference_trace

COLUMNS = ("pc", "instr_class", "branch_kind", "taken", "target", "src1",
           "src2", "dst", "mem_addr")

ALL_WORKLOADS = workload_names(include_oo=True, include_server=True)
WORKLOAD_LOWERINGS = [(name, lowering) for name in ALL_WORKLOADS
                      for lowering in lowering_names()]

#: ``name@lowering`` -> sha256 of the 2k-instruction, seed-1997 trace.
PINNED_DIGESTS: Dict[str, str] = {
    "compress@clustered": "782eb7ca858d4f4b3afe28702ae55ad41fc2221df490bf4f4f35122ff8c8a30c",
    "compress@if_tree": "782eb7ca858d4f4b3afe28702ae55ad41fc2221df490bf4f4f35122ff8c8a30c",
    "compress@jump_table": "516f433db5db600af9b9dda0d745126e51e697bdf4ff0b3ae149df398a040b65",
    "db_like@clustered": "0fd65fdb13d78ab4fa4ab43af2b4580875244365be07ea203b443f1cf7322a92",
    "db_like@if_tree": "0b72896608fe13a9e3f18abb23d5eb093467e01aa5dd738e5ad191b4fb6dc1aa",
    "db_like@jump_table": "08b49f7b26992f53b1ef45434cc4ffae93efed47ddbcad7f3969b6f39c57446b",
    "deltablue@clustered": "cdd064ee97c1c90d613563b9afa5ca8f3dbc9bec4e6469481b6c4f2daad541a3",
    "deltablue@if_tree": "cdd064ee97c1c90d613563b9afa5ca8f3dbc9bec4e6469481b6c4f2daad541a3",
    "deltablue@jump_table": "cdd064ee97c1c90d613563b9afa5ca8f3dbc9bec4e6469481b6c4f2daad541a3",
    "gcc@clustered": "dc75c3dbcafcc1172c33bf092e807a485974eded6316044457cbb17f84dd18c9",
    "gcc@if_tree": "f818b850e2bb517c7fb23aee3e7a6d83a2528afefbaaf91ad07a9252f47c39fd",
    "gcc@jump_table": "7499708efbdb8210a7a125d0e175c8b11f1de824b54550f30c20b7afc2b78279",
    "go@clustered": "f1e07a9f3fbcb5e3ab5da70a9d39bc374710da66923655aa33311314db3fecb3",
    "go@if_tree": "15bf7941e2407b64c41c64a6c78861eb6ce2fb1c2a527615b666e23a11718999",
    "go@jump_table": "f1e07a9f3fbcb5e3ab5da70a9d39bc374710da66923655aa33311314db3fecb3",
    "ijpeg@clustered": "86f76f683aed82c6cb23b2cb994c5c41662fc7eb716f5d1b4a62c9549e60e600",
    "ijpeg@if_tree": "743b21c38ccd11739b619f674e7d3d6e957e8f5f83be4b9adaf1af4a2ec03e4f",
    "ijpeg@jump_table": "86f76f683aed82c6cb23b2cb994c5c41662fc7eb716f5d1b4a62c9549e60e600",
    "m88ksim@clustered": "fdeeb2c39988911c9be8d2605bf20bbdf5c422c246d7bd982026a625b3898f75",
    "m88ksim@if_tree": "7caf645d2fcc119b45c0964501f20f68d1e1c53674d63591767585a16e3d92f7",
    "m88ksim@jump_table": "7a08e7182d1bdd117b74d29601bb8283f00464dc2e10e15cdf322228dad111b9",
    "perl@clustered": "8bc55a96bb8782a9160b72d2d3333cb48fc019051919a9cfc5700e2dae771846",
    "perl@if_tree": "226d92a6672e952039c49b62b5c45f44b667809964209ca6eed6ec0347647b10",
    "perl@jump_table": "7dc88b97131760615d50638b33965fb5e0a25ea4f9d28d0d75eed43ca4220fa9",
    "richards@clustered": "5795a04170dc6352960319ed1309266649af1c5879cbd760bf766bb6ecc0caef",
    "richards@if_tree": "5795a04170dc6352960319ed1309266649af1c5879cbd760bf766bb6ecc0caef",
    "richards@jump_table": "5795a04170dc6352960319ed1309266649af1c5879cbd760bf766bb6ecc0caef",
    "rpc_like@clustered": "0bfa674257214af04864add50df8dbbf93360759ebc2926daea853fa29120927",
    "rpc_like@if_tree": "4f7b71725e5892f1f31605b3fa8b8a4a7ee5e8e8e402e7fbe0b0b61b6dd30f33",
    "rpc_like@jump_table": "73b9cbf64beb616463016006593242d753b3bcd813ba68ef578fca3846bcd3da",
    "vortex@clustered": "39abf612115d13611cfb4c7fc27c635e87dc4f80881c6d9271ff7fcd8a2ff2fa",
    "vortex@if_tree": "7d36390267d73e01ef80655562f5ded2911984adf0ef5383dff5cae810711e79",
    "vortex@jump_table": "b206abcd25edd5f5b40b4cb6864eedc20d0cfc99c5756ca5995f79838d209770",
    "webserver_like@clustered": "80b11ed54f824e44fe0d07d99e919da5166f5107d0126c340f89c43289b6ae22",
    "webserver_like@if_tree": "4599ad9f5939e9e6e0efca155fb69c1fb5eb5dde1e79a675298f465065b52542",
    "webserver_like@jump_table": "d53cfd98e485c1445e4d24348d4d7f995f2cc41907b1f6f88be98c279d594ad9",
    "xlisp@clustered": "9e979722fac7c18298a0fe1ad0c454788b1153de33272098cbc640989fc1617c",
    "xlisp@if_tree": "edf39a8ef8ff32aa9c3a46332ee619b96323df4c62daf8ae4384f9c3ee38c83f",
    "xlisp@jump_table": "565547352915ea11e3fae61c7cb32068a2c761c5c6d907e0d8b79aebf9bce5bf",
}


def _digest(trace: Trace) -> str:
    digest = hashlib.sha256()
    for name in COLUMNS:
        column = getattr(trace, name)
        digest.update(name.encode())
        digest.update(column.dtype.str.encode())
        digest.update(column.tobytes())
    return digest.hexdigest()


def test_digests_cover_every_workload_and_lowering() -> None:
    assert sorted(PINNED_DIGESTS) == sorted(
        f"{name}@{lowering}" for name, lowering in WORKLOAD_LOWERINGS)


@pytest.mark.parametrize("name,lowering", WORKLOAD_LOWERINGS)
def test_trace_matches_pinned_digest(name: str, lowering: str) -> None:
    trace = get_trace(name, n_instructions=2_000, seed=1997, use_cache=False,
                      lowering=lowering)
    assert _digest(trace) == PINNED_DIGESTS[f"{name}@{lowering}"]


def _state(vm: Any) -> Tuple[Any, ...]:
    """Everything a run leaves behind, with the type of each value."""
    return (
        [(type(value), value) for value in vm.registers],
        {address: (type(value), value) for address, value in vm.memory.items()},
        list(vm.call_stack),
        vm.pc,
        vm.retired,
    )


def _assert_same_trace(expected: ReferenceRawTrace, actual: Any) -> None:
    reference = reference_trace(expected)
    assert actual.halted == expected.halted
    assert len(actual) == len(expected)
    for name in COLUMNS:
        want = getattr(reference, name)
        got = getattr(actual, name)
        assert got.dtype == want.dtype, name
        assert np.array_equal(got, want), name


def _run_both(reference: ReferenceVM, vm: VM) -> Any:
    """One ``run()`` of each VM; returns the new VM's trace once both agree."""
    expected = reference.run()
    actual = vm.run()
    _assert_same_trace(expected, actual)
    assert _state(vm) == _state(reference)
    return actual


def _pair(program: GuestProgram, **options: Any) -> Tuple[ReferenceVM, VM]:
    return ReferenceVM(program, **options), VM(program, **options)


@pytest.mark.parametrize("seed", [1997, 2027])
@pytest.mark.parametrize("name,lowering", WORKLOAD_LOWERINGS)
def test_workload_matches_reference(name: str, lowering: str, seed: int) -> None:
    program = build_program(name, seed=seed, lowering=lowering)
    trace = _run_both(*_pair(program, max_instructions=5_000))
    assert len(trace) == 5_000


def test_stop_pc_and_resumed_runs_match_reference() -> None:
    """Stop at the second arrival at ``loop``; resume to the next arrival;
    then resume again with a raised cap and no stop point."""
    program = build_program("perl")
    loop = program.address_of("loop")
    reference, vm = _pair(program, max_instructions=5_000, stop_pc=loop,
                          stop_visits=2)
    first = _run_both(reference, vm)
    assert vm.pc == loop and 0 < len(first) < 5_000
    second = _run_both(reference, vm)
    assert vm.pc == loop and len(second) > 0
    for machine in (reference, vm):
        machine.max_instructions += 3_000
        machine.stop_pc = None
    _run_both(reference, vm)
    assert vm.retired == 8_000


def test_runs_resume_past_a_single_visit_stop() -> None:
    """With ``stop_visits=1`` a resumed ``run()`` starts at ``loop`` and
    goes on to the next arrival instead of stopping before its first
    fetch.  The runs' columns, concatenated, equal one uninterrupted run
    of the same length.  The frozen reference loop stops every resumed
    run at once, so this checks the VM alone."""
    program = build_program("perl")
    loop = program.address_of("loop")
    vm = VM(program, max_instructions=5_000, stop_pc=loop, stop_visits=1)
    runs = []
    for _ in range(4):
        runs.append(vm.run())
        assert vm.pc == loop
    assert [len(run) for run in runs] == [5, 67, 53, 60]
    whole = VM(program, max_instructions=185).run()
    for name in COLUMNS:
        joined = np.concatenate([getattr(run, name) for run in runs])
        assert joined.dtype == getattr(whole, name).dtype, name
        assert np.array_equal(joined, getattr(whole, name)), name


def _every_opcode_program() -> GuestProgram:
    """A halting loop that executes every opcode, r0 writes, float
    registers, 64-bit wrap-around, division by zero and every branch
    outcome, calls and returns."""
    b = ProgramBuilder()
    data = b.data_table([5, 2.5, -3])
    b.jmp("main")
    b.label("fn")
    b.addi(9, 9, 1)
    b.ret()
    b.label("main")
    b.li(1, 7)
    b.li(2, 3)
    b.li(10, 3)                       # loop counter
    b.li(11, 1 << 40)
    b.li(20, data)
    b.li(24, "fn")
    b.li(25, "after_jr")
    b.label("loop")
    b.add(4, 1, 2)
    b.sub(4, 4, 10)
    b.and_(5, 1, 4)
    b.or_(5, 5, 2)
    b.xor(5, 5, 10)
    b.slt(6, 2, 4)
    b.mul(7, 11, 11)                  # wraps to 64 bits
    b.div(8, 1, 2)
    b.div(8, 8, 0)                    # divide by zero -> 0
    b.mod(12, 1, 10)
    b.mod(12, 12, 0)
    b.fadd(13, 1, 2)
    b.fsub(13, 13, 10)
    b.fmul(14, 13, 2)
    b.fdiv(14, 14, 10)
    b.fdiv(15, 1, 0)                  # float divide by zero -> 0.0
    b.mul(16, 14, 2)                  # float product: no wrap
    b.shl(17, 1, 2)
    b.shr(17, 17, 10)
    b.shli(18, 11, 30)
    b.shri(18, 18, 3)
    b.andi(19, 18, 0xFF)
    b.xori(19, 19, 0x5A)
    b.load(21, 20, 4)                 # a float from the data segment
    b.store(21, 20, 64)
    b.load(22, 20, 64)
    b.load(23, 20, 4096)              # uninitialised -> 0
    b.add(0, 1, 2)                    # r0 stays zero
    b.addi(26, 0, 1)
    b.beq(1, 2, "skip_beq")
    b.bne(1, 2, "skip_beq")
    b.label("skip_beq")
    b.blt(13, 1, "skip_blt")          # float against int
    b.label("skip_blt")
    b.bge(2, 1, "skip_bge")
    b.bge(1, 2, "skip_bge")
    b.label("skip_bge")
    b.call("fn")
    b.callr(24)
    b.jr(25)
    b.label("after_jr")
    b.addi(10, 10, -1)
    b.bne(10, 0, "loop")
    b.halt()
    return b.build(entry="main")


def test_every_opcode_matches_reference() -> None:
    program = _every_opcode_program()
    assert {ins.op for ins in program.code} == set(Op)
    trace = _run_both(*_pair(program))
    assert trace.halted


def _program(*code: Instruction) -> GuestProgram:
    return GuestProgram(code=list(code))


@pytest.mark.parametrize("program,message", [
    (_program(Instruction(Op.LI, rd=1, imm=0x5000), Instruction(Op.JR, rs1=1)),
     "pc 0x5000 outside code segment"),
    (_program(Instruction(Op.LI, rd=1, imm=3), Instruction(Op.RET)),
     "return with empty call stack"),
    (_program(Instruction(Op.CALL, imm=0)), "guest call stack overflow"),
    (_program(Instruction(Op.LI, rd=1, imm=0), Instruction(Op.CALLR, rs1=1)),
     "guest call stack overflow"),
    (_program(Instruction(Op.LI, rd=1, imm=4),
              Instruction(99)),
     "unknown opcode 99"),
])
def test_faults_match_reference(program: GuestProgram, message: str) -> None:
    reference, vm = _pair(program, call_stack_limit=50)
    with pytest.raises(VMError) as expected:
        reference.run()
    with pytest.raises(VMError) as actual:
        vm.run()
    assert str(actual.value) == str(expected.value) == message
    assert _state(vm) == _state(reference)


def test_unexecuted_unknown_opcode_is_not_a_fault() -> None:
    program = _program(Instruction(Op.LI, rd=1, imm=4), Instruction(Op.HALT),
                       Instruction(99))
    trace = _run_both(*_pair(program))
    assert trace.halted and len(trace) == 1
