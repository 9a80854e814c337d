"""Unit tests for the functional VM: opcode semantics, control flow,
faults, and trace recording."""

import pytest

from repro.guest.builder import ProgramBuilder
from repro.guest.isa import BranchKind, InstrClass
from repro.guest.vm import VM, VMError, run_program


def _run(build_body, max_instructions=10_000):
    b = ProgramBuilder()
    vm_regs = build_body(b)
    b.halt()
    program = b.build()
    vm = VM(program, max_instructions=max_instructions)
    trace = vm.run()
    return vm, trace


class TestArithmetic:
    def test_add_sub_mul(self):
        def body(b):
            b.li(1, 6)
            b.li(2, 7)
            b.add(3, 1, 2)
            b.sub(4, 2, 1)
            b.mul(5, 1, 2)
        vm, _ = _run(body)
        assert vm.registers[3] == 13
        assert vm.registers[4] == 1
        assert vm.registers[5] == 42

    def test_div_and_mod_by_zero_give_zero(self):
        def body(b):
            b.li(1, 10)
            b.div(2, 1, 0)
            b.mod(3, 1, 0)
        vm, _ = _run(body)
        assert vm.registers[2] == 0
        assert vm.registers[3] == 0

    def test_div_truncates_toward_zero(self):
        def body(b):
            b.li(1, 7)
            b.li(2, 2)
            b.div(3, 1, 2)
        vm, _ = _run(body)
        assert vm.registers[3] == 3

    def test_logic_and_shifts(self):
        def body(b):
            b.li(1, 0b1100)
            b.li(2, 0b1010)
            b.and_(3, 1, 2)
            b.or_(4, 1, 2)
            b.xor(5, 1, 2)
            b.shli(6, 1, 2)
            b.shri(7, 1, 2)
            b.andi(8, 1, 0b0100)
            b.xori(9, 1, 0b0001)
        vm, _ = _run(body)
        assert vm.registers[3] == 0b1000
        assert vm.registers[4] == 0b1110
        assert vm.registers[5] == 0b0110
        assert vm.registers[6] == 0b110000
        assert vm.registers[7] == 0b11
        assert vm.registers[8] == 0b0100
        assert vm.registers[9] == 0b1101

    def test_slt(self):
        def body(b):
            b.li(1, 3)
            b.li(2, 5)
            b.slt(3, 1, 2)
            b.slt(4, 2, 1)
        vm, _ = _run(body)
        assert vm.registers[3] == 1
        assert vm.registers[4] == 0

    def test_float_ops(self):
        def body(b):
            b.li(1, 3)
            b.li(2, 2)
            b.fadd(3, 1, 2)
            b.fmul(4, 3, 2)
            b.fdiv(5, 4, 2)
            b.fsub(6, 5, 1)
            b.fdiv(7, 1, 0)    # divide by zero -> 0.0
        vm, _ = _run(body)
        assert vm.registers[3] == 5.0
        assert vm.registers[4] == 10.0
        assert vm.registers[5] == 5.0
        assert vm.registers[6] == 2.0
        assert vm.registers[7] == 0.0

    def test_r0_is_hardwired_zero(self):
        def body(b):
            b.li(0, 99)
            b.add(1, 0, 0)
        vm, _ = _run(body)
        assert vm.registers[0] == 0
        assert vm.registers[1] == 0


class TestMemory:
    def test_store_then_load(self):
        def body(b):
            b.li(1, 0x10000)
            b.li(2, 77)
            b.store(2, 1, 8)
            b.load(3, 1, 8)
        vm, _ = _run(body)
        assert vm.registers[3] == 77

    def test_uninitialised_memory_reads_zero(self):
        def body(b):
            b.li(1, 0x30000)
            b.load(2, 1)
        vm, _ = _run(body)
        assert vm.registers[2] == 0

    def test_initial_data_visible(self):
        b = ProgramBuilder()
        addr = b.data_word(123)
        b.li(1, addr)
        b.load(2, 1)
        b.halt()
        vm = VM(b.build())
        vm.run()
        assert vm.registers[2] == 123

    def test_trace_records_effective_address(self):
        def body(b):
            b.li(1, 0x10000)
            b.store(1, 1, 4)
        _, trace = _run(body)
        assert trace.mem_addr[-1] == 0x10004


class TestControlFlow:
    def test_conditional_branch_taken_and_not_taken(self):
        def body(b):
            b.li(1, 1)
            b.beq(1, 0, "skip")     # not taken
            b.li(2, 5)
            b.label("skip")
            b.bne(1, 0, "end")      # taken
            b.li(2, 9)              # skipped
            b.label("end")
        vm, trace = _run(body)
        assert vm.registers[2] == 5
        kinds = trace.branch_kind
        takens = trace.taken
        cond_rows = [i for i, k in enumerate(kinds)
                     if k == int(BranchKind.COND_DIRECT)]
        assert [bool(takens[i]) for i in cond_rows] == [False, True]

    def test_blt_bge(self):
        def body(b):
            b.li(1, 2)
            b.li(2, 5)
            b.blt(1, 2, "a")
            b.li(3, 111)            # skipped
            b.label("a")
            b.bge(2, 1, "b")
            b.li(3, 222)            # skipped
            b.label("b")
        vm, _ = _run(body)
        assert vm.registers[3] == 0

    def test_call_and_return(self):
        def body(b):
            b.jmp("main")
            b.label("fn")
            b.li(5, 42)
            b.ret()
            b.label("main")
            b.call("fn")
            b.add(6, 5, 0)
        vm, trace = _run(body)
        assert vm.registers[6] == 42
        assert int(BranchKind.CALL_DIRECT) in trace.branch_kind
        assert int(BranchKind.RETURN) in trace.branch_kind

    def test_indirect_jump_records_target(self):
        def body(b):
            b.jmp("main")
            b.label("dest")
            b.li(5, 1)
            b.jmp("out")
            b.label("main")
            b.li(1, "dest")
            b.jr(1)
            b.label("out")
        vm, trace = _run(body)
        assert vm.registers[5] == 1
        assert list(trace.branch_kind).count(int(BranchKind.IND_JUMP)) == 1

    def test_indirect_call(self):
        def body(b):
            b.jmp("main")
            b.label("fn")
            b.li(5, 7)
            b.ret()
            b.label("main")
            b.li(1, "fn")
            b.callr(1)
        vm, _ = _run(body)
        assert vm.registers[5] == 7

    def test_return_without_call_faults(self):
        b = ProgramBuilder()
        b.ret()
        program = b.build()
        with pytest.raises(VMError, match="empty call stack"):
            VM(program).run()

    def test_call_stack_overflow_faults(self):
        b = ProgramBuilder()
        b.label("rec")
        b.call("rec")
        b.halt()
        with pytest.raises(VMError, match="overflow"):
            VM(b.build(), call_stack_limit=50).run()

    def test_bad_pc_faults(self):
        b = ProgramBuilder()
        b.li(1, 0x5000)
        b.jr(1)
        with pytest.raises(VMError, match="outside code segment"):
            VM(b.build()).run()


class TestExecutionLimits:
    def test_instruction_cap_stops_infinite_loop(self):
        b = ProgramBuilder()
        b.label("spin")
        b.jmp("spin")
        vm = VM(b.build(), max_instructions=500)
        trace = vm.run()
        assert len(trace) == 500
        assert not trace.halted

    def test_halt_sets_flag_and_is_not_recorded(self):
        def body(b):
            b.li(1, 1)
        _, trace = _run(body)
        assert trace.halted
        assert len(trace) == 1  # only the li; halt itself is not a row


class TestTraceContents:
    def test_classes_recorded(self):
        def body(b):
            b.li(1, 2)
            b.mul(2, 1, 1)
            b.fadd(3, 1, 1)
            b.load(4, 1)
            b.store(4, 1)
            b.shli(5, 1, 1)
        _, trace = _run(body)
        classes = set(trace.instr_class)
        assert int(InstrClass.INT) in classes
        assert int(InstrClass.MUL) in classes
        assert int(InstrClass.FP_ADD) in classes
        assert int(InstrClass.LOAD) in classes
        assert int(InstrClass.STORE) in classes
        assert int(InstrClass.BITFIELD) in classes

    def test_register_dependences_recorded(self):
        def body(b):
            b.li(1, 2)
            b.add(3, 1, 2)
        _, trace = _run(body)
        assert trace.dst[0] == 1
        assert trace.src1[1] == 1
        assert trace.src2[1] == 2
        assert trace.dst[1] == 3

    def test_run_program_wrapper(self):
        b = ProgramBuilder()
        b.li(1, 1)
        b.halt()
        trace = run_program(b.build())
        assert len(trace) == 1
