"""Frozen guest-VM loop: the oracle for :class:`repro.guest.vm.VM`.

This is the interpreter ``VM.run`` ran before it pre-decoded the program
and recorded only the dynamic columns, kept verbatim (only renamed) so the
pre-decoded VM can be checked column by column and state by state against
it.  Every retired instruction walks one ``if op == Op.X`` chain and
appends to nine Python lists.  :func:`reference_trace` is the list-to-array
conversion ``Trace.from_raw`` did for it.  It is test-only code: nothing
under ``src/`` imports it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.guest.isa import (
    INSTRUCTION_BYTES,
    NUM_REGISTERS,
    GuestProgram,
    Op,
)
from repro.guest.vm import VMError
from repro.trace.trace import Trace

#: Integer results of multiplicative and shift ops wrap to 64 bits, like
#: hardware registers; without this a squaring chain would grow a Python
#: bigint without bound and stall the simulation.
_WORD_MASK = (1 << 64) - 1


@dataclass
class ReferenceRawTrace:
    """Columnar dynamic-instruction trace as plain Python lists."""

    pc: List[int] = field(default_factory=list)
    instr_class: List[int] = field(default_factory=list)
    branch_kind: List[int] = field(default_factory=list)
    taken: List[int] = field(default_factory=list)
    target: List[int] = field(default_factory=list)
    src1: List[int] = field(default_factory=list)
    src2: List[int] = field(default_factory=list)
    dst: List[int] = field(default_factory=list)
    mem_addr: List[int] = field(default_factory=list)
    #: True when execution reached HALT (as opposed to the instruction cap).
    halted: bool = False

    def __len__(self) -> int:
        return len(self.pc)


class ReferenceVM:
    """Execute a guest program, producing a :class:`ReferenceRawTrace`.

    Parameters
    ----------
    program:
        The assembled guest program.
    max_instructions:
        Hard cap on retired instructions; execution stops there even if the
        program has not halted (all the paper's workloads are loops, so the
        cap is the natural way to size a trace).
    call_stack_limit:
        Guard against runaway guest recursion.
    stop_pc:
        Optional synchronization point: execution stops *before* fetching
        this address once it has been reached ``stop_visits`` times.  Lets
        equivalence tests compare lowerings at the same architectural point
        (e.g. "after 40 trips around the outer loop") even though their
        dynamic instruction counts differ.
    stop_visits:
        How many arrivals at ``stop_pc`` to run before stopping.
    """

    def __init__(self, program: GuestProgram, max_instructions: int = 1_000_000,
                 call_stack_limit: int = 10_000,
                 stop_pc: Optional[int] = None, stop_visits: int = 1) -> None:
        self.program = program
        self.max_instructions = max_instructions
        self.call_stack_limit = call_stack_limit
        self.stop_pc = stop_pc
        self.stop_visits = stop_visits
        self.registers: List[float] = [0] * NUM_REGISTERS
        self.memory: Dict[int, float] = dict(program.data)
        self.call_stack: List[int] = []
        self.pc = program.entry
        self.retired = 0

    def run(self) -> ReferenceRawTrace:
        """Execute until HALT, a fault, or the instruction cap."""
        trace = ReferenceRawTrace()
        code = self.program.code
        regs = self.registers
        memory = self.memory
        call_stack = self.call_stack
        ibytes = INSTRUCTION_BYTES
        n_code = len(code)

        pc_list = trace.pc
        cls_list = trace.instr_class
        kind_list = trace.branch_kind
        taken_list = trace.taken
        target_list = trace.target
        src1_list = trace.src1
        src2_list = trace.src2
        dst_list = trace.dst
        addr_list = trace.mem_addr

        pc = self.pc
        remaining = self.max_instructions - self.retired
        # -1 is never a valid pc, so a disabled stop point costs one integer
        # compare per instruction instead of a None check.
        stop_pc = -1 if self.stop_pc is None else self.stop_pc
        stop_visits = self.stop_visits

        while remaining > 0:
            if pc == stop_pc:
                stop_visits -= 1
                if stop_visits <= 0:
                    break
            index = pc >> 2
            if not 0 <= index < n_code:
                raise VMError(f"pc {pc:#x} outside code segment")
            ins = code[index]
            op = ins.op
            rd = ins.rd
            rs1 = ins.rs1
            rs2 = ins.rs2
            imm = ins.imm

            next_pc = pc + ibytes
            taken = 0
            target = 0
            mem_addr = 0
            kind = 0  # BranchKind.NOT_BRANCH

            if op == Op.ADD:
                regs[rd] = regs[rs1] + regs[rs2]
            elif op == Op.ADDI:
                regs[rd] = regs[rs1] + imm
            elif op == Op.LI:
                regs[rd] = imm
            elif op == Op.LOAD:
                mem_addr = int(regs[rs1]) + imm
                regs[rd] = memory.get(mem_addr, 0)
            elif op == Op.STORE:
                mem_addr = int(regs[rs1]) + imm
                memory[mem_addr] = regs[rs2]
            elif op == Op.BEQ:
                kind = 1  # COND_DIRECT
                target = imm
                if regs[rs1] == regs[rs2]:
                    taken = 1
                    next_pc = imm
            elif op == Op.BNE:
                kind = 1
                target = imm
                if regs[rs1] != regs[rs2]:
                    taken = 1
                    next_pc = imm
            elif op == Op.BLT:
                kind = 1
                target = imm
                if regs[rs1] < regs[rs2]:
                    taken = 1
                    next_pc = imm
            elif op == Op.BGE:
                kind = 1
                target = imm
                if regs[rs1] >= regs[rs2]:
                    taken = 1
                    next_pc = imm
            elif op == Op.SUB:
                regs[rd] = regs[rs1] - regs[rs2]
            elif op == Op.AND:
                regs[rd] = int(regs[rs1]) & int(regs[rs2])
            elif op == Op.OR:
                regs[rd] = int(regs[rs1]) | int(regs[rs2])
            elif op == Op.XOR:
                regs[rd] = int(regs[rs1]) ^ int(regs[rs2])
            elif op == Op.SLT:
                regs[rd] = 1 if regs[rs1] < regs[rs2] else 0
            elif op == Op.MUL:
                regs[rd] = (regs[rs1] * regs[rs2]) & _WORD_MASK \
                    if isinstance(regs[rs1], int) and isinstance(regs[rs2], int) \
                    else regs[rs1] * regs[rs2]
            elif op == Op.DIV:
                divisor = regs[rs2]
                regs[rd] = 0 if divisor == 0 else int(regs[rs1] / divisor)
            elif op == Op.MOD:
                divisor = int(regs[rs2])
                regs[rd] = 0 if divisor == 0 else int(regs[rs1]) % divisor
            elif op == Op.FADD:
                regs[rd] = float(regs[rs1]) + float(regs[rs2])
            elif op == Op.FSUB:
                regs[rd] = float(regs[rs1]) - float(regs[rs2])
            elif op == Op.FMUL:
                regs[rd] = float(regs[rs1]) * float(regs[rs2])
            elif op == Op.FDIV:
                divisor = float(regs[rs2])
                regs[rd] = 0.0 if divisor == 0.0 else float(regs[rs1]) / divisor
            elif op == Op.SHL:
                regs[rd] = (int(regs[rs1]) << (int(regs[rs2]) & 63)) & _WORD_MASK
            elif op == Op.SHR:
                regs[rd] = int(regs[rs1]) >> (int(regs[rs2]) & 63)
            elif op == Op.SHLI:
                regs[rd] = (int(regs[rs1]) << (imm & 63)) & _WORD_MASK
            elif op == Op.SHRI:
                regs[rd] = int(regs[rs1]) >> (imm & 63)
            elif op == Op.ANDI:
                regs[rd] = int(regs[rs1]) & imm
            elif op == Op.XORI:
                regs[rd] = int(regs[rs1]) ^ imm
            elif op == Op.JMP:
                kind = 2  # UNCOND_DIRECT
                taken = 1
                target = imm
                next_pc = imm
            elif op == Op.CALL:
                kind = 3  # CALL_DIRECT
                taken = 1
                target = imm
                if len(call_stack) >= self.call_stack_limit:
                    raise VMError("guest call stack overflow")
                call_stack.append(pc + ibytes)
                next_pc = imm
            elif op == Op.CALLR:
                kind = 4  # CALL_INDIRECT
                taken = 1
                target = int(regs[rs1])
                if len(call_stack) >= self.call_stack_limit:
                    raise VMError("guest call stack overflow")
                call_stack.append(pc + ibytes)
                next_pc = target
            elif op == Op.RET:
                kind = 5  # RETURN
                taken = 1
                if not call_stack:
                    raise VMError("return with empty call stack")
                target = call_stack.pop()
                next_pc = target
            elif op == Op.JR:
                kind = 6  # IND_JUMP
                taken = 1
                target = int(regs[rs1])
                next_pc = target
            elif op == Op.HALT:
                trace.halted = True
                break
            else:  # pragma: no cover - exhaustive above
                raise VMError(f"unknown opcode {op}")

            regs[0] = 0  # r0 is hard-wired to zero

            pc_list.append(pc)
            cls_list.append(int(ins.instr_class))
            kind_list.append(kind)
            taken_list.append(taken)
            target_list.append(target)
            src1_list.append(rs1)
            src2_list.append(rs2)
            dst_list.append(rd)
            addr_list.append(mem_addr)

            pc = next_pc
            remaining -= 1

        self.pc = pc
        self.retired = self.max_instructions - remaining
        return trace



def reference_run_program(program: GuestProgram,
                          max_instructions: int = 1_000_000) -> ReferenceRawTrace:
    """Execute ``program`` on the reference loop and return its raw trace."""
    return ReferenceVM(program, max_instructions=max_instructions).run()


def reference_trace(raw: ReferenceRawTrace) -> Trace:
    """Convert the reference lists to a :class:`Trace`, one column at a time."""
    return Trace(
        pc=raw.pc,
        instr_class=raw.instr_class,
        branch_kind=raw.branch_kind,
        taken=raw.taken,
        target=raw.target,
        src1=raw.src1,
        src2=raw.src2,
        dst=raw.dst,
        mem_addr=raw.mem_addr,
    )
