"""Functional simulator for the TVM guest ISA.

The VM executes a :class:`~repro.guest.isa.GuestProgram` and records one
trace row per retired instruction.  The row carries everything the
prediction and timing experiments consume:

* ``pc`` and the instruction's timing class and branch kind;
* for branches: the ``taken`` outcome and the *computed target* (for a
  conditional branch this is the static taken-target regardless of outcome,
  matching what a BTB stores; for indirect branches it is the dynamically
  computed destination the target cache must predict);
* register dependences (up to two sources, one destination) so the
  out-of-order timing model can schedule real dataflow;
* the effective address of loads and stores for the data-cache model.

Calls and returns use a VM-internal return-address stack (the guest ISA has
no architectural stack pointer); this mirrors how the paper's return
instructions are "effectively handled with the return address stack" and
keeps the guest programs small.

Execution is pre-decoded.  :meth:`VM.run` first copies ``program.code``
into plain-int lists (opcode, registers, immediate).  Its loop then walks
one ``if op == ...`` chain over plain ints held in locals, ordered by the
measured dynamic opcode mix, and records only what can change from one
execution of an instruction to the next: the pc of every retired
instruction, the effective address of loads and stores, the outcome of
conditional branches and the target of indirect calls, returns and
indirect jumps.  After the loop, :func:`_columns` gathers the columns that
depend only on the pc (class, branch kind, registers, the always-taken bit
and the direct target) from per-instruction arrays by one row index,
``pc >> 2``, and scatters the recorded values into their rows, so the
returned :class:`RawTrace` already holds arrays in ``Trace``'s dtypes.

The VM deliberately avoids importing :mod:`repro.trace`;
``repro.trace.Trace.from_raw`` wraps the columns without converting them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

import numpy as np
import numpy.typing as npt

from repro.guest.isa import (
    INSTRUCTION_BYTES,
    NUM_REGISTERS,
    OP_BRANCH_KIND,
    OP_CLASS,
    BranchKind,
    GuestProgram,
    InstrClass,
    Op,
)

#: Integer results of multiplicative and shift ops wrap to 64 bits, like
#: hardware registers; without this a squaring chain would grow a Python
#: bigint without bound and stall the simulation.
_WORD_MASK = (1 << 64) - 1

#: Every opcode as a plain int, in ``Op`` declaration order; ``VM.run``
#: unpacks the tuple into locals named after the opcodes.
_OPCODES = tuple(int(op) for op in Op)


def _opcode_table(value_of: Callable[[Op], int]) -> npt.NDArray[np.uint8]:
    """A uint8 array indexed by plain-int opcode."""
    table = np.zeros(max(_OPCODES) + 1, dtype=np.uint8)
    for op in Op:
        table[int(op)] = value_of(op)
    return table


#: Plain-int opcode -> timing class and branch kind, as numpy lookups.
_CLASS_TABLE = _opcode_table(lambda op: OP_CLASS[op])
_KIND_TABLE = _opcode_table(
    lambda op: OP_BRANCH_KIND.get(op, BranchKind.NOT_BRANCH))
#: Opcodes whose trace target is their immediate (direct branches).
_DIRECT_OPS = frozenset(
    int(op) for op, kind in OP_BRANCH_KIND.items()
    if kind in (BranchKind.COND_DIRECT, BranchKind.UNCOND_DIRECT,
                BranchKind.CALL_DIRECT))
#: Branch kinds that always redirect: every kind but a conditional branch.
_ALWAYS_TAKEN_KINDS = tuple(
    int(kind) for kind in BranchKind
    if kind.is_branch and kind is not BranchKind.COND_DIRECT)
#: Branch kinds whose target the loop records: indirect calls, returns and
#: indirect jumps.
_RECORDED_TARGET_KINDS = tuple(
    int(kind) for kind in BranchKind if kind.is_indirect)
#: Timing classes whose effective address the loop records.
_MEMORY_CLASSES = (int(InstrClass.LOAD), int(InstrClass.STORE))


class VMError(Exception):
    """Raised on guest faults: bad pc, misaligned access, stack underflow."""


@dataclass
class RawTrace:
    """Columnar dynamic-instruction trace, already in ``Trace``'s dtypes.

    Every column is a numpy array of the dtype ``repro.trace.Trace``
    stores (``pc``, ``target`` and ``mem_addr`` uint64; ``instr_class`` and
    ``branch_kind`` uint8; ``taken`` bool; ``src1``, ``src2`` and ``dst``
    int8), so ``Trace.from_raw`` wraps them without a copy.
    """

    pc: npt.NDArray[np.uint64]
    instr_class: npt.NDArray[np.uint8]
    branch_kind: npt.NDArray[np.uint8]
    taken: npt.NDArray[np.bool_]
    target: npt.NDArray[np.uint64]
    src1: npt.NDArray[np.int8]
    src2: npt.NDArray[np.int8]
    dst: npt.NDArray[np.int8]
    mem_addr: npt.NDArray[np.uint64]
    #: True when execution reached HALT (as opposed to the instruction cap).
    halted: bool

    def __len__(self) -> int:
        return len(self.pc)


class VM:
    """Execute a guest program, producing a :class:`RawTrace`.

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

    def run(self) -> RawTrace:
        """Execute until HALT, a fault, or the instruction cap."""
        (ADD, SUB, AND, OR, XOR, SLT, ADDI, LI, MUL, DIV, MOD, FADD, FSUB,
         FMUL, FDIV, SHL, SHR, SHLI, SHRI, ANDI, XORI, LOAD, STORE, BEQ, BNE,
         BLT, BGE, JMP, CALL, CALLR, RET, JR, HALT) = _OPCODES
        code = self.program.code
        n_code = len(code)
        ops = [int(ins.op) for ins in code]
        rds = [ins.rd for ins in code]
        rs1s = [ins.rs1 for ins in code]
        rs2s = [ins.rs2 for ins in code]
        imms = [ins.imm for ins in code]

        regs = self.registers
        memory = self.memory
        call_stack = self.call_stack
        call_stack_limit = self.call_stack_limit
        ibytes = INSTRUCTION_BYTES
        pcs: List[int] = []
        addresses: List[int] = []
        outcomes: List[bool] = []
        targets: List[int] = []
        record_pc = pcs.append
        record_address = addresses.append
        record_outcome = outcomes.append
        record_target = targets.append

        pc = self.pc
        halted = False
        # -1 is never a valid pc, so a disabled stop point costs one integer
        # compare per instruction instead of a None check.
        stop_pc = -1 if self.stop_pc is None else self.stop_pc
        stop_visits = self.stop_visits

        # The arms run in order of the dynamic opcode mix over every
        # registered workload at 20k instructions (ADDI 18.4%, ANDI 10.7%,
        # LI 10.3%, LOAD 9.7%, ...); opcodes no workload executes come last.
        # Each arm either falls through to the shared ``pc += ibytes`` tail
        # or, on a redirect, sets the pc itself and continues.  Branches
        # write no register, so only the fall-through path re-zeroes r0.
        for _ in range(self.max_instructions - self.retired):
            if pc == stop_pc:
                stop_visits -= 1
                if stop_visits <= 0:
                    break
            index = pc >> 2
            if not 0 <= index < n_code:
                raise VMError(f"pc {pc:#x} outside code segment")
            record_pc(pc)
            op = ops[index]

            if op == ADDI:
                regs[rds[index]] = regs[rs1s[index]] + imms[index]
            elif op == ANDI:
                regs[rds[index]] = int(regs[rs1s[index]]) & imms[index]
            elif op == LI:
                regs[rds[index]] = imms[index]
            elif op == LOAD:
                address = int(regs[rs1s[index]]) + imms[index]
                regs[rds[index]] = memory.get(address, 0)
                record_address(address)
            elif op == SHLI:
                regs[rds[index]] = (int(regs[rs1s[index]])
                                    << (imms[index] & 63)) & _WORD_MASK
            elif op == SHRI:
                regs[rds[index]] = int(regs[rs1s[index]]) >> (imms[index] & 63)
            elif op == ADD:
                regs[rds[index]] = regs[rs1s[index]] + regs[rs2s[index]]
            elif op == BLT:
                if regs[rs1s[index]] < regs[rs2s[index]]:
                    record_outcome(True)
                    pc = imms[index]
                    continue
                record_outcome(False)
            elif op == BEQ:
                if regs[rs1s[index]] == regs[rs2s[index]]:
                    record_outcome(True)
                    pc = imms[index]
                    continue
                record_outcome(False)
            elif op == XORI:
                regs[rds[index]] = int(regs[rs1s[index]]) ^ imms[index]
            elif op == MUL:
                left = regs[rs1s[index]]
                right = regs[rs2s[index]]
                regs[rds[index]] = (left * right) & _WORD_MASK \
                    if isinstance(left, int) and isinstance(right, int) \
                    else left * right
            elif op == RET:
                if not call_stack:
                    raise VMError("return with empty call stack")
                pc = call_stack.pop()
                record_target(pc)
                continue
            elif op == CALLR:
                target = int(regs[rs1s[index]])
                if len(call_stack) >= call_stack_limit:
                    raise VMError("guest call stack overflow")
                call_stack.append(pc + ibytes)
                pc = target
                record_target(pc)
                continue
            elif op == STORE:
                address = int(regs[rs1s[index]]) + imms[index]
                memory[address] = regs[rs2s[index]]
                record_address(address)
            elif op == JMP:
                pc = imms[index]
                continue
            elif op == JR:
                pc = int(regs[rs1s[index]])
                record_target(pc)
                continue
            elif op == SLT:
                regs[rds[index]] = 1 if regs[rs1s[index]] < regs[rs2s[index]] else 0
            elif op == CALL:
                if len(call_stack) >= call_stack_limit:
                    raise VMError("guest call stack overflow")
                call_stack.append(pc + ibytes)
                pc = imms[index]
                continue
            elif op == BGE:
                if regs[rs1s[index]] >= regs[rs2s[index]]:
                    record_outcome(True)
                    pc = imms[index]
                    continue
                record_outcome(False)
            elif op == BNE:
                if regs[rs1s[index]] != regs[rs2s[index]]:
                    record_outcome(True)
                    pc = imms[index]
                    continue
                record_outcome(False)
            elif op == FADD:
                regs[rds[index]] = float(regs[rs1s[index]]) + float(regs[rs2s[index]])
            elif op == FMUL:
                regs[rds[index]] = float(regs[rs1s[index]]) * float(regs[rs2s[index]])
            elif op == XOR:
                regs[rds[index]] = int(regs[rs1s[index]]) ^ int(regs[rs2s[index]])
            elif op == OR:
                regs[rds[index]] = int(regs[rs1s[index]]) | int(regs[rs2s[index]])
            elif op == SUB:
                regs[rds[index]] = regs[rs1s[index]] - regs[rs2s[index]]
            elif op == MOD:
                divisor = int(regs[rs2s[index]])
                regs[rds[index]] = 0 if divisor == 0 \
                    else int(regs[rs1s[index]]) % divisor
            elif op == AND:
                regs[rds[index]] = int(regs[rs1s[index]]) & int(regs[rs2s[index]])
            elif op == DIV:
                divisor = regs[rs2s[index]]
                regs[rds[index]] = 0 if divisor == 0 \
                    else int(regs[rs1s[index]] / divisor)
            elif op == FSUB:
                regs[rds[index]] = float(regs[rs1s[index]]) - float(regs[rs2s[index]])
            elif op == FDIV:
                divisor = float(regs[rs2s[index]])
                regs[rds[index]] = 0.0 if divisor == 0.0 \
                    else float(regs[rs1s[index]]) / divisor
            elif op == SHL:
                regs[rds[index]] = (int(regs[rs1s[index]])
                                    << (int(regs[rs2s[index]]) & 63)) & _WORD_MASK
            elif op == SHR:
                regs[rds[index]] = int(regs[rs1s[index]]) \
                    >> (int(regs[rs2s[index]]) & 63)
            elif op == HALT:
                pcs.pop()  # HALT retires no row
                halted = True
                break
            else:
                raise VMError(f"unknown opcode {op}")

            regs[0] = 0  # r0 is hard-wired to zero
            pc += ibytes

        self.pc = pc
        self.retired += len(pcs)
        return _columns(ops, rs1s, rs2s, rds, imms, pcs, addresses, outcomes,
                        targets, halted)


def _columns(ops: List[int], rs1s: List[int], rs2s: List[int],
             rds: List[int], imms: List[int], pcs: List[int],
             addresses: List[int], outcomes: List[bool], targets: List[int],
             halted: bool) -> RawTrace:
    """Build the nine trace columns from the decoded code and the records.

    Everything that depends only on the instruction is gathered with one
    index on ``pc >> 2`` (the opcode then selects class and branch kind);
    the recorded addresses, outcomes and targets are scattered, in program
    order, into the rows whose class or branch kind has them.
    """
    pc = np.array(pcs, dtype=np.uint64)
    rows = (pc >> np.uint64(2)).astype(np.intp)
    op = np.array(ops, dtype=np.intp)[rows]
    instr_class = _CLASS_TABLE[op]
    branch_kind = _KIND_TABLE[op]
    taken = np.isin(branch_kind, _ALWAYS_TAKEN_KINDS)
    taken[branch_kind == int(BranchKind.COND_DIRECT)] = \
        np.array(outcomes, dtype=np.bool_)
    target = np.array(
        [imm if code in _DIRECT_OPS else 0 for code, imm in zip(ops, imms)],
        dtype=np.uint64)[rows]
    target[np.isin(branch_kind, _RECORDED_TARGET_KINDS)] = \
        np.array(targets, dtype=np.uint64)
    mem_addr = np.zeros(len(pc), dtype=np.uint64)
    mem_addr[np.isin(instr_class, _MEMORY_CLASSES)] = \
        np.array(addresses, dtype=np.uint64)
    return RawTrace(
        pc=pc,
        instr_class=instr_class,
        branch_kind=branch_kind,
        taken=taken,
        target=target,
        src1=np.array(rs1s, dtype=np.int8)[rows],
        src2=np.array(rs2s, dtype=np.int8)[rows],
        dst=np.array(rds, dtype=np.int8)[rows],
        mem_addr=mem_addr,
        halted=halted,
    )


def run_program(program: GuestProgram, max_instructions: int = 1_000_000) -> RawTrace:
    """Convenience wrapper: execute ``program`` and return its raw trace."""
    return VM(program, max_instructions=max_instructions).run()
