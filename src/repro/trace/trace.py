"""Columnar dynamic-instruction trace container.

A :class:`Trace` is a set of parallel numpy arrays, one row per retired
instruction, in program order.  Columns:

================  =======  ====================================================
column            dtype    meaning
================  =======  ====================================================
``pc``            uint64   instruction address
``instr_class``   uint8    :class:`~repro.guest.isa.InstrClass` value
``branch_kind``   uint8    :class:`~repro.guest.isa.BranchKind` value
``taken``         bool     branch outcome (True for every taken redirect)
``target``        uint64   computed target (static taken-target for
                           conditional branches; dynamic destination for
                           indirect branches; 0 for non-branches)
``src1``/``src2`` int8     source register indices, -1 when unused
``dst``           int8     destination register index, -1 when unused
``mem_addr``      uint64   effective address of loads/stores, 0 otherwise
================  =======  ====================================================

The container is immutable by convention; slicing returns views wrapped in a
new :class:`Trace`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterator, Union

import numpy as np
import numpy.typing as npt

from repro.guest.isa import INSTRUCTION_BYTES, BranchKind, InstrClass
from repro.guest.vm import RawTrace

_COLUMNS = (
    ("pc", np.uint64),
    ("instr_class", np.uint8),
    ("branch_kind", np.uint8),
    ("taken", np.bool_),
    ("target", np.uint64),
    ("src1", np.int8),
    ("src2", np.int8),
    ("dst", np.int8),
    ("mem_addr", np.uint64),
)


@dataclass(frozen=True)
class TraceRecord:
    """One dynamic instruction, materialised from a trace row (slow path)."""

    pc: int
    instr_class: InstrClass
    branch_kind: BranchKind
    taken: bool
    target: int
    src1: int
    src2: int
    dst: int
    mem_addr: int

    @property
    def fallthrough(self) -> int:
        return self.pc + INSTRUCTION_BYTES

    @property
    def next_pc(self) -> int:
        """Address of the next instruction actually executed."""
        if self.branch_kind.is_branch and self.taken:
            return self.target
        return self.fallthrough


class Trace:
    """Immutable columnar trace; see module docstring for the schema."""

    __slots__ = ("pc", "instr_class", "branch_kind", "taken", "target",
                 "src1", "src2", "dst", "mem_addr")

    def __init__(self, pc: npt.ArrayLike, instr_class: npt.ArrayLike,
                 branch_kind: npt.ArrayLike, taken: npt.ArrayLike,
                 target: npt.ArrayLike, src1: npt.ArrayLike,
                 src2: npt.ArrayLike, dst: npt.ArrayLike,
                 mem_addr: npt.ArrayLike) -> None:
        self.pc = np.asarray(pc, dtype=np.uint64)
        self.instr_class = np.asarray(instr_class, dtype=np.uint8)
        self.branch_kind = np.asarray(branch_kind, dtype=np.uint8)
        self.taken = np.asarray(taken, dtype=np.bool_)
        self.target = np.asarray(target, dtype=np.uint64)
        self.src1 = np.asarray(src1, dtype=np.int8)
        self.src2 = np.asarray(src2, dtype=np.int8)
        self.dst = np.asarray(dst, dtype=np.int8)
        self.mem_addr = np.asarray(mem_addr, dtype=np.uint64)
        n = len(self.pc)
        for name, _ in _COLUMNS:
            if len(getattr(self, name)) != n:
                raise ValueError(f"column {name!r} has mismatched length")

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_raw(cls, raw: RawTrace) -> "Trace":
        """Wrap the guest VM's :class:`RawTrace`.

        The VM builds every column in this class's dtypes, so the
        ``np.asarray`` calls of the constructor copy nothing.
        """
        return cls(
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

    @classmethod
    def empty(cls) -> "Trace":
        return cls(*([[]] * len(_COLUMNS)))

    # ------------------------------------------------------------------
    # Basic protocol
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.pc)

    def __getitem__(
        self, index: Union[int, slice, "npt.NDArray[Any]"]
    ) -> Union["Trace", TraceRecord]:
        if isinstance(index, slice) or isinstance(index, np.ndarray):
            return Trace(*(getattr(self, name)[index] for name, _ in _COLUMNS))
        return self.record(int(index))

    def record(self, i: int) -> TraceRecord:
        """Materialise row ``i`` as a :class:`TraceRecord`."""
        return TraceRecord(
            pc=int(self.pc[i]),
            instr_class=InstrClass(int(self.instr_class[i])),
            branch_kind=BranchKind(int(self.branch_kind[i])),
            taken=bool(self.taken[i]),
            target=int(self.target[i]),
            src1=int(self.src1[i]),
            src2=int(self.src2[i]),
            dst=int(self.dst[i]),
            mem_addr=int(self.mem_addr[i]),
        )

    def __iter__(self) -> Iterator[TraceRecord]:
        for i in range(len(self)):
            yield self.record(i)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Trace):
            return NotImplemented
        return all(
            np.array_equal(getattr(self, name), getattr(other, name))
            for name, _ in _COLUMNS
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Trace(len={len(self)}, branches={int(self.is_branch.sum())})"

    # ------------------------------------------------------------------
    # Derived masks and views
    # ------------------------------------------------------------------
    @property
    def is_branch(self) -> "npt.NDArray[np.bool_]":
        return self.branch_kind != int(BranchKind.NOT_BRANCH)

    @property
    def is_conditional(self) -> "npt.NDArray[np.bool_]":
        return self.branch_kind == int(BranchKind.COND_DIRECT)

    @property
    def is_indirect_jump(self) -> "npt.NDArray[np.bool_]":
        """Mask of branches the paper's target cache predicts.

        Indirect jumps and indirect calls; returns are excluded because the
        return address stack handles them (paper footnote 1).
        """
        return (self.branch_kind == int(BranchKind.IND_JUMP)) | (
            self.branch_kind == int(BranchKind.CALL_INDIRECT)
        )

    @property
    def is_return(self) -> "npt.NDArray[np.bool_]":
        return self.branch_kind == int(BranchKind.RETURN)

    def branches(self) -> "Trace":
        """View containing only control-flow instructions."""
        view = self[np.flatnonzero(self.is_branch)]
        assert isinstance(view, Trace)  # ndarray index always yields a view
        return view

    def next_pc_array(self) -> "npt.NDArray[np.uint64]":
        """Per-row address of the next executed instruction."""
        fallthrough = self.pc + np.uint64(INSTRUCTION_BYTES)
        redirect = self.is_branch & self.taken
        return np.where(redirect, self.target, fallthrough)

    def validate(self) -> None:
        """Check internal consistency; raises ``ValueError`` on corruption.

        Invariants: consecutive rows follow the recorded control flow (row
        ``i+1``'s pc equals row ``i``'s next pc), every taken branch has a
        word-aligned target, and non-branches are never marked taken.
        """
        if len(self) == 0:
            return
        next_pcs = self.next_pc_array()[:-1]
        if not np.array_equal(next_pcs, self.pc[1:]):
            bad = int(np.flatnonzero(next_pcs != self.pc[1:])[0])
            raise ValueError(
                f"control-flow discontinuity at row {bad}: "
                f"next_pc={int(next_pcs[bad]):#x} but pc[{bad + 1}]="
                f"{int(self.pc[bad + 1]):#x}"
            )
        redirect = self.is_branch & self.taken
        if np.any(self.target[redirect] % np.uint64(INSTRUCTION_BYTES)):
            raise ValueError("misaligned branch target in trace")
        if np.any(self.taken & ~self.is_branch):
            raise ValueError("non-branch marked taken")
