"""Label-based program builder: a tiny assembler embedded in Python.

Workloads construct guest programs through this API rather than writing raw
:class:`~repro.guest.isa.Instruction` lists; the builder handles label
resolution (including labels stored in data words, which is how jump tables
are built) and catches common assembly mistakes early.

Example::

    b = ProgramBuilder()
    b.label("main")
    b.li(1, 10)                    # r1 = 10
    b.label("loop")
    b.addi(1, 1, -1)               # r1 -= 1
    b.bne(1, 0, "loop")            # while r1 != 0
    b.halt()
    program = b.build()
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.guest.isa import (
    INSTRUCTION_BYTES,
    GuestProgram,
    Instruction,
    Op,
    validate_register,
)

#: A label reference or an already-resolved address.
LabelRef = Union[str, int]


class BuilderError(Exception):
    """Raised for malformed programs (duplicate/undefined labels, etc.)."""


@dataclass
class _Fixup:
    """A code or data slot awaiting label resolution."""

    label: str
    code_index: Optional[int] = None   # patch Instruction.imm at this index
    data_address: Optional[int] = None  # patch data word at this address


@dataclass(frozen=True)
class SwitchTable:
    """A dispatch table a :meth:`ProgramBuilder.switch` selects through.

    ``labels[i]`` is the handler for selector value ``i``; the table word
    backing case ``i`` lives at ``base + 4 * (i * stride + offset)``.  The
    plain ``stride=1, offset=0`` form is a dense jump table; the strided
    form lets several switch sites share one interleaved table (vtable
    rows, e.g.) without re-allocating it per site.
    """

    base: int
    labels: Tuple[str, ...]
    stride: int = 1
    offset: int = 0

    @property
    def n_cases(self) -> int:
        return len(self.labels)


@dataclass
class SwitchSite:
    """One structured switch recorded by :meth:`ProgramBuilder.switch`.

    The builder records the site *and* immediately lowers it with the
    builder's active lowering pass; ``start``/``end`` bracket the emitted
    code and ``indirect_sites`` lists the addresses of any ``jr``/``callr``
    instructions the lowering produced (empty under ``if_tree``).
    """

    selector: int
    table: SwitchTable
    kind: str                      # "jump" or "call"
    default: Optional[str]
    weights: Optional[Tuple[float, ...]]
    lowering: str
    t_addr: int
    t_handler: int
    stem: str
    start: int = -1
    end: int = -1
    indirect_sites: List[int] = field(default_factory=list)


class ProgramBuilder:
    """Incrementally assemble a :class:`GuestProgram`.

    Registers are plain integers ``0..31``; register 0 reads as zero.
    Direct-branch targets are label names (or absolute integer addresses,
    mostly useful in tests).  Jump tables are created with
    :meth:`data_table`, which stores label addresses into the data segment
    so a workload can ``load`` a handler address and ``jr`` through it.
    """

    def __init__(self, data_base: int = 0x10000,
                 lowering: Optional[str] = None) -> None:
        self._code: List[Instruction] = []
        self._labels: Dict[str, int] = {}
        #: Per stem, the index :meth:`unique_label` last returned.
        self._label_floor: Dict[str, int] = {}
        self._fixups: List[_Fixup] = []
        self._data: Dict[int, Union[int, float]] = {}
        self._data_base = data_base
        self._data_cursor = data_base
        #: Active switch lowering; ``None`` means the default jump table.
        self.lowering: str = lowering or "jump_table"
        #: Every structured switch recorded via :meth:`switch`, in order.
        self.switch_sites: List[SwitchSite] = []

    # ------------------------------------------------------------------
    # Labels and layout
    # ------------------------------------------------------------------
    @property
    def here(self) -> int:
        """Address of the next instruction to be emitted."""
        return len(self._code) * INSTRUCTION_BYTES

    def label(self, name: str) -> int:
        """Define ``name`` at the current code address and return it."""
        if name in self._labels:
            raise BuilderError(f"duplicate label {name!r}")
        self._labels[name] = self.here
        return self.here

    def unique_label(self, stem: str) -> str:
        """Return a label name guaranteed not to collide, without defining it.

        The name is the first free ``stem_0``, ``stem_1``, ...  Labels are
        never removed, so every index below the last one returned for
        ``stem`` is still taken, and the scan resumes there.
        """
        index = self._label_floor.get(stem, 0)
        name = f"{stem}_{index}"
        while name in self._labels:
            index += 1
            name = f"{stem}_{index}"
        self._label_floor[stem] = index
        return name

    # ------------------------------------------------------------------
    # Data segment
    # ------------------------------------------------------------------
    @property
    def data_cursor(self) -> int:
        """Address the next appended data word will occupy.

        Lets callers precompute absolute addresses for self-referential
        data (e.g. AST nodes holding pointers to other nodes) before
        emitting the table.
        """
        return self._data_cursor

    def data_word(self, value: Union[int, float, str], address: Optional[int] = None) -> int:
        """Place one word in the data segment and return its address.

        ``value`` may be a label name, in which case the resolved code
        address is stored (this is how jump-table entries are built).
        Without ``address`` the word is appended at the data cursor.
        """
        if address is None:
            address = self._data_cursor
            self._data_cursor += INSTRUCTION_BYTES
        else:
            self._data_cursor = max(self._data_cursor, address + INSTRUCTION_BYTES)
        if isinstance(value, str):
            self._data[address] = 0
            self._fixups.append(_Fixup(label=value, data_address=address))
        else:
            self._data[address] = value
        return address

    def data_table(self, values: Sequence[Union[int, float, str]]) -> int:
        """Place a contiguous table of words; return the base address.

        Used for jump tables (sequences of label names), token scripts,
        ASTs, and any other initialised guest data.
        """
        base = self._data_cursor
        for value in values:
            self.data_word(value)
        return base

    def data_zeros(self, n_words: int) -> int:
        """Reserve ``n_words`` zero-initialised words; return the base."""
        base = self._data_cursor
        self._data_cursor += n_words * INSTRUCTION_BYTES
        return base

    # ------------------------------------------------------------------
    # Instruction emission
    # ------------------------------------------------------------------
    def emit(self, op: Op, rd: int = -1, rs1: int = -1, rs2: int = -1,
             imm: int = 0, target: Optional[LabelRef] = None) -> int:
        """Emit one instruction; return its address."""
        address = self.here
        # Validate before recording the fixup: a failed emit must not leave
        # a dangling fixup pointing at whatever instruction comes next.
        validate_register(rd, allow_unused=True)
        validate_register(rs1, allow_unused=True)
        validate_register(rs2, allow_unused=True)
        resolved_imm = imm
        if target is not None:
            if isinstance(target, str):
                self._fixups.append(_Fixup(label=target, code_index=len(self._code)))
                resolved_imm = 0
            else:
                resolved_imm = int(target)
        self._code.append(Instruction(op=op, rd=rd, rs1=rs1, rs2=rs2, imm=resolved_imm))
        return address

    # ALU ---------------------------------------------------------------
    def add(self, rd: int, rs1: int, rs2: int) -> int:
        return self.emit(Op.ADD, rd=rd, rs1=rs1, rs2=rs2)

    def sub(self, rd: int, rs1: int, rs2: int) -> int:
        return self.emit(Op.SUB, rd=rd, rs1=rs1, rs2=rs2)

    def and_(self, rd: int, rs1: int, rs2: int) -> int:
        return self.emit(Op.AND, rd=rd, rs1=rs1, rs2=rs2)

    def or_(self, rd: int, rs1: int, rs2: int) -> int:
        return self.emit(Op.OR, rd=rd, rs1=rs1, rs2=rs2)

    def xor(self, rd: int, rs1: int, rs2: int) -> int:
        return self.emit(Op.XOR, rd=rd, rs1=rs1, rs2=rs2)

    def slt(self, rd: int, rs1: int, rs2: int) -> int:
        return self.emit(Op.SLT, rd=rd, rs1=rs1, rs2=rs2)

    def addi(self, rd: int, rs1: int, imm: int) -> int:
        return self.emit(Op.ADDI, rd=rd, rs1=rs1, imm=imm)

    def li(self, rd: int, imm: Union[int, str]) -> int:
        """Load immediate; ``imm`` may be a label (loads its address)."""
        if isinstance(imm, str):
            return self.emit(Op.LI, rd=rd, target=imm)
        return self.emit(Op.LI, rd=rd, imm=imm)

    def mov(self, rd: int, rs1: int) -> int:
        return self.emit(Op.ADD, rd=rd, rs1=rs1, rs2=0)

    def mul(self, rd: int, rs1: int, rs2: int) -> int:
        return self.emit(Op.MUL, rd=rd, rs1=rs1, rs2=rs2)

    def div(self, rd: int, rs1: int, rs2: int) -> int:
        return self.emit(Op.DIV, rd=rd, rs1=rs1, rs2=rs2)

    def mod(self, rd: int, rs1: int, rs2: int) -> int:
        return self.emit(Op.MOD, rd=rd, rs1=rs1, rs2=rs2)

    def fadd(self, rd: int, rs1: int, rs2: int) -> int:
        return self.emit(Op.FADD, rd=rd, rs1=rs1, rs2=rs2)

    def fsub(self, rd: int, rs1: int, rs2: int) -> int:
        return self.emit(Op.FSUB, rd=rd, rs1=rs1, rs2=rs2)

    def fmul(self, rd: int, rs1: int, rs2: int) -> int:
        return self.emit(Op.FMUL, rd=rd, rs1=rs1, rs2=rs2)

    def fdiv(self, rd: int, rs1: int, rs2: int) -> int:
        return self.emit(Op.FDIV, rd=rd, rs1=rs1, rs2=rs2)

    def shl(self, rd: int, rs1: int, rs2: int) -> int:
        return self.emit(Op.SHL, rd=rd, rs1=rs1, rs2=rs2)

    def shr(self, rd: int, rs1: int, rs2: int) -> int:
        return self.emit(Op.SHR, rd=rd, rs1=rs1, rs2=rs2)

    def shli(self, rd: int, rs1: int, imm: int) -> int:
        return self.emit(Op.SHLI, rd=rd, rs1=rs1, imm=imm)

    def shri(self, rd: int, rs1: int, imm: int) -> int:
        return self.emit(Op.SHRI, rd=rd, rs1=rs1, imm=imm)

    def andi(self, rd: int, rs1: int, imm: int) -> int:
        return self.emit(Op.ANDI, rd=rd, rs1=rs1, imm=imm)

    def xori(self, rd: int, rs1: int, imm: int) -> int:
        return self.emit(Op.XORI, rd=rd, rs1=rs1, imm=imm)

    # Memory --------------------------------------------------------------
    def load(self, rd: int, rs1: int, imm: int = 0) -> int:
        return self.emit(Op.LOAD, rd=rd, rs1=rs1, imm=imm)

    def store(self, rs2: int, rs1: int, imm: int = 0) -> int:
        """mem[rs1 + imm] = rs2."""
        return self.emit(Op.STORE, rs1=rs1, rs2=rs2, imm=imm)

    # Control -------------------------------------------------------------
    def beq(self, rs1: int, rs2: int, target: LabelRef) -> int:
        return self.emit(Op.BEQ, rs1=rs1, rs2=rs2, target=target)

    def bne(self, rs1: int, rs2: int, target: LabelRef) -> int:
        return self.emit(Op.BNE, rs1=rs1, rs2=rs2, target=target)

    def blt(self, rs1: int, rs2: int, target: LabelRef) -> int:
        return self.emit(Op.BLT, rs1=rs1, rs2=rs2, target=target)

    def bge(self, rs1: int, rs2: int, target: LabelRef) -> int:
        return self.emit(Op.BGE, rs1=rs1, rs2=rs2, target=target)

    def jmp(self, target: LabelRef) -> int:
        return self.emit(Op.JMP, target=target)

    def call(self, target: LabelRef) -> int:
        return self.emit(Op.CALL, target=target)

    def callr(self, rs1: int) -> int:
        return self.emit(Op.CALLR, rs1=rs1)

    def ret(self) -> int:
        return self.emit(Op.RET)

    def jr(self, rs1: int) -> int:
        return self.emit(Op.JR, rs1=rs1)

    def halt(self) -> int:
        return self.emit(Op.HALT)

    # ------------------------------------------------------------------
    # Structured switch
    # ------------------------------------------------------------------
    def switch_table(self, labels: Sequence[str], stride: int = 1,
                     offset: int = 0, base: Optional[int] = None) -> SwitchTable:
        """Describe (and, by default, allocate) a dispatch table.

        With no ``base`` the labels are placed in the data segment exactly
        as :meth:`data_table` would, so the data layout is independent of
        the lowering later chosen for the switch.  Passing ``base`` wraps
        an already-emitted (possibly interleaved) table: case ``i`` then
        lives at word index ``i * stride + offset`` of that table.
        """
        if not labels:
            raise BuilderError("switch table needs at least one case label")
        if base is None:
            if stride != 1 or offset != 0:
                raise BuilderError(
                    "strided switch tables must wrap an existing base"
                )
            base = self.data_table(list(labels))
        return SwitchTable(
            base=base, labels=tuple(labels), stride=stride, offset=offset
        )

    def switch(self, selector: int, table: SwitchTable, *,
               kind: str = "jump", default: Optional[str] = None,
               weights: Optional[Sequence[float]] = None,
               t_addr: int = 1, t_handler: int = 2,
               stem: str = "sw") -> SwitchSite:
        """Emit a structured N-way dispatch on ``selector``.

        The control-flow shape is chosen by the builder's active lowering
        pass (see :mod:`repro.guest.lowering`): a jump table, a balanced
        compare-and-branch tree, or a density-clustered hybrid.  ``kind``
        selects jump dispatch (``jr``-style, control never returns here)
        or call dispatch (``callr``-style, every handler returns and
        control continues after the switch).  ``weights`` are optional
        relative case frequencies that density-based lowerings may use;
        they must come from the workload *spec*, never from its RNG, so
        that the lowering stays a pure function of the spec.  ``default``
        names a label that out-of-range selectors branch to; ``None``
        (the norm for generated workloads, whose selectors are in range
        by construction) emits no bounds check, which keeps the
        ``jump_table`` lowering bit-identical to the classic inline
        dispatch sequence.
        """
        if kind not in ("jump", "call"):
            raise BuilderError(f"unknown switch kind {kind!r}")
        validate_register(selector)
        validate_register(t_addr)
        validate_register(t_handler)
        if weights is not None and len(weights) != table.n_cases:
            raise BuilderError(
                f"switch got {len(weights)} weights for {table.n_cases} cases"
            )
        from repro.guest.lowering import get_lowering

        site = SwitchSite(
            selector=selector,
            table=table,
            kind=kind,
            default=default,
            weights=tuple(weights) if weights is not None else None,
            lowering=self.lowering,
            t_addr=t_addr,
            t_handler=t_handler,
            stem=stem,
            start=self.here,
        )
        get_lowering(self.lowering).lower(self, site)
        site.end = self.here
        self.switch_sites.append(site)
        return site

    # ------------------------------------------------------------------
    # Assembly
    # ------------------------------------------------------------------
    def build(self, entry: Union[str, int] = 0) -> GuestProgram:
        """Resolve all labels and return the finished program."""
        code = list(self._code)
        data = dict(self._data)
        for fixup in self._fixups:
            if fixup.label not in self._labels:
                raise BuilderError(f"undefined label {fixup.label!r}")
            address = self._labels[fixup.label]
            if fixup.code_index is not None:
                old = code[fixup.code_index]
                code[fixup.code_index] = Instruction(
                    op=old.op, rd=old.rd, rs1=old.rs1, rs2=old.rs2, imm=address
                )
            else:
                assert fixup.data_address is not None
                data[fixup.data_address] = address
        if isinstance(entry, str):
            if entry not in self._labels:
                raise BuilderError(f"undefined entry label {entry!r}")
            entry_address = self._labels[entry]
        else:
            entry_address = entry
        if code and code[-1].op not in (Op.HALT, Op.JMP, Op.RET, Op.JR):
            raise BuilderError(
                "program must end in HALT or an unconditional control transfer"
            )
        return GuestProgram(
            code=code,
            data=data,
            labels=dict(self._labels),
            data_base=self._data_base,
            entry=entry_address,
        )
