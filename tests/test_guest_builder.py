"""Unit tests for the program builder (the embedded assembler)."""

import gc

import pytest

from repro.guest.builder import BuilderError, ProgramBuilder
from repro.guest.isa import INSTRUCTION_BYTES, Op
from repro.guest.lowering import (
    HOT_MASS,
    MIN_RUN,
    ClusteredLowering,
    LoweringPass,
    get_lowering,
    lowering_names,
    register_lowering,
)
from repro.guest.vm import VM


def test_forward_label_resolution():
    b = ProgramBuilder()
    b.jmp("end")
    b.label("end")
    b.halt()
    program = b.build()
    assert program.code[0].imm == INSTRUCTION_BYTES


def test_backward_label_resolution():
    b = ProgramBuilder()
    b.label("top")
    b.addi(1, 1, 1)
    b.bne(1, 0, "top")
    b.halt()
    program = b.build()
    assert program.code[1].imm == 0


def test_duplicate_label_rejected():
    b = ProgramBuilder()
    b.label("x")
    with pytest.raises(BuilderError, match="duplicate"):
        b.label("x")


def test_undefined_label_rejected_at_build():
    b = ProgramBuilder()
    b.jmp("nowhere")
    b.halt()
    with pytest.raises(BuilderError, match="undefined label"):
        b.build()


def test_undefined_entry_rejected():
    b = ProgramBuilder()
    b.halt()
    with pytest.raises(BuilderError, match="entry"):
        b.build(entry="missing")


def test_program_must_end_in_control_transfer():
    b = ProgramBuilder()
    b.addi(1, 1, 1)
    with pytest.raises(BuilderError, match="must end"):
        b.build()


def test_data_table_with_labels_builds_jump_table():
    b = ProgramBuilder()
    b.jmp("main")
    b.label("h0")
    b.halt()
    b.label("h1")
    b.halt()
    table = b.data_table(["h0", "h1"])
    b.label("main")
    b.halt()
    program = b.build(entry="main")
    assert program.data[table] == program.address_of("h0")
    assert program.data[table + 4] == program.address_of("h1")


def test_data_words_and_zeros_layout():
    b = ProgramBuilder()
    first = b.data_word(7)
    zeros = b.data_zeros(3)
    after = b.data_word(9)
    b.halt()
    assert zeros == first + 4
    assert after == zeros + 12


def test_data_cursor_matches_next_table_base():
    b = ProgramBuilder()
    cursor = b.data_cursor
    base = b.data_table([1, 2, 3])
    assert base == cursor
    assert b.data_cursor == base + 12


def test_li_with_label_loads_address():
    b = ProgramBuilder()
    b.jmp("main")
    b.label("target")
    b.halt()
    b.label("main")
    b.li(5, "target")
    b.halt()
    program = b.build(entry="main")
    li = program.instruction_at(program.address_of("main"))
    assert li.imm == program.address_of("target")


def test_unique_label_never_collides():
    b = ProgramBuilder()
    first = b.unique_label("work")
    b.label(first)
    second = b.unique_label("work")
    assert first != second


def test_unique_label_names_match_a_scan_from_zero():
    """The per-stem floor returns exactly the names a scan from 0 finds."""
    b = ProgramBuilder()
    b.label("work_3")  # defined directly, never returned
    returned = []
    for _ in range(6):
        name = b.unique_label("work")
        returned.append(name)
        b.label(name)
    assert returned == ["work_0", "work_1", "work_2", "work_4", "work_5",
                        "work_6"]
    # A returned but never defined name is returned again.
    pending = b.unique_label("work")
    assert pending == "work_7"
    assert b.unique_label("work") == "work_7"
    b.label("work_8")
    assert b.unique_label("work") == "work_7"
    b.label("work_7")
    assert b.unique_label("work") == "work_9"
    # Stems are independent, even when one is a prefix of another.
    b.label("work_1_0")
    assert b.unique_label("work_1") == "work_1_1"
    assert b.unique_label("loop") == "loop_0"


def test_register_validation_on_emit():
    b = ProgramBuilder()
    with pytest.raises(ValueError):
        b.add(99, 1, 2)


def test_explicit_data_address_advances_cursor():
    b = ProgramBuilder()
    b.data_word(5, address=0x20000)
    assert b.data_cursor == 0x20004
    b.halt()


def test_mov_is_add_with_zero():
    b = ProgramBuilder()
    b.mov(3, 7)
    b.halt()
    ins = b.build().code[0]
    assert ins.op is Op.ADD and ins.rs2 == 0


# ----------------------------------------------------------------------
# Builder hardening: errors must name the offending label, and a failed
# emit must not corrupt builder state.
# ----------------------------------------------------------------------

def test_duplicate_label_error_names_the_label():
    b = ProgramBuilder()
    b.label("collision_point")
    with pytest.raises(BuilderError, match="collision_point"):
        b.label("collision_point")


def test_undefined_label_error_names_the_label():
    b = ProgramBuilder()
    b.jmp("missing_target")
    b.halt()
    with pytest.raises(BuilderError, match="missing_target"):
        b.build()


def test_failed_emit_leaves_no_dangling_fixup():
    """A rejected branch (bad register) must not record its label fixup.

    Regression test: emit() used to append the fixup before validating
    registers, so a failed emit left a fixup pointing at whatever
    instruction happened to come next.
    """
    b = ProgramBuilder()
    with pytest.raises(ValueError):
        b.beq(99, 0, "never_recorded")  # invalid register
    b.addi(1, 1, 5)  # would be silently rewritten by a dangling fixup
    b.halt()
    program = b.build()  # must not complain about "never_recorded"
    assert program.code[0].imm == 5


# ----------------------------------------------------------------------
# The structured switch construct and its lowerings
# ----------------------------------------------------------------------

def _switch_program(lowering, kind="jump", weights=None, n_cases=6):
    """A tiny dispatch loop: selector cycles 0..n-1, each handler adds a
    distinct amount to r20, loop runs until r10 reaches 3*n."""
    b = ProgramBuilder(lowering=lowering)
    b.jmp("main")
    names = [f"case_{i}" for i in range(n_cases)]
    table = b.switch_table(names)
    b.label("main")
    b.li(10, 0)
    b.label("loop")
    b.li(3, n_cases)
    b.mod(4, 10, 3)
    b.switch(4, table, kind=kind, weights=weights, stem="t_sw")
    # continuation immediately after the construct: call-kind handlers
    # return here; jump-kind handlers branch to the label explicitly
    b.label("after")
    b.addi(10, 10, 1)
    b.li(3, 3 * n_cases)
    b.blt(10, 3, "loop")
    b.halt()
    for i, name in enumerate(names):
        b.label(name)
        b.addi(20, 20, i + 1)
        if kind == "call":
            b.ret()
        else:
            b.jmp("after")
    return b.build(entry="main")


def _final_acc(program):
    vm = VM(program, max_instructions=10_000)
    trace = vm.run()
    assert trace.halted
    return vm.registers[20]


@pytest.mark.parametrize("kind", ["jump", "call"])
def test_switch_lowerings_agree_on_result(kind):
    values = {
        lowering: _final_acc(_switch_program(lowering, kind=kind,
                                             weights=[8, 4, 1, 1, 1, 1]))
        for lowering in lowering_names()
    }
    expected = 3 * sum(range(1, 7))  # 3 full selector cycles
    assert all(value == expected for value in values.values()), values


def test_jump_table_lowering_matches_classic_shape():
    program = _switch_program("jump_table")
    ops = [ins.op for ins in program.code]
    assert Op.JR in ops
    # classic 5-instruction sequence ending in jr
    jr_index = ops.index(Op.JR)
    assert ops[jr_index - 4:jr_index] == [Op.SHLI, Op.LI, Op.ADD, Op.LOAD]


def test_if_tree_lowering_has_no_indirect_jumps():
    program = _switch_program("if_tree")
    assert all(ins.op not in (Op.JR, Op.CALLR) for ins in program.code)


def test_if_tree_call_kind_uses_direct_calls():
    program = _switch_program("if_tree", kind="call")
    ops = [ins.op for ins in program.code]
    assert Op.CALL in ops
    assert Op.CALLR not in ops


def test_switch_default_guard_catches_out_of_range():
    b = ProgramBuilder()
    b.jmp("main")
    table = b.switch_table(["only_case"])
    b.label("main")
    b.li(5, 7)  # out of range selector
    b.switch(5, table, default="fallback", stem="g_sw")
    b.label("only_case")
    b.halt()
    b.label("fallback")
    b.addi(20, 20, 99)
    b.halt()
    program = b.build(entry="main")
    vm = VM(program, max_instructions=100)
    vm.run()
    assert vm.registers[20] == 99


def test_switch_rejects_bad_inputs():
    b = ProgramBuilder()
    table = b.switch_table(["a", "b"])
    with pytest.raises(BuilderError, match="kind"):
        b.switch(5, table, kind="computed_goto")
    with pytest.raises(BuilderError, match="weights"):
        b.switch(5, table, weights=[1.0])
    with pytest.raises(ValueError):
        b.switch(99, table)


def test_switch_table_rejects_bad_inputs():
    b = ProgramBuilder()
    with pytest.raises(BuilderError, match="at least one"):
        b.switch_table([])
    with pytest.raises(BuilderError, match="strided"):
        b.switch_table(["a"], stride=2)


def test_unknown_lowering_rejected_at_switch():
    b = ProgramBuilder(lowering="bogus_pass")
    table = b.switch_table(["a"])
    with pytest.raises(ValueError, match="bogus_pass"):
        b.switch(5, table)


def test_switch_records_sites():
    program_builder = ProgramBuilder()
    table = program_builder.switch_table(["h"])
    program_builder.switch(5, table, stem="rec_sw")
    program_builder.label("h")
    program_builder.halt()
    site = program_builder.switch_sites[0]
    assert site.lowering == "jump_table"
    assert site.start < site.end
    assert len(site.indirect_sites) == 1


# ----------------------------------------------------------------------
# Lowering registry and the clustering algorithm
# ----------------------------------------------------------------------

def lowering_problems(name):
    """Every way lowering ``name`` breaks the registry's contract; empty if
    none.  ``repro workloads --lowerings`` prints its label, and its spec
    example is the representative ``switch()`` that must lower cleanly."""
    lowering = get_lowering(name)
    problems = []
    if not lowering.label:
        problems.append("no label")
    example = lowering.spec_example
    if not example:
        return problems + ["no spec example"]
    try:
        builder = ProgramBuilder(lowering=name)
        labels = [f"case_{i}" for i in range(example.get("cases", 4))]
        builder.switch(5, builder.switch_table(labels),
                       kind=example.get("kind", "jump"),
                       weights=example.get("weights"), stem="example_sw")
        for label in labels:
            builder.label(label)
            builder.halt()
        builder.build()
    except (BuilderError, TypeError, ValueError) as exc:
        problems.append(f"spec example does not lower: {exc}")
    return problems


def unregistered_lowerings():
    """``LoweringPass`` subclasses in ``repro.*`` the registry cannot name:
    no workload, ``name@lowering`` or CLI listing can reach them."""
    registered = {type(get_lowering(name)) for name in lowering_names()}
    classes, stack = [], list(LoweringPass.__subclasses__())
    while stack:
        cls = stack.pop()
        stack.extend(cls.__subclasses__())
        if cls.__module__.startswith("repro.") and cls not in registered:
            classes.append(f"{cls.__module__}.{cls.__qualname__}")
    return sorted(classes)


def test_builtin_lowerings_are_registered():
    assert {"jump_table", "if_tree", "clustered"} <= set(lowering_names())


@pytest.mark.parametrize("name", lowering_names())
def test_lowering_registry_contents(name):
    assert lowering_problems(name) == []


def test_every_lowering_pass_is_registered():
    assert unregistered_lowerings() == []


@pytest.mark.parametrize("name,attribute,value,problem", [
    ("jump_table", "label", "", "no label"),
    ("if_tree", "spec_example", {}, "no spec example"),
    ("clustered", "spec_example", {"cases": 0}, "does not lower"),
    # wrong arity: 2 weights for 4 cases must fail the scratch build
    ("clustered", "spec_example", {"cases": 4, "weights": [1, 2]},
     "does not lower"),
], ids=["missing-label", "missing-spec-example", "broken-spec-example",
        "wrong-arity-weights"])
def test_lowering_contract_names_a_planted_defect(monkeypatch, name,
                                                  attribute, value, problem):
    monkeypatch.setattr(type(get_lowering(name)), attribute, value)
    [found] = lowering_problems(name)
    assert problem in found


def test_unregistered_lowering_pass_is_named():
    class Stub(LoweringPass):
        name = "_test_stub"
        label = "stub"

    Stub.__module__ = "repro.guest.lowering"
    try:
        assert unregistered_lowerings() == [
            f"repro.guest.lowering.{Stub.__qualname__}"
        ]
    finally:
        # drop the class so the shipped-registry check stays clean
        del Stub
        gc.collect()


def test_get_lowering_unknown_lists_available():
    with pytest.raises(ValueError, match="jump_table"):
        get_lowering("nope")


def test_register_lowering_rejects_duplicates():
    with pytest.raises(ValueError, match="jump_table"):
        @register_lowering
        class Duplicate(LoweringPass):
            name = "jump_table"


def test_register_lowering_rejects_empty_name():
    with pytest.raises(ValueError):
        @register_lowering
        class Nameless(LoweringPass):
            pass


def test_clustered_hot_cases_cover_hot_mass():
    weights = [50.0, 30.0, 10.0, 5.0, 3.0, 2.0]
    hot = ClusteredLowering._hot_cases(weights)
    assert sum(weights[i] for i in hot) >= HOT_MASS * sum(weights)
    # minimality: dropping the lightest hot case dips below the threshold
    lightest = min(hot, key=lambda i: (weights[i], -i))
    rest = sum(weights[i] for i in hot if i != lightest)
    assert rest < HOT_MASS * sum(weights)


def test_clustered_pieces_partition_and_respect_min_run():
    n = 10
    hot = frozenset({0, 1, 2, 3, 7})
    pieces = ClusteredLowering._pieces(n, hot)
    covered = []
    for lo, hi in pieces:
        assert lo <= hi
        if hi > lo:  # a table run
            assert hi - lo + 1 >= MIN_RUN
            assert all(i in hot for i in range(lo, hi + 1))
        covered.extend(range(lo, hi + 1))
    assert covered == list(range(n))
