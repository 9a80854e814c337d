"""Switch-lowering passes over the guest IR.

The paper's premise is that indirect-jump predictability is set by the
*shape* of the dispatch code the compiler emits; Menezes et al.
("Clustering case statements for indirect branch predictors", PAPERS.md)
show the compiler's half of that coin: one source ``switch`` can be
lowered as a dense jump table, a balanced if-else tree, or a
density-clustered hybrid of the two, with very different prediction
behavior.  This module is that compiler half for the guest IR: workloads
describe dispatch with :meth:`ProgramBuilder.switch` and a registered
:class:`LoweringPass` decides the control-flow shape.

Three lowerings ship by default:

``jump_table``
    The classic inline sequence (index scale, table load, ``jr``/
    ``callr``) — bit-identical to the historical
    ``workloads.support.emit_dispatch`` emission, so default traces are
    unchanged by the refactor.

``if_tree``
    A balanced compare-and-branch tree: every indirect jump becomes
    ``log2(N)`` conditional branches plus a direct transfer.  Indirect
    mispredictions disappear entirely; conditional-branch pressure takes
    their place.

``clustered``
    The Menezes hybrid: contiguous runs of hot cases (by the spec's
    case-weight profile) dispatch through the jump table, while sparse
    cold cases become tree leaves; a balanced tree selects between the
    pieces.

Lowerings must be pure functions of the switch *site* (selector, cases,
weights from the workload spec): they never read the workload RNG, the
clock, or the environment — ``repro lint``'s ``determinism`` scope
covers this module.  ``tests/test_guest_builder.py`` checks that every
lowering is registered, labelled, and has a spec example that lowers.

Registering a plugin lowering::

    @register_lowering
    class MyLowering(LoweringPass):
        name = "my_lowering"
        label = "my custom shape"
        spec_example = {"cases": 8, "kind": "jump"}

        def lower(self, b, site):
            ...  # emit code via the builder
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Dict, List, Tuple, Type, TypeVar

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.guest.builder import ProgramBuilder, SwitchSite


class LoweringPass:
    """Base class for switch lowerings.

    Subclasses define ``name`` (the registry key and the workload-facing
    knob value), ``label`` (a human-readable one-liner for listings), and
    ``spec_example`` (a tiny example site the registry tests lower in a
    scratch builder to prove the pass emits well-formed code).
    """

    #: Registry key; the value of the ``lowering=`` workload knob.
    name: str = ""
    #: Human-readable description shown by ``repro workloads --lowerings``.
    label: str = ""
    #: Example switch shape, e.g. ``{"cases": 8, "kind": "jump"}``; the
    #: registry tests lower it in a scratch builder.
    spec_example: Dict[str, object] = {}

    def lower(self, b: "ProgramBuilder", site: "SwitchSite") -> None:
        """Emit code for ``site`` into ``b``.  Must be pure w.r.t. the site."""
        raise NotImplementedError


#: Registered lowerings by name.  Mutated only by :func:`register_lowering`.
_LOWERINGS: Dict[str, LoweringPass] = {}

_L = TypeVar("_L", bound=Type[LoweringPass])


def register_lowering(cls: _L) -> _L:
    """Class decorator: instantiate and register a lowering pass."""
    if not cls.name:
        raise ValueError(f"lowering {cls.__name__} has no name")
    if cls.name in _LOWERINGS:
        raise ValueError(f"duplicate lowering {cls.name!r}")
    _LOWERINGS[cls.name] = cls()
    return cls


def lowering_names() -> List[str]:
    """Sorted names of every registered lowering."""
    return sorted(_LOWERINGS)


def get_lowering(name: str) -> LoweringPass:
    """Look up a lowering pass by name."""
    try:
        return _LOWERINGS[name]
    except KeyError:
        available = ", ".join(sorted(_LOWERINGS))
        raise ValueError(
            f"unknown lowering {name!r} (available: {available})"
        ) from None


# ----------------------------------------------------------------------
# Shared emission primitives
# ----------------------------------------------------------------------
def emit_table_dispatch(b: "ProgramBuilder", table_base: int, selector: int,
                        *, kind: str = "jump", t_addr: int = 1,
                        t_handler: int = 2, stride: int = 1,
                        offset: int = 0) -> int:
    """Emit the classic inline table dispatch; return the jr/callr address.

    The dense form (``stride=1, offset=0``) and the strided form each
    reproduce the exact historical instruction sequences of the workloads
    (``support.emit_dispatch`` and the vortex vtable probe respectively),
    so the ``jump_table`` lowering is bit-identical to pre-framework
    emission.
    """
    if stride == 1 and offset == 0:
        b.shli(t_addr, selector, 2)
        b.li(t_handler, table_base)
        b.add(t_addr, t_addr, t_handler)
    else:
        b.li(t_addr, stride)
        b.mul(t_addr, selector, t_addr)
        b.addi(t_addr, t_addr, offset)
        b.shli(t_addr, t_addr, 2)
        b.addi(t_addr, t_addr, table_base)
    b.load(t_handler, t_addr)
    if kind == "call":
        return b.callr(t_handler)
    return b.jr(t_handler)


def _emit_default_guard(b: "ProgramBuilder", site: "SwitchSite") -> None:
    """Bounds-check the selector against [0, n_cases) when a default exists."""
    if site.default is None:
        return
    b.blt(site.selector, 0, site.default)
    b.li(site.t_addr, site.table.n_cases)
    b.bge(site.selector, site.t_addr, site.default)


def _emit_leaf(b: "ProgramBuilder", site: "SwitchSite", case: int,
               cont: str) -> None:
    """Emit the direct transfer for a single resolved case."""
    target = site.table.labels[case]
    if site.kind == "call":
        b.call(target)
        b.jmp(cont)
    else:
        b.jmp(target)


def _emit_search_tree(b: "ProgramBuilder", site: "SwitchSite",
                      pieces: List[Tuple[int, int]],
                      emit_piece: Callable[[Tuple[int, int]], None]) -> None:
    """Balanced binary search over index-ordered, disjoint case ranges.

    ``pieces`` are ``(lo, hi)`` inclusive selector ranges sorted by ``lo``;
    ``emit_piece`` emits the terminal code once the selector is known to
    fall inside one piece.  Internal nodes compare the selector against a
    boundary held in the site's scratch register.
    """
    if len(pieces) == 1:
        emit_piece(pieces[0])
        return
    mid = len(pieces) // 2
    boundary = pieces[mid][0]
    upper = b.unique_label(f"{site.stem}_ge{boundary}")
    b.li(site.t_addr, boundary)
    b.bge(site.selector, site.t_addr, upper)
    _emit_search_tree(b, site, pieces[:mid], emit_piece)
    b.label(upper)
    _emit_search_tree(b, site, pieces[mid:], emit_piece)


# ----------------------------------------------------------------------
# The three standard lowerings
# ----------------------------------------------------------------------
@register_lowering
class JumpTableLowering(LoweringPass):
    """Dense jump table: one indirect transfer per switch site."""

    name = "jump_table"
    label = "dense jump table (one jr/callr per site)"
    spec_example = {"cases": 8, "kind": "jump"}

    def lower(self, b: "ProgramBuilder", site: "SwitchSite") -> None:
        _emit_default_guard(b, site)
        site.indirect_sites.append(
            emit_table_dispatch(
                b, site.table.base, site.selector, kind=site.kind,
                t_addr=site.t_addr, t_handler=site.t_handler,
                stride=site.table.stride, offset=site.table.offset,
            )
        )


@register_lowering
class IfTreeLowering(LoweringPass):
    """Balanced compare-and-branch tree: zero indirect transfers."""

    name = "if_tree"
    label = "balanced if-else tree (no indirect jumps)"
    spec_example = {"cases": 8, "kind": "call"}

    def lower(self, b: "ProgramBuilder", site: "SwitchSite") -> None:
        _emit_default_guard(b, site)
        cont = b.unique_label(f"{site.stem}_done")
        pieces = [(case, case) for case in range(site.table.n_cases)]
        _emit_search_tree(
            b, site, pieces,
            lambda piece: _emit_leaf(b, site, piece[0], cont),
        )
        if site.kind == "call":
            b.label(cont)


#: Fraction of total case weight that counts as "hot" for clustering.
HOT_MASS = 0.85
#: Minimum contiguous hot-run length worth a table segment.
MIN_RUN = 3


@register_lowering
class ClusteredLowering(LoweringPass):
    """Density-clustered hybrid per Menezes et al.

    Cases are split by the spec's weight profile: the smallest set of
    cases covering :data:`HOT_MASS` of the total weight is *hot*.
    Contiguous hot runs of at least :data:`MIN_RUN` cases dispatch
    through the existing jump table (the selector still indexes the full
    table, so no extra data is allocated and the data layout matches the
    other lowerings); every other case becomes a direct tree leaf.  A
    balanced search tree routes the selector to its piece.  With no
    weights the cases are treated as uniform.
    """

    name = "clustered"
    label = "density-clustered hybrid (hot runs -> table, cold -> tree)"
    spec_example = {"cases": 8, "kind": "jump", "weights": [8, 4, 2, 1, 1, 1, 1, 1]}

    def lower(self, b: "ProgramBuilder", site: "SwitchSite") -> None:
        _emit_default_guard(b, site)
        n = site.table.n_cases
        weights = site.weights
        if weights is None or sum(weights) <= 0:
            weights = tuple(1.0 for _ in range(n))
        hot = self._hot_cases(weights)
        pieces = self._pieces(n, hot)
        cont = b.unique_label(f"{site.stem}_done")

        def emit_piece(piece: Tuple[int, int]) -> None:
            lo, hi = piece
            if lo == hi:
                _emit_leaf(b, site, lo, cont)
                return
            # A multi-case run dispatches through the full table; the
            # selector's own value indexes it, so no sub-table is needed.
            site.indirect_sites.append(
                emit_table_dispatch(
                    b, site.table.base, site.selector, kind=site.kind,
                    t_addr=site.t_addr, t_handler=site.t_handler,
                    stride=site.table.stride, offset=site.table.offset,
                )
            )
            if site.kind == "call":
                b.jmp(cont)

        _emit_search_tree(b, site, pieces, emit_piece)
        if site.kind == "call":
            b.label(cont)

    @staticmethod
    def _hot_cases(weights: Tuple[float, ...]) -> frozenset[int]:
        """The smallest case set covering HOT_MASS of the total weight."""
        total = sum(weights)
        order = sorted(range(len(weights)), key=lambda i: (-weights[i], i))
        hot = set()
        mass = 0.0
        for case in order:
            if mass >= HOT_MASS * total:
                break
            hot.add(case)
            mass += weights[case]
        return frozenset(hot)

    @staticmethod
    def _pieces(n: int, hot: frozenset[int]) -> List[Tuple[int, int]]:
        """Partition [0, n) into table runs and single-case leaves."""
        pieces: List[Tuple[int, int]] = []
        i = 0
        while i < n:
            if i in hot:
                j = i
                while j + 1 < n and j + 1 in hot:
                    j += 1
                if j - i + 1 >= MIN_RUN:
                    pieces.append((i, j))
                else:
                    pieces.extend((k, k) for k in range(i, j + 1))
                i = j + 1
            else:
                pieces.append((i, i))
                i += 1
        return pieces
