"""Project-wide symbol index: the name-resolution half of the call graph.

The per-file checkers (determinism, bitwidth, hotloop, ...) are lexical:
they inspect one :class:`~repro.analysis.base.SourceFile` at a time and
never need to know what a name *refers to*.  The interprocedural passes
(worker-safety, transitive purity) do: they ask "which
function does this call land in?", which requires a project-wide map from
dotted names to definitions plus the import-alias plumbing to get from a
local name to that map.

:class:`SymbolIndex` provides exactly that:

* every module under the package root, keyed by dotted name
  (``runner/pool.py`` -> ``repro.runner.pool``);
* every function and method, keyed by fully qualified name
  (``repro.runner.pool._init_worker``,
  ``repro.predictors.streams.BranchStreams.columns``), including nested
  functions (``repro.runner.pool._compute.serial_streams``);
* every class with its methods and (project-resolvable) base classes;
* per-module import aliases (via :func:`repro.analysis.astutil.import_aliases`)
  and **re-export chasing**: ``from repro.predictors import simulate_vector``
  resolves through ``predictors/__init__.py`` to
  ``repro.predictors.vector.simulate_vector``.

The index is deliberately approximate in the same spirit as the rest of
``repro.analysis``: it resolves what a lint needs to resolve (direct
calls, ``self`` methods, aliased module attributes, package re-exports)
and returns ``None`` for anything dynamic rather than guessing.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Set, Tuple

from repro.analysis.astutil import import_aliases
from repro.analysis.base import Project, SourceFile

#: Dotted-name prefix of every module in the analyzed package.  The
#: project root is the installed ``repro`` package, so relpaths map to
#: ``repro.``-prefixed module names.
PACKAGE = "repro"


def module_name(relpath: str, package: str = PACKAGE) -> str:
    """Dotted module name of a project relpath.

    ``runner/pool.py`` -> ``repro.runner.pool``; ``__init__.py`` ->
    ``repro``; ``obs/__init__.py`` -> ``repro.obs``.
    """
    parts = relpath[: -len(".py")].split("/")
    if parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join([package] + parts)


@dataclass
class FunctionInfo:
    """One function or method definition."""

    qualname: str          #: fully qualified: ``repro.runner.pool._run_chunk``
    module: str            #: defining module: ``repro.runner.pool``
    relpath: str           #: project-relative file
    local_qualname: str    #: within the module: ``Cls.method`` / ``f.nested``
    node: ast.FunctionDef
    #: local qualname of the enclosing class, if this is a method
    class_name: Optional[str] = None

    @property
    def lineno(self) -> int:
        return self.node.lineno


@dataclass
class ClassInfo:
    """One class definition plus its directly declared methods."""

    qualname: str          #: ``repro.predictors.streams.BranchStreams``
    module: str
    local_qualname: str
    node: ast.ClassDef
    #: method name -> FunctionInfo (this class's own defs only)
    methods: Dict[str, FunctionInfo] = field(default_factory=dict)
    #: base-class expressions as written (resolved lazily by the index)
    base_names: Tuple[str, ...] = ()


@dataclass
class ModuleInfo:
    """One module: its definitions, aliases, and module-scope surface."""

    name: str
    relpath: str
    source: SourceFile
    #: local alias -> dotted origin, from this module's import statements
    aliases: Dict[str, str] = field(default_factory=dict)
    #: local qualname -> FunctionInfo for every def in the module
    functions: Dict[str, FunctionInfo] = field(default_factory=dict)
    #: local qualname -> ClassInfo
    classes: Dict[str, ClassInfo] = field(default_factory=dict)
    #: names assigned at module scope (mutable-state candidates)
    module_level_names: Set[str] = field(default_factory=set)
    #: linenos of ``open(...)`` calls executed at import time
    import_time_opens: List[int] = field(default_factory=list)


def _walk_definitions(
    tree: ast.Module,
) -> Iterator[Tuple[str, Optional[str], ast.AST]]:
    """Yield ``(local_qualname, enclosing_class, node)`` for defs/classes."""

    def visit(
        node: ast.AST, prefix: str, enclosing_class: Optional[str]
    ) -> Iterator[Tuple[str, Optional[str], ast.AST]]:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qualname = f"{prefix}{child.name}"
                yield qualname, enclosing_class, child
                # Functions nested inside a function are plain functions.
                yield from visit(child, f"{qualname}.", None)
            elif isinstance(child, ast.ClassDef):
                qualname = f"{prefix}{child.name}"
                yield qualname, enclosing_class, child
                yield from visit(child, f"{qualname}.", qualname)
            else:
                yield from visit(child, prefix, enclosing_class)

    yield from visit(tree, "", None)


def _module_scope_info(tree: ast.Module) -> Tuple[Set[str], List[int]]:
    """Names assigned at module scope, plus import-time ``open()`` linenos.

    Only statements executed at import time count, so the walk never
    descends into function bodies (class bodies do run at import time and
    are included for the ``open`` scan, but their assignments are class
    attributes, not module globals).
    """
    names: Set[str] = set()
    opens: List[int] = []

    def scan_opens(node: ast.AST) -> None:
        for sub in ast.walk(node):
            if (
                isinstance(sub, ast.Call)
                and isinstance(sub.func, ast.Name)
                and sub.func.id == "open"
            ):
                opens.append(sub.lineno)

    for stmt in tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if isinstance(stmt, ast.ClassDef):
            for class_stmt in stmt.body:
                if not isinstance(
                    class_stmt, (ast.FunctionDef, ast.AsyncFunctionDef)
                ):
                    scan_opens(class_stmt)
            continue
        scan_opens(stmt)
        if isinstance(stmt, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            targets = (
                stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
            )
            for target in targets:
                for node in ast.walk(target):
                    if isinstance(node, ast.Name):
                        names.add(node.id)
    return names, opens


def _base_name(node: ast.expr) -> Optional[str]:
    """Render a base-class expression (``Base`` / ``mod.Base``) as written."""
    parts: List[str] = []
    current: ast.AST = node
    while isinstance(current, ast.Attribute):
        parts.append(current.attr)
        current = current.value
    if not isinstance(current, ast.Name):
        return None
    parts.append(current.id)
    return ".".join(reversed(parts))


class SymbolIndex:
    """Qualname-keyed view of every definition in the project."""

    def __init__(self, project: Project, package: str = PACKAGE) -> None:
        self.project = project
        self.package = package
        self.modules: Dict[str, ModuleInfo] = {}
        self.functions: Dict[str, FunctionInfo] = {}
        self.classes: Dict[str, ClassInfo] = {}
        for source in project.files:
            self._index_file(source)

    @classmethod
    def build(cls, project: Project, package: str = PACKAGE) -> "SymbolIndex":
        return cls(project, package)

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def _index_file(self, source: SourceFile) -> None:
        name = module_name(source.relpath, self.package)
        level_names, opens = _module_scope_info(source.tree)
        module = ModuleInfo(
            name=name,
            relpath=source.relpath,
            source=source,
            aliases=import_aliases(source.tree),
            module_level_names=level_names,
            import_time_opens=opens,
        )
        self.modules[name] = module
        for local_qualname, enclosing_class, node in _walk_definitions(
            source.tree
        ):
            qualname = f"{name}.{local_qualname}"
            if isinstance(node, ast.ClassDef):
                info = ClassInfo(
                    qualname=qualname,
                    module=name,
                    local_qualname=local_qualname,
                    node=node,
                    base_names=tuple(
                        base
                        for base in map(_base_name, node.bases)
                        if base is not None
                    ),
                )
                module.classes[local_qualname] = info
                self.classes[qualname] = info
            elif isinstance(node, ast.FunctionDef):
                func = FunctionInfo(
                    qualname=qualname,
                    module=name,
                    relpath=source.relpath,
                    local_qualname=local_qualname,
                    node=node,
                    class_name=enclosing_class,
                )
                module.functions[local_qualname] = func
                self.functions[qualname] = func
                if enclosing_class is not None:
                    cls_info = module.classes.get(enclosing_class)
                    if cls_info is not None:
                        cls_info.methods[node.name] = func

    # ------------------------------------------------------------------
    # Resolution
    # ------------------------------------------------------------------
    def module_of(self, source: SourceFile) -> ModuleInfo:
        return self.modules[module_name(source.relpath, self.package)]

    def function(self, qualname: str) -> Optional[FunctionInfo]:
        return self.functions.get(qualname)

    def resolve_export(
        self, module: str, symbol: str, _seen: Optional[Set[str]] = None
    ) -> Optional[str]:
        """Resolve ``module.symbol`` to a definition qualname.

        Chases package re-exports: if ``symbol`` is not defined in
        ``module`` but the module imports it (``from repro.x import y``),
        resolution recurses into the origin.  Returns a function or class
        qualname, or ``None`` for externals and dynamic names.
        """
        seen = _seen if _seen is not None else set()
        key = f"{module}.{symbol}"
        if key in seen:
            return None
        seen.add(key)
        info = self.modules.get(module)
        if info is None:
            return None
        if symbol in info.functions or symbol in info.classes:
            return key
        # A submodule reference: ``repro.predictors.vector``.
        if key in self.modules:
            return key
        origin = info.aliases.get(symbol)
        if origin is None:
            return None
        return self._resolve_dotted_origin(origin, seen)

    def _resolve_dotted_origin(
        self, origin: str, seen: Set[str]
    ) -> Optional[str]:
        """Resolve a dotted origin (``repro.x.y.z``) to a definition."""
        if not origin.startswith(self.package + ".") and origin != self.package:
            return None
        if origin in self.modules:
            return origin
        head, _, tail = origin.rpartition(".")
        if not head:
            return None
        return self.resolve_export(head, tail, seen)

    def resolve_in_module(
        self, module: ModuleInfo, dotted: str,
        enclosing_function: Optional[FunctionInfo] = None,
    ) -> Optional[str]:
        """Resolve a (possibly dotted) name used inside ``module``.

        Checks, in order: functions nested in the enclosing function,
        module-local definitions, then import aliases (with re-export
        chasing).  For dotted names the head resolves first and the
        remaining attributes resolve as exports/methods of the result.
        """
        head, _, rest = dotted.partition(".")
        target: Optional[str] = None
        if enclosing_function is not None:
            nested = f"{enclosing_function.local_qualname}.{head}"
            if nested in module.functions:
                target = f"{module.name}.{nested}"
        if target is None and (
            head in module.functions or head in module.classes
        ):
            target = f"{module.name}.{head}"
        if target is None:
            origin = module.aliases.get(head)
            if origin is not None:
                target = self._resolve_dotted_origin(origin, set())
        if target is None:
            return None
        for attr in rest.split(".") if rest else []:
            target = self._resolve_attr(target, attr)
            if target is None:
                return None
        return target

    def _resolve_attr(self, qualname: str, attr: str) -> Optional[str]:
        """Resolve one attribute step on a module, class, or function."""
        if qualname in self.modules:
            return self.resolve_export(qualname, attr)
        cls = self.classes.get(qualname)
        if cls is not None:
            method = self.resolve_method(cls, attr)
            return method.qualname if method is not None else None
        return None

    def resolve_method(
        self, cls: ClassInfo, method: str, _depth: int = 0
    ) -> Optional[FunctionInfo]:
        """Find ``method`` on ``cls`` or a project-resolvable base class."""
        if _depth > 8:  # defensive: cyclic or pathological hierarchies
            return None
        found = cls.methods.get(method)
        if found is not None:
            return found
        module = self.modules.get(cls.module)
        if module is None:
            return None
        for base_name in cls.base_names:
            base_qual = self.resolve_in_module(module, base_name)
            if base_qual is None:
                continue
            base = self.classes.get(base_qual)
            if base is None:
                continue
            found = self.resolve_method(base, method, _depth + 1)
            if found is not None:
                return found
        return None
