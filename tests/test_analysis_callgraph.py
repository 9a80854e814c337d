"""The interprocedural layer: symbol index, call graph, and the two
checkers built on it (worker-safety, transitive-purity), plus the
stale-suppression audit."""

import pytest

from repro.analysis import (
    Project,
    SourceFile,
    StaleSuppressionChecker,
    TransitivePurityChecker,
    WorkerSafetyChecker,
    run_lint,
)
from repro.analysis.base import Finding
from repro.analysis.callgraph import CallGraph, project_callgraph
from repro.analysis.determinism import DeterminismChecker
from repro.analysis.symbols import SymbolIndex, module_name


@pytest.fixture(scope="module")
def real_project():
    return Project.load()


@pytest.fixture(scope="module")
def real_graph(real_project):
    return project_callgraph(real_project)


def _project(*files):
    return Project(
        root=None,
        files=[SourceFile.from_text(rel, text) for rel, text in files],
    )


# ----------------------------------------------------------------------
# Symbol index
# ----------------------------------------------------------------------
class TestSymbolIndex:
    def test_module_name_mapping(self):
        assert module_name("runner/pool.py") == "repro.runner.pool"
        assert module_name("__init__.py") == "repro"
        assert module_name("predictors/__init__.py") == "repro.predictors"

    def test_real_tree_functions_indexed(self, real_graph):
        index = real_graph.index
        assert index.function("repro.runner.pool._init_worker") is not None
        assert index.function("repro.predictors.vector.simulate_vector") \
            is not None

    def test_reexport_resolution(self, real_graph):
        # ``from repro.predictors import simulate_vector`` must land on
        # the defining module through the package __init__.
        index = real_graph.index
        assert index.resolve_export("repro.predictors", "simulate_vector") \
            == "repro.predictors.vector.simulate_vector"

    def test_nested_function_qualnames(self):
        project = _project(
            ("runner/m.py", "def outer():\n    def inner():\n        pass\n"
                            "    inner()\n"),
        )
        index = SymbolIndex.build(project)
        assert index.function("repro.runner.m.outer.inner") is not None

    def test_import_time_opens_recorded(self):
        project = _project(
            ("runner/m.py", "handle = open('x.txt')\n\n"
                            "def f():\n    open('inside.txt')\n"),
        )
        index = SymbolIndex.build(project)
        info = index.modules["repro.runner.m"]
        assert info.import_time_opens == [1]


# ----------------------------------------------------------------------
# Call graph over the real tree (acceptance-criteria edges)
# ----------------------------------------------------------------------
class TestRealCallGraph:
    def test_worker_initializer_calls_load_plugins(self, real_graph):
        assert real_graph.has_edge(
            "repro.runner.pool._init_worker",
            "repro.predictors.registry.load_plugins",
        )

    def test_run_cells_reaches_vector_kernel(self, real_graph):
        path = real_graph.path(
            "repro.runner.pool.run_cells",
            "repro.predictors.vector.simulate_vector",
        )
        assert path is not None
        assert path[0] == "repro.runner.pool.run_cells"
        assert path[-1] == "repro.predictors.vector.simulate_vector"

    def test_factory_fanout_covers_registered_builders(self, real_graph):
        # Registry fan-out: ``reg.factory(cfg)`` could build any kind.
        assert len(real_graph.factory_targets) >= 6
        assert all(
            target in real_graph.index.functions
            for target in real_graph.factory_targets
        )

    def test_worker_closure_includes_obs_install(self, real_graph):
        reachable = real_graph.reachable(WorkerSafetyChecker().entry_points)
        assert "repro.obs.bootstrap.install" in reachable

    def test_self_method_edges(self):
        project = _project(
            ("runner/m.py",
             "class C:\n"
             "    def a(self):\n        self.b()\n"
             "    def b(self):\n        pass\n"),
        )
        graph = CallGraph.build(project)
        assert graph.has_edge("repro.runner.m.C.a", "repro.runner.m.C.b")

    def test_constructor_edge_includes_init(self):
        project = _project(
            ("runner/m.py",
             "class C:\n"
             "    def __init__(self):\n        helper()\n"
             "def helper():\n    pass\n"
             "def make():\n    return C()\n"),
        )
        graph = CallGraph.build(project)
        assert graph.has_edge("repro.runner.m.make", "repro.runner.m.C")
        assert graph.has_edge(
            "repro.runner.m.make", "repro.runner.m.C.__init__"
        )

    def test_parents_chain_materialises(self):
        project = _project(
            ("runner/m.py",
             "def a():\n    b()\n"
             "def b():\n    c()\n"
             "def c():\n    pass\n"),
        )
        graph = CallGraph.build(project)
        parents = graph.parents_from(["repro.runner.m.a"])
        chain = CallGraph.chain_to(parents, "repro.runner.m.c")
        assert chain == [
            "repro.runner.m.a", "repro.runner.m.b", "repro.runner.m.c",
        ]


# ----------------------------------------------------------------------
# worker-safety
# ----------------------------------------------------------------------
_POOL_HEADER = (
    "import os\n"
    "_STATE = {{}}\n"
    "def _init_worker():\n"
    "    {init_body}\n"
    "def _run_chunk():\n"
    "    {chunk_body}\n"
)


def _worker_project(init_body="pass", chunk_body="pass", extra=()):
    text = _POOL_HEADER.format(init_body=init_body, chunk_body=chunk_body)
    return _project(("runner/pool.py", text), *extra)


class TestWorkerSafety:
    def _run(self, project):
        return WorkerSafetyChecker().run(project)

    def test_clean_worker_has_no_findings(self):
        # Reads of a local, unlike those of module state, make no alias.
        for body in ("pass", "local = {}; state = local.state; state['k'] = 1",
                     "local = {}; state = getattr(local, 'state', None); "
                     "state['k'] = 1"):
            assert self._run(_worker_project(chunk_body=body)) == [], body

    def test_global_statement_flagged(self):
        findings = self._run(_worker_project(init_body="global _STATE"))
        assert [f.rule for f in findings] == ["worker-global-write"]

    def test_module_state_mutation_through_alias_flagged(self):
        # A plain alias, an attribute read and a ``getattr`` read (the
        # ``threading.local`` worker state of ``runner/pool.py``).
        for alias in ("_STATE", "_STATE.state",
                      "getattr(_STATE, 'state', None)"):
            findings = self._run(
                _worker_project(
                    chunk_body=f"state = {alias}; state['k'] = 1",
                )
            )
            assert [f.rule for f in findings] == ["worker-global-write"], alias

    def test_environ_write_flagged(self):
        findings = self._run(
            _worker_project(init_body="os.environ['K'] = 'v'")
        )
        assert [f.rule for f in findings] == ["worker-env-mutate"]

    def test_unseeded_random_in_transitive_helper_flagged(self):
        # The helper lives in another module entirely; only the call
        # graph connects it to the worker.
        project = _project(
            ("runner/pool.py",
             "from repro.runner.util import helper\n"
             "def _init_worker():\n    pass\n"
             "def _run_chunk():\n    helper()\n"),
            ("runner/util.py",
             "import random\n"
             "def helper():\n    return random.random()\n"),
        )
        findings = self._run(project)
        assert [(f.rule, f.path) for f in findings] == [
            ("worker-unseeded-random", "runner/util.py"),
        ]

    def test_import_time_open_flagged(self):
        project = _project(
            ("runner/pool.py",
             "from repro.runner.util import helper\n"
             "def _init_worker():\n    helper()\n"
             "def _run_chunk():\n    pass\n"),
            ("runner/util.py",
             "log = open('log.txt')\n"
             "def helper():\n    pass\n"),
        )
        findings = self._run(project)
        assert [(f.rule, f.path, f.line) for f in findings] == [
            ("worker-import-open", "runner/util.py", 1),
        ]

    def test_real_tree_is_clean_after_suppression(self, real_project):
        report = run_lint(
            project=real_project, only=["worker-safety"],
        )
        assert report.clean, report.to_text()


# ----------------------------------------------------------------------
# transitive-purity
# ----------------------------------------------------------------------
class TestTransitivePurity:
    def _run(self, project):
        return TransitivePurityChecker().run(project)

    def test_clean_kernel_has_no_findings(self):
        project = _project(
            ("predictors/vector.py",
             "def simulate_vector(cfg):\n    return 0\n"),
        )
        assert self._run(project) == []

    def test_seed_guard_deletion_deep_in_helper_is_caught(self):
        # The lexical determinism pass scopes to predictors/, pipeline/,
        # runner/, obs/ — a helper in workloads/ is invisible to it.
        # Transitive purity follows the call chain instead.
        project = _project(
            ("predictors/vector.py",
             "from repro.workloads.util import jitter\n"
             "def simulate_vector(cfg):\n    return jitter()\n"),
            ("workloads/util.py",
             "import random\n"
             "def jitter():\n    return random.random()\n"),
        )
        lexical = DeterminismChecker().run(project)
        assert lexical == []
        findings = self._run(project)
        assert [(f.rule, f.path) for f in findings] == [
            ("purity-transitive", "workloads/util.py"),
        ]
        assert "det-unseeded-random" in findings[0].message
        assert "repro.predictors.vector.simulate_vector" \
            in findings[0].message

    def test_each_site_reported_once(self):
        # Two kernel roots reach the same impure helper: one finding.
        project = _project(
            ("predictors/engine.py",
             "from repro.workloads.util import jitter\n"
             "def simulate(cfg):\n    return jitter()\n"),
            ("predictors/vector.py",
             "from repro.workloads.util import jitter\n"
             "def simulate_vector(cfg):\n    return jitter()\n"),
            ("workloads/util.py",
             "import random\n"
             "def jitter():\n    return random.random()\n"),
        )
        findings = self._run(project)
        assert len(findings) == 1

    def test_real_tree_is_clean(self, real_project):
        report = run_lint(project=real_project, only=["transitive-purity"])
        assert report.clean, report.to_text()


# ----------------------------------------------------------------------
# stale-suppression
# ----------------------------------------------------------------------
class _StubChecker:
    name = "stub"
    description = "emits fixed findings"

    def __init__(self, findings):
        self._findings = findings

    def run(self, project):
        return list(self._findings)


class TestStaleSuppression:
    def test_live_suppression_is_not_flagged(self):
        project = _project(
            ("m.py", "x = 1  # repro-lint: ignore[stub-rule]\n"),
        )
        stub = _StubChecker([Finding("stub-rule", "m.py", 1, "boom")])
        report = run_lint(
            project=project,
            checkers=[stub, StaleSuppressionChecker()],
        )
        assert report.clean
        assert report.suppressed == 1

    def test_stale_rule_name_is_flagged(self):
        project = _project(
            ("m.py", "x = 1  # repro-lint: ignore[stub-rule]\n"),
        )
        stub = _StubChecker([])
        report = run_lint(
            project=project,
            checkers=[stub, StaleSuppressionChecker()],
        )
        assert [f.rule for f in report.findings] == ["stale-suppression"]
        assert "stub-rule" in report.findings[0].message

    def test_blanket_ignore_with_no_finding_is_flagged(self):
        project = _project(("m.py", "x = 1  # repro-lint: ignore\n"))
        report = run_lint(
            project=project,
            checkers=[_StubChecker([]), StaleSuppressionChecker()],
        )
        assert [f.rule for f in report.findings] == ["stale-suppression"]

    def test_audit_runs_even_under_only_selection(self):
        # --only stale-suppression must still execute the peers to know
        # what fires; the peers' own findings stay unreported.
        project = _project(
            ("m.py",
             "x = 1  # repro-lint: ignore[stub-rule]\n"
             "y = 2  # repro-lint: ignore[other-rule]\n"),
        )
        stub = _StubChecker([Finding("stub-rule", "m.py", 1, "boom")])
        report = run_lint(
            project=project,
            checkers=[stub, StaleSuppressionChecker()],
            only=["stale-suppression"],
        )
        assert [(f.rule, f.line) for f in report.findings] == [
            ("stale-suppression", 2),
        ]

    def test_own_suppression_is_suppressible_and_exempt(self):
        # ignore[stale-suppression] silences the audit on that line and
        # is itself exempt from the staleness check.
        project = _project(
            ("m.py",
             "x = 1  # repro-lint: ignore[gone-rule, stale-suppression]\n"),
        )
        report = run_lint(
            project=project,
            checkers=[_StubChecker([]), StaleSuppressionChecker()],
        )
        assert report.clean
        assert report.suppressed == 1

    def test_real_tree_suppressions_are_all_live(self, real_project):
        report = run_lint(project=real_project, only=["stale-suppression"])
        assert report.clean, report.to_text()
