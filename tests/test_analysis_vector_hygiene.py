"""The vector-hygiene checker: no Python loops in the vectorized tier."""

import textwrap

from repro.analysis import run_lint
from repro.analysis.base import Project, SourceFile
from repro.analysis.vector_hygiene import VECTOR_PATHS, VectorHygieneChecker


def _check(code, relpath="predictors/vector.py"):
    source = SourceFile.from_text(relpath, textwrap.dedent(code))
    return VectorHygieneChecker().check_file(source)


def _project(code, relpath="predictors/vector.py"):
    source = SourceFile.from_text(relpath, textwrap.dedent(code))
    return Project(root=None, files=[source])


class TestLoopDetection:
    def test_for_loop_is_flagged(self):
        code = """
        def simulate_vector(columns):
            total = 0
            for row in columns.rows:
                total += row
            return total
        """
        findings = _check(code)
        assert [f.rule for f in findings] == ["vector-python-loop"]
        assert "'for' loop" in findings[0].message
        assert "simulate_vector" in findings[0].message

    def test_while_loop_is_flagged(self):
        code = """
        def drain(queue):
            while queue:
                queue.pop()
        """
        findings = _check(code)
        assert [f.rule for f in findings] == ["vector-python-loop"]
        assert "'while' loop" in findings[0].message

    def test_module_level_loop_is_flagged(self):
        code = """
        TABLE = {}
        for value in (1, 2, 3):
            TABLE[value] = value * 2
        """
        findings = _check(code)
        assert [f.rule for f in findings] == ["vector-python-loop"]
        assert "<module>" in findings[0].message

    def test_nested_function_owner_is_reported(self):
        code = """
        def outer():
            def inner(rows):
                for row in rows:
                    pass
            return inner
        """
        findings = _check(code)
        assert [f.rule for f in findings] == ["vector-python-loop"]
        assert "outer.inner" in findings[0].message

    def test_every_loop_is_reported(self):
        code = """
        def kernel(rows):
            for row in rows:
                pass
            while rows:
                rows.pop()
        """
        assert len(_check(code)) == 2

    def test_whole_array_code_is_clean(self):
        code = """
        import numpy as np

        def kernel(indices, targets):
            order = np.argsort(indices, kind="stable")
            return targets[order]
        """
        assert _check(code) == []

    def test_comprehensions_are_exempt(self):
        # Comprehensions appear in setup code (per-kind counter maps),
        # never as a per-branch walk; only statements are banned.
        code = """
        def setup(kinds):
            return {kind: kind.value for kind in kinds}
        """
        assert _check(code) == []


class TestScope:
    def test_other_modules_are_ignored(self):
        code = """
        def simulate(records):
            for record in records:
                pass
        """
        project = _project(code, relpath="predictors/streams.py")
        assert VectorHygieneChecker().run(project) == []

    def test_missing_vector_module_is_not_an_error(self):
        project = Project(root=None, files=[])
        assert VectorHygieneChecker().run(project) == []


class TestSuppression:
    def test_ignore_comment_suppresses_the_loop(self):
        code = """
        def drive(configs):
            for config in configs:  # repro-lint: ignore[vector-python-loop]
                config.run()
        """
        report = run_lint(
            _project(code), checkers=[VectorHygieneChecker()]
        )
        assert report.findings == []
        assert report.suppressed == 1


class TestShippedModule:
    def test_shipped_vector_module_is_loop_free(self):
        # The real module's sanctioned loop (the per-kind counter fill)
        # carries a suppression; the checker itself must report it
        # (run_lint filters it out).
        project = Project.load()
        report = run_lint(project, checkers=[VectorHygieneChecker()])
        assert report.findings == [], [f.format() for f in report.findings]
        assert report.suppressed >= 1

    def test_vector_paths_exist_in_the_tree(self):
        project = Project.load()
        for relpath in VECTOR_PATHS:
            assert project.file(relpath) is not None, relpath

    def test_checker_is_registered(self):
        from repro.analysis import CHECKERS

        assert any(c.name == "vector-hygiene" for c in CHECKERS)
