"""Shared fixtures: small session-scoped traces and a hermetic trace cache."""

import pytest

from repro.workloads import get_trace


@pytest.fixture(scope="session", autouse=True)
def _hermetic_session_caches(tmp_path_factory):
    """Module- and session-scoped fixtures (the shared ``ExperimentContext``
    of ``test_experiments.py``, say) are built before any per-test fixture
    applies, so they get their cache directories here."""
    patch = pytest.MonkeyPatch()
    patch.setenv("REPRO_TRACE_CACHE", str(tmp_path_factory.mktemp("trace-cache")))
    patch.setenv("REPRO_RESULT_CACHE", str(tmp_path_factory.mktemp("result-cache")))
    yield
    patch.undo()


@pytest.fixture(autouse=True)
def _hermetic_caches(tmp_path, monkeypatch):
    """Keep trace/result caching away from the user's real cache dirs."""
    monkeypatch.setenv("REPRO_TRACE_CACHE", str(tmp_path / "trace-cache"))
    monkeypatch.setenv("REPRO_RESULT_CACHE", str(tmp_path / "result-cache"))
    # A developer's REPRO_OBS must not make CLI-driven tests write ledgers.
    monkeypatch.delenv("REPRO_OBS", raising=False)


@pytest.fixture(scope="session")
def perl_trace():
    """A small perl-like trace shared by many tests (read-only)."""
    return get_trace("perl", n_instructions=60_000, use_cache=False)


@pytest.fixture(scope="session")
def gcc_trace():
    return get_trace("gcc", n_instructions=60_000, use_cache=False)


@pytest.fixture(scope="session")
def all_small_traces():
    """Tiny traces of every workload, for cross-benchmark checks."""
    from repro.workloads import workload_names

    return {
        name: get_trace(name, n_instructions=25_000, use_cache=False)
        for name in workload_names()
    }
