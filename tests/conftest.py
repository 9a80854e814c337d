"""Shared fixtures: small session-scoped traces, a hermetic trace cache,
and temporary predictor plugin modules."""

import sys

import pytest

from repro.predictors import registry
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


_SPEC_PLUGIN_SOURCE = """
from repro.predictors import PredictorTraits, register
from repro.predictors.target_cache import TargetCacheConfig, TargetPredictor


class LastTargetPerPc(TargetPredictor):
    def __init__(self):
        self._table = {}

    def predict(self, pc, history):
        return self._table.get(pc)

    def update(self, pc, history, target):
        self._table[pc] = target

    def reset(self):
        self._table.clear()


register(
    "spec_plugin_probe",
    factory=lambda config: LastTargetPerPc(),
    traits=PredictorTraits(description="test-only spec plugin"),
    provides=(LastTargetPerPc,),
    spec_examples=(TargetCacheConfig(kind="spec_plugin_probe"),),
)
"""


@pytest.fixture
def raising_spec_plugin(tmp_path, monkeypatch):
    """A plugin module on ``sys.path`` whose body raises ``ValueError``
    when imported.  Yields the module name."""
    module = "spec_plugin_raises"
    plugin_dir = tmp_path / "plugins"
    plugin_dir.mkdir()
    (plugin_dir / f"{module}.py").write_text(
        "raise ValueError('plugin body failed')\n")
    monkeypatch.syspath_prepend(str(plugin_dir))
    assert module not in sys.modules
    yield module
    sys.modules.pop(module, None)


@pytest.fixture
def spec_plugin(tmp_path, monkeypatch):
    """A predictor plugin module on ``sys.path`` that nothing has imported
    yet; importing it registers its kind.  Yields ``(module, kind)``, and
    unregisters the kind and forgets the module afterwards."""
    module = kind = "spec_plugin_probe"
    plugin_dir = tmp_path / "plugins"
    plugin_dir.mkdir()
    (plugin_dir / f"{module}.py").write_text(_SPEC_PLUGIN_SOURCE)
    monkeypatch.syspath_prepend(str(plugin_dir))
    assert module not in sys.modules
    assert kind not in registry.registered_kinds()
    yield module, kind
    if kind in registry.registered_kinds():
        registry.unregister(kind)
    sys.modules.pop(module, None)
