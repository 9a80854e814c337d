"""The predictor registry: the single point of kind-string dispatch.

Covers the registry's contract (:func:`registration_problems` on every
registration, :func:`unregistered_predictors` over the package, and the
trait combinations :class:`PredictorTraits` rejects), the registration
lifecycle (duplicate policy, unregister, plugin-module listing), and the
end-to-end plugin contract: a kind registered outside ``repro.*`` runs
through ``run_cells`` with a pool bit-identically to a serial run, with
zero changes to the core, and a kind that is not ``deterministic`` never
enters the result cache.
"""

import asyncio
import gc
import importlib
import inspect
import pkgutil
from contextlib import contextmanager

import pytest

import repro.predictors
from repro.guest.isa import BranchKind
from repro.predictors import (
    EngineConfig,
    HistoryConfig,
    PredictorTraits,
    TargetCacheConfig,
)
from repro.predictors import registry
from repro.predictors.indexing import IndexScheme
from repro.predictors.target_cache import TaglessTargetCache, TargetPredictor
from repro.runner import keys

BUILTIN_KINDS = ["btb2", "cascaded", "ittage", "last_target", "oracle",
                 "tagged", "tagless"]


def registration_problems(reg):
    """Every way ``reg`` breaks the registry's contract; empty if none.

    Spec files, sweeps and cache keys go through a kind's spec examples,
    tables print its label, the tier dispatch trusts its traits, and the
    result-cache fingerprint must cover the code of what it builds.
    """
    problems = []
    traits = reg.traits
    if not reg.spec_examples:
        problems.append("no spec examples")
    for cls in reg.provides:
        module = cls.__module__
        if module.startswith("repro.") and not any(
            module == entry or module.startswith(entry + ".")
            for entry in keys._ENGINE_CODE_MODULES
        ):
            problems.append(
                f"provides {module}.{cls.__qualname__}, which the code "
                "fingerprint does not cover"
            )
    for example in reg.spec_examples:
        if example.kind != reg.kind:
            problems.append(f"spec example of kind {example.kind!r}")
            continue
        try:
            lossless = TargetCacheConfig.from_spec(example.to_spec()) == example
        except (TypeError, ValueError) as exc:
            problems.append(f"spec round trip raised {exc}")
        else:
            if not lossless:
                problems.append(f"spec round trip is lossy for {example}")
        if reg.label(example) == reg.kind:
            problems.append("label is the bare kind")
        try:
            built = reg.factory(example)
        except Exception as exc:
            problems.append(f"factory raised {exc!r}")
            continue
        if not isinstance(built, reg.provides):
            problems.append(
                f"factory built {type(built).__qualname__}, which it does "
                "not provide"
            )
        if (traits.vectorizable and traits.needs_history
                and not traits.is_oracle
                and not isinstance(getattr(built, "scheme", None),
                                   IndexScheme)):
            problems.append("vectorizable, but the built predictor has no "
                            "IndexScheme scheme")
    return problems


def unregistered_predictors():
    """Concrete ``TargetPredictor`` classes in ``repro.*`` no registration
    provides: no spec, sweep or preset can reach them."""
    for module in pkgutil.walk_packages(repro.predictors.__path__,
                                        "repro.predictors."):
        importlib.import_module(module.name)
    provided = {cls for reg in registry.registrations() for cls in reg.provides}
    classes, stack = [], list(TargetPredictor.__subclasses__())
    while stack:
        cls = stack.pop()
        stack.extend(cls.__subclasses__())
        if (cls.__module__.startswith("repro.") and cls not in provided
                and not inspect.isabstract(cls)):
            classes.append(f"{cls.__module__}.{cls.__qualname__}")
    return sorted(classes)


class TestBuiltins:
    def test_registered_kinds(self):
        assert registry.registered_kinds() == BUILTIN_KINDS

    def test_registrations_sorted_and_complete(self):
        regs = registry.registrations()
        assert [r.kind for r in regs] == BUILTIN_KINDS
        for reg in regs:
            assert reg.traits.description
            assert reg.spec_examples, f"{reg.kind}: no spec examples"
            assert reg.module.startswith("repro.")

    @pytest.mark.parametrize("reg", registry.registrations(),
                             ids=lambda reg: reg.kind)
    def test_registration_keeps_the_contract(self, reg):
        assert registration_problems(reg) == []

    def test_every_predictor_class_is_registered(self):
        assert unregistered_predictors() == []

    def test_traits(self):
        assert registry.traits_for("oracle").is_oracle
        assert not registry.traits_for("oracle").needs_history
        assert not registry.traits_for("last_target").needs_history
        for kind in ("tagless", "tagged", "cascaded", "ittage"):
            traits = registry.traits_for(kind)
            assert traits.needs_history, kind
            assert not traits.is_oracle, kind
            assert traits.streams_supported, kind
            assert traits.deterministic, kind

    def test_unknown_kind_message_lists_registered(self):
        with pytest.raises(ValueError, match="bogus.*cascaded.*tagless"):
            registry.registration("bogus")
        with pytest.raises(ValueError, match="unknown target-cache kind"):
            registry.build_target_cache(TargetCacheConfig(kind="bogus"))

    def test_spec_examples_build_and_label(self):
        for reg in registry.registrations():
            for example in reg.spec_examples:
                assert example.kind == reg.kind
                predictor = reg.factory(example)
                assert isinstance(predictor, TargetPredictor)
                assert registry.predictor_label(example) != reg.kind


class _CountingPredictor(TargetPredictor):
    def predict(self, pc, history):
        return None

    def update(self, pc, history, target):
        pass

    def reset(self):
        pass


def _register_counting(kind="_test_counting", **traits):
    registry.register(
        kind,
        factory=lambda config: _CountingPredictor(),
        traits=PredictorTraits(description="test-only stub", **traits),
        provides=(_CountingPredictor,),
        spec_examples=(TargetCacheConfig(kind=kind),),
    )
    return kind


class TestLifecycle:
    def test_register_and_unregister(self):
        kind = _register_counting()
        try:
            assert kind in registry.registered_kinds()
            built = registry.build_target_cache(TargetCacheConfig(kind=kind))
            assert isinstance(built, _CountingPredictor)
            # no label function and no spec fields -> default bare render
            assert registry.predictor_label(TargetCacheConfig(kind=kind)) == (
                f"{kind}()"
            )
        finally:
            registry.unregister(kind)
        assert kind not in registry.registered_kinds()

    def test_reregister_same_module_replaces(self):
        kind = _register_counting()
        try:
            _register_counting(kind)  # same module: fine
            assert registry.registered_kinds().count(kind) == 1
        finally:
            registry.unregister(kind)

    def test_reregister_other_module_rejected(self):
        kind = _register_counting()

        def impostor_factory(config):
            return _CountingPredictor()

        impostor_factory.__module__ = "somewhere.else"
        try:
            with pytest.raises(ValueError, match="already registered"):
                registry.register(
                    kind,
                    factory=impostor_factory,
                    traits=PredictorTraits(description="impostor"),
                    provides=(_CountingPredictor,),
                )
        finally:
            registry.unregister(kind)

    def test_unregister_unknown_rejected(self):
        with pytest.raises(ValueError):
            registry.unregister("_never_registered")

    def test_builtins_cannot_be_shadowed_by_plugins(self):
        with pytest.raises(ValueError, match="already registered"):
            registry.register(
                "tagless",
                factory=lambda config: _CountingPredictor(),
                traits=PredictorTraits(description="impostor"),
                provides=(_CountingPredictor,),
            )

    def test_plugin_modules_excludes_builtins(self):
        kind = _register_counting()
        try:
            modules = registry.plugin_modules()
            assert __name__ in modules or "__main__" in modules
            assert not any(m.startswith("repro") for m in modules)
        finally:
            registry.unregister(kind)

    def test_load_plugins_warns_on_missing_module(self):
        with pytest.warns(UserWarning, match="no_such_plugin_module"):
            registry.load_plugins(["no_such_plugin_module"])

    def test_load_plugins_skips_main(self):
        registry.load_plugins(["__main__"])  # must not raise


@contextmanager
def _planted(**overrides):
    """Register a stub kind that keeps the contract unless ``overrides``
    plant a defect; yield its registration."""
    kind = "_test_planted"
    fields = dict(
        factory=lambda config: _CountingPredictor(),
        traits=PredictorTraits(description="test-only stub"),
        provides=(_CountingPredictor,),
        spec_examples=(TargetCacheConfig(kind=kind),),
    )
    fields.update(overrides)
    reg = registry.register(kind, **fields)
    try:
        yield reg
    finally:
        registry.unregister(kind)


class TestPlantedDefects:
    """The contract names each defect planted in an otherwise valid
    registration (or, for the last two, in the package and in the code
    fingerprint lists)."""

    def test_missing_spec_examples(self):
        with _planted(spec_examples=()) as reg:
            assert registration_problems(reg) == ["no spec examples"]

    def test_example_of_another_kind(self):
        examples = (TargetCacheConfig(kind="tagless"),)
        with _planted(spec_examples=examples) as reg:
            assert registration_problems(reg) == [
                "spec example of kind 'tagless'"
            ]

    def test_lossy_spec_round_trip(self, monkeypatch):
        real = TargetCacheConfig.to_spec

        def lossy(config):
            spec = real(config)
            spec.pop("history_bits")
            return spec

        monkeypatch.setattr(TargetCacheConfig, "to_spec", lossy)
        problems = registration_problems(registry.registration("tagless"))
        assert problems and all("lossy" in p for p in problems)

    def test_bare_label(self):
        with _planted(label=lambda config: "_test_planted") as reg:
            assert registration_problems(reg) == ["label is the bare kind"]

    def test_factory_builds_a_class_it_does_not_provide(self):
        with _planted(provides=(TaglessTargetCache,)) as reg:
            assert registration_problems(reg) == [
                "factory built _CountingPredictor, which it does not provide"
            ]

    def test_raising_factory(self):
        def factory(config):
            raise RuntimeError("boom")

        with _planted(factory=factory) as reg:
            [problem] = registration_problems(reg)
        assert "boom" in problem

    def test_vectorizable_kind_without_an_index_scheme(self):
        traits = PredictorTraits(description="broken vector claim",
                                 vectorizable=True, needs_history=True)
        with _planted(traits=traits) as reg:
            assert registration_problems(reg) == [
                "vectorizable, but the built predictor has no IndexScheme "
                "scheme"
            ]

    def test_provider_outside_the_code_fingerprint(self, monkeypatch):
        monkeypatch.setattr(keys, "_ENGINE_CODE_MODULES",
                            ("repro.guest.isa", "repro.trace.trace"))
        assert registration_problems(registry.registration("tagless")) == [
            "provides repro.predictors.target_cache.tagless."
            "TaglessTargetCache, which the code fingerprint does not cover"
        ]

    def test_unregistered_predictor_class(self):
        class Stub(TargetPredictor):
            def predict(self, pc, history):
                return None

            def update(self, pc, history, target):
                pass

            def reset(self):
                pass

        Stub.__module__ = "repro._test_stub"
        try:
            assert unregistered_predictors() == [
                f"repro._test_stub.{Stub.__qualname__}"
            ]
        finally:
            # drop the class so the shipped-package check stays clean
            del Stub
            gc.collect()


class TestTraitCombinations:
    """``PredictorTraits`` rejects what no kernel can honour when it is
    built, so a bad plugin fails at registration, not mid-sweep."""

    @pytest.mark.parametrize("traits,reason", [
        (dict(predicts_on_btb_miss=True), "needs_history=False"),
        (dict(predicts_on_btb_miss=True, needs_history=False,
              vectorizable=True), "vectorizable=False"),
        (dict(vectorizable=True, streams_supported=False),
         "streams_supported=True"),
    ], ids=["backstop-history", "backstop-vector", "no-streams"])
    def test_contradictory_traits_are_rejected(self, traits, reason):
        with pytest.raises(ValueError, match=reason):
            PredictorTraits(**traits)


class TestPluginEndToEnd:
    def test_plugin_kind_through_run_cells_pool(self):
        """A plugin predictor runs through the pool bit-identically to
        serial, with no core edits."""
        from repro.runner import SweepCell, run_cells

        kind = _register_counting("_test_pool_plugin")
        try:
            config = EngineConfig(
                target_cache=TargetCacheConfig(kind=kind),
                history=HistoryConfig(bits=9),
            )
            cells = [SweepCell("perl", config),
                     SweepCell("perl", EngineConfig())]
            serial = run_cells(cells, jobs=1, trace_length=20_000)
            pooled = run_cells(cells, jobs=2, trace_length=20_000)
            assert serial == pooled
            # the stub never predicts: its indirect accuracy is the
            # BTB-only baseline
            assert (serial[0].indirect_mispred_rate
                    == serial[1].indirect_mispred_rate)
        finally:
            registry.unregister(kind)


def _numbers(stats):
    """Every counter of ``stats``, comparable across cache round trips."""
    return (stats.instructions, stats.btb_lookups, stats.btb_hits,
            [(stats.counters(kind).executed, stats.counters(kind).mispredicted)
             for kind in BranchKind])


class TestNondeterministicKind:
    """A kind declaring ``deterministic=False`` has no one result a cache
    key could stand for, so the sweep runner and the sweep service never
    load, claim or store its cells."""

    TRACE_LENGTH = 20_000

    @pytest.fixture
    def config(self):
        kind = _register_counting("_test_nondeterministic",
                                  deterministic=False)
        yield EngineConfig(target_cache=TargetCacheConfig(kind=kind))
        registry.unregister(kind)

    def _plant(self, cache, config):
        """Store another cell's result under ``config``'s key."""
        from repro.runner import SweepCell, cell_key, run_cells

        key = cell_key("perl", config, self.TRACE_LENGTH, 1997)
        foreign = run_cells([SweepCell("perl", EngineConfig(btb_sets=16))],
                            jobs=1, trace_length=self.TRACE_LENGTH)[0]
        cache.store(key, foreign)
        fresh = run_cells([SweepCell("perl", config)], jobs=1,
                          trace_length=self.TRACE_LENGTH)[0]
        assert _numbers(fresh) != _numbers(foreign)
        return key, foreign, fresh

    def test_run_cells_and_cycles_bypass_the_result_cache(self, config,
                                                          tmp_path):
        from repro.experiments.common import ExperimentContext
        from repro.runner import ResultCache, SweepCell, run_cells

        cache = ResultCache(tmp_path / "planted")
        key, foreign, fresh = self._plant(cache, config)
        got = run_cells([SweepCell("perl", config)], jobs=1,
                        trace_length=self.TRACE_LENGTH, result_cache=cache)
        assert _numbers(got[0]) == _numbers(fresh)       # no load
        assert _numbers(cache.load(key)) == _numbers(foreign)  # no store

        ctx = ExperimentContext(trace_length=self.TRACE_LENGTH)
        ctx.cycles("perl", config)
        written = tmp_path / "result-cache"  # REPRO_RESULT_CACHE (conftest)
        assert list(written.rglob("*.stats")) == []
        assert list(written.rglob("*.cycles")) == []

    def test_scheduler_skips_load_claim_and_store(self, config, tmp_path):
        from repro.runner import ResultCache, SweepPool
        from repro.service.scheduler import ShardScheduler

        cache = ResultCache(tmp_path / "svc")
        key, foreign, fresh = self._plant(cache, config)
        # Another server holds the cell's claim: a scheduler that tried to
        # claim it would wait for that server's store instead of computing.
        assert cache.claim(key)

        async def go():
            with SweepPool(0, trace_length=self.TRACE_LENGTH) as pool:
                scheduler = ShardScheduler(pool, shards=1, result_cache=cache)
                results = [
                    await asyncio.wait_for(
                        scheduler.submit("perl", config), timeout=60)
                    for _ in range(2)
                ]
                await scheduler.close()
                return results, scheduler.counters

        results, counters = asyncio.run(go())
        assert [_numbers(stats) for stats in results] == [_numbers(fresh)] * 2
        assert counters["computed"] == 2
        assert counters["cache_hit"] == 0
        assert counters["claims_won"] == counters["claims_lost"] == 0
        assert _numbers(cache.load(key)) == _numbers(foreign)
