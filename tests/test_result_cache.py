"""The persistent result cache: key stability, invalidation, round-trips.

The cache is only safe if every input that can change a simulation result
changes the key — and nothing else does.  These tests pin both directions.
"""

import collections
import dataclasses
import json

import numpy as np
import pytest

from repro.guest.isa import BranchKind
from repro.obs import Sink, install
from repro.pipeline import MachineConfig
from repro.predictors import (
    DirectionConfig,
    EngineConfig,
    HistoryConfig,
    HistorySource,
    PredictionStats,
    TargetCacheConfig,
    simulate,
)
from repro.predictors.btb import UpdateStrategy
from repro.runner import (
    ResultCache,
    SweepCell,
    cell_key,
    config_token,
    result_cache_enabled,
    run_cells,
    timing_key,
)
from tests.record_damage import COMMON_DAMAGE, bit_flips, flip, put_field

LENGTH = 20_000
SEED = 1997


def key(config=EngineConfig(), benchmark="perl", length=LENGTH, seed=SEED):
    return cell_key(benchmark, config, length, seed)


class TestKeyInvalidation:
    def test_trace_length_change_misses(self):
        assert key(length=LENGTH) != key(length=LENGTH + 1)

    def test_seed_change_misses(self):
        assert key(seed=SEED) != key(seed=SEED + 1)

    def test_benchmark_change_misses(self):
        assert key(benchmark="perl") != key(benchmark="gcc")

    @pytest.mark.parametrize("change", [
        dict(btb_sets=128),
        dict(btb_ways=2),
        dict(btb_strategy=UpdateStrategy.TWO_BIT),
        dict(ras_depth=16),
        dict(direction=DirectionConfig(scheme="gag")),
        dict(target_cache=TargetCacheConfig(kind="tagless")),
        dict(history=HistoryConfig(source=HistorySource.PATH_GLOBAL)),
        dict(target_cache_handles_returns=True),
    ])
    def test_every_engine_config_field_is_in_the_key(self, change):
        changed = dataclasses.replace(EngineConfig(), **change)
        assert key(config=changed) != key(config=EngineConfig())

    def test_nested_history_field_is_in_the_key(self):
        a = EngineConfig(history=HistoryConfig(bits=9))
        b = EngineConfig(history=HistoryConfig(bits=10))
        assert key(config=a) != key(config=b)

    def test_unrelated_environment_change_still_hits(self, monkeypatch):
        before = key()
        monkeypatch.setenv("SOME_UNRELATED_VARIABLE", "changed")
        monkeypatch.setenv("REPRO_BENCH_TRACE_LENGTH", "123")
        monkeypatch.setenv("REPRO_JOBS", "7")
        assert key() == before

    def test_key_is_deterministic_across_calls(self):
        assert key() == key()

    def test_config_token_rejects_unknown_types(self):
        with pytest.raises(TypeError):
            config_token(object())


class TestResultCacheStore:
    def test_round_trip_with_mask(self, tmp_path):
        from repro.workloads import get_trace

        trace = get_trace("perl", n_instructions=LENGTH)
        stats = simulate(trace, EngineConfig(), collect_mask=True)
        cache = ResultCache(tmp_path)
        cache.store("a" * 64, stats)
        loaded = cache.load("a" * 64, need_mask=True)
        assert loaded is not None
        assert loaded.instructions == stats.instructions
        assert loaded.btb_lookups == stats.btb_lookups
        assert loaded.btb_hits == stats.btb_hits
        for kind in BranchKind:
            assert (loaded.counters(kind).executed
                    == stats.counters(kind).executed)
            assert (loaded.counters(kind).mispredicted
                    == stats.counters(kind).mispredicted)
        assert np.array_equal(loaded.mispredict_mask, stats.mispredict_mask)

    def test_maskless_entry_misses_when_mask_required(self, tmp_path):
        from repro.workloads import get_trace

        trace = get_trace("perl", n_instructions=LENGTH)
        stats = simulate(trace, EngineConfig())
        cache = ResultCache(tmp_path)
        cache.store("b" * 64, stats)
        assert cache.load("b" * 64, need_mask=True) is None
        assert cache.load("b" * 64, need_mask=False) is not None

    def test_corrupt_entry_self_heals(self, tmp_path):
        cache = ResultCache(tmp_path)
        path = cache._path("c" * 64)
        path.parent.mkdir(parents=True)
        path.write_bytes(b"not a cache record")
        assert cache.load("c" * 64) is None
        assert not path.exists()

    def test_missing_key_is_a_miss(self, tmp_path):
        assert ResultCache(tmp_path).load("d" * 64) is None


class TestCacheBehaviourInRunCells:
    def test_second_run_never_simulates(self, tmp_path, monkeypatch):
        import repro.runner.pool as pool_mod

        cache = ResultCache(tmp_path)
        cells = [
            SweepCell("perl", EngineConfig(), collect_mask=True),
            SweepCell("perl",
                      EngineConfig(target_cache=TargetCacheConfig(kind="tagless"))),
        ]
        first = run_cells(cells, jobs=1, trace_length=LENGTH,
                          result_cache=cache)

        calls = []
        for name in ("simulate", "simulate_streamed", "simulate_vector"):
            real = getattr(pool_mod, name)

            def counting(*args, __real=real, **kwargs):
                calls.append(1)
                return __real(*args, **kwargs)

            monkeypatch.setattr(pool_mod, name, counting)
        second = run_cells(cells, jobs=1, trace_length=LENGTH,
                           result_cache=cache)
        assert not calls, "warm cache must not re-simulate any cell"
        for one, two in zip(first, second):
            assert one.branch_mispredictions == two.branch_mispredictions
            if one.mispredict_mask is not None:
                assert np.array_equal(one.mispredict_mask, two.mispredict_mask)

    def test_changed_trace_length_re_simulates(self, tmp_path, monkeypatch):
        import repro.runner.pool as pool_mod

        cache = ResultCache(tmp_path)
        cells = [SweepCell("perl", EngineConfig())]
        run_cells(cells, jobs=1, trace_length=LENGTH, result_cache=cache)

        # Spy every execution tier: whichever the runner picks, a cache
        # miss must reach exactly one of them.
        calls = []
        for name in ("simulate", "simulate_streamed", "simulate_vector"):
            real = getattr(pool_mod, name)

            def counting(*args, __real=real, **kwargs):
                calls.append(1)
                return __real(*args, **kwargs)

            monkeypatch.setattr(pool_mod, name, counting)
        run_cells(cells, jobs=1, trace_length=LENGTH // 2, result_cache=cache)
        assert calls, "different trace length must miss the cache"

    def test_env_switch_disables_cache(self, monkeypatch):
        monkeypatch.setenv("REPRO_RESULT_CACHE", "0")
        assert not result_cache_enabled()
        assert ResultCache.from_env() is None

    def test_env_default_enables_cache(self, monkeypatch):
        monkeypatch.delenv("REPRO_RESULT_CACHE", raising=False)
        assert result_cache_enabled()
        assert ResultCache.from_env() is not None


class TestCyclesCache:
    def test_timing_key_covers_the_machine(self):
        base = timing_key("perl", EngineConfig(), LENGTH, SEED, MachineConfig())
        assert base == timing_key("perl", EngineConfig(), LENGTH, SEED,
                                  MachineConfig())
        assert base != timing_key("perl", EngineConfig(), LENGTH, SEED,
                                  MachineConfig(fetch_width=8))
        assert base != timing_key("perl", EngineConfig(), LENGTH, SEED,
                                  MachineConfig(memory_latency=20))

    def test_timing_key_covers_the_cell(self):
        machine = MachineConfig()
        base = timing_key("perl", EngineConfig(), LENGTH, SEED, machine)
        assert base != timing_key("gcc", EngineConfig(), LENGTH, SEED, machine)
        assert base != timing_key("perl", EngineConfig(btb_sets=128), LENGTH,
                                  SEED, machine)
        assert base != timing_key("perl", EngineConfig(), LENGTH + 1, SEED,
                                  machine)

    def test_cycles_round_trip(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.store_cycles("e" * 64, 12345)
        assert cache.load_cycles("e" * 64) == 12345
        assert cache.load_cycles("f" * 64) is None

    def test_corrupt_cycles_entry_self_heals(self, tmp_path):
        cache = ResultCache(tmp_path)
        path = cache._cycles_path("9" * 64)
        path.parent.mkdir(parents=True)
        path.write_text("not json at all")
        assert cache.load_cycles("9" * 64) is None
        assert not path.exists()

    def test_warm_context_skips_run_timing(self, tmp_path, monkeypatch):
        import repro.experiments.common as common_mod
        from repro.experiments.common import ExperimentContext

        monkeypatch.setenv("REPRO_RESULT_CACHE", str(tmp_path))
        cold = ExperimentContext(trace_length=LENGTH)
        reference = cold.cycles("perl", EngineConfig())

        calls = []
        real_run_timing = common_mod.run_timing

        def counting_run_timing(*args, **kwargs):
            calls.append(1)
            return real_run_timing(*args, **kwargs)

        monkeypatch.setattr(common_mod, "run_timing", counting_run_timing)
        warm = ExperimentContext(trace_length=LENGTH)
        assert warm.cycles("perl", EngineConfig()) == reference
        assert warm.baseline_cycles("perl") == reference
        assert not calls, "warm result cache must not re-run the timing model"


class _CountingSink(Sink):
    """Records ``incr`` calls so a test can see evictions and misses."""

    enabled = True

    def __init__(self):
        self.counts = collections.Counter()

    def incr(self, name, value=1):
        self.counts[name] += value


@pytest.fixture
def counts():
    sink = _CountingSink()
    previous = install(sink)
    yield sink.counts
    install(previous)


@pytest.fixture(scope="module")
def perl_stats():
    from repro.workloads import get_trace

    trace = get_trace("perl", n_instructions=LENGTH, use_cache=False)
    return simulate(trace, EngineConfig(), collect_mask=True)


def assert_same_stats(loaded, stats):
    assert loaded is not None
    assert (loaded.instructions, loaded.btb_lookups, loaded.btb_hits) == (
        stats.instructions, stats.btb_lookups, stats.btb_hits)
    assert loaded.per_kind == stats.per_kind
    if stats.mispredict_mask is None:
        assert loaded.mispredict_mask is None
    else:
        assert loaded.mispredict_mask.dtype == np.bool_
        assert np.array_equal(loaded.mispredict_mask, stats.mispredict_mask)


#: Stats offsets: the int64 fields instructions, btb_lookups, btb_hits,
#: kinds and mask length from 8, then one (kind, executed, mispredicted)
#: triple per kind from 48, then the packed mask before the crc32 trailer.
#: A cycles record has one field, the count at 8.
STATS_DAMAGE = {
    **COMMON_DAMAGE,
    "flip-kind-counter": flip(48 + 8),
    "flip-mask": flip(-5),
    "mask-length-too-long": put_field(40, LENGTH + 8),
    "mask-length-too-short": put_field(40, LENGTH - 8),
    "mask-dropped": put_field(40, -1),
    "unknown-kind": put_field(48, 99),
}


def small_stats():
    """Two kinds, one of them all zero, and a 13-row mask."""
    stats = PredictionStats(instructions=20_001, btb_lookups=3, btb_hits=2)
    stats.counters(BranchKind.IND_JUMP).executed = 11
    stats.counters(BranchKind.IND_JUMP).mispredicted = 4
    stats.counters(BranchKind.COND_DIRECT)
    stats.mispredict_mask = np.array([1, 0, 0, 1, 1, 0, 1, 0, 0, 0, 1, 1, 1],
                                     dtype=bool)
    return stats


#: ``small_stats()`` and a cycle count of 2,273,710, as the result cache
#: wrote them before its codec moved into ``repro.records``.
PINNED_STATS = bytes.fromhex(
    "5250524302000000214e000000000000030000000000000002000000000000000200"
    "0000000000000d000000000000000100000000000000000000000000000000000000"
    "0000000006000000000000000b0000000000000004000000000000009a3851b3f280"
)
PINNED_CYCLES = bytes.fromhex("5250524302000000aeb12200000000003d3b6374")
PINNED_CYCLE_COUNT = 2_273_710


class TestTornEntries:
    """Satellite of the fsync-free write audit: a machine crash after the
    atomic rename can leave a *torn* (truncated/zero-byte) record on disk.
    Such entries must read as evictable misses — never as a crash."""

    def _store_real_entry(self, tmp_path):
        from repro.workloads import get_trace

        trace = get_trace("perl", n_instructions=LENGTH)
        stats = simulate(trace, EngineConfig())
        cache = ResultCache(tmp_path)
        cache.store("e" * 64, stats)
        return cache, cache._path("e" * 64)

    @pytest.mark.parametrize("keep_fraction", [0.0, 0.25, 0.5, 0.9])
    def test_truncated_entry_is_a_miss_and_evicts(self, tmp_path,
                                                  keep_fraction, counts):
        cache, path = self._store_real_entry(tmp_path)
        whole = path.read_bytes()
        path.write_bytes(whole[:int(len(whole) * keep_fraction)])
        counts.clear()
        assert cache.load("e" * 64) is None
        assert not path.exists(), "torn entry must be evicted"
        assert counts == {"result_cache.evict": 1}
        # And the next store/load round-trips normally again.
        from repro.workloads import get_trace

        stats = simulate(get_trace("perl", n_instructions=LENGTH),
                         EngineConfig())
        cache.store("e" * 64, stats)
        assert cache.load("e" * 64) is not None

    @pytest.mark.parametrize("keep_fraction", [0.0, 0.25, 0.5, 0.9])
    def test_truncated_cycles_entry_is_a_miss_and_evicts(self, tmp_path,
                                                         keep_fraction, counts):
        cache = ResultCache(tmp_path)
        cache.store_cycles("e" * 64, 2_273_710)
        path = cache._cycles_path("e" * 64)
        whole = path.read_bytes()
        path.write_bytes(whole[:int(len(whole) * keep_fraction)])
        counts.clear()
        assert cache.load_cycles("e" * 64) is None
        assert not path.exists(), "torn entry must be evicted"
        assert counts == {"result_cache.evict": 1}
        cache.store_cycles("e" * 64, 2_273_710)
        assert cache.load_cycles("e" * 64) == 2_273_710

    def test_store_leaves_no_temp_files(self, tmp_path):
        cache, path = self._store_real_entry(tmp_path)
        leftovers = [p for p in path.parent.iterdir()
                     if p.suffix == ".tmp" or ".tmp" in p.name]
        assert leftovers == []


class TestRecordFaults:
    """Every damaged record, stats or cycles, is a miss that evicts the
    entry and bumps ``result_cache.evict``; the next store round-trips."""

    KEY = "d" * 64
    CYCLES = 2_273_710

    @pytest.mark.parametrize("damage", STATS_DAMAGE, ids=str)
    def test_damaged_stats_entry(self, tmp_path, perl_stats, counts, damage):
        cache = ResultCache(tmp_path)
        cache.store(self.KEY, perl_stats)
        path = cache._path(self.KEY)
        path.write_bytes(STATS_DAMAGE[damage](path.read_bytes()))
        counts.clear()
        assert cache.load(self.KEY) is None
        assert not path.exists(), "damaged entry must be evicted"
        assert counts == {"result_cache.evict": 1}
        cache.store(self.KEY, perl_stats)
        assert_same_stats(cache.load(self.KEY, need_mask=True), perl_stats)

    @pytest.mark.parametrize("damage", COMMON_DAMAGE, ids=str)
    def test_damaged_cycles_entry(self, tmp_path, counts, damage):
        cache = ResultCache(tmp_path)
        cache.store_cycles(self.KEY, self.CYCLES)
        path = cache._cycles_path(self.KEY)
        path.write_bytes(COMMON_DAMAGE[damage](path.read_bytes()))
        counts.clear()
        assert cache.load_cycles(self.KEY) is None
        assert not path.exists(), "damaged entry must be evicted"
        assert counts == {"result_cache.evict": 1}
        cache.store_cycles(self.KEY, self.CYCLES)
        assert cache.load_cycles(self.KEY) == self.CYCLES

    @pytest.mark.parametrize("record,path_of,load", [
        (PINNED_STATS, "_path", "load"),
        (PINNED_CYCLES, "_cycles_path", "load_cycles"),
    ], ids=["stats", "cycles"])
    def test_every_bit_flip_is_an_evicting_miss(self, tmp_path, counts,
                                                record, path_of, load):
        """The crc32 trailer catches every one-bit error, so no flip of a
        small record loads: not in the header, a field, the mask or the
        trailer itself."""
        cache = ResultCache(tmp_path)
        path = getattr(cache, path_of)(self.KEY)
        path.parent.mkdir(parents=True)
        for damaged in bit_flips(record):
            path.write_bytes(damaged)
            assert getattr(cache, load)(self.KEY) is None
            assert not path.exists(), "damaged entry must be evicted"
        assert counts == {"result_cache.evict": 8 * len(record)}

    def test_maskless_entry_under_need_mask_is_a_plain_miss(
            self, tmp_path, perl_stats, counts):
        cache = ResultCache(tmp_path)
        maskless = dataclasses.replace(perl_stats, mispredict_mask=None)
        cache.store(self.KEY, maskless)
        assert cache.load(self.KEY, need_mask=True) is None
        assert cache._path(self.KEY).exists(), "a maskless entry is not corrupt"
        assert counts["result_cache.load.miss"] == 1
        assert counts["result_cache.evict"] == 0
        cache.store(self.KEY, perl_stats)  # the maskful recompute overwrites
        assert_same_stats(cache.load(self.KEY, need_mask=True), perl_stats)

    def test_legacy_entries_are_never_read(self, tmp_path, counts):
        """Entries of the earlier npz/json format sit at other file names:
        they are never opened, so they can neither hit nor be evicted."""
        cache = ResultCache(tmp_path)
        legacy_stats = tmp_path / self.KEY[:2] / f"{self.KEY}.npz"
        legacy_cycles = tmp_path / self.KEY[:2] / f"{self.KEY}.cycles.json"
        legacy_stats.parent.mkdir(parents=True)
        np.savez_compressed(legacy_stats, version=np.int64(1),
                            instructions=np.int64(LENGTH))
        legacy_cycles.write_text(json.dumps({"version": 1, "cycles": 5}))
        assert cache.load(self.KEY) is None
        assert cache.load_cycles(self.KEY) is None
        assert legacy_stats.exists() and legacy_cycles.exists()
        assert counts == {"result_cache.load.miss": 1,
                          "result_cache.cycles.miss": 1}


class TestRecordRoundTrips:
    KEY = "c" * 64

    @pytest.mark.parametrize("mask_length", [None, 0, 1, 7, 9, 20_001])
    def test_mask_lengths_round_trip(self, tmp_path, mask_length):
        rng = np.random.default_rng(SEED)
        stats = PredictionStats(instructions=20_001, btb_lookups=3, btb_hits=2)
        stats.counters(BranchKind.IND_JUMP).executed = 11
        stats.counters(BranchKind.IND_JUMP).mispredicted = 4
        stats.counters(BranchKind.COND_DIRECT)  # a kind with zero counts
        if mask_length is not None:
            stats.mispredict_mask = rng.random(mask_length) < 0.3
        cache = ResultCache(tmp_path)
        cache.store(self.KEY, stats)
        loaded = cache.load(self.KEY, need_mask=mask_length is not None)
        assert_same_stats(loaded, stats)
        assert list(loaded.per_kind) == sorted(stats.per_kind)

    def test_huge_cycle_count_round_trips(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.store_cycles(self.KEY, 2**62 + 1)
        assert cache.load_cycles(self.KEY) == 2**62 + 1

    def test_hits_bump_the_hit_counters(self, tmp_path, perl_stats, counts):
        cache = ResultCache(tmp_path)
        cache.store(self.KEY, perl_stats)
        cache.store_cycles(self.KEY, 7)
        assert cache.load(self.KEY, need_mask=True) is not None
        assert cache.load_cycles(self.KEY) == 7
        assert counts == {"result_cache.store": 1, "result_cache.cycles.store": 1,
                          "result_cache.load.hit": 1, "result_cache.cycles.hit": 1}


class TestPinnedRecords:
    """Records written before the codec moved into ``repro.records`` load
    as hits, and the same values still encode to the same bytes."""

    KEY = "a" * 64

    def test_pinned_stats_record_is_a_hit(self, tmp_path, counts):
        cache = ResultCache(tmp_path)
        path = cache._path(self.KEY)
        path.parent.mkdir(parents=True)
        path.write_bytes(PINNED_STATS)
        assert_same_stats(cache.load(self.KEY, need_mask=True), small_stats())
        assert counts == {"result_cache.load.hit": 1}
        cache.store(self.KEY, small_stats())
        assert path.read_bytes() == PINNED_STATS

    def test_pinned_cycles_record_is_a_hit(self, tmp_path, counts):
        cache = ResultCache(tmp_path)
        path = cache._cycles_path(self.KEY)
        path.parent.mkdir(parents=True)
        path.write_bytes(PINNED_CYCLES)
        assert cache.load_cycles(self.KEY) == PINNED_CYCLE_COUNT
        assert counts == {"result_cache.cycles.hit": 1}
        cache.store_cycles(self.KEY, PINNED_CYCLE_COUNT)
        assert path.read_bytes() == PINNED_CYCLES


class TestClaims:
    """Cross-instance cell claims: atomic acquisition, stale takeover."""

    KEY = "f" * 64

    def test_claim_is_exclusive_until_released(self, tmp_path):
        cache = ResultCache(tmp_path)
        assert cache.claim(self.KEY)
        assert not cache.claim(self.KEY)  # second claimant loses
        cache.release(self.KEY)
        assert cache.claim(self.KEY)  # and can win after release

    def test_release_is_idempotent(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.release(self.KEY)  # releasing an unclaimed key is a no-op
        assert cache.claim(self.KEY)
        cache.release(self.KEY)
        cache.release(self.KEY)

    def test_stale_claim_is_taken_over(self, tmp_path):
        cache = ResultCache(tmp_path)
        assert cache.claim(self.KEY)
        # ttl 0: any existing claim counts as abandoned.
        assert cache.claim(self.KEY, ttl_s=0.0)

    def test_fresh_claim_age_is_small(self, tmp_path):
        cache = ResultCache(tmp_path)
        assert cache.claim_age(self.KEY) is None
        cache.claim(self.KEY)
        age = cache.claim_age(self.KEY)
        assert age is not None and age < 60.0

    def test_two_caches_share_claims_via_directory(self, tmp_path):
        a, b = ResultCache(tmp_path), ResultCache(tmp_path)
        assert a.claim(self.KEY)
        assert not b.claim(self.KEY)
        a.release(self.KEY)
        assert b.claim(self.KEY)
