"""Speed guard for the result cache's read path.

Every warm replay of the paper tables and every ``repro serve`` cache hit
reads cells back through :meth:`~repro.runner.ResultCache.load`.  Loading
200 real entries (perl at 20k instructions, with the mispredict masks of
the BTB baseline and Table 4's four tagless configs) must be at least 10x
faster per entry than ``np.load`` of the same payload written with
``np.savez_compressed``, the ten-member npz format the flat record
replaced.  That format lives here only, as the reference.  On a 2-vCPU
host it measured about 25x.

Only loads are guarded: store time on a shared host swings with disk
writeback.  Timing is min-of-rounds so scheduler noise cannot mask a
regression.  Runs with plain pytest from the repository root:
``PYTHONPATH=src python -m pytest -q benchmarks/test_result_cache_speed.py``.
"""

import hashlib
import time

import numpy as np
import pytest

from repro.experiments.common import ExperimentContext
from repro.experiments.configs import pattern_history, tagless_engine
from repro.experiments.table4 import SCHEMES
from repro.guest.isa import BranchKind
from repro.predictors import EngineConfig, PredictionStats
from repro.runner import ResultCache

TRACE_LENGTH = 20_000
ENTRIES = 200
ROUNDS = 5
MIN_SPEEDUP = 10.0


@pytest.fixture(scope="module")
def cells():
    """The baseline plus Table 4's tagless schemes on perl, with masks."""
    configs = [EngineConfig()] + [
        tagless_engine(history=pattern_history(9), **kwargs) for kwargs in SCHEMES
    ]
    ctx = ExperimentContext(trace_length=TRACE_LENGTH, jobs=1,
                            use_result_cache=False)
    return ctx.predictions([("perl", config) for config in configs],
                           collect_mask=True)


def _npz_store(path, stats):
    """The replaced format: one compressed npz of ten members per cell."""
    kinds = sorted(stats.per_kind)
    mask = stats.mispredict_mask
    np.savez_compressed(
        path,
        version=np.int64(1),
        instructions=np.int64(stats.instructions),
        btb_lookups=np.int64(stats.btb_lookups),
        btb_hits=np.int64(stats.btb_hits),
        kind_values=np.array([k.value for k in kinds], dtype=np.int64),
        executed=np.array([stats.per_kind[k].executed for k in kinds],
                          dtype=np.int64),
        mispredicted=np.array([stats.per_kind[k].mispredicted for k in kinds],
                              dtype=np.int64),
        has_mask=np.bool_(True),
        mask_packed=np.packbits(mask),
        mask_length=np.int64(len(mask)),
    )


def _npz_load(path):
    with np.load(path) as archive:
        if int(archive["version"]) != 1:
            raise ValueError("format version mismatch")
        stats = PredictionStats(
            instructions=int(archive["instructions"]),
            btb_lookups=int(archive["btb_lookups"]),
            btb_hits=int(archive["btb_hits"]),
        )
        for value, executed, mispredicted in zip(
            archive["kind_values"].tolist(),
            archive["executed"].tolist(),
            archive["mispredicted"].tolist(),
        ):
            counter = stats.counters(BranchKind(value))
            counter.executed = executed
            counter.mispredicted = mispredicted
        if bool(archive["has_mask"]):
            stats.mispredict_mask = np.unpackbits(
                archive["mask_packed"], count=int(archive["mask_length"])
            ).astype(bool)
    return stats


def _min_time(func, rounds=ROUNDS):
    best = float("inf")
    for _ in range(rounds):
        start = time.perf_counter()
        func()
        best = min(best, time.perf_counter() - start)
    return best


def test_record_load_is_10x_faster_than_npz(tmp_path, cells):
    cache = ResultCache(tmp_path / "records")
    npz_dir = tmp_path / "npz"
    npz_dir.mkdir()
    entries = [(hashlib.sha256(str(i).encode()).hexdigest(), cells[i % len(cells)])
               for i in range(ENTRIES)]
    for key, stats in entries:
        cache.store(key, stats)
        _npz_store(npz_dir / f"{key}.npz", stats)

    # Both formats must hand back the same cell before their speed counts.
    for key, stats in entries[:len(cells)]:
        loaded = cache.load(key, need_mask=True)
        reference = _npz_load(npz_dir / f"{key}.npz")
        for one in (loaded, reference):
            assert one.per_kind == stats.per_kind
            assert (one.instructions, one.btb_lookups, one.btb_hits) == (
                stats.instructions, stats.btb_lookups, stats.btb_hits)
            assert np.array_equal(one.mispredict_mask, stats.mispredict_mask)

    record_s = _min_time(
        lambda: [cache.load(key, need_mask=True) for key, _ in entries])
    npz_s = _min_time(
        lambda: [_npz_load(npz_dir / f"{key}.npz") for key, _ in entries])
    speedup = npz_s / record_s
    print(f"\nper entry: record {record_s / ENTRIES * 1e3:.3f} ms, "
          f"npz {npz_s / ENTRIES * 1e3:.3f} ms ({speedup:.1f}x)")
    assert speedup >= MIN_SPEEDUP, (
        f"record load only {speedup:.1f}x faster than npz (need {MIN_SPEEDUP}x)"
    )
