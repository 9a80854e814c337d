"""Unit tests for trace serialisation and the disk cache."""

from pathlib import Path

import numpy as np
import pytest

from repro.guest.builder import ProgramBuilder
from repro.guest.vm import run_program
from repro.records import CorruptRecord
from repro.trace.io import cached_trace, default_cache_dir, load_trace, save_trace
from repro.trace.trace import Trace
from tests.record_damage import COMMON_DAMAGE, bit_flips, flip, reseal, shift_field


def _loop_trace(iterations):
    b = ProgramBuilder()
    b.li(1, iterations)
    b.label("loop")
    b.addi(1, 1, -1)
    b.store(1, 1, 0x10000)
    b.bne(1, 0, "loop")
    b.halt()
    return Trace.from_raw(run_program(b.build()))


@pytest.fixture
def trace():
    return _loop_trace(3)


def test_roundtrip(tmp_path, trace):
    path = tmp_path / "t.trace"
    save_trace(trace, path)
    loaded = load_trace(path)
    assert loaded == trace


def test_roundtrip_preserves_dtypes(tmp_path, trace):
    path = tmp_path / "t.trace"
    save_trace(trace, path)
    loaded = load_trace(path)
    assert loaded.pc.dtype == np.uint64
    assert loaded.src1.dtype == np.int8
    for name in Trace.__slots__:  # fresh arrays, as np.load's were
        assert getattr(loaded, name).flags.writeable, name


def test_save_creates_parent_directories(tmp_path, trace):
    path = tmp_path / "deep" / "nested" / "t.trace"
    save_trace(trace, path)
    assert path.exists()


def test_version_mismatch_rejected(tmp_path, trace):
    path = tmp_path / "t.trace"
    save_trace(trace, path)
    path.write_bytes(COMMON_DAMAGE["wrong-version"](path.read_bytes()))
    with pytest.raises(CorruptRecord, match="version"):
        load_trace(path)


def test_cached_trace_generates_once(tmp_path, trace):
    calls = []

    def generate():
        calls.append(1)
        return trace

    first = cached_trace("key", generate, cache_dir=tmp_path)
    second = cached_trace("key", generate, cache_dir=tmp_path)
    assert len(calls) == 1
    assert first == second == trace


def test_cached_trace_regenerates_on_corruption(tmp_path, trace):
    cached_trace("key", lambda: trace, cache_dir=tmp_path)
    victim = tmp_path / "key.trace"
    victim.write_bytes(b"not a trace record")
    recovered = cached_trace("key", lambda: trace, cache_dir=tmp_path)
    assert recovered == trace


def _regenerates(tmp_path, trace):
    """``cached_trace`` calls the generator once, answers ``trace`` and
    leaves a whole record."""
    calls = []

    def generate():
        calls.append(1)
        return trace

    assert cached_trace("key", generate, cache_dir=tmp_path) == trace
    assert calls == [1]
    assert load_trace(tmp_path / "key.trace") == trace


@pytest.mark.parametrize("keep_fraction", [0.0, 0.25, 0.5, 0.9])
def test_cached_trace_regenerates_a_torn_entry(tmp_path, trace, keep_fraction):
    """A crash can leave a truncated record: a miss that regenerates, not
    a crash on every later run of the workload."""
    cached_trace("key", lambda: trace, cache_dir=tmp_path)
    victim = tmp_path / "key.trace"
    whole = victim.read_bytes()
    victim.write_bytes(whole[:int(len(whole) * keep_fraction)])
    _regenerates(tmp_path, trace)


def test_cached_trace_survives_a_flipped_byte(tmp_path, trace):
    """Every one-bit flip anywhere in a small record fails its crc32, so
    each is an evicting miss that regenerates; none loads."""
    cached_trace("key", lambda: trace, cache_dir=tmp_path)
    victim = tmp_path / "key.trace"
    whole = victim.read_bytes()
    for damaged in bit_flips(whole):
        victim.write_bytes(damaged)
        with pytest.raises(CorruptRecord):
            load_trace(victim)
        _regenerates(tmp_path, trace)


#: Trace offsets: the row count at 8, then the deflated length of each
#: column in ``Trace`` order (``pc`` at 16, ``instr_class`` at 24, ...),
#: then the deflated columns before the crc32 trailer.
TRACE_DAMAGE = {
    **COMMON_DAMAGE,
    "flip-column": flip(-5),
    "fields-cut": lambda record: reseal(record[:16] + bytes(4)),
    "wrong-row-count": shift_field(8, 1),
    "wrong-deflated-length": shift_field(16, 1),
    "deflated-length-moved": lambda record: shift_field(24, -1)(
        shift_field(16, 1)(record)),
}


@pytest.mark.parametrize("damage", TRACE_DAMAGE, ids=str)
def test_damaged_record_is_an_evicting_miss(tmp_path, trace, damage):
    cached_trace("key", lambda: trace, cache_dir=tmp_path)
    victim = tmp_path / "key.trace"
    victim.write_bytes(TRACE_DAMAGE[damage](victim.read_bytes()))
    with pytest.raises(CorruptRecord):
        load_trace(victim)
    _regenerates(tmp_path, trace)


def test_legacy_archives_are_never_read(tmp_path, trace):
    """A ``<key>.npz`` of the earlier format sits at another file name: it
    is never opened, so it can neither hit nor be deleted."""
    legacy = tmp_path / "key.npz"
    np.savez_compressed(legacy, version=np.int64(1), pc=trace.pc)
    before = legacy.read_bytes()
    _regenerates(tmp_path, trace)
    assert legacy.read_bytes() == before


def test_default_cache_dir_honours_env(monkeypatch, tmp_path):
    monkeypatch.setenv("REPRO_TRACE_CACHE", str(tmp_path / "custom"))
    assert default_cache_dir() == tmp_path / "custom"


def test_workload_cache_key_tracks_code(tmp_path, monkeypatch):
    """Editing workload code must invalidate cached traces (fingerprint)."""
    from repro.workloads.registry import _code_fingerprint

    fingerprint = _code_fingerprint("repro.workloads.perl_like")
    assert len(fingerprint) == 10
    assert fingerprint == _code_fingerprint("repro.workloads.perl_like")
    assert fingerprint != _code_fingerprint("repro.workloads.gcc_like")

    # The ISA tables set the class and branch-kind columns, so editing
    # them must change the key too.
    import repro.guest.isa as isa

    perturbed = tmp_path / "isa.py"
    perturbed.write_bytes(Path(isa.__file__).read_bytes() + b"\n# edited\n")
    _code_fingerprint.cache_clear()
    monkeypatch.setattr(isa, "__file__", str(perturbed))
    try:
        assert _code_fingerprint("repro.workloads.perl_like") != fingerprint
    finally:
        monkeypatch.undo()
        _code_fingerprint.cache_clear()
    assert _code_fingerprint("repro.workloads.perl_like") == fingerprint
