"""Unit tests for trace serialisation and the disk cache."""

import struct
import tokenize
import zipfile
from pathlib import Path

import numpy as np
import pytest

from repro.guest.builder import ProgramBuilder
from repro.guest.vm import run_program
from repro.trace.io import cached_trace, default_cache_dir, load_trace, save_trace
from repro.trace.trace import Trace


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
    path = tmp_path / "t.npz"
    save_trace(trace, path)
    loaded = load_trace(path)
    assert loaded == trace


def test_roundtrip_preserves_dtypes(tmp_path, trace):
    path = tmp_path / "t.npz"
    save_trace(trace, path)
    loaded = load_trace(path)
    assert loaded.pc.dtype == np.uint64
    assert loaded.src1.dtype == np.int8


def test_save_creates_parent_directories(tmp_path, trace):
    path = tmp_path / "deep" / "nested" / "t.npz"
    save_trace(trace, path)
    assert path.exists()


def test_version_mismatch_rejected(tmp_path, trace):
    path = tmp_path / "t.npz"
    save_trace(trace, path)
    # rewrite with a bogus version
    data = dict(np.load(path))
    data["version"] = np.int64(999)
    np.savez_compressed(path, **data)
    with pytest.raises(ValueError, match="version"):
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
    victim = tmp_path / "key.npz"
    victim.write_bytes(b"not an npz archive")
    recovered = cached_trace("key", lambda: trace, cache_dir=tmp_path)
    assert recovered == trace


@pytest.mark.parametrize("keep_fraction", [0.0, 0.25, 0.5, 0.9])
def test_cached_trace_regenerates_a_torn_entry(tmp_path, trace, keep_fraction):
    """A crash can leave a truncated archive (``EOFError`` at zero bytes,
    ``zipfile.BadZipFile`` past that): a miss that regenerates, not a
    crash on every later run of the workload."""
    cached_trace("key", lambda: trace, cache_dir=tmp_path)
    victim = tmp_path / "key.npz"
    whole = victim.read_bytes()
    victim.write_bytes(whole[:int(len(whole) * keep_fraction)])
    calls = []

    def generate():
        calls.append(1)
        return trace

    assert cached_trace("key", generate, cache_dir=tmp_path) == trace
    assert calls == [1]
    assert load_trace(victim) == trace  # the regenerated entry is whole


def _regenerates(tmp_path, trace, victim):
    """``cached_trace`` answers ``trace`` and leaves a whole archive."""
    assert cached_trace("key", lambda: trace, cache_dir=tmp_path) == trace
    assert load_trace(victim) == trace


def test_cached_trace_survives_a_flipped_byte(tmp_path, trace):
    """A flipped byte anywhere in the archive either loads the same trace
    (zip metadata the reader ignores) or is an evicting miss that
    regenerates; a broken deflate stream raises ``zlib.error`` and a bad
    zip version ``NotImplementedError``."""
    cached_trace("key", lambda: trace, cache_dir=tmp_path)
    victim = tmp_path / "key.npz"
    whole = victim.read_bytes()
    for offset in range(0, len(whole), 7):
        corrupt = bytearray(whole)
        corrupt[offset] ^= 0xFF
        victim.write_bytes(bytes(corrupt))
        _regenerates(tmp_path, trace, victim)


def test_cached_trace_regenerates_an_unbalanced_npy_header(tmp_path, trace):
    """An npy header whose parentheses do not balance fails in the
    tokenizer (``tokenize.TokenError``), not in the header parser."""
    cached_trace("key", lambda: trace, cache_dir=tmp_path)
    victim = tmp_path / "key.npz"
    with zipfile.ZipFile(victim) as archive:
        members = {info.filename: archive.read(info)
                   for info in archive.infolist()}
    header = b"{'descr': '<i8', 'fortran_order': False, 'shape': ((), }"
    header = header.ljust(117) + b"\n"
    members["version.npy"] = (b"\x93NUMPY\x01\x00"
                              + struct.pack("<H", len(header)) + header
                              + np.int64(1).tobytes())
    with zipfile.ZipFile(victim, "w") as archive:
        for name, payload in members.items():
            archive.writestr(name, payload)
    with pytest.raises(tokenize.TokenError):
        load_trace(victim)
    _regenerates(tmp_path, trace, victim)


def test_cached_trace_regenerates_an_encrypted_member(tmp_path, trace):
    """The encryption bit of a central-directory entry makes ``zipfile``
    raise ``RuntimeError`` (password required)."""
    cached_trace("key", lambda: trace, cache_dir=tmp_path)
    victim = tmp_path / "key.npz"
    corrupt = bytearray(victim.read_bytes())
    corrupt[corrupt.index(b"PK\x01\x02") + 8] |= 1  # general-purpose flags
    victim.write_bytes(bytes(corrupt))
    with pytest.raises(RuntimeError, match="encrypted"):
        load_trace(victim)
    _regenerates(tmp_path, trace, victim)


def test_cached_trace_regenerates_a_member_failing_its_crc(tmp_path):
    """A member whose bytes no longer match its CRC-32 is an evicting miss,
    even when the npy reader stops short of the member's end.

    The archive is rewritten uncompressed, so the damage does not depend
    on zlib's output: the ``mem_addr`` header-length field shrinks by 8,
    the array then starts 8 bytes early and ends 8 bytes before the
    member does.  ``zipfile`` checks the CRC only at a member's end, and
    reads 4 KiB ahead, so with a column of a few thousand rows a reader
    that stops at the array's last byte would return a shifted column.
    """
    trace = _loop_trace(1000)
    cached_trace("key", lambda: trace, cache_dir=tmp_path)
    victim = tmp_path / "key.npz"
    with zipfile.ZipFile(victim) as archive:
        members = {info.filename: archive.read(info)
                   for info in archive.infolist()}
    with zipfile.ZipFile(victim, "w") as archive:  # stored, not deflated
        for name, payload in members.items():
            archive.writestr(name, payload)
    corrupt = bytearray(victim.read_bytes())
    hlen_at = corrupt.index(members["mem_addr.npy"]) + 8
    (hlen,) = struct.unpack_from("<H", corrupt, hlen_at)
    struct.pack_into("<H", corrupt, hlen_at, hlen - 8)
    victim.write_bytes(bytes(corrupt))
    with pytest.raises(zipfile.BadZipFile, match="CRC"):
        load_trace(victim)
    calls = []

    def generate():
        calls.append(1)
        return trace

    assert cached_trace("key", generate, cache_dir=tmp_path) == trace
    assert calls == [1]
    assert load_trace(victim) == trace


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
