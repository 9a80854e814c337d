"""Persistent on-disk cache of :class:`PredictionStats` results.

Re-running ``repro all`` re-simulates hundreds of ``(benchmark, config)``
cells whose inputs have not changed.  This cache makes the second run
near-free: each cell's stats are stored as one small flat record keyed by
:func:`repro.runner.keys.cell_key` (trace fingerprint + engine config +
simulator-code hash), so any change that could alter a result misses,
and everything else hits.  Cycle counts from the timing model are stored
alongside as records of their own keyed by
:func:`repro.runner.keys.timing_key` (cell key + machine config +
pipeline-code hash), so a warm re-run skips ``run_timing`` too.

Every entry is one record, little-endian throughout::

    magic b"RPRC" | format version (uint32) | int64 fields | tail bytes | crc32 (uint32)

* a stats entry (``<key>.stats``) holds ``instructions``,
  ``btb_lookups``, ``btb_hits``, the number of branch kinds and the mask
  length (-1 for no mask), then one ``(kind, executed, mispredicted)``
  triple per kind in kind order; its tail is ``np.packbits(mask)``;
* a cycles entry (``<key>.cycles``) holds the cycle count and no tail.

The trailer is ``zlib.crc32`` of every byte before it.  A short record, a
checksum mismatch, a wrong magic or version, or a mask byte count that
disagrees with the mask length is a miss: the entry is unlinked and
re-computed, never raised.

Control knobs:

* ``REPRO_RESULT_CACHE=0`` (or ``off`` / ``no`` / ``false``) disables the
  cache entirely — equivalent to the CLI's ``--no-result-cache``;
* ``REPRO_RESULT_CACHE=/some/dir`` relocates it (default
  ``~/.cache/repro-results``);
* deleting the directory clears it.

Every load/store (and every corrupt-entry eviction) bumps a
``result_cache.*`` counter on the :mod:`repro.obs` sink, so an enabled
run ledger shows exactly how the cache behaved — free when obs is off.
"""

from __future__ import annotations

import os
import struct
import tempfile
import time
import zlib
from pathlib import Path
from typing import Callable, List, Optional, TypeVar, Union

import numpy as np

from repro.guest.isa import BranchKind
from repro.obs import get_sink
from repro.predictors import PredictionStats

_FORMAT_VERSION = 2

#: Record header (magic tag, format version) and trailer (crc32).
_MAGIC = b"RPRC"
_HEADER = struct.Struct("<4sI")
_TRAILER = struct.Struct("<I")
#: A stats payload's fixed fields: instructions, btb_lookups, btb_hits,
#: number of kinds, mask length (-1 for no mask).
_STATS_FIELDS = struct.Struct("<5q")
_CYCLES_FIELDS = struct.Struct("<q")

#: values of ``REPRO_RESULT_CACHE`` that turn the cache off
_OFF_VALUES = {"0", "off", "no", "false", ""}

#: Seconds after which an unreleased cell claim counts as abandoned (the
#: claiming process died); a fresh claimer may break and take it over.
DEFAULT_CLAIM_TTL_S = 120.0

_T = TypeVar("_T")


def result_cache_enabled() -> bool:
    """Whether the environment allows persistent result caching."""
    # Toggles whether results are cached, never what they are.
    return os.environ.get(  # repro-lint: ignore[det-env-read]
        "REPRO_RESULT_CACHE", "on"
    ).lower() not in _OFF_VALUES


def default_result_cache_dir() -> Path:
    # Relocates the cache directory; cell keys make any location safe.
    override = os.environ.get("REPRO_RESULT_CACHE", "")  # repro-lint: ignore[det-env-read]
    if override and override.lower() not in _OFF_VALUES and override != "on":
        return Path(override)
    return Path.home() / ".cache" / "repro-results"


# ----------------------------------------------------------------------
# The record codec, shared by both entry kinds.
# ----------------------------------------------------------------------
class _CorruptEntry(ValueError):
    """The bytes on disk are not a record this version wrote."""


def _encode(fields: List[int], tail: bytes = b"") -> bytes:
    body = b"".join((
        _HEADER.pack(_MAGIC, _FORMAT_VERSION),
        struct.pack(f"<{len(fields)}q", *fields),
        tail,
    ))
    return body + _TRAILER.pack(zlib.crc32(body))


def _payload(record: bytes) -> memoryview:
    """The bytes between header and trailer of an intact record."""
    if len(record) < _HEADER.size + _TRAILER.size:
        raise _CorruptEntry("short record")
    view = memoryview(record)
    (crc,) = _TRAILER.unpack_from(record, len(record) - _TRAILER.size)
    if zlib.crc32(view[:-_TRAILER.size]) != crc:
        raise _CorruptEntry("checksum mismatch")
    if _HEADER.unpack_from(record) != (_MAGIC, _FORMAT_VERSION):
        raise _CorruptEntry("wrong magic or format version")
    return view[_HEADER.size:-_TRAILER.size]


def _encode_stats(stats: PredictionStats) -> bytes:
    kinds = sorted(stats.per_kind)
    mask = stats.mispredict_mask
    fields = [stats.instructions, stats.btb_lookups, stats.btb_hits,
              len(kinds), -1 if mask is None else len(mask)]
    for kind in kinds:
        counter = stats.per_kind[kind]
        fields += (int(kind), counter.executed, counter.mispredicted)
    return _encode(fields, b"" if mask is None else np.packbits(mask).tobytes())


def _decode_stats(payload: memoryview, need_mask: bool) -> Optional[PredictionStats]:
    """The stats in ``payload``; ``None`` for a maskless one under ``need_mask``."""
    if len(payload) < _STATS_FIELDS.size:
        raise _CorruptEntry("short stats payload")
    instructions, lookups, hits, kinds, mask_length = (
        _STATS_FIELDS.unpack_from(payload)
    )
    mask_offset = _STATS_FIELDS.size + 3 * 8 * kinds
    mask_bytes = (mask_length + 7) // 8 if mask_length >= 0 else 0
    if kinds < 0 or mask_length < -1 or len(payload) != mask_offset + mask_bytes:
        raise _CorruptEntry("mask bytes disagree with the mask length")
    if need_mask and mask_length < 0:
        return None
    stats = PredictionStats(instructions=instructions, btb_lookups=lookups,
                            btb_hits=hits)
    triples = struct.unpack_from(f"<{3 * kinds}q", payload, _STATS_FIELDS.size)
    for i in range(0, len(triples), 3):
        counter = stats.counters(BranchKind(triples[i]))
        counter.executed, counter.mispredicted = triples[i + 1], triples[i + 2]
    if mask_length >= 0:
        packed = np.frombuffer(payload, dtype=np.uint8, offset=mask_offset)
        stats.mispredict_mask = np.unpackbits(packed, count=mask_length).astype(bool)
    return stats


def _decode_cycles(payload: memoryview) -> int:
    if len(payload) != _CYCLES_FIELDS.size:
        raise _CorruptEntry("cycles payload of the wrong size")
    return int(_CYCLES_FIELDS.unpack_from(payload)[0])


def _publish(path: Path, record: bytes) -> None:
    """Write ``record`` to ``path`` with atomic visibility.

    Write-path audit (deliberately ``fsync``-free): the record is written
    to a ``mkstemp`` temporary *in the destination directory* (same
    filesystem, so the rename cannot degrade to copy+delete), then
    published with ``os.replace`` — readers see the old entry or the
    whole new one, never a partial write, and concurrent writers of the
    same key last-write-win with identical bytes (the key covers every
    input).  Skipping ``fsync`` trades durability for speed: an OS/power
    crash may leave the renamed file torn on disk, which the record's
    length and checksum turn into an evictable miss, so the worst case is
    one lost cache entry, never a wrong result.
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp_name = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(record)
        os.replace(tmp_name, path)
    except BaseException:
        if os.path.exists(tmp_name):
            os.unlink(tmp_name)
        raise


class ResultCache:
    """One CRC-checked record per cell; writes are atomic, corrupt entries self-heal."""

    def __init__(self, directory: Optional[Union[str, Path]] = None) -> None:
        self.directory = (
            Path(directory) if directory is not None else default_result_cache_dir()
        )

    @classmethod
    def from_env(cls) -> Optional["ResultCache"]:
        """The cache the environment asks for, or ``None`` if disabled."""
        return cls() if result_cache_enabled() else None

    def _path(self, key: str) -> Path:
        # Two-level fan-out keeps directory listings manageable for
        # multi-thousand-cell sweeps.
        return self.directory / key[:2] / f"{key}.stats"

    def _cycles_path(self, key: str) -> Path:
        return self.directory / key[:2] / f"{key}.cycles"

    def _read(self, path: Path, counter: str,
              decode: Callable[[memoryview], Optional[_T]]) -> Optional[_T]:
        """Decode the record at ``path`` and bump ``<counter>.hit``/``.miss``.

        A missing file, or an entry ``decode`` turns down with ``None``,
        is a miss.  Crash-consistency contract (the flip side of
        :func:`_publish`): a reader can observe either no file or a
        complete one under normal operation, but a machine crash between
        the rename and the data reaching disk can leave a *torn*
        (truncated or zero-byte) entry.  Any such entry — along with any
        other undecodable bytes, or an ``OSError`` while reading it — is
        evicted and counted as ``result_cache.evict``, never raised.
        """
        try:
            value = decode(_payload(path.read_bytes()))
        except FileNotFoundError:
            value = None
        except (OSError, ValueError):
            path.unlink(missing_ok=True)
            get_sink().incr("result_cache.evict")
            return None
        get_sink().incr(f"{counter}.miss" if value is None else f"{counter}.hit")
        return value

    # ------------------------------------------------------------------
    def load(self, key: str, need_mask: bool = False) -> Optional[PredictionStats]:
        """Return the cached stats for ``key``, or ``None`` on a miss.

        ``need_mask=True`` additionally requires the entry to carry the
        per-instruction mispredict mask; maskless entries count as misses
        (and are overwritten by the maskful recompute).
        """
        return self._read(self._path(key), "result_cache.load",
                          lambda payload: _decode_stats(payload, need_mask))

    def store(self, key: str, stats: PredictionStats) -> None:
        """Persist ``stats`` under ``key`` with atomic visibility."""
        get_sink().incr("result_cache.store")
        _publish(self._path(key), _encode_stats(stats))

    # ------------------------------------------------------------------
    def load_cycles(self, key: str) -> Optional[int]:
        """Cached cycle count under a :func:`~repro.runner.keys.timing_key`."""
        return self._read(self._cycles_path(key), "result_cache.cycles",
                          _decode_cycles)

    def store_cycles(self, key: str, cycles: int) -> None:
        get_sink().incr("result_cache.cycles.store")
        _publish(self._cycles_path(key), _encode([int(cycles)]))

    # ------------------------------------------------------------------
    # Cell claims: cross-process work coordination for the sweep service.
    # ------------------------------------------------------------------
    def _claim_path(self, key: str) -> Path:
        return self.directory / key[:2] / f"{key}.claim"

    def claim(self, key: str, ttl_s: float = DEFAULT_CLAIM_TTL_S) -> bool:
        """Atomically claim the right to compute ``key``; True if won.

        N server instances sharing one cache directory use claims to
        split a sweep: exactly one process wins ``O_CREAT | O_EXCL`` on
        the claim file and computes the cell; the others poll the cache
        until the winner's :meth:`store` lands (see
        :class:`repro.service.scheduler.ShardScheduler`).  A claim left
        behind by a dead process goes stale after ``ttl_s`` seconds and
        is broken by the next claimer — losing a claim therefore delays a
        cell, never loses it.  Claims gate *who computes*, not *what* the
        result is, so they are invisible in the cached bytes.
        """
        path = self._claim_path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        for _ in range(2):
            try:
                fd = os.open(path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
            except FileExistsError:
                age = self.claim_age(key)
                if age is not None and age <= ttl_s:
                    get_sink().incr("result_cache.claim.lost")
                    return False
                # Stale claim (holder died without releasing): break it.
                # Concurrent breakers both unlink, then O_EXCL arbitrates
                # the retry, so at most one claimer wins.
                path.unlink(missing_ok=True)
                get_sink().incr("result_cache.claim.broken")
                continue
            with os.fdopen(fd, "w") as handle:
                handle.write(f"{os.getpid()}\n")  # the holder, for humans
            get_sink().incr("result_cache.claim.won")
            return True
        get_sink().incr("result_cache.claim.lost")
        return False

    def release(self, key: str) -> None:
        """Drop a claim taken by :meth:`claim` (idempotent)."""
        self._claim_path(key).unlink(missing_ok=True)

    def claim_age(self, key: str) -> Optional[float]:
        """Seconds since ``key`` was claimed, or ``None`` if unclaimed."""
        try:
            mtime = self._claim_path(key).stat().st_mtime
        except OSError:
            return None
        # Claim freshness is a scheduling hint between live processes;
        # results never read it (claims only decide who computes a cell).
        return max(0.0, time.time() - mtime)  # repro-lint: ignore[det-wall-clock]
