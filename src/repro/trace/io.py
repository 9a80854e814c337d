"""Trace serialisation: one checksummed record per trace, and a disk cache.

Traces are expensive to regenerate, so experiments cache them on disk
keyed by workload name, trace length, seed and code fingerprint.  Each is
one :mod:`repro.records` record with magic ``RPTR``: its fields are the
row count and each column's deflated length, and its tail is the nine
``Trace`` columns, each one's little-endian bytes deflated on its own by
``zlib.compress``.
"""

from __future__ import annotations

import os
import struct
import zlib
from pathlib import Path
from typing import Callable, Optional, Union

import numpy as np

from repro import records
from repro.trace.trace import _COLUMNS, Trace

_MAGIC = b"RPTR"
_FORMAT_VERSION = 1
#: The record's fields: the row count, then each column's deflated length.
_FIELDS = struct.Struct(f"<{1 + len(_COLUMNS)}q")
#: Each column's dtype on disk: ``Trace``'s, little-endian.
_DISK_DTYPES = tuple(np.dtype(dtype).newbyteorder("<") for _, dtype in _COLUMNS)


def save_trace(trace: Trace, path: Union[str, Path]) -> None:
    """Write ``trace`` to ``path`` as one record, with atomic visibility."""
    columns = [zlib.compress(np.ascontiguousarray(getattr(trace, name), disk))
               for (name, _), disk in zip(_COLUMNS, _DISK_DTYPES)]
    records.publish(Path(path), records.encode(
        _MAGIC, _FORMAT_VERSION, [len(trace), *map(len, columns)],
        b"".join(columns)))


def load_trace(path: Union[str, Path]) -> Trace:
    """Read a trace written by :func:`save_trace` into fresh, writable arrays.

    A damaged or foreign record raises :class:`~repro.records.CorruptRecord`.
    """
    view = records.payload(_MAGIC, _FORMAT_VERSION, Path(path).read_bytes())
    if len(view) < _FIELDS.size:
        raise records.CorruptRecord("short trace fields")
    rows, *lengths = _FIELDS.unpack_from(view)
    if min(lengths) < 0 or _FIELDS.size + sum(lengths) != len(view):
        raise records.CorruptRecord("column lengths disagree with the record")
    columns = []
    start = _FIELDS.size
    for (name, dtype), disk, length in zip(_COLUMNS, _DISK_DTYPES, lengths):
        try:
            raw = zlib.decompress(view[start:start + length])
        except zlib.error as error:
            raise records.CorruptRecord(f"column {name!r}: {error}") from None
        if len(raw) != rows * disk.itemsize:
            raise records.CorruptRecord(f"column {name!r} is not {rows} rows")
        columns.append(np.frombuffer(raw, dtype=disk).astype(dtype))
        start += length
    return Trace(*columns)


def default_cache_dir() -> Path:
    """Directory used by :func:`cached_trace`.

    Overridable via the ``REPRO_TRACE_CACHE`` environment variable; defaults
    to ``~/.cache/repro-traces``.
    """
    override = os.environ.get("REPRO_TRACE_CACHE")
    if override:
        return Path(override)
    return Path.home() / ".cache" / "repro-traces"


def cached_trace(key: str, generate: Callable[[], Trace],
                 cache_dir: Optional[Union[str, Path]] = None) -> Trace:
    """Return the trace for ``key``, generating and caching it on miss.

    ``key`` must be filesystem-safe and fully determine the trace (workload
    name + length + seed); the workload registry builds such keys.  The
    entry is ``<key>.trace``; a torn or damaged one is deleted and
    regenerated.
    """
    directory = Path(cache_dir) if cache_dir is not None else default_cache_dir()
    path = directory / f"{key}.trace"
    if path.exists():
        try:
            return load_trace(path)
        except (OSError, ValueError):
            path.unlink(missing_ok=True)  # torn, corrupt or stale cache entry
    trace = generate()
    save_trace(trace, path)
    return trace
