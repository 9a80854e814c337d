"""The checksummed record both disk caches store, traces and results.

A record is little-endian throughout::

    magic (4 bytes) | format version (uint32) | int64 fields | tail | crc32 (uint32)

The magic and version name the layout of the fields and tail (``RPTR`` a
trace, ``RPRC`` a result-cache entry); the trailer is ``zlib.crc32`` of
every byte before it.  A short record, a checksum mismatch or another
magic or version raises :class:`CorruptRecord`, a ``ValueError`` that each
cache turns into an evicting miss.  Standard library only, so that every
layer can import it.
"""

from __future__ import annotations

import os
import struct
import tempfile
import zlib
from pathlib import Path
from typing import Sequence

#: Record header (magic tag, format version) and trailer (crc32).
_HEADER = struct.Struct("<4sI")
_TRAILER = struct.Struct("<I")


class CorruptRecord(ValueError):
    """The bytes on disk are not a record this version wrote."""


def encode(magic: bytes, version: int, fields: Sequence[int],
           tail: bytes = b"") -> bytes:
    """One record: header, ``fields`` as int64s, ``tail``, crc32 trailer."""
    body = b"".join((
        _HEADER.pack(magic, version),
        struct.pack(f"<{len(fields)}q", *fields),
        tail,
    ))
    return body + _TRAILER.pack(zlib.crc32(body))


def payload(magic: bytes, version: int, record: bytes) -> memoryview:
    """The bytes between header and trailer of an intact record."""
    if len(record) < _HEADER.size + _TRAILER.size:
        raise CorruptRecord("short record")
    view = memoryview(record)
    (crc,) = _TRAILER.unpack_from(record, len(record) - _TRAILER.size)
    if zlib.crc32(view[:-_TRAILER.size]) != crc:
        raise CorruptRecord("checksum mismatch")
    if _HEADER.unpack_from(record) != (magic, version):
        raise CorruptRecord("wrong magic or format version")
    return view[_HEADER.size:-_TRAILER.size]


def publish(path: Path, record: bytes) -> None:
    """Write ``record`` to ``path`` with atomic visibility.

    The record goes to a ``mkstemp`` temporary in the destination
    directory (same filesystem, so the rename cannot degrade to a copy),
    and ``os.replace`` publishes it: readers see the old entry or the whole
    new one, and concurrent writers of one key write identical bytes.
    There is deliberately no ``fsync``: a machine crash may leave the
    renamed file torn, which the checksum turns into an evicting miss, so
    the worst case is one lost entry, never a wrong result.
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
