"""Damage for :mod:`repro.records` records, shared by the cache tests.

A record is ``magic (0-3) | version (4-7) | int64 fields from 8 | tail |
crc32 (last 4 bytes)``.  :data:`COMMON_DAMAGE` spoils the parts every
record has; each cache's tests add lies about its own fields, made with
:func:`put_field` or :func:`shift_field` and resealed, so only the field
under test is wrong.  Truncations stay in each cache's torn-entry tests.
"""

import struct
import zlib


def reseal(record):
    """Recompute the crc32 trailer, so only the field under test is wrong."""
    body = record[:-4]
    return body + struct.pack("<I", zlib.crc32(body))


def flip(offset):
    def damage(record):
        record = bytearray(record)
        record[offset] ^= 0xFF
        return bytes(record)
    return damage


def put_field(offset, value):
    """Overwrite one int64 field and reseal: a well-formed lie."""
    def damage(record):
        record = bytearray(record)
        record[offset:offset + 8] = struct.pack("<q", value)
        return reseal(bytes(record))
    return damage


def shift_field(offset, delta):
    """Add ``delta`` to one int64 field and reseal."""
    def damage(record):
        (value,) = struct.unpack_from("<q", record, offset)
        return put_field(offset, value + delta)(record)
    return damage


def other_version(record):
    """The record resealed under the format version before its own."""
    (version,) = struct.unpack_from("<I", record, 4)
    return reseal(record[:4] + struct.pack("<I", version - 1) + record[8:])


def bit_flips(record):
    """``record`` with each of its bits flipped in turn, one at a time."""
    for offset in range(len(record)):
        for bit in range(8):
            damaged = bytearray(record)
            damaged[offset] ^= 1 << bit
            yield bytes(damaged)


#: Damage every record kind must turn into an evicting miss: a flipped
#: version byte, first field and trailer, and a resealed record with a
#: wrong magic or another version.
COMMON_DAMAGE = {
    "flip-header": flip(5),
    "flip-counter": flip(9),
    "flip-trailer": flip(-1),
    "wrong-magic": lambda record: reseal(b"NPZ!" + record[4:]),
    "wrong-version": other_version,
}
