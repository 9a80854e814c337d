"""Trace serialisation: compressed npz round-trip and a disk cache.

Traces are expensive to regenerate (the guest VM is a Python interpreter
loop), so experiments cache them on disk keyed by workload name, trace
length, and generator seed.
"""

from __future__ import annotations

import os
import tempfile
import tokenize
import zipfile
import zlib
from pathlib import Path
from typing import Callable, Optional, Union

import numpy as np

from repro.trace.trace import Trace

_FORMAT_VERSION = 1

#: What loading a torn, corrupt or stale archive raises.  A truncated npz
#: fails with ``EOFError`` (no bytes left) or ``zipfile.BadZipFile``.  A
#: flipped byte can also surface as ``zlib.error`` (a broken deflate
#: stream), ``tokenize.TokenError`` (an unbalanced npy header),
#: ``NotImplementedError`` (a zip version or compression method the reader
#: lacks) or ``RuntimeError`` (a member flagged as encrypted).
_CORRUPT_ARCHIVE_ERRORS = (ValueError, OSError, KeyError, EOFError,
                           zipfile.BadZipFile, zlib.error,
                           tokenize.TokenError, NotImplementedError,
                           RuntimeError)


def save_trace(trace: Trace, path: Union[str, Path]) -> None:
    """Write ``trace`` to ``path`` as a compressed npz archive.

    The write is atomic (temp file + rename) so a concurrently reading
    process never sees a torn archive.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp_name = tempfile.mkstemp(dir=path.parent, suffix=".npz.tmp")
    try:
        with os.fdopen(fd, "wb") as handle:
            np.savez_compressed(
                handle,
                version=np.int64(_FORMAT_VERSION),
                pc=trace.pc,
                instr_class=trace.instr_class,
                branch_kind=trace.branch_kind,
                taken=trace.taken,
                target=trace.target,
                src1=trace.src1,
                src2=trace.src2,
                dst=trace.dst,
                mem_addr=trace.mem_addr,
            )
        os.replace(tmp_name, path)
    except BaseException:
        if os.path.exists(tmp_name):
            os.unlink(tmp_name)
        raise


def load_trace(path: Union[str, Path]) -> Trace:
    """Read a trace written by :func:`save_trace`."""
    # Opened here rather than by ``np.load``, which leaves its own handle
    # open when ``zipfile`` cannot parse a damaged archive.
    with open(path, "rb") as handle, np.load(handle) as archive:
        version = int(archive["version"])
        if version != _FORMAT_VERSION:
            raise ValueError(
                f"unsupported trace format version {version} in {path}"
            )
        return Trace(
            pc=archive["pc"],
            instr_class=archive["instr_class"],
            branch_kind=archive["branch_kind"],
            taken=archive["taken"],
            target=archive["target"],
            src1=archive["src1"],
            src2=archive["src2"],
            dst=archive["dst"],
            mem_addr=archive["mem_addr"],
        )


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
    name + length + seed); the workload registry builds such keys.
    """
    directory = Path(cache_dir) if cache_dir is not None else default_cache_dir()
    path = directory / f"{key}.npz"
    if path.exists():
        try:
            return load_trace(path)
        except _CORRUPT_ARCHIVE_ERRORS:
            path.unlink(missing_ok=True)  # torn, corrupt or stale cache entry
    trace = generate()
    save_trace(trace, path)
    return trace
