"""Binary cache files for the coefficient tables, the expensive stage.

One format, COFA version 3: little-endian, a header of 4-byte magic, format
version, cycle length, block count, record count and one byte naming the
record's triangle type (its width in bytes: int8, int16, int32 or int64),
then one byte per block dimension, one int64 scale g_B per block, one
fixed-width record per swap class, in class order, and last a 4-byte
trailer, the CRC-32 of every byte before it:

  coeffs_<m>_<kind>.bin  per-class coefficient blocks of one relaxation,
                         kind "single" (one block) or "full" (every block)

A record holds tri, the upper triangles of the class's blocks as integers
t of the narrowest signed type that holds them all, the class's block B
being g_B t exactly; then the class size over (m-1)!, which divides it, as
one byte; then the class cost q as one byte.  Only this module knows the
records: write_coeffs builds them from the class tables, and read_coeffs
turns them back into class tables.

A table is one file, published with its trailer by one atomic replace.
Readers check the header and the trailer before they parse the body, and
raise DataError on any mismatch, truncation, or header disagreement.  A
file of an older version is stale (is_stale): a build replaces it rather
than reading it, and removes the checksum sidecar that version 2 kept
beside it.
"""

from __future__ import annotations

import contextlib
import os
import struct
import uuid
import zlib
from math import factorial
from pathlib import Path

import numpy as np

from .errors import CrossingsError, DataError

_VERSION = 3
_TRAILER = struct.Struct("<I")


def default_cache_dir() -> Path:
    env = os.environ.get("CROSSING_CACHE_DIR")
    if env:
        return Path(env).expanduser()
    return Path("~/.cache/crossings").expanduser()


def resolve_cache_dir(explicit: str | os.PathLike | None = None) -> Path:
    d = Path(explicit).expanduser() if explicit is not None else default_cache_dir()
    d.mkdir(parents=True, exist_ok=True)
    return d


def coeffs_path(cache_dir: Path, m: int, kind: str) -> Path:
    return Path(cache_dir) / f"coeffs_{m}_{kind}.bin"


def _publish(path: Path, parts) -> None:
    """Replace path atomically by the buffers parts, written in order and
    never joined, so no copy of the payload is made, then by their CRC-32
    as the trailer.  parts may be an iterator: each buffer is checksummed
    and written before the next is asked for.

    The bytes go through a temp file of this writer's own, created
    exclusively under a random name rather than by mkstemp, so it gets the
    mode the umask gives.  A crash before the replace leaves no table, and
    the next run rebuilds it; writers of one table write the same bytes,
    so concurrent writers leave one whole file.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f"{path.name}.{uuid.uuid4().hex}.tmp")
    fh = open(tmp, "xb")
    try:
        with fh:
            crc = 0
            for part in parts:
                crc = zlib.crc32(part, crc)
                fh.write(part)
            fh.write(_TRAILER.pack(crc))
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp)
        raise


# -- COFA ------------------------------------------------------------------

_COFA_HEADER = struct.Struct("<4sBBBQB")
_WRITE_BYTES = 1 << 22  # records filled and written per chunk
_TRIANGLE_TYPES = {np.dtype(t).itemsize: np.dtype(t) for t in ("<i1", "<i2", "<i4", "<i8")}


def triangle_width(dims) -> int:
    """Entries of the upper triangles of blocks of the given dimensions."""
    return sum(d * (d + 1) // 2 for d in dims)


def record_dtype(width: int, tri_type) -> np.dtype:
    """One class's record when its triangles hold width entries of tri_type."""
    return np.dtype([("tri", np.dtype(tri_type).newbyteorder("<"), (width,)),
                     ("size", "u1"), ("q", "u1")])


def is_stale(path: Path) -> bool:
    """Whether path holds a COFA file of an older format version."""
    with open(path, "rb") as fh:
        head = fh.read(5)
    return len(head) == 5 and head[:4] == b"COFA" and head[4] < _VERSION


def write_coeffs(path: Path, m: int, dims: tuple[int, ...], scales, parts, sizes, q) -> None:
    """Publish the class tables of one relaxation as records, one per class
    in class order: parts holds each block's upper triangles, row-major, in
    block order, block B divided by its exact scale scales[B]; sizes and q
    are the class sizes and costs.  The triangles take the narrowest type
    that holds every part.  The records are filled and written one chunk of
    about _WRITE_BYTES at a time, in one reused buffer, so the write holds
    no copy of the table beside parts; the checksum and the file write read
    each chunk in place.  Sizes over (m-1)! or costs that leave one byte
    raise CrossingsError."""
    unit = factorial(m - 1)
    if (sizes % unit).any() or sizes.max() > 255 * unit or q.max() > 255:
        raise CrossingsError(f"m={m}: class sizes over (m-1)! or costs leave one byte")
    dtype = record_dtype(triangle_width(dims), np.result_type(*parts))
    head = (_COFA_HEADER.pack(b"COFA", _VERSION, m, len(dims), len(q), dtype["tri"].base.itemsize)
            + bytes(dims) + np.asarray(scales, dtype="<i8").tobytes())
    rows = max(1, _WRITE_BYTES // dtype.itemsize)

    def payload():
        yield head
        rec = np.empty(min(rows, len(q)), dtype)
        for lo in range(0, len(q), rows):
            chunk = rec[: min(rows, len(q) - lo)]
            np.floor_divide(sizes[lo : lo + rows], unit, out=chunk["size"], casting="unsafe")
            chunk["q"] = q[lo : lo + rows]
            np.concatenate([p[lo : lo + rows] for p in parts], axis=1, out=chunk["tri"])
            yield memoryview(chunk).cast("B")

    # version 2 kept its checksum in a sidecar, which goes with the file it checked
    with contextlib.suppress(FileNotFoundError):
        os.unlink(f"{path}.crc32")
    _publish(path, payload())


def read_coeffs(
    path: Path, m: int
) -> tuple[tuple[int, ...], np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The class tables of a file written by write_coeffs: dims, the int64
    class sizes and costs, the narrow triangles tri and the int64 scale of
    each triangle column, the class blocks being tri times scale.  tri is a
    read-only view into the file's bytes, so the table is held once."""
    path = Path(path)
    if not path.exists():
        raise DataError(f"cache file missing: {path}")
    whole = path.read_bytes()
    payload = memoryview(whole)[: -_TRAILER.size]
    if len(payload) < _COFA_HEADER.size:
        raise DataError(f"{path}: truncated header")
    *got, nblocks, n, entry = _COFA_HEADER.unpack_from(payload)
    for name, g, w in zip(("magic", "version", "m"), got, (b"COFA", _VERSION, m)):
        if g != w:
            raise DataError(f"{path}: bad {name} (got {g!r}, want {w!r})")
    if whole[len(payload) :] != _TRAILER.pack(zlib.crc32(payload)):
        raise DataError(f"checksum mismatch for {path}")
    if entry not in _TRIANGLE_TYPES:
        raise DataError(f"{path}: unknown triangle type of {entry} bytes")
    off = _COFA_HEADER.size + 9 * nblocks
    dims = tuple(payload[_COFA_HEADER.size : _COFA_HEADER.size + nblocks])
    dtype = record_dtype(triangle_width(dims), _TRIANGLE_TYPES[entry])
    if len(dims) != nblocks or len(payload) - off != n * dtype.itemsize:
        raise DataError(f"{path}: body is not {nblocks} dims, {nblocks} scales "
                        f"and {n} whole records")
    scales = np.frombuffer(payload, dtype="<i8", count=nblocks, offset=off - 8 * nblocks)
    if (scales < 1).any():
        raise DataError(f"{path}: block scales {scales.tolist()} are not all positive")
    rec = np.frombuffer(payload, dtype=dtype, offset=off)
    sizes = rec["size"].astype(np.int64)
    sizes *= factorial(m - 1)
    return (dims, sizes, rec["q"].astype(np.int64), rec["tri"],
            np.repeat(scales.astype(np.int64), [d * (d + 1) // 2 for d in dims]))
