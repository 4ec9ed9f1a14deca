"""Binary cache files for the coefficient tables, the expensive stage.

One format, COFA version 4, little-endian and block-major: a header of
4-byte magic, format version, cycle length, block count and class count C;
then one byte per block dimension d, one byte per block naming the width
in bytes of its table's type (int8, int16, int32 or int64) and one int64
scale g_B per block; then each block's table, its (C, d(d+1)/2) upper
triangles row-major in class order; then the class sizes over (m-1)!,
which divides them, one byte each; then the class costs q, one byte each;
and last a 4-byte trailer, the CRC-32 of every byte before it:

  coeffs_<m>_<kind>.bin  per-class coefficient blocks of one relaxation,
                         kind "single" (one block) or "full" (every block)

Block B of a class is g_B t exactly, t the class's row of the block's
table, which is of the narrowest signed type that holds that block alone.
write_coeffs publishes the block tables as the build hands them over, and
read_coeffs returns them as read-only views into the one payload it reads.

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

_VERSION = 4
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

_COFA_HEADER = struct.Struct("<4sBBBQ")
_TABLE_TYPES = {np.dtype(t).itemsize: np.dtype(t) for t in ("<i1", "<i2", "<i4", "<i8")}


def is_stale(path: Path) -> bool:
    """Whether path holds a COFA file of an older format version."""
    with open(path, "rb") as fh:
        head = fh.read(5)
    return len(head) == 5 and head[:4] == b"COFA" and head[4] < _VERSION


def write_coeffs(path: Path, m: int, dims: tuple[int, ...], scales, parts, sizes, q) -> None:
    """Publish the class tables of one relaxation: parts holds each block's
    (C, d(d+1)/2) table of upper triangles, row-major in class order, block
    B divided by its exact scale scales[B], each in its own signed integer
    type; sizes and q are the class sizes and costs.  The parts are
    checksummed and written as they are, so the write holds no copy of
    them, only the one-byte columns of sizes over (m-1)! and of costs.
    Sizes over (m-1)! or costs that leave one byte raise CrossingsError."""
    unit = factorial(m - 1)
    # the remainders land in bools, so no int64 column is made beside sizes
    if (np.remainder(sizes, unit, out=np.empty(len(q), bool), casting="unsafe").any()
            or sizes.max() > 255 * unit or q.max() > 255):
        raise CrossingsError(f"m={m}: class sizes over (m-1)! or costs leave one byte")
    parts = [np.ascontiguousarray(p, p.dtype.newbyteorder("<")) for p in parts]
    head = (_COFA_HEADER.pack(b"COFA", _VERSION, m, len(dims), len(q)) + bytes(dims)
            + bytes(p.dtype.itemsize for p in parts) + np.asarray(scales, dtype="<i8").tobytes())
    units = np.floor_divide(sizes, unit, out=np.empty(len(q), "u1"), casting="unsafe")
    # version 2 kept its checksum in a sidecar, which goes with the file it checked
    with contextlib.suppress(FileNotFoundError):
        os.unlink(f"{path}.crc32")
    _publish(path, [head, *parts, units, q.astype("u1")])


def read_coeffs(
    path: Path, m: int
) -> tuple[tuple[int, ...], np.ndarray, np.ndarray, list[np.ndarray], np.ndarray]:
    """The class tables of a file written by write_coeffs: dims, the int64
    class sizes and costs, each block's narrow table and the int64 block
    scales, block B of a class being scales[B] times its row of the B-th
    table.  The tables are read-only views into the file's bytes, so the
    table is held once."""
    path = Path(path)
    if not path.exists():
        raise DataError(f"cache file missing: {path}")
    whole = path.read_bytes()
    payload = memoryview(whole)[: -_TRAILER.size]
    if len(payload) < _COFA_HEADER.size:
        raise DataError(f"{path}: truncated header")
    *got, nblocks, n = _COFA_HEADER.unpack_from(payload)
    for name, g, w in zip(("magic", "version", "m"), got, (b"COFA", _VERSION, m)):
        if g != w:
            raise DataError(f"{path}: bad {name} (got {g!r}, want {w!r})")
    if whole[len(payload) :] != _TRAILER.pack(zlib.crc32(payload)):
        raise DataError(f"checksum mismatch for {path}")
    off = _COFA_HEADER.size + 10 * nblocks
    dims = tuple(payload[_COFA_HEADER.size : _COFA_HEADER.size + nblocks])
    widths = tuple(payload[_COFA_HEADER.size + nblocks : _COFA_HEADER.size + 2 * nblocks])
    if unknown := set(widths) - set(_TABLE_TYPES):
        raise DataError(f"{path}: unknown table type of {min(unknown)} bytes")
    ts = [d * (d + 1) // 2 for d in dims]
    if len(payload) < off or len(payload) - off != n * (sum(t * w for t, w in zip(ts, widths)) + 2):
        raise DataError(f"{path}: body is not {nblocks} dims, types and scales, "
                        f"{nblocks} block tables and {n} sizes and costs")
    scales = np.frombuffer(payload, dtype="<i8", count=nblocks, offset=off - 8 * nblocks)
    if (scales < 1).any():
        raise DataError(f"{path}: block scales {scales.tolist()} are not all positive")
    tris = []
    for t, w in zip(ts, widths):
        tris.append(np.frombuffer(payload, _TABLE_TYPES[w], count=n * t, offset=off).reshape(n, t))
        off += n * t * w
    sizes, qs = (np.frombuffer(payload, "u1", count=n, offset=o).astype(np.int64) for o in (off, off + n))
    sizes *= factorial(m - 1)
    return dims, sizes, qs, tris, scales
