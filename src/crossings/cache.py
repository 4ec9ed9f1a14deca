"""Binary cache files for the coefficient tables, the expensive stage.

One format, COFA version 2: little-endian, a header of 4-byte magic, format
version, cycle length, block count, record count and one byte naming the
record's triangle type (its width in bytes: int8, int16, int32 or int64),
then one byte per block dimension, one int64 scale g_B per block, and one
fixed-width record per swap class, in class order:

  coeffs_<m>_<kind>.bin  per-class coefficient blocks of one relaxation,
                         kind "single" (one block) or "full" (every block)

A record holds tri, the upper triangles of the class's blocks as integers
t of the narrowest signed type that holds them all, the class's block B
being g_B t exactly; then the class size over (m-1)!, which divides it, as
one byte; then the class cost q as one byte.

Every file carries a sidecar <name>.crc32 holding the ASCII hex CRC-32 of the
full binary payload; readers verify it before parsing and raise DataError on
any mismatch, truncation, or header disagreement.  A file of an older
version is stale (is_stale): a build replaces it rather than reading it.
"""

from __future__ import annotations

import contextlib
import os
import struct
import uuid
import zlib
from pathlib import Path

import numpy as np

from .errors import DataError

_VERSION = 2


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


def _crc_path(path: Path) -> Path:
    return path.with_name(path.name + ".crc32")


def _publish(target: Path, parts) -> None:
    """Replace target atomically by the buffers parts, written in order
    through a temp file of this writer's own.

    The temp file is created exclusively under a random name rather than by
    mkstemp, so it gets the mode the umask gives, as the tables always had.
    """
    tmp = target.with_name(f"{target.name}.{uuid.uuid4().hex}.tmp")
    fh = open(tmp, "xb")
    try:
        with fh:
            for part in parts:
                fh.write(part)
        os.replace(tmp, target)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp)
        raise


def _write_payload(path: Path, parts) -> None:
    """Write the sidecar, then the payload: the buffers parts in order,
    never joined, so no copy of the payload is made.

    Builders test the payload's existence, so publishing it last makes it
    the commit point: a crash before it leaves no table and the next run
    rebuilds; a crash after it leaves a matching pair.  Writers of one
    table write the same bytes, so any interleaving ends consistent.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    crc = 0
    for part in parts:
        crc = zlib.crc32(part, crc)
    _publish(_crc_path(path), [f"{crc & 0xFFFFFFFF:08x}\n".encode()])
    _publish(path, parts)


def _read_payload(path: Path) -> bytes:
    path = Path(path)
    if not path.exists():
        raise DataError(f"cache file missing: {path}")
    payload = path.read_bytes()
    crc_file = _crc_path(path)
    if not crc_file.exists():
        raise DataError(f"checksum sidecar missing: {crc_file}")
    try:
        stored = int(crc_file.read_text().strip(), 16)
    except ValueError as exc:
        raise DataError(f"unreadable checksum sidecar: {crc_file}") from exc
    if stored != (zlib.crc32(payload) & 0xFFFFFFFF):
        raise DataError(f"checksum mismatch for {path}")
    return payload


def _check_header(path: Path, got: tuple, want: tuple) -> None:
    names = ("magic", "version", "m")
    for name, g, w in zip(names, got, want):
        if g != w:
            raise DataError(f"{path}: bad {name} (got {g!r}, want {w!r})")


# -- COFA ------------------------------------------------------------------

_COFA_HEADER = struct.Struct("<4sBBBQB")
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


def write_coeffs(path: Path, m: int, dims: tuple[int, ...], scales, rec: np.ndarray) -> None:
    """Publish rec, one record_dtype record per class in class order, as it
    stands: the checksum and the file write read the array in place.  Its
    tri field holds each class's symmetric blocks as their upper triangles,
    row-major, concatenated in block order, block B divided by its exact
    scale scales[B].  The header stores the block count and the triangle
    type; dims and the scales follow it, so readers can split and widen
    the triangles."""
    tri_type = rec.dtype["tri"].base
    head = (_COFA_HEADER.pack(b"COFA", _VERSION, m, len(dims), len(rec), tri_type.itemsize)
            + bytes(dims) + np.asarray(scales, dtype="<i8").tobytes())
    _write_payload(path, [head, memoryview(rec).cast("B")])


def read_coeffs(path: Path, m: int) -> tuple[tuple[int, ...], np.ndarray, np.ndarray]:
    """dims, the int64 block scales and the records, as written by
    write_coeffs: the records are a read-only view into the payload, so the
    table is held once."""
    payload = _read_payload(path)
    if len(payload) < _COFA_HEADER.size:
        raise DataError(f"{path}: truncated header")
    magic, ver, got_m, nblocks, n, entry = _COFA_HEADER.unpack_from(payload)
    _check_header(path, (magic, ver, got_m), (b"COFA", _VERSION, m))
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
    return dims, scales, np.frombuffer(payload, dtype=dtype, offset=off)
