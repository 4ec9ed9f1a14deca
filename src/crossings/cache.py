"""Binary cache files for the coefficient tables, the expensive stage.

One format, COFA: little-endian, a header of 4-byte magic, format version,
cycle length, block count and record count, then one byte per block
dimension and one fixed-width record per swap class, in class order:

  coeffs_<m>_<kind>.bin  per-class coefficient blocks of one relaxation,
                         kind "single" (one block) or "full" (every block)

Every file carries a sidecar <name>.crc32 holding the ASCII hex CRC-32 of the
full binary payload; readers verify it before parsing and raise DataError on
any mismatch, truncation, or header disagreement.
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

_VERSION = 1


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

_COFA_HEADER = struct.Struct("<4sBBBQ")


def triangle_width(dims) -> int:
    """Entries of the upper triangles of blocks of the given dimensions."""
    return sum(d * (d + 1) // 2 for d in dims)


def record_dtype(width: int) -> np.dtype:
    """One class's record when its triangles hold width entries."""
    return np.dtype([("orbit", "<u8"), ("size", "<u8"), ("q", "<u2"), ("tri", "<i8", (width,))])


def write_coeffs(path: Path, m: int, dims: tuple[int, ...], rec: np.ndarray) -> None:
    """Publish rec, one record_dtype record per class in class order, as it
    stands: the checksum and the file write read the array in place.  Its
    tri field holds each class's symmetric blocks as their upper triangles,
    row-major, concatenated in block order; entries are exact integers.
    The header stores the block count and dims follows it as one byte per
    block, so readers can split the triangles."""
    head = _COFA_HEADER.pack(b"COFA", _VERSION, m, len(dims), len(rec)) + bytes(dims)
    _write_payload(path, [head, memoryview(rec).cast("B")])


def read_coeffs(path: Path, m: int) -> tuple[tuple[int, ...], np.ndarray]:
    """dims and the records, as written by write_coeffs: a read-only view
    into the payload, so the table is held once."""
    payload = _read_payload(path)
    if len(payload) < _COFA_HEADER.size:
        raise DataError(f"{path}: truncated header")
    magic, ver, got_m, nblocks, n = _COFA_HEADER.unpack_from(payload)
    _check_header(path, (magic, ver, got_m), (b"COFA", _VERSION, m))
    off = _COFA_HEADER.size + nblocks
    dims = tuple(payload[_COFA_HEADER.size : off])
    dtype = record_dtype(triangle_width(dims))
    if len(dims) != nblocks or len(payload) - off != n * dtype.itemsize:
        raise DataError(f"{path}: body is not {nblocks} dims and {n} whole records")
    return dims, np.frombuffer(payload, dtype=dtype, offset=off)
