import os
import struct
import tracemalloc
import zlib
from math import factorial
from pathlib import Path

import numpy as np
import pytest

from crossings import cache
from crossings.errors import DataError


def arrays(dims, sizes, qs, tris, scales):
    """The arrays of a coeff_tables result, each block's table on its own."""
    return [sizes, qs, *tris, scales]


def _write_small_coeffs(path, m):
    # five classes of one block of dimension 2, int8 triangles
    cache.write_coeffs(path, m, (2,), [3], [np.arange(15, dtype=np.int8).reshape(5, 3)],
                       np.arange(1, 6) * factorial(m - 1), np.arange(5))


def test_coeffs_rejects_wrong_m(tmp_path):
    p = cache.coeffs_path(tmp_path, 5, "single")
    _write_small_coeffs(p, 5)
    with pytest.raises(DataError):
        cache.read_coeffs(p, 6)


def test_coeffs_detects_corruption(tmp_path):
    # a file shorter than its trailer, a payload cut inside its table, its
    # sizes, its costs or its trailer, and one flipped byte of the trailer
    # or of the payload: the m, the type width, a scale, the table, a cost
    p = cache.coeffs_path(tmp_path, 5, "single")
    _write_small_coeffs(p, 5)
    whole = p.read_bytes()
    assert len(whole) == 15 + 1 + 1 + 8 + 5 * 3 + 5 + 5 + 4
    # the trailer is the payload's little-endian CRC-32, so the CRC-32 of
    # any whole file is the same residue
    assert whole[-4:] == zlib.crc32(whole[:-4]).to_bytes(4, "little")
    assert zlib.crc32(whole) == 0x2144DF1C
    damaged = [whole[:size] for size in (0, 1, 3, 30, 42, 47, 50, 52, 53)]
    for pos in (5, 16, 20, 27, 49, 50, 53):
        damaged.append(whole[:pos] + bytes([whole[pos] ^ 0x10]) + whole[pos + 1 :])
    for raw in damaged:
        p.write_bytes(raw)
        with pytest.raises(DataError, match="truncated header|bad|checksum mismatch"):
            cache.read_coeffs(p, 5)
    p.write_bytes(whole)
    assert cache.read_coeffs(p, 5)[0] == (2,)


def test_coeffs_refuses_short_payloads_with_their_own_trailers(tmp_path):
    # a payload cut inside the header, at the block dims, inside the block
    # scales, the table or the sizes, or grown past the costs, each
    # published with its own matching trailer
    p = cache.coeffs_path(tmp_path, 5, "single")
    _write_small_coeffs(p, 5)
    whole = p.read_bytes()[:-4]
    for size in (0, 5, 15, 16, 20, 40, len(whole) - 1, len(whole) + 3):
        cache._publish(p, [(whole + b"\0" * 3)[:size]])
        with pytest.raises(DataError, match="truncated header|body is not"):
            cache.read_coeffs(p, 5)
    cache._publish(p, [whole])
    assert cache.read_coeffs(p, 5)[0] == (2,)


# 2**17 classes with blocks of dimension 4 and 3: 16 MB of int64 triangles
BIG_DIMS = (4, 3)


def _big_tables():
    """The write_coeffs arguments after path, m=8 and BIG_DIMS: the block
    scales, the triangles of each block, the class sizes and the costs."""
    n = 2**17
    parts = [np.arange(n * t).reshape(n, t) - 7 for t in (10, 6)]
    return [1, 1], parts, np.arange(n) % 256 * factorial(7), np.zeros(n, dtype=np.uint16)


def test_coeffs_write_makes_no_copy_of_the_records(tmp_path):
    # the block tables are checksummed and written in place: the traced
    # peak holds the one-byte size and cost columns, 2C bytes, and no copy
    # of a table, no bytes copy of it and no joined payload
    scales, parts, sizes, q = _big_tables()
    p = cache.coeffs_path(tmp_path, 8, "full")
    tracemalloc.start()
    try:
        cache.write_coeffs(p, 8, BIG_DIMS, scales, parts, sizes, q)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    bound = 2 * len(q) + 2**16
    assert sum(part.nbytes for part in parts) >= 40 * bound and peak < bound, (peak, bound)
    dims, sizes2, _, tris, _ = cache.read_coeffs(p, 8)
    assert dims == BIG_DIMS and (sizes2 == sizes).all()
    assert all((a == b).all() for a, b in zip(tris, parts, strict=True))


def test_coeffs_read_makes_no_copy_of_the_records(tmp_path):
    # the block tables are read-only views into the one payload read, so
    # the traced peak is the file itself and the int64 class sizes and
    # costs, and no caller can write into a table
    scales, parts, sizes, q = _big_tables()
    p = cache.coeffs_path(tmp_path, 8, "full")
    cache.write_coeffs(p, 8, BIG_DIMS, scales, parts, sizes, q)
    file_bytes = p.stat().st_size
    tracemalloc.start()
    try:
        dims, sizes2, q2, tris, scale = cache.read_coeffs(p, 8)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert file_bytes >= 8 * 2**20 and peak <= 1.01 * (file_bytes + sizes2.nbytes + q2.nbytes)
    assert dims == BIG_DIMS and all((a == b).all() for a, b in zip(tris, parts, strict=True))
    assert (sizes2 == sizes).all() and (q2 == q).all() and (scale == 1).all()
    assert not any(tri.flags.writeable for tri in tris)


def test_missing_file(tmp_path):
    with pytest.raises(DataError):
        cache.read_coeffs(cache.coeffs_path(tmp_path, 7, "single"), 7)


def test_coeffs_roundtrip(tmp_path):
    # every table type, at its extremes, beside an int8 block and one-byte
    # sizes and costs; each block keeps its own type
    m, dims = 6, (2, 1)
    units = np.arange(1, 6) * 51
    qs = np.arange(5) + 251
    for tri_type in (np.int8, np.int16, np.int32, np.int64):
        tri = (np.arange(5 * 3).reshape(5, 3) - 7).astype(tri_type)
        tri[0, 0] = np.iinfo(tri_type).min
        tri[1, 2] = np.iinfo(tri_type).max
        p = cache.coeffs_path(tmp_path, m, "full")
        cache.write_coeffs(p, m, dims, [5, 2**62], [tri, np.full((5, 1), -128, dtype=np.int8)],
                           units * factorial(m - 1), qs)
        assert p.stat().st_size == 15 + 2 * 10 + 5 * (3 * np.dtype(tri_type).itemsize + 1 + 2) + 4
        d2, sizes, q2, (tri2, hook), scale = cache.read_coeffs(p, m)
        assert d2 == dims and tri2.dtype == tri_type and hook.dtype == np.int8
        assert sizes.dtype == q2.dtype == scale.dtype == np.int64
        assert scale.tolist() == [5, 2**62]
        assert (sizes == units * factorial(m - 1)).all() and (q2 == qs).all()
        assert (tri2 == tri).all() and (hook == -128).all(), tri_type


def _small_payload(type_byte=1, scales=(3,)):
    """A COFA payload of m=5 with one block of dimension 2 and five classes,
    its header naming type_byte and the given scales written."""
    head = struct.pack("<4sBBBQ", b"COFA", cache._VERSION, 5, 1, 5)
    return head + bytes([2, type_byte]) + np.array(scales, dtype="<i8").tobytes() + bytes(5 * 3 + 5 + 5)


@pytest.mark.parametrize("payload,message", [
    pytest.param(_small_payload(), None, id="int8"),
    pytest.param(_small_payload(type_byte=3), "unknown table type", id="3-byte-type"),
    pytest.param(_small_payload(type_byte=16), "unknown table type", id="16-byte-type"),
    pytest.param(_small_payload(scales=(0,)), "not all positive", id="zero-scale"),
    pytest.param(_small_payload(scales=(-3,)), "not all positive", id="negative-scale"),
    pytest.param(_small_payload(scales=()), "body is not", id="no-scale"),
    pytest.param(_small_payload(scales=(3, 3)), "body is not", id="two-scales"),
])
def test_coeffs_header_refuses_bad_types_and_scales(tmp_path, payload, message):
    p = cache.coeffs_path(tmp_path, 5, "single")
    cache._publish(p, [payload])
    if message is None:
        dims, _, _, (tri,), scale = cache.read_coeffs(p, 5)
        assert dims == (2,) and scale.tolist() == [3] and tri.dtype == np.int8 and tri.shape == (5, 3)
    else:
        with pytest.raises(DataError, match=message):
            cache.read_coeffs(p, 5)


def test_full_m7_table_roundtrips_as_int16(tmp_path):
    # full m=7 has entries up to 140 times its block scale in one block,
    # whose table is int16; every other block's table is int8
    from crossings.relaxations import coeff_tables

    _, _, _, tris, _ = coeff_tables(7, "full", tmp_path)
    (wide,) = [tri for tri in tris if tri.dtype == np.int16]
    assert np.abs(wide.astype(np.int64)).max() == 140
    assert {tri.dtype for tri in tris} == {np.dtype(np.int8), np.dtype(np.int16)}


def test_full_m7_blocks_keep_their_own_types(tmp_path):
    # the file names 17 int8 tables and 1 int16 table, 3,783 B in all,
    # where version 3 widened every block to int16 in 6,566 B; widened by
    # their scales the blocks are the frozen int64 tables
    from crossings.relaxations import coeff_tables, square_triangles, widen
    from test_coeffs import BLOCK_TABLES_SHA256, table_sha256

    dims, sizes, qs, tris, scales = coeff_tables(7, "full", tmp_path)
    path = cache.coeffs_path(tmp_path, 7, "full")
    widths = path.read_bytes()[15 + len(dims) : 15 + 2 * len(dims)]
    assert len(dims) == 18 and sorted(widths) == [1] * 17 + [2]
    assert list(widths) == [tri.dtype.itemsize for tri in tris]
    assert path.stat().st_size == 3783
    _write_version_3(tmp_path / "v3.bin", 7, dims, sizes, qs, tris, scales)
    assert (tmp_path / "v3.bin").stat().st_size == 6566
    squares = [square_triangles(widen(tri, g), d) for tri, g, d in zip(tris, scales, dims)]
    assert table_sha256(squares) == BLOCK_TABLES_SHA256[7]


def test_cache_dir_env(tmp_path, monkeypatch):
    monkeypatch.setenv("CROSSING_CACHE_DIR", str(tmp_path / "sub"))
    d = cache.resolve_cache_dir(None)
    assert d == tmp_path / "sub"
    assert d.is_dir()
    explicit = cache.resolve_cache_dir(tmp_path / "other")
    assert explicit == tmp_path / "other"


def test_failed_payload_publish_leaves_a_rebuildable_cache(tmp_path, monkeypatch):
    from crossings.relaxations import coeff_tables

    payload = cache.coeffs_path(tmp_path, 5, "single")
    replace = os.replace
    failures = []

    def replace_failing_once(src, dst):
        if Path(dst) == payload and not failures:
            failures.append(dst)
            raise OSError("simulated crash before the payload is published")
        replace(src, dst)

    monkeypatch.setattr(os, "replace", replace_failing_once)
    with pytest.raises(OSError):
        coeff_tables(5, "single", tmp_path)
    assert failures and not payload.exists()
    assert list(tmp_path.iterdir()) == []

    got = coeff_tables(5, "single", tmp_path)
    assert [p.name for p in tmp_path.iterdir()] == ["coeffs_5_single.bin"]
    want = coeff_tables(5, "single", tmp_path / "fresh")
    assert got[0] == want[0]
    for a, b in zip(arrays(*got), arrays(*want), strict=True):
        assert a.dtype == b.dtype and (a == b).all()


def _write_with_sidecar(path, payload):
    """Write payload as versions 1 and 2 wrote a COFA file: the bytes alone,
    beside a sidecar <name>.crc32 holding their CRC-32 in ASCII hex."""
    path.write_bytes(payload)
    Path(f"{path}.crc32").write_text(f"{zlib.crc32(payload):08x}\n")


def _write_version_1(path, m, dims, sizes, qs, tri):
    """A valid COFA version-1 file: the header without the triangle type or
    scales, records of orbit, size, q and int64 tri."""
    rec = np.zeros(len(qs), dtype=[("orbit", "<u8"), ("size", "<u8"), ("q", "<u2"),
                                   ("tri", "<i8", (tri.shape[1],))])
    rec["orbit"], rec["size"], rec["q"], rec["tri"] = np.arange(len(qs)), sizes, qs, tri
    head = struct.pack("<4sBBBQ", b"COFA", 1, m, len(dims), len(qs)) + bytes(dims)
    _write_with_sidecar(path, head + rec.tobytes())


def _version_3_payload(m, dims, sizes, qs, tris, scales):
    """The payload of a COFA version-3 file: a header naming the widest
    table type, the dims and the scales, then one record per class of every
    block's triangles in that type, the class size over (m-1)! and the cost."""
    wide = np.result_type(*tris).newbyteorder("<")
    rec = np.zeros(len(qs), dtype=[("tri", wide, (sum(t.shape[1] for t in tris),)),
                                   ("size", "u1"), ("q", "u1")])
    rec["tri"], rec["size"], rec["q"] = np.hstack(tris), sizes // factorial(m - 1), qs
    head = struct.pack("<4sBBBQB", b"COFA", 3, m, len(dims), len(qs), wide.itemsize)
    return head + bytes(dims) + np.asarray(scales, dtype="<i8").tobytes() + rec.tobytes()


def _write_version_3(path, m, dims, sizes, qs, tris, scales):
    """A valid COFA version-3 file: its payload and the CRC-32 trailer."""
    payload = _version_3_payload(m, dims, sizes, qs, tris, scales)
    path.write_bytes(payload + struct.pack("<I", zlib.crc32(payload)))


def _write_version_2(path, m, dims, sizes, qs, tris, scales):
    """A valid COFA version-2 file: the version-3 payload under version 2,
    without the trailer."""
    payload = bytearray(_version_3_payload(m, dims, sizes, qs, tris, scales))
    payload[4] = 2
    _write_with_sidecar(path, bytes(payload))


@pytest.mark.parametrize("m,kind", [(5, "single"), (5, "full"), (6, "full")])
def test_stale_version_is_rebuilt_not_misread(tmp_path, m, kind):
    # a file of version 1 or 2 with its checksum sidecar, or of version 3
    # with its trailer, is refused by the reader and rebuilt, byte for byte
    # the fresh file, with the sidecar gone
    from crossings.relaxations import coeff_tables, widen

    want = coeff_tables(m, kind, tmp_path / "fresh")
    dims, sizes, qs, tris, scales = want
    fresh = cache.coeffs_path(tmp_path / "fresh", m, kind)
    for version in (1, 2, 3):
        path = cache.coeffs_path(tmp_path / f"v{version}", m, kind)
        path.parent.mkdir()
        if version == 1:
            wide = np.hstack([widen(tri, g) for tri, g in zip(tris, scales)])
            _write_version_1(path, m, dims, sizes, qs, wide)
        else:
            (_write_version_2 if version == 2 else _write_version_3)(path, m, *want)
        assert cache.is_stale(path) and Path(f"{path}.crc32").exists() == (version < 3)
        with pytest.raises(DataError, match="bad version"):
            cache.read_coeffs(path, m)
        got = coeff_tables(m, kind, path.parent)
        assert not cache.is_stale(path) and path.read_bytes() == fresh.read_bytes()
        assert [p.name for p in path.parent.iterdir()] == [path.name]
        assert got[0] == dims
        for a, b in zip(arrays(*got), arrays(*want), strict=True):
            assert a.dtype == b.dtype and (a == b).all()


def test_current_version_faults_still_raise(tmp_path):
    # a file of the current version is read, never rebuilt: a bad checksum,
    # a cut payload or another level's table raises DataError
    from crossings.relaxations import coeff_tables

    path = cache.coeffs_path(tmp_path, 5, "single")
    coeff_tables(5, "single", tmp_path)
    whole = path.read_bytes()
    path.write_bytes(whole[:-1] + bytes([whole[-1] ^ 1]))
    with pytest.raises(DataError, match="checksum"):
        coeff_tables(5, "single", tmp_path)
    for size in (3, 20):
        cache._publish(path, [whole[:size]])
        with pytest.raises(DataError, match="truncated header|body is not"):
            coeff_tables(5, "single", tmp_path)
    coeff_tables(6, "single", tmp_path)
    path.write_bytes(cache.coeffs_path(tmp_path, 6, "single").read_bytes())
    with pytest.raises(DataError, match="bad m"):
        coeff_tables(5, "single", tmp_path)


# CRC-32 of the table payloads, each stored as its file's trailer; the
# tables must not change by a byte.  Taken from the first version-4 files,
# whose tables written by _write_version_3 are byte for byte the last
# version-3 files: their widened tables hash to HOOK_TABLE_SHA256 (single)
# and BLOCK_TABLES_SHA256 (full) in tests/test_coeffs.py, the digests the
# version-1 pins stood for.
BETA_CRC32 = {4: 0x7E838317, 5: 0xF54A657B, 6: 0x3CF2B5FA, 7: 0x8E4F55E6, 8: 0x00A620C5}
ALPHA_CRC32 = {4: 0xE4F88EDF, 5: 0x230803C3, 6: 0x8A34011C, 7: 0xC2CD5823}


def test_table_bytes_are_pinned(tmp_path):
    from crossings.relaxations import coeff_tables

    for kind, pins in (("single", BETA_CRC32), ("full", ALPHA_CRC32)):
        for m, want in pins.items():
            coeff_tables(m, kind, tmp_path)
            trailer = cache.coeffs_path(tmp_path, m, kind).read_bytes()[-4:]
            assert int.from_bytes(trailer, "little") == want, m
