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
    # a file shorter than its trailer, a payload cut inside its records or
    # its trailer, and one flipped byte of the trailer or of the payload
    p = cache.coeffs_path(tmp_path, 5, "single")
    _write_small_coeffs(p, 5)
    whole = p.read_bytes()
    assert len(whole) == 16 + 1 + 8 + 5 * 5 + 4
    # the trailer is the payload's little-endian CRC-32, so the CRC-32 of
    # any whole file is the same residue
    assert whole[-4:] == zlib.crc32(whole[:-4]).to_bytes(4, "little")
    assert zlib.crc32(whole) == 0x2144DF1C
    damaged = [whole[:size] for size in (0, 1, 3, 30, 44, 49, 50, 52, 53)]
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
    # scales or inside a record, each published with its own matching
    # trailer
    p = cache.coeffs_path(tmp_path, 5, "single")
    _write_small_coeffs(p, 5)
    whole = p.read_bytes()[:-4]
    for size in (0, 5, 15, 16, 20, 40, len(whole) - 1, len(whole) + 3):
        cache._publish(p, [(whole + b"\0" * 3)[:size]])
        with pytest.raises(DataError, match="truncated header|whole records"):
            cache.read_coeffs(p, 5)
    cache._publish(p, [whole])
    assert cache.read_coeffs(p, 5)[0] == (2,)


# 2**17 classes with blocks of dimension 4 and 3: 17 MB of 130-byte records
# of int64 triangles
BIG_DIMS = (4, 3)


def _big_tables():
    """The write_coeffs arguments after path, m=8 and BIG_DIMS: the block
    scales, the triangles of each block, the class sizes and the costs."""
    n = 2**17
    parts = [np.arange(n * t).reshape(n, t) - 7 for t in (10, 6)]
    return [1, 1], parts, np.arange(n) % 256 * factorial(7), np.zeros(n, dtype=np.uint16)


def test_coeffs_write_makes_no_copy_of_the_records(tmp_path):
    # the write fills one chunk of records at a time and checksums and
    # writes it in place: the traced peak holds that chunk, no record array
    # of the whole table, no bytes copy of it and no joined payload
    scales, parts, sizes, q = _big_tables()
    rec_bytes = len(q) * cache.record_dtype(16, np.int64).itemsize
    p = cache.coeffs_path(tmp_path, 8, "full")
    tracemalloc.start()
    try:
        cache.write_coeffs(p, 8, BIG_DIMS, scales, parts, sizes, q)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rec_bytes >= 4 * cache._WRITE_BYTES and peak < 1.05 * cache._WRITE_BYTES, (peak, rec_bytes)
    dims, sizes2, _, tri, _ = cache.read_coeffs(p, 8)
    assert dims == BIG_DIMS and (sizes2 == sizes).all()
    assert (tri == np.concatenate(parts, axis=1)).all()


def test_coeffs_read_makes_no_copy_of_the_records(tmp_path):
    # the triangles are a read-only view into the one payload read, so the
    # traced peak is the file itself and the int64 class sizes and costs,
    # and no caller can write into the table
    scales, parts, sizes, q = _big_tables()
    p = cache.coeffs_path(tmp_path, 8, "full")
    cache.write_coeffs(p, 8, BIG_DIMS, scales, parts, sizes, q)
    file_bytes = p.stat().st_size
    tracemalloc.start()
    try:
        dims, sizes2, q2, tri, scale = cache.read_coeffs(p, 8)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert file_bytes >= 8 * 2**20 and peak <= 1.01 * (file_bytes + sizes2.nbytes + q2.nbytes)
    assert dims == BIG_DIMS and (tri == np.concatenate(parts, axis=1)).all()
    assert (sizes2 == sizes).all() and (q2 == q).all() and (scale == 1).all()
    assert not tri.flags.writeable


def test_missing_file(tmp_path):
    with pytest.raises(DataError):
        cache.read_coeffs(cache.coeffs_path(tmp_path, 7, "single"), 7)


def test_coeffs_roundtrip(tmp_path):
    # every triangle type, at its extremes, beside one-byte sizes and costs;
    # a block of a narrower type is widened to the common type
    m, dims = 6, (2, 1)
    units = np.arange(1, 6) * 51
    qs = np.arange(5) + 251
    for tri_type in (np.int8, np.int16, np.int32, np.int64):
        tri = (np.arange(5 * 4).reshape(5, 4) - 7).astype(tri_type)
        tri[0, 0] = np.iinfo(tri_type).min
        tri[1, 2] = np.iinfo(tri_type).max
        p = cache.coeffs_path(tmp_path, m, "full")
        cache.write_coeffs(p, m, dims, [5, 2**62], [tri[:, :3], tri[:, 3:].astype(np.int8)],
                           units * factorial(m - 1), qs)
        assert p.stat().st_size == 16 + 2 + 16 + 5 * (4 * np.dtype(tri_type).itemsize + 2) + 4
        d2, sizes, q2, tri2, scale = cache.read_coeffs(p, m)
        assert d2 == dims and tri2.dtype == tri_type
        assert sizes.dtype == q2.dtype == scale.dtype == np.int64
        assert scale.tolist() == [5, 5, 5, 2**62]
        assert (sizes == units * factorial(m - 1)).all() and (q2 == qs).all()
        assert (tri2 == tri).all(), tri_type


def _small_payload(type_byte=1, scales=(3,)):
    """A COFA payload of m=5 with one block of dimension 2 and five int8
    records, its header naming type_byte and the given scales written."""
    head = struct.pack("<4sBBBQB", b"COFA", cache._VERSION, 5, 1, 5, type_byte)
    return head + bytes([2]) + np.array(scales, dtype="<i8").tobytes() + bytes(5 * 5)


@pytest.mark.parametrize("payload,message", [
    pytest.param(_small_payload(), None, id="int8"),
    pytest.param(_small_payload(type_byte=3), "unknown triangle type", id="3-byte-type"),
    pytest.param(_small_payload(type_byte=16), "unknown triangle type", id="16-byte-type"),
    pytest.param(_small_payload(scales=(0,)), "not all positive", id="zero-scale"),
    pytest.param(_small_payload(scales=(-3,)), "not all positive", id="negative-scale"),
    pytest.param(_small_payload(scales=()), "whole records", id="no-scale"),
    pytest.param(_small_payload(scales=(3, 3)), "whole records", id="two-scales"),
])
def test_coeffs_header_refuses_bad_types_and_scales(tmp_path, payload, message):
    p = cache.coeffs_path(tmp_path, 5, "single")
    cache._publish(p, [payload])
    if message is None:
        dims, _, _, tri, scale = cache.read_coeffs(p, 5)
        assert dims == (2,) and scale.tolist() == [3, 3, 3] and tri.dtype == np.int8
    else:
        with pytest.raises(DataError, match=message):
            cache.read_coeffs(p, 5)


def test_full_m7_table_roundtrips_as_int16(tmp_path):
    # full m=7 has entries up to 140 times its block scales, so its records
    # hold int16 triangles
    from crossings.relaxations import coeff_tables

    dims, _, _, tri, _ = coeff_tables(7, "full", tmp_path)
    assert tri.dtype == np.int16 and np.abs(tri.astype(np.int64)).max() == 140
    assert cache.coeffs_path(tmp_path, 7, "full").read_bytes()[15] == 2


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
    for a, b in zip(got[1:], want[1:]):
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


def _write_version_2(path, fresh):
    """The version-2 file of the table of the version-3 file fresh: the
    same header and records, without the trailer."""
    payload = bytearray(fresh.read_bytes()[:-4])
    payload[4] = 2
    _write_with_sidecar(path, bytes(payload))


@pytest.mark.parametrize("m,kind", [(5, "single"), (5, "full"), (6, "full")])
def test_stale_version_is_rebuilt_not_misread(tmp_path, m, kind):
    # a file of version 1 or 2 with its checksum sidecar is refused by the
    # reader and rebuilt, byte for byte the fresh file, with the sidecar gone
    from crossings.relaxations import coeff_tables, widen

    dims, sizes, qs, tri, scale = coeff_tables(m, kind, tmp_path / "fresh")
    fresh = cache.coeffs_path(tmp_path / "fresh", m, kind)
    for version in (1, 2):
        path = cache.coeffs_path(tmp_path / f"v{version}", m, kind)
        path.parent.mkdir()
        if version == 1:
            _write_version_1(path, m, dims, sizes, qs, widen(tri, scale))
        else:
            _write_version_2(path, fresh)
        assert cache.is_stale(path) and Path(f"{path}.crc32").exists()
        with pytest.raises(DataError, match="bad version"):
            cache.read_coeffs(path, m)
        got = coeff_tables(m, kind, path.parent)
        assert not cache.is_stale(path) and path.read_bytes() == fresh.read_bytes()
        assert [p.name for p in path.parent.iterdir()] == [path.name]
        assert got[0] == dims and got[3].dtype == tri.dtype
        for a, b in zip(got[1:], (sizes, qs, tri, scale)):
            assert (a == b).all()


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
        with pytest.raises(DataError, match="truncated header|whole records"):
            coeff_tables(5, "single", tmp_path)
    coeff_tables(6, "single", tmp_path)
    path.write_bytes(cache.coeffs_path(tmp_path, 6, "single").read_bytes())
    with pytest.raises(DataError, match="bad m"):
        coeff_tables(5, "single", tmp_path)


# CRC-32 of the table payloads, each stored as its file's trailer; the
# tables must not change by a byte.  Taken from the first version-3 files,
# whose header and records are those of the version-2 files: their widened
# tables hash to HOOK_TABLE_SHA256 (single) and BLOCK_TABLES_SHA256 (full)
# in tests/test_coeffs.py, the digests the version-1 pins stood for.
BETA_CRC32 = {4: 0x74E2428E, 5: 0x5BFEAD48, 6: 0x2C729AAA, 7: 0x5B04CB3A, 8: 0x19AC19E5}
ALPHA_CRC32 = {4: 0x8832D5FC, 5: 0xF8E25D4A, 6: 0x09FDB35F, 7: 0x823B4D5E}


def test_table_bytes_are_pinned(tmp_path):
    from crossings.relaxations import coeff_tables

    for kind, pins in (("single", BETA_CRC32), ("full", ALPHA_CRC32)):
        for m, want in pins.items():
            coeff_tables(m, kind, tmp_path)
            trailer = cache.coeffs_path(tmp_path, m, kind).read_bytes()[-4:]
            assert int.from_bytes(trailer, "little") == want, m
