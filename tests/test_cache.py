import os
import struct
import tracemalloc
import zlib
from pathlib import Path

import numpy as np
import pytest

from crossings import cache
from crossings.errors import DataError


def records(dims, size, q, tri):
    """COFA records holding the given fields, one per class, the triangles
    of the type of tri."""
    rec = np.zeros(len(size), dtype=cache.record_dtype(cache.triangle_width(dims), tri.dtype))
    rec["size"], rec["q"], rec["tri"] = size, q, tri
    return rec


def _write_small_coeffs(path, m):
    d = 2
    t = d * (d + 1) // 2
    cache.write_coeffs(path, m, (d,), [3], records(
        (d,), np.arange(1, 6), np.arange(5), np.arange(5 * t, dtype=np.int8).reshape(5, t)))


def test_coeffs_rejects_wrong_m(tmp_path):
    p = cache.coeffs_path(tmp_path, 5, "single")
    _write_small_coeffs(p, 5)
    with pytest.raises(DataError):
        cache.read_coeffs(p, 6)


def test_coeffs_detects_corruption(tmp_path):
    p = cache.coeffs_path(tmp_path, 5, "single")
    _write_small_coeffs(p, 5)
    raw = bytearray(p.read_bytes())
    raw[20] ^= 0xFF
    p.write_bytes(bytes(raw))
    with pytest.raises(DataError):
        cache.read_coeffs(p, 5)


def test_coeffs_refuses_short_payloads_with_matching_sidecars(tmp_path):
    # a payload cut inside the header, at the block dims, inside the block
    # scales or inside a record, each published with its own matching
    # checksum
    p = cache.coeffs_path(tmp_path, 5, "single")
    _write_small_coeffs(p, 5)
    whole = p.read_bytes()
    for size in (0, 5, 15, 16, 20, 40, len(whole) - 1, len(whole) + 3):
        cache._write_payload(p, [(whole + b"\0" * 3)[:size]])
        with pytest.raises(DataError, match="truncated header|whole records"):
            cache.read_coeffs(p, 5)
    cache._write_payload(p, [whole])
    assert cache.read_coeffs(p, 5)[0] == (2,)


# 2**17 classes with blocks of dimension 4 and 3: 17 MB of 130-byte records
# of int64 triangles
BIG_DIMS = (4, 3)


def _big_records():
    n, t = 2**17, cache.triangle_width(BIG_DIMS)
    tri = np.arange(n * t).reshape(n, t) - 7
    return records(BIG_DIMS, np.arange(n) % 256, 0, tri)


def test_coeffs_write_makes_no_copy_of_the_records(tmp_path):
    # the records are written and checksummed in place: the traced peak
    # holds no bytes copy of them and no joined payload
    rec = _big_records()
    p = cache.coeffs_path(tmp_path, 8, "full")
    tracemalloc.start()
    try:
        cache.write_coeffs(p, 8, BIG_DIMS, [1, 1], rec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rec.nbytes >= 8 * 2**20 and peak < 0.1 * rec.nbytes, (peak, rec.nbytes)
    d2, _, rec2 = cache.read_coeffs(p, 8)
    assert d2 == BIG_DIMS and rec2.tobytes() == rec.tobytes()


def test_coeffs_read_makes_no_copy_of_the_records(tmp_path):
    # the records are a read-only view into the one payload read, so the
    # traced peak is the file itself and no caller can write into them
    rec = _big_records()
    p = cache.coeffs_path(tmp_path, 8, "full")
    cache.write_coeffs(p, 8, BIG_DIMS, [1, 1], rec)
    file_bytes = p.stat().st_size
    tracemalloc.start()
    try:
        d2, _, rec2 = cache.read_coeffs(p, 8)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert file_bytes >= 8 * 2**20 and peak <= 1.1 * file_bytes, (peak, file_bytes)
    assert d2 == BIG_DIMS and rec2.tobytes() == rec.tobytes()
    assert not any(rec2[name].flags.writeable for name in rec2.dtype.names)


def test_coeffs_missing_sidecar(tmp_path):
    p = cache.coeffs_path(tmp_path, 5, "single")
    _write_small_coeffs(p, 5)
    (tmp_path / "coeffs_5_single.bin.crc32").unlink()
    with pytest.raises(DataError):
        cache.read_coeffs(p, 5)


def test_missing_file(tmp_path):
    with pytest.raises(DataError):
        cache.read_coeffs(cache.coeffs_path(tmp_path, 7, "single"), 7)


def test_coeffs_roundtrip(tmp_path):
    # every triangle type, at its extremes, beside one-byte sizes and costs
    m, dims = 6, (2, 1)
    t = cache.triangle_width(dims)
    sizes = np.arange(1, 6, dtype=np.uint8) * 50
    qs = np.arange(5, dtype=np.uint8) + 250
    for tri_type in (np.int8, np.int16, np.int32, np.int64):
        tri = (np.arange(5 * t).reshape(5, t) - 7).astype(tri_type)
        tri[0, 0] = np.iinfo(tri_type).min
        tri[1, 3] = np.iinfo(tri_type).max
        p = cache.coeffs_path(tmp_path, m, "full")
        cache.write_coeffs(p, m, dims, [5, 2**62], records(dims, sizes, qs, tri))
        d2, scales, rec = cache.read_coeffs(p, m)
        assert d2 == dims and scales.dtype == np.int64 and scales.tolist() == [5, 2**62]
        assert rec.dtype.names == ("tri", "size", "q") and rec.dtype["tri"].base == tri_type
        assert rec.dtype.itemsize == t * np.dtype(tri_type).itemsize + 2
        assert (rec["size"] == sizes).all() and (rec["q"] == qs).all()
        assert (rec["tri"] == tri).all(), tri_type


def _small_payload(type_byte=1, scales=(3,)):
    """A COFA payload of m=5 with one block of dimension 2 and five int8
    records, its header naming type_byte and the given scales written."""
    head = struct.pack("<4sBBBQB", b"COFA", cache._VERSION, 5, 1, 5, type_byte)
    return head + bytes([2]) + np.array(scales, dtype="<i8").tobytes() + bytes(5 * 5)


@pytest.mark.parametrize("payload,message", [
    (_small_payload(), None),
    (_small_payload(type_byte=3), "unknown triangle type"),
    (_small_payload(type_byte=16), "unknown triangle type"),
    (_small_payload(scales=(0,)), "not all positive"),
    (_small_payload(scales=(-3,)), "not all positive"),
    (_small_payload(scales=()), "whole records"),
    (_small_payload(scales=(3, 3)), "whole records"),
])
def test_coeffs_header_refuses_bad_types_and_scales(tmp_path, payload, message):
    p = cache.coeffs_path(tmp_path, 5, "single")
    cache._write_payload(p, [payload])
    if message is None:
        dims, scales, rec = cache.read_coeffs(p, 5)
        assert dims == (2,) and scales.tolist() == [3] and rec.dtype["tri"].base == np.int8
    else:
        with pytest.raises(DataError, match=message):
            cache.read_coeffs(p, 5)


def test_full_m7_table_roundtrips_as_int16(tmp_path):
    # full m=7 has entries up to 140 times its block scales, so its records
    # hold int16 triangles; the file reads back to the records built
    from crossings.relaxations import coeff_tables

    built = coeff_tables(7, "full", tmp_path)
    dims, scales, rec = cache.read_coeffs(cache.coeffs_path(tmp_path, 7, "full"), 7)
    assert rec.dtype["tri"].base == np.int16 and built[3].dtype == np.int16
    assert np.abs(rec["tri"].astype(np.int64)).max() == 140
    assert dims == built[0] and (rec["tri"] == built[3]).all()
    assert (np.repeat(scales, [d * (d + 1) // 2 for d in dims]) == built[4]).all()


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
    assert sorted(p.name for p in tmp_path.iterdir()) == ["coeffs_5_single.bin.crc32"]

    got = coeff_tables(5, "single", tmp_path)
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "coeffs_5_single.bin", "coeffs_5_single.bin.crc32"]
    want = coeff_tables(5, "single", tmp_path / "fresh")
    assert got[0] == want[0]
    for a, b in zip(got[1:], want[1:]):
        assert (a == b).all()
    assert cache.read_coeffs(payload, 5)[2]["tri"].tolist() == want[3].tolist()


def _write_version_1(path, m, dims, sizes, qs, tri):
    """A valid COFA version-1 file and its sidecar: the header without the
    triangle type or scales, records of orbit, size, q and int64 tri."""
    rec = np.zeros(len(qs), dtype=[("orbit", "<u8"), ("size", "<u8"), ("q", "<u2"),
                                   ("tri", "<i8", (tri.shape[1],))])
    rec["orbit"], rec["size"], rec["q"], rec["tri"] = np.arange(len(qs)), sizes, qs, tri
    head = struct.pack("<4sBBBQ", b"COFA", 1, m, len(dims), len(qs)) + bytes(dims)
    cache._write_payload(path, [head, rec.tobytes()])


@pytest.mark.parametrize("m,kind", [(5, "single"), (5, "full"), (6, "full")])
def test_stale_version_is_rebuilt_not_misread(tmp_path, m, kind):
    from crossings.relaxations import coeff_tables, widen

    dims, sizes, qs, tri, scale = coeff_tables(m, kind, tmp_path / "fresh")
    path = cache.coeffs_path(tmp_path, m, kind)
    _write_version_1(path, m, dims, sizes, qs, widen(tri, scale))
    assert cache.is_stale(path)
    with pytest.raises(DataError, match="bad version"):
        cache.read_coeffs(path, m)
    got = coeff_tables(m, kind, tmp_path)
    assert path.read_bytes()[4] == cache._VERSION and not cache.is_stale(path)
    assert path.read_bytes() == cache.coeffs_path(tmp_path / "fresh", m, kind).read_bytes()
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
        cache._write_payload(path, [whole[:size]])
        with pytest.raises(DataError, match="truncated header|whole records"):
            coeff_tables(5, "single", tmp_path)
    coeff_tables(6, "single", tmp_path)
    cache._write_payload(path, [cache.coeffs_path(tmp_path, 6, "single").read_bytes()])
    with pytest.raises(DataError, match="bad m"):
        coeff_tables(5, "single", tmp_path)


# CRC-32 of the table files; the tables must not change by a byte.
# Taken from the first version-2 (compact record) files.  Their widened
# tables hash to HOOK_TABLE_SHA256 (single) and BLOCK_TABLES_SHA256 (full)
# in tests/test_coeffs.py, the digests the version-1 pins stood for.
BETA_CRC32 = {4: 0x4882A186, 5: 0x466BBE9F, 6: 0x5CC6D905, 7: 0x4E7CAAC6, 8: 0x09943D39}
ALPHA_CRC32 = {4: 0x89977C4A, 5: 0x69ECB38B, 6: 0x14C4F221, 7: 0x7AF81338}


def test_table_bytes_are_pinned(tmp_path):
    from crossings.relaxations import coeff_tables

    for kind, pins in (("single", BETA_CRC32), ("full", ALPHA_CRC32)):
        for m, want in pins.items():
            coeff_tables(m, kind, tmp_path)
            assert zlib.crc32(cache.coeffs_path(tmp_path, m, kind).read_bytes()) == want, m
