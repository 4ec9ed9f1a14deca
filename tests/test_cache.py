import os
import tracemalloc
import zlib
from pathlib import Path

import numpy as np
import pytest

from crossings import cache
from crossings.errors import DataError


def records(dims, orbit, size, q, tri):
    """COFA records holding the given fields, one per class."""
    rec = np.zeros(len(orbit), dtype=cache.record_dtype(cache.triangle_width(dims)))
    rec["orbit"], rec["size"], rec["q"], rec["tri"] = orbit, size, q, tri
    return rec


def _write_small_coeffs(path, m):
    d = 2
    t = d * (d + 1) // 2
    cache.write_coeffs(path, m, (d,), records(
        (d,), np.arange(5), np.arange(1, 6), np.arange(5), np.arange(5 * t).reshape(5, t)))


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
    # a payload cut inside the header, inside the block dims, or inside a
    # record, each published with its own matching checksum
    p = cache.coeffs_path(tmp_path, 5, "single")
    _write_small_coeffs(p, 5)
    whole = p.read_bytes()
    for size in (0, 5, 15, 40, len(whole) - 1, len(whole) + 3):
        cache._write_payload(p, [(whole + b"\0" * 3)[:size]])
        with pytest.raises(DataError, match="truncated header|whole records"):
            cache.read_coeffs(p, 5)
    cache._write_payload(p, [whole])
    assert cache.read_coeffs(p, 5)[0] == (2,)


# 2**17 classes with blocks of dimension 4 and 3: 19 MB of 146-byte records
BIG_DIMS = (4, 3)


def _big_records():
    n, t = 2**17, cache.triangle_width(BIG_DIMS)
    tri = np.arange(n * t).reshape(n, t) - 7
    return records(BIG_DIMS, np.arange(n), np.arange(n) + 1, 0, tri)


def test_coeffs_write_makes_no_copy_of_the_records(tmp_path):
    # the records are written and checksummed in place: the traced peak
    # holds no bytes copy of them and no joined payload
    rec = _big_records()
    p = cache.coeffs_path(tmp_path, 8, "full")
    tracemalloc.start()
    try:
        cache.write_coeffs(p, 8, BIG_DIMS, rec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rec.nbytes >= 8 * 2**20 and peak < 0.1 * rec.nbytes, (peak, rec.nbytes)
    d2, rec2 = cache.read_coeffs(p, 8)
    assert d2 == BIG_DIMS and rec2.tobytes() == rec.tobytes()


def test_coeffs_read_makes_no_copy_of_the_records(tmp_path):
    # the records are a read-only view into the one payload read, so the
    # traced peak is the file itself and no caller can write into them
    rec = _big_records()
    p = cache.coeffs_path(tmp_path, 8, "full")
    cache.write_coeffs(p, 8, BIG_DIMS, rec)
    file_bytes = p.stat().st_size
    tracemalloc.start()
    try:
        d2, rec2 = cache.read_coeffs(p, 8)
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
    m, d = 6, 2
    t = d * (d + 1) // 2
    ids = np.arange(5, dtype=np.uint64)
    sizes = np.arange(1, 6, dtype=np.uint64) * 10
    qs = np.arange(5, dtype=np.uint16)
    tri = np.arange(5 * t, dtype=np.int64).reshape(5, t) - 7
    p = cache.coeffs_path(tmp_path, m, "single")
    cache.write_coeffs(p, m, (d,), records((d,), ids, sizes, qs, tri))
    d2, rec = cache.read_coeffs(p, m)
    assert d2 == (d,)
    assert (rec["orbit"] == ids).all() and (rec["size"] == sizes).all()
    assert (rec["q"] == qs).all() and (rec["tri"] == tri).all()


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
    assert cache.read_coeffs(payload, 5)[1]["tri"].tolist() == want[3].tolist()


# CRC-32 of the table files; the tables must not change by a byte.
# ALPHA_CRC32 was copied by hand from a build by the earlier dict-based
# expansion engine.  BETA_CRC32 was derived by a script from that build's
# single-block files, which had a header of their own: the CRC-32 of the
# shared header (block count one), the dimension byte and the old record
# bytes unchanged.
BETA_CRC32 = {4: 0x2430C6B8, 5: 0x2233F88B, 6: 0xEB726EEB, 7: 0x7AA56E5C, 8: 0x3AE451C1}
ALPHA_CRC32 = {4: 0x5B78B038, 5: 0xFCAD5F45, 6: 0xFD4F82C8, 7: 0x25BE37CF}


def test_table_bytes_are_pinned(tmp_path):
    from crossings.relaxations import coeff_tables

    for kind, pins in (("single", BETA_CRC32), ("full", ALPHA_CRC32)):
        for m, want in pins.items():
            coeff_tables(m, kind, tmp_path)
            assert zlib.crc32(cache.coeffs_path(tmp_path, m, kind).read_bytes()) == want, m
