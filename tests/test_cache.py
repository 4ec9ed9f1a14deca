import os
import zlib
from pathlib import Path

import numpy as np
import pytest

from crossings import cache
from crossings.cycles import CycleIndex
from crossings.errors import DataError
from crossings.swapgraph import distances_from_base


def test_q_table_roundtrip(tmp_path):
    idx = CycleIndex(5)
    dist = distances_from_base(idx)
    p = cache.q_table_path(tmp_path, 5)
    cache.write_q_table(p, 5, dist, idx.seqs)
    assert (cache.read_q_table(p, 5) == dist).all()


def test_q_table_rejects_wrong_m(tmp_path):
    idx = CycleIndex(5)
    p = cache.q_table_path(tmp_path, 5)
    cache.write_q_table(p, 5, distances_from_base(idx), idx.seqs)
    with pytest.raises(DataError):
        cache.read_q_table(p, 6)


def test_q_table_detects_corruption(tmp_path):
    idx = CycleIndex(5)
    p = cache.q_table_path(tmp_path, 5)
    cache.write_q_table(p, 5, distances_from_base(idx), idx.seqs)
    raw = bytearray(p.read_bytes())
    raw[20] ^= 0xFF
    p.write_bytes(bytes(raw))
    with pytest.raises(DataError):
        cache.read_q_table(p, 5)


def test_q_table_missing_sidecar(tmp_path):
    idx = CycleIndex(5)
    p = cache.q_table_path(tmp_path, 5)
    cache.write_q_table(p, 5, distances_from_base(idx), idx.seqs)
    (tmp_path / "q_5.bin.crc32").unlink()
    with pytest.raises(DataError):
        cache.read_q_table(p, 5)


def test_missing_file(tmp_path):
    with pytest.raises(DataError):
        cache.read_q_table(tmp_path / "q_7.bin", 7)


def test_orbits_roundtrip(tmp_path):
    m = 4
    reps = np.array([[1, 2, 3, 4], [1, 3, 2, 4], [1, 4, 3, 2]], dtype=np.uint8)
    sizes = np.array([3, 3, 3], dtype=np.uint64)
    qs = np.array([2, 1, 0], dtype=np.uint16)
    p = cache.orbits_path(tmp_path, m)
    cache.write_orbits(p, m, reps, sizes, qs)
    r, s, q = cache.read_orbits(p, m)
    assert (r == reps).all() and (s == sizes).all() and (q == qs).all()


def test_coeffs_roundtrip(tmp_path):
    m, d = 6, 2
    t = d * (d + 1) // 2
    ids = np.arange(5, dtype=np.uint64)
    sizes = np.arange(1, 6, dtype=np.uint64) * 10
    qs = np.arange(5, dtype=np.uint16)
    tri = np.arange(5 * t, dtype=np.int64).reshape(5, t) - 7
    p = cache.coeffs_beta_path(tmp_path, m)
    cache.write_coeffs_beta(p, m, d, ids, sizes, qs, tri)
    d2, i2, s2, q2, t2 = cache.read_coeffs_beta(p, m)
    assert d2 == d
    assert (i2 == ids).all() and (s2 == sizes).all() and (q2 == qs).all() and (t2 == tri).all()


def test_cache_dir_env(tmp_path, monkeypatch):
    monkeypatch.setenv("CROSSING_CACHE_DIR", str(tmp_path / "sub"))
    d = cache.resolve_cache_dir(None)
    assert d == tmp_path / "sub"
    assert d.is_dir()
    explicit = cache.resolve_cache_dir(tmp_path / "other")
    assert explicit == tmp_path / "other"


def test_failed_payload_publish_leaves_a_rebuildable_cache(tmp_path, monkeypatch):
    from crossings.relaxations import hook_tables

    payload = cache.coeffs_beta_path(tmp_path, 5)
    replace = os.replace
    failures = []

    def replace_failing_once(src, dst):
        if Path(dst) == payload and not failures:
            failures.append(dst)
            raise OSError("simulated crash before the payload is published")
        replace(src, dst)

    monkeypatch.setattr(os, "replace", replace_failing_once)
    with pytest.raises(OSError):
        hook_tables(5, tmp_path)
    assert failures and not payload.exists()
    assert sorted(p.name for p in tmp_path.iterdir()) == ["coeffs_5_beta.bin.crc32"]

    got = hook_tables(5, tmp_path)
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "coeffs_5_beta.bin", "coeffs_5_beta.bin.crc32"]
    want = hook_tables(5, tmp_path / "fresh")
    assert got[0] == want[0]
    for a, b in zip(got[1:], want[1:]):
        assert (a == b).all()
    assert cache.read_coeffs_beta(payload, 5)[4].tolist() == want[3].tolist()


# CRC-32 of the table files, copied by hand from a build by the earlier
# dict-based expansion engine; the tables must not change by a byte.
BETA_CRC32 = {4: 0x4239E45F, 5: 0x2FD9E774, 6: 0xA5E13F1B, 7: 0xBE2D7CB6, 8: 0xE4A9873F}
ALPHA_CRC32 = {4: 0x5B78B038, 5: 0xFCAD5F45, 6: 0xFD4F82C8, 7: 0x25BE37CF}


def test_table_bytes_are_pinned(tmp_path):
    from crossings.relaxations import full_tables, hook_tables

    for m, want in BETA_CRC32.items():
        hook_tables(m, tmp_path)
        assert zlib.crc32(cache.coeffs_beta_path(tmp_path, m).read_bytes()) == want, m
    for m, want in ALPHA_CRC32.items():
        full_tables(m, tmp_path)
        assert zlib.crc32(cache.coeffs_alpha_path(tmp_path, m).read_bytes()) == want, m
