import json
import os
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from math import sqrt
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crossings import cache, coeffs, cycles, relaxations, repsets
from crossings.coeffs import PairTables
from crossings.errors import ArgumentError, CrossingsError, ResourceError, SolverError
from crossings.relaxations import (
    _strict_start,
    certify,
    coeff_tables,
    exactly_psd,
    rank_report,
    run_full,
    run_single,
    scan_violations,
    square_triangles,
    widen,
)
from crossings.repsets import build_blocks
from crossings.sdp import polish_dual, solve_bound_problem
from crossings.swapgraph import self_cost
from crossings.tableaux import block_multiplicity, partitions
from oracles import class_slacks

# independently frozen optimum values, ten decimals
SINGLE_OPT = {4: 1.0, 5: 1.9270509831, 6: 2.9519183588, 7: 4.3107391257, 8: 5.8284271247}
FULL_OPT = {4: 1.0, 5: 1.9472135954, 6: 2.9519183588, 7: 4.3593154948}
V5 = np.array([0.5477225575051661, 0.3385111569432115])
V7 = np.array([0.9241589976025947, 0.7763005370264053, 0.46693002673905953])


def squares(dims, tris, scales, rows=slice(None)):
    """The widened (C, d, d) stacks of the given rows of every block."""
    return [square_triangles(widen(tri[rows], g), d) for tri, g, d in zip(tris, scales, dims)]


def arrays(dims, sizes, qs, tris, scales):
    """The arrays of a coeff_tables result, each block's table on its own."""
    return [sizes, qs, *tris, scales]
CLASS_COUNTS = {4: 3, 5: 7, 6: 17, 7: 56, 8: 239}


@pytest.fixture(scope="module")
def store(tmp_path_factory):
    return tmp_path_factory.mktemp("relax")


@pytest.fixture(scope="module")
def single_runs(store):
    return {m: run_single(m, cache_dir=store) for m in range(4, 9)}


@pytest.fixture(scope="module")
def full_runs(store):
    return {m: run_full(m, cache_dir=store) for m in range(4, 8)}


def test_single_block_matches_frozen_values(single_runs):
    for m, out in single_runs.items():
        assert out.value == pytest.approx(SINGLE_OPT[m], abs=1e-9)
        assert out.class_count == CLASS_COUNTS[m]
        # the certificate prices the polished dual, so it may beat the raw
        # solver value; it must never beat the true optimum
        assert out.certificate.bound <= out.value + 1e-9
        assert out.raw - out.certificate.bound <= 1e-5
        assert out.certificate.bound <= SINGLE_OPT[m] + 1e-9
        assert out.certificate.bound == pytest.approx(SINGLE_OPT[m], abs=1e-9)


def test_full_matches_frozen_values(full_runs):
    for m, out in full_runs.items():
        assert out.value == pytest.approx(FULL_OPT[m], abs=1e-9)
        assert out.certificate.bound == pytest.approx(FULL_OPT[m], abs=1e-9)


def test_every_round_of_single_m8_ends_optimal(single_runs):
    assert len(single_runs[8].rounds) >= 2
    assert all(r.status == "optimal" for r in single_runs[8].rounds)


def test_every_round_ends_optimal(single_runs, full_runs):
    # the polish and the certificate would hide a stalled round; the solver
    # itself must reach its optimality test in every restricted solve
    for kind, runs in (("single", single_runs), ("full", full_runs)):
        for m, out in runs.items():
            assert [r.status for r in out.rounds] == ["optimal"] * len(out.rounds), (kind, m)


def test_full_m5_restricted_solve_converges_quickly(store, full_runs):
    # the last round of full m=5 once took 88 iterations to luck into the
    # optimality test; refined directions converge in a handful
    dims, sizes, qs, tris, scales = coeff_tables(5, "full", cache_dir=store)
    fs, c = sizes.astype(float), qs.astype(float)
    mats = [mat / fs[:, None, None] for mat in squares(dims, tris, scales)]
    ids = full_runs[5].active
    assert ids[0] == 0
    sub = [mat[ids] for mat in mats]
    x0 = _strict_start(sub, sizes[ids])
    sol = solve_bound_problem(np.ones(ids.size), c[ids], sub, x0, tol=1e-9)
    assert sol.optimal
    assert sol.iterations <= 20


def test_single_never_beats_full(single_runs, full_runs):
    for m in full_runs:
        assert single_runs[m].value <= full_runs[m].value + 1e-8
    assert single_runs[6].value == pytest.approx(full_runs[6].value, abs=1e-9)


class TableAllocated(Exception):
    pass


def no_block_tables(monkeypatch):
    """Make block selection and the block tables raise TableAllocated."""
    def no_table(*args):
        raise TableAllocated(args)

    monkeypatch.setattr(relaxations, "shape_blocks", no_table)
    monkeypatch.setattr(relaxations, "scaled_block_tables", no_table)


def test_argument_guards(tmp_path, monkeypatch):
    with pytest.raises(ArgumentError):
        coeff_tables(3, "single")
    with pytest.raises(ArgumentError):
        coeff_tables(3, "full")
    # one size rule, no level cap: the 1,366 records of full m=9 and the
    # int64 buffer of one shape take 5 MB, so they are refused at 4 MB and
    # pass the rule at 64 MB; the blocks are never selected on a refusal
    no_block_tables(monkeypatch)
    monkeypatch.setattr(cycles, "_physical_memory", lambda: 4 * 2**20)
    with pytest.raises(ResourceError):
        coeff_tables(9, "full", cache_dir=tmp_path)
    monkeypatch.setattr(cycles, "_physical_memory", lambda: 64 * 2**20)
    with pytest.raises(TableAllocated):
        coeff_tables(9, "full", cache_dir=tmp_path)
    assert not any(tmp_path.iterdir())


def test_full_tables_past_memory_are_refused_before_the_blocks(tmp_path, monkeypatch):
    # at 8 GiB the 85,058 records of full m=11, one entry per class, and
    # the int64 buffer of one shape would take 21 GiB, so the level is
    # refused once its classes are counted; the single-block records of
    # m=11 pass the same rule
    no_block_tables(monkeypatch)
    monkeypatch.setattr(cycles, "_physical_memory", lambda: 8 * 2**30)
    with pytest.raises(ResourceError, match="full m=11"):
        coeff_tables(11, "full", cache_dir=tmp_path)
    with pytest.raises(TableAllocated):
        coeff_tables(11, "single", cache_dir=tmp_path)
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("m,kind,need", [(9, "single", 125_672), (8, "full", 183_791)])
def test_size_rule_counts_the_narrow_records_and_one_build_buffer(tmp_path, monkeypatch,
                                                                   m, kind, need):
    # the rule counts each record at one byte an entry plus its size and
    # cost bytes, and one int64 buffer: for single m=9, 1,366 classes of 10
    # entries, the whole hook block; for full m=8, 239 classes of 239
    # entries, the columns of one shape, at most 66 (T = 11 rows of shape
    # (4, 2, 1, 1)); a byte less is refused before any block is selected
    no_block_tables(monkeypatch)
    monkeypatch.setattr(cycles, "_PEAK_PER_REPRESENTATIVE", 0)
    monkeypatch.setattr(cycles, "_physical_memory", lambda: need - 1)
    with pytest.raises(ResourceError, match=f"{kind} m={m}"):
        coeff_tables(m, kind, cache_dir=tmp_path)
    monkeypatch.setattr(cycles, "_physical_memory", lambda: need)
    with pytest.raises(TableAllocated):
        coeff_tables(m, kind, cache_dir=tmp_path)
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("field,change", [("q", lambda q: q + 250),
                                          ("sizes", lambda sizes: sizes + 1),
                                          ("sizes", lambda sizes: sizes * 64)])
def test_record_bytes_out_of_range_are_refused(tmp_path, monkeypatch, field, change):
    # a record holds the class size over (m-1)! and the cost in one byte
    # each: a size that (m-1)! does not divide, a quotient past 255 (at
    # m=6 the largest is 24) or a cost past 255 is refused, and no file is
    # written
    build = PairTables.build

    def changed(m):
        t = build(m)
        if field == "q":
            t.q = change(t.q)
        else:
            t.classes.sizes = change(t.classes.sizes)
        return t

    monkeypatch.setattr(PairTables, "build", changed)
    with pytest.raises(CrossingsError, match="one byte"):
        coeff_tables(6, "single", cache_dir=tmp_path)
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("m", range(4, 11))
def test_full_records_hold_one_entry_per_class(m):
    # the size rule takes a full record's width to be the class count: the
    # swap transposes each block's d^2 pair orbits and fixes d of them
    dims = [b.dim for b in build_blocks(m)]
    assert sum(d * (d + 1) // 2 for d in dims) == PairTables.build(m).classes.count


def test_levels_past_memory_are_refused_before_allocating(tmp_path, monkeypatch):
    # at 8 GiB, m=14 (about 222 M stabilizer orbits, some 22 GB for the
    # pair tables) is refused and m=13 (18.4 M orbits, about 1.8 GB) passes
    # the guard; the word enumeration only raises here, so a failing guard
    # allocates nothing on any machine
    def no_table(m):
        raise TableAllocated(m)

    monkeypatch.setattr(cycles, "_physical_memory", lambda: 8 * 2**30)
    monkeypatch.setattr(cycles, "word_blocks", no_table)
    with pytest.raises(ResourceError, match="m=14"):
        coeff_tables(14, "single", cache_dir=tmp_path)
    with pytest.raises(TableAllocated):
        coeff_tables(13, "single", cache_dir=tmp_path)
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("kind,levels", [("single", range(4, 10)), ("full", range(4, 8))])
def test_class_zero_anchors_the_start(store, kind, levels):
    # the driver starts from class 0 alone: the equal pairs (sigma, sigma),
    # alone at the largest cost, with every block positive definite
    for m in levels:
        dims, sizes, qs, tris, scales = coeff_tables(m, kind, cache_dir=store)
        assert qs[0] == self_cost(m) == qs.max()
        assert (qs == qs[0]).sum() == 1
        for mat in squares(dims, tris, scales, slice(1)):
            np.linalg.cholesky(mat[0])


def direct_solve(m, store):
    """Reference optimum over all classes at once: one solve and polish of
    the whole instance, certified like the cutting loop's last round."""
    dims, sizes, qs, tris, scales = coeff_tables(m, "single", cache_dir=store)
    fs, c = sizes.astype(float), qs.astype(float)
    mats = [mat / fs[:, None, None] for mat in squares(dims, tris, scales)]
    x0 = _strict_start(mats, sizes)
    sol = solve_bound_problem(np.ones(len(qs)), c, mats, x0, tol=1e-9)
    _, y = polish_dual(np.ones(len(qs)), c, mats, sol.y, x=sol.x)
    value = float(class_slacks(y, 0.0, fs, c, tris, scales).min())
    return value, certify(y, sizes, qs, tris, scales)


def test_cutting_loop_agrees_with_direct_solve(store, single_runs):
    direct = {m: direct_solve(m, store) for m in range(5, 9)}
    for m, (value, cert) in direct.items():
        assert single_runs[m].value == pytest.approx(value, abs=1e-8)
        assert single_runs[m].certificate.bound == pytest.approx(cert.bound, abs=1e-8)
    # single m=8 takes two restricted solves; the first holds class 0 and
    # the first _BATCH cuts, found without a solve
    seen = []
    out = run_single(8, cache_dir=store, progress=seen.append)
    value, cert = direct[8]
    assert out.value == pytest.approx(value, abs=1e-8)
    assert out.certificate.bound == pytest.approx(cert.bound, abs=1e-8)
    assert len(out.rounds) >= 2
    assert seen == out.rounds
    assert [r.round for r in out.rounds] == list(range(1, len(out.rounds) + 1))
    # restricted optima shrink toward the true one as cuts accumulate
    objs = [r.objective for r in out.rounds]
    assert all(a >= b - 1e-6 for a, b in zip(objs, objs[1:]))
    assert out.rounds[-1].max_violation <= 1e-7
    assert out.rounds[0].active == 51


def test_round_budget_failure_leaves_only_the_tables(tmp_path, monkeypatch):
    # single m=8 needs more than one restricted solve, so a budget of one
    # fails; the cache then holds the coefficient table, nothing else
    with monkeypatch.context() as patch:
        patch.setattr(relaxations, "_MAX_ROUNDS", 1)
        with pytest.raises(SolverError):
            run_single(8, cache_dir=tmp_path)
    assert [p.name for p in tmp_path.iterdir()] == ["coeffs_8_single.bin"]
    out = run_single(8, cache_dir=tmp_path)
    assert out.value == pytest.approx(SINGLE_OPT[8], abs=1e-8)
    assert len(out.rounds) >= 2
    assert [r.round for r in out.rounds] == list(range(1, len(out.rounds) + 1))


def test_a_non_finite_iterate_is_reported_as_such():
    # costs near the float range overflow the first Schur complement; the
    # error must name that, not a failed factorization
    with pytest.raises(SolverError, match="interior-point solve failed: iterate 2 is not finite"):
        relaxations._solve_polished(np.ones(2), np.full(2, 1e308), [np.ones((2, 1, 1))],
                                    np.full(2, 0.5))


def test_scan_of_zero_dual(store):
    dims, sizes, qs, tris, scales = coeff_tables(5, "single", cache_dir=store)
    fs, fq = sizes.astype(float), qs.astype(float)
    zero = [np.zeros((d, d)) for d in dims]
    maxv, ids, price = scan_violations(zero, 0.0, fs, fq, tris, scales)
    assert maxv == 0.0 and ids.size == 0 and (price == 0.0).all()
    maxv, ids, _ = scan_violations(zero, 1.0, fs, fq, tris, scales)
    assert maxv == 1.0
    assert set(ids) == set(np.flatnonzero(qs == 0))
    assert list(ids) == sorted(ids)


@pytest.mark.parametrize("n", [500, 50, 20])
def test_scan_ranks_the_worst_classes_as_a_full_sort_would(n):
    # with a zero dual each class's violation is -qs; ties straddle the
    # cut at 500 classes, and a level may hold no more than _BATCH classes
    rng = np.random.default_rng(n)
    qs = rng.integers(-12, 2, n).astype(float)
    _, ids, _ = scan_violations([np.zeros((1, 1))], 0.0, np.ones(n), qs,
                                [np.zeros((n, 1), dtype=np.int8)], np.ones(1, dtype=np.int64))
    order = np.lexsort((np.arange(n), qs))[: relaxations._BATCH]
    assert ids.tolist() == order[qs[order] < 0].tolist()
    assert len(ids) == min(relaxations._BATCH, (qs < 0).sum())


def test_certify_zero_dual_gives_min_cost(store):
    (d,), sizes, qs, tris, scales = coeff_tables(5, "single", cache_dir=store)
    cert = certify([np.zeros((d, d))], sizes, qs, tris, scales)
    assert cert.value == Fraction(int(qs.min()))
    assert exactly_psd(cert.numerators[0])


@given(seed=st.integers(0, 10_000), m=st.sampled_from([5, 6]), scale=st.sampled_from([1e-6, 1e-4, 1e-2]))
@settings(max_examples=25, deadline=None)
def test_certificates_survive_perturbation(store, single_runs, seed, m, scale):
    """Whatever dual point certify gets, its output must pass a from-scratch
    rational feasibility check and stay below the true optimum."""
    (d,), sizes, qs, tris, scales = coeff_tables(m, "single", cache_dir=store)
    rng = np.random.default_rng(seed)
    noise = rng.normal(0.0, scale, (d, d))
    y = single_runs[m].y[0] + noise + noise.T
    cert = certify([y], sizes, qs, tris, scales)
    tri = widen(tris[0], scales[0])
    for n_mat in cert.numerators:
        assert exactly_psd(n_mat)
    n_mat = cert.numerators[0]
    worst = None
    for i in range(len(qs)):
        inner = 0
        k = 0
        for a in range(d):
            for b in range(a, d):
                weight = 1 if a == b else 2
                inner += weight * int(n_mat[a, b]) * int(tri[i, k])
                k += 1
        val = Fraction(int(qs[i])) - Fraction(inner, cert.denominator * int(sizes[i]))
        if worst is None or val < worst:
            worst = val
    assert cert.value == worst
    assert cert.bound <= SINGLE_OPT[m] + 1e-9


def test_rank_structure_odd_m(single_runs):
    rank5, v5 = rank_report(single_runs[5].y[0])
    assert rank5 == 1
    assert v5 == pytest.approx(V5, abs=1e-3)
    rank7, v7 = rank_report(single_runs[7].y[0])
    assert rank7 == 1
    assert v7 == pytest.approx(V7, abs=1e-3)


def test_rank_structure_even_m(single_runs):
    rank8, _ = rank_report(single_runs[8].y[0])
    assert rank8 == 2
    # At m=6 the four tight classes leave one degree of freedom, and the
    # optimum is where that line meets the cone boundary: a tangency, so
    # the optimal block is singular and the rank is one, with the value
    # the larger root of 25 t^2 - 128 t + 160.
    assert single_runs[6].value == pytest.approx((64 + 4 * sqrt(6)) / 25, abs=1e-9)
    rank6, _ = rank_report(single_runs[6].y[0])
    assert rank6 == 1
    vals = np.linalg.eigvalsh(single_runs[6].y[0])
    assert vals[0] <= 1e-8 * vals[-1]


def test_scan_casts_one_row_chunk_of_the_records():
    # a scan widens each block's table and pairs it with a float dual in
    # row chunks, so its traced peak is far below the tables, here 51 MB
    # of int64 triangles in two blocks
    dims, n = (13, 3), 2**16
    tris = [np.tile(np.arange(d * (d + 1) // 2) % 7 - 3, (n, 1)) for d in dims]
    scales = np.full(len(dims), 3)
    ys = [np.eye(d) for d in dims]
    want = sum((3 * tri[0]).astype(float) @ relaxations._packed(y) for tri, y in zip(tris, ys))
    tracemalloc.start()
    try:
        _, _, price = scan_violations(ys, 2.0, np.ones(n), np.ones(n), tris, scales)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    held = sum(tri.nbytes for tri in tris)
    assert held >= 40 * 2**20 and peak < 0.25 * held, (peak, held)
    assert (price == want).all()


@pytest.mark.parametrize("kind,m", [("single", m) for m in range(4, 11)]
                         + [("full", m) for m in range(4, 9)])
def test_float_prices_are_those_of_the_widened_table(tmp_path, kind, m):
    # a float scan casts each narrow table to float64 and multiplies by its
    # float scale; with entries and scales below 2**53 each product is the
    # float of the int64 entry, so each block's prices match bit for bit
    dims, _, _, tris, scales = coeff_tables(m, kind, cache_dir=tmp_path)
    assert max(tri.dtype.itemsize for tri in tris) <= 4 and scales.max() < 2**53
    rng = np.random.default_rng(m)
    for d, tri, g in zip(dims, tris, scales):
        y = (lambda a: a + a.T)(rng.standard_normal((d, d)))
        assert np.array_equal(relaxations._pair([tri], [g], [y]),
                              widen(tri, g).astype(np.float64) @ relaxations._packed(y))


def test_float_prices_past_2_53_take_the_int64_route():
    # 3 (2**53 + 1) is no float product of float(3) and float(2**53 + 1),
    # which rounds the scale to 2**53; the int64 route widens it exactly
    tri = np.full((4, 1), 3, dtype=np.int8)
    y = np.ones((1, 1))
    for g in (2**53 - 1, 2**53 + 1):
        want = widen(tri, g).astype(np.float64) @ relaxations._packed(y)
        assert np.array_equal(relaxations._pair([tri], np.array([g]), [y]), want)
    assert want[0] != 3.0 * float(2**53 + 1)


def test_a_full_build_merges_each_pattern_table_once(tmp_path, monkeypatch):
    # block selection and the coefficient tables share each shape's pattern
    # table, so a cold full build merges it once for every shape with blocks;
    # each shape's table is one call, so the hook shape takes one pass of its
    # kernel and every other shape one pass per distinct column tableau
    built, merge = [], repsets._pattern_table
    hooks, tbs = [], []
    hook_forms, tabloid_forms = coeffs._hook_forms, coeffs._tabloid_forms

    def counted(lam):
        built.append(lam)
        return merge(lam)

    def hook_pass(tables, *args):
        hooks.append(tables.m)
        return hook_forms(tables, *args)

    def tabloid_pass(tables, tb, *args):
        tbs.append(tb)
        return tabloid_forms(tables, tb, *args)

    monkeypatch.setattr(repsets, "_pattern_table", counted)
    monkeypatch.setattr(coeffs, "_pattern_table", counted, raising=False)
    monkeypatch.setattr(coeffs, "_hook_forms", hook_pass)
    monkeypatch.setattr(coeffs, "_tabloid_forms", tabloid_pass)
    coeff_tables(7, "full", cache_dir=tmp_path)
    shapes = [lam for lam in partitions(7) if block_multiplicity(lam)]
    assert built == shapes
    blocks = build_blocks(7)
    assert hooks == [7] and any(b.lam == (5, 1, 1) for b in blocks)
    assert tbs == [t for lam in shapes if lam != (5, 1, 1)
                   for t in dict.fromkeys(t for b in blocks if b.lam == lam for t in b.tableaux)]


def test_value_prices_the_polished_dual(store, single_runs):
    for m in (5, 6):
        out = single_runs[m]
        dims, sizes, qs, tris, scales = coeff_tables(m, "single", cache_dir=store)
        slack = class_slacks(out.y, 0.0, sizes.astype(float), qs.astype(float), tris, scales)
        assert out.value == float(slack.min())


@pytest.mark.parametrize("kind,m", [("single", m) for m in range(4, 10)]
                         + [("full", m) for m in range(4, 8)])
def test_cold_and_warm_runs_agree(tmp_path, monkeypatch, kind, m):
    # a cold run prices the table it has just published, as the warm run
    # after it does: the same tables, the same certificate, the same rounds
    seen = []

    def recording(*args):
        seen.append(coeff_tables(*args))
        return seen[-1]

    monkeypatch.setattr(relaxations, "coeff_tables", recording)
    run = run_single if kind == "single" else run_full
    cold = run(m, cache_dir=tmp_path)
    warm = run(m, cache_dir=tmp_path)
    assert cold.certificate.value == warm.certificate.value
    assert cold.certificate.worst_class == warm.certificate.worst_class
    assert [r.iterations for r in cold.rounds] == [r.iterations for r in warm.rounds]
    cold_tables, warm_tables = seen
    assert cold_tables[0] == warm_tables[0] and not any(t.flags.writeable for t in cold_tables[3])
    for a, b in zip(arrays(*cold_tables), arrays(*warm_tables), strict=True):
        assert a.dtype == b.dtype and (a == b).all()


def test_tables_come_back_from_cache(tmp_path):
    for m, kind in ((5, "single"), (4, "full")):
        first = coeff_tables(m, kind, cache_dir=tmp_path)
        assert cache.coeffs_path(tmp_path, m, kind).exists()
        again = coeff_tables(m, kind, cache_dir=tmp_path)
        assert first[0] == again[0]
        for a, b in zip(arrays(*first), arrays(*again), strict=True):
            assert a.dtype == b.dtype and (a == b).all()


def test_square_triangles_roundtrip():
    rng = np.random.default_rng(0)
    for d in (3, 1, 2):
        a = rng.integers(-5, 6, (4, d, d))
        stack = a + a.transpose(0, 2, 1)
        iu = np.triu_indices(d)
        assert (square_triangles(stack[:, iu[0], iu[1]], d) == stack).all()


def test_exactly_psd_small_cases():
    yes = [np.eye(2, dtype=object) * 3, np.zeros((2, 2), dtype=object),
           np.array([[1, 1], [1, 1]], dtype=object),
           np.array([[2, -1], [-1, 2]], dtype=object)]
    no = [np.array([[1, 2], [2, 1]], dtype=object),
          np.array([[0, 1], [1, 0]], dtype=object),
          np.array([[-1, 0], [0, 1]], dtype=object)]
    assert all(exactly_psd(a) for a in yes)
    assert not any(exactly_psd(a) for a in no)


_THREAD_PROBE = """
import json, sys
from crossings.relaxations import run_full, run_single
out = {}
for name, run, m in (("single", run_single, 8), ("full", run_full, 7)):
    res = run(m, cache_dir=sys.argv[1])
    out[name] = [repr(res.value), str(res.certificate.value),
                 [[r.status, r.iterations] for r in res.rounds]]
print(json.dumps(out))
"""


def test_values_do_not_depend_on_the_blas_thread_count(tmp_path):
    src = str(Path(__file__).resolve().parents[1] / "src")
    got = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        proc = subprocess.run([sys.executable, "-c", _THREAD_PROBE, str(tmp_path)],
                              env=env, capture_output=True, text=True, check=True)
        got.append(json.loads(proc.stdout))
    assert got[0] == got[1]
