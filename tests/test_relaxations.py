import json
import os
import subprocess
import sys
from fractions import Fraction
from math import sqrt
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crossings import relaxations
from crossings.errors import ArgumentError, ResourceError, SolverError
from crossings.relaxations import (
    _strict_start,
    certify,
    class_slacks,
    coeff_tables,
    exactly_psd,
    rank_report,
    run_full,
    run_single,
    scan_violations,
    split_triangles,
)
from crossings.sdp import polish_dual, solve_bound_problem
from crossings.swapgraph import self_cost

# independently frozen optimum values, ten decimals
SINGLE_OPT = {4: 1.0, 5: 1.9270509831, 6: 2.9519183588, 7: 4.3107391257, 8: 5.8284271247}
FULL_OPT = {4: 1.0, 5: 1.9472135954, 6: 2.9519183588, 7: 4.3593154948}
V5 = np.array([0.5477225575051661, 0.3385111569432115])
V7 = np.array([0.9241589976025947, 0.7763005370264053, 0.46693002673905953])
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
    dims, sizes, qs, tri = coeff_tables(5, "full", cache_dir=store)
    fs, c = sizes.astype(float), qs.astype(float)
    mats = [mat / fs[:, None, None] for mat in split_triangles(tri, dims)]
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


def test_argument_guards():
    with pytest.raises(ArgumentError):
        coeff_tables(3, "single")
    with pytest.raises(ArgumentError):
        coeff_tables(3, "full")
    with pytest.raises(ResourceError):
        coeff_tables(10, "full")


@pytest.mark.parametrize("kind,levels", [("single", range(4, 10)), ("full", range(4, 8))])
def test_class_zero_anchors_the_start(store, kind, levels):
    # the driver starts from class 0 alone: the equal pairs (sigma, sigma),
    # alone at the largest cost, with every block positive definite
    for m in levels:
        dims, sizes, qs, tri = coeff_tables(m, kind, cache_dir=store)
        assert qs[0] == self_cost(m) == qs.max()
        assert (qs == qs[0]).sum() == 1
        for mat in split_triangles(tri[:1], dims):
            np.linalg.cholesky(mat[0])


def direct_solve(m, store):
    """Reference optimum over all classes at once: one solve and polish of
    the whole instance, certified like the cutting loop's last round."""
    dims, sizes, qs, tri = coeff_tables(m, "single", cache_dir=store)
    fs, c = sizes.astype(float), qs.astype(float)
    mats = [mat / fs[:, None, None] for mat in split_triangles(tri, dims)]
    x0 = _strict_start(mats, sizes)
    sol = solve_bound_problem(np.ones(len(qs)), c, mats, x0, tol=1e-9)
    _, y = polish_dual(np.ones(len(qs)), c, mats, sol.y, x=sol.x)
    value = float(class_slacks(y, dims, 0.0, fs, c, tri).min())
    return value, certify(y, dims, sizes, qs, tri)


def test_cutting_loop_agrees_with_direct_solve(store, single_runs):
    direct = {m: direct_solve(m, store) for m in range(5, 9)}
    for m, (value, cert) in direct.items():
        assert single_runs[m].value == pytest.approx(value, abs=1e-8)
        assert single_runs[m].certificate.bound == pytest.approx(cert.bound, abs=1e-8)
    seen = []
    out = run_single(5, cache_dir=store, progress=seen.append)
    value, cert = direct[5]
    assert out.value == pytest.approx(value, abs=1e-8)
    assert out.certificate.bound == pytest.approx(cert.bound, abs=1e-8)
    assert len(out.rounds) >= 2
    assert seen == out.rounds
    assert [r.round for r in out.rounds] == list(range(1, len(out.rounds) + 1))
    # restricted optima shrink toward the true one as cuts accumulate
    objs = [r.objective for r in out.rounds]
    assert all(a >= b - 1e-6 for a, b in zip(objs, objs[1:]))
    assert out.rounds[-1].max_violation <= 1e-7
    assert out.rounds[0].active < CLASS_COUNTS[5]


def test_round_budget_failure_leaves_only_the_tables(tmp_path, monkeypatch):
    # single m=6 needs more than one round, so a budget of one fails; the
    # cache then holds the coefficient table and its sidecar, nothing else
    with monkeypatch.context() as patch:
        patch.setattr(relaxations, "_MAX_ROUNDS", 1)
        with pytest.raises(SolverError):
            run_single(6, cache_dir=tmp_path)
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "coeffs_6_single.bin", "coeffs_6_single.bin.crc32"]
    out = run_single(6, cache_dir=tmp_path)
    assert out.value == pytest.approx(SINGLE_OPT[6], abs=1e-8)
    assert len(out.rounds) >= 2
    assert [r.round for r in out.rounds] == list(range(1, len(out.rounds) + 1))


def test_scan_of_zero_dual(store):
    dims, sizes, qs, tri = coeff_tables(5, "single", cache_dir=store)
    fs, fq = sizes.astype(float), qs.astype(float)
    zero = [np.zeros((d, d)) for d in dims]
    maxv, ids = scan_violations(zero, dims, 0.0, fs, fq, tri)
    assert maxv == 0.0 and ids.size == 0
    maxv, ids = scan_violations(zero, dims, 1.0, fs, fq, tri)
    assert maxv == 1.0
    assert set(ids) == set(np.flatnonzero(qs == 0))
    assert list(ids) == sorted(ids)


def test_certify_zero_dual_gives_min_cost(store):
    (d,), sizes, qs, tri = coeff_tables(5, "single", cache_dir=store)
    cert = certify([np.zeros((d, d))], (d,), sizes, qs, tri)
    assert cert.value == Fraction(int(qs.min()))
    assert exactly_psd(cert.numerators[0])


@given(seed=st.integers(0, 10_000), m=st.sampled_from([5, 6]), scale=st.sampled_from([1e-6, 1e-4, 1e-2]))
@settings(max_examples=25, deadline=None)
def test_certificates_survive_perturbation(store, single_runs, seed, m, scale):
    """Whatever dual point certify gets, its output must pass a from-scratch
    rational feasibility check and stay below the true optimum."""
    (d,), sizes, qs, tri = coeff_tables(m, "single", cache_dir=store)
    rng = np.random.default_rng(seed)
    noise = rng.normal(0.0, scale, (d, d))
    y = single_runs[m].y[0] + noise + noise.T
    cert = certify([y], (d,), sizes, qs, tri)
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


def test_value_prices_the_polished_dual(store, single_runs):
    for m in (5, 6):
        out = single_runs[m]
        dims, sizes, qs, tri = coeff_tables(m, "single", cache_dir=store)
        slack = class_slacks(out.y, dims, 0.0, sizes.astype(float), qs.astype(float), tri)
        assert out.value == pytest.approx(float(slack.min()), abs=1e-15)


def test_tables_come_back_from_cache(tmp_path):
    d1, s1, q1, t1 = coeff_tables(5, "single", cache_dir=tmp_path)
    assert (tmp_path / "coeffs_5_single.bin").exists()
    d2, s2, q2, t2 = coeff_tables(5, "single", cache_dir=tmp_path)
    assert d1 == d2 and (s1 == s2).all() and (q1 == q2).all() and (t1 == t2).all()
    dims1, fs1, fq1, ft1 = coeff_tables(4, "full", cache_dir=tmp_path)
    assert (tmp_path / "coeffs_4_full.bin").exists()
    dims2, fs2, fq2, ft2 = coeff_tables(4, "full", cache_dir=tmp_path)
    assert dims1 == dims2 and (ft1 == ft2).all()


def test_split_triangles_roundtrip():
    rng = np.random.default_rng(0)
    dims = (3, 1, 2)
    stacks = []
    for d in dims:
        a = rng.integers(-5, 6, (4, d, d))
        stacks.append(a + a.transpose(0, 2, 1))
    tri = np.concatenate(
        [s[:, np.triu_indices(s.shape[1])[0], np.triu_indices(s.shape[1])[1]] for s in stacks],
        axis=1,
    )
    back = split_triangles(tri, dims)
    for orig, rebuilt in zip(stacks, back):
        assert (orig == rebuilt).all()


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
