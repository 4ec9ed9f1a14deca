import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import eigh as generalized_eigh
from scipy.optimize import linprog

from crossings.errors import ArgumentError
from crossings.sdp import (
    _psd_steps,
    _sqrt_and_inv_sqrt,
    feasible_value,
    polish_dual,
    solve_bound_problem,
)

# a divide-by-zero or overflow inside the solver is a fault, not noise
pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")


def random_lp(rng, cols, rows):
    """An instance with 1x1 blocks only, so it is a linear program with a
    compact feasible region (n > 0 forces the simplex slice)."""
    n = rng.uniform(0.5, 2.0, cols)
    c = rng.uniform(-1.0, 3.0, cols)
    x0 = rng.uniform(0.2, 1.0, cols)
    x0 /= n @ x0
    blocks = []
    for _ in range(rows):
        a = rng.uniform(-1.0, 1.0, cols)
        if a @ x0 <= 0.05:
            a = a + (0.1 - a @ x0) / (n @ x0) * n
        blocks.append(a.reshape(cols, 1, 1))
    return n, c, blocks, x0


@pytest.mark.parametrize("seed", range(8))
def test_lp_instances_match_linprog(seed):
    rng = np.random.default_rng(seed)
    cols = int(rng.integers(3, 9))
    rows = int(rng.integers(1, 4))
    n, c, blocks, x0 = random_lp(rng, cols, rows)
    sol = solve_bound_problem(n, c, blocks, x0)
    a_ub = -np.stack([b.reshape(cols) for b in blocks])
    ref = linprog(c, A_ub=a_ub, b_ub=np.zeros(rows), A_eq=n[None, :], b_eq=[1.0])
    assert ref.status == 0
    assert sol.optimal
    assert c @ sol.x == pytest.approx(ref.fun, abs=1e-7)
    assert sol.t == pytest.approx(ref.fun, abs=1e-7)


def test_two_by_two_block_known_optimum():
    # x1*I + x2*offdiag psd iff x1 >= |x2|; with x1 + x2 = 1 the minimum of
    # x1 sits at the equal split
    n = np.ones(2)
    c = np.array([1.0, 0.0])
    blocks = [np.stack([np.eye(2), np.array([[0.0, 1.0], [1.0, 0.0]])])]
    sol = solve_bound_problem(n, c, blocks, np.array([0.9, 0.1]))
    assert sol.optimal
    assert sol.t == pytest.approx(0.5, abs=1e-8)
    assert sol.x == pytest.approx([0.5, 0.5], abs=1e-6)
    for y in sol.y:
        assert np.linalg.eigvalsh(y).min() >= -1e-9


def test_refined_directions_reach_a_tolerance_near_roundoff():
    # without refinement the dual residual of each direction grows with
    # cond(K) and the solve drifts at the 1e-8 level long before 1e-14
    n = np.ones(2)
    c = np.array([1.0, 0.0])
    blocks = [np.stack([np.eye(2), np.array([[0.0, 1.0], [1.0, 0.0]])])]
    sol = solve_bound_problem(n, c, blocks, np.array([0.9, 0.1]), tol=1e-14)
    assert sol.optimal
    assert sol.t == pytest.approx(0.5, abs=1e-13)
    assert len(sol.history) == sol.iterations


def test_refined_directions_reach_a_tolerance_near_roundoff_from_most_starts():
    # whether one start ends optimal at 1e-14 is roundoff luck, so the claim
    # is made over a sweep of starts: most reach the tolerance and none
    # drifts; without refinement none does and the error grows to 1e-9
    n = np.ones(2)
    c = np.array([1.0, 0.0])
    blocks = [np.stack([np.eye(2), np.array([[0.0, 1.0], [1.0, 0.0]])])]
    sols = [solve_bound_problem(n, c, blocks, np.array([x1, 1.0 - x1]), tol=1e-14)
            for x1 in np.linspace(0.51, 0.99, 97)]
    assert sum(sol.optimal for sol in sols) >= 60
    assert max(abs(sol.t - 0.5) for sol in sols) <= 1e-10


def test_single_column_forces_the_bound():
    sol = solve_bound_problem(
        np.array([2.0]), np.array([6.0]), [np.ones((1, 1, 1))], np.array([0.5])
    )
    assert sol.optimal
    assert sol.t == pytest.approx(3.0, abs=1e-8)


def test_rejects_nonpositive_start():
    blocks = [np.ones((2, 1, 1))]
    with pytest.raises(ArgumentError):
        solve_bound_problem(np.ones(2), np.ones(2), blocks, np.array([1.0, 0.0]))


@pytest.mark.parametrize("where", ["n", "c", "block", "x0"])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_rejects_non_finite_input(where, bad):
    # NaN input would otherwise run every iteration on NaN and return t = nan
    args = {"n": np.ones(2), "c": np.ones(2), "block": np.ones((2, 1, 1)),
            "x0": np.full(2, 0.5)}
    args[where].flat[-1] = bad
    with pytest.raises(ArgumentError):
        solve_bound_problem(args["n"], args["c"], [args["block"]], args["x0"])


def test_non_finite_iterate_is_a_linalg_error():
    # finite costs near the float range overflow s / x in the first Schur
    # complement; the next iterate is not finite and the solve must say so,
    # with that error as its only signal (no RuntimeWarning, see pytestmark)
    with pytest.raises(np.linalg.LinAlgError, match="not finite"):
        solve_bound_problem(np.ones(2), np.full(2, 1e308), [np.ones((2, 1, 1))],
                            np.full(2, 0.5))


def test_feasible_value_at_zero_dual_is_min_cost_ratio():
    rng = np.random.default_rng(3)
    n, c, blocks, _ = random_lp(rng, 5, 2)
    t = feasible_value(n, c, blocks, [np.zeros((1, 1)) for _ in blocks])
    assert t == pytest.approx((c / n).min())


def test_polish_never_loses_value_and_stays_feasible():
    n = np.ones(2)
    c = np.array([1.0, 0.0])
    blocks = [np.stack([np.eye(2), np.array([[0.0, 1.0], [1.0, 0.0]])])]
    sol = solve_bound_problem(n, c, blocks, np.array([0.9, 0.1]), tol=1e-6)
    t_in = feasible_value(n, c, blocks, sol.y)
    t_out, y_out = polish_dual(n, c, blocks, sol.y, x=sol.x)
    assert t_out >= t_in - 1e-15
    assert t_out == pytest.approx(feasible_value(n, c, blocks, y_out), abs=1e-12)
    assert t_out == pytest.approx(0.5, abs=1e-10)
    for y in y_out:
        assert np.linalg.eigvalsh(y).min() >= -1e-12


def test_polish_drops_a_block_that_is_zero_at_the_optimum():
    # the two-by-two instance plus a 1x1 block x1 + x2 >= 0 that is slack at
    # the optimum, so its dual block ends the solve as interior-point residue
    n = np.ones(2)
    c = np.array([1.0, 0.0])
    blocks = [
        np.stack([np.eye(2), np.array([[0.0, 1.0], [1.0, 0.0]])]),
        np.ones((2, 1, 1)),
    ]
    sol = solve_bound_problem(n, c, blocks, np.array([0.9, 0.1]), tol=1e-6)
    t_out, y_out = polish_dual(n, c, blocks, sol.y, x=sol.x)
    assert t_out == pytest.approx(feasible_value(n, c, blocks, y_out), abs=1e-12)
    assert t_out == pytest.approx(0.5, abs=1e-10)
    for y in y_out:
        assert np.linalg.eigvalsh(y).min() >= -1e-12


@given(seed=st.integers(0, 10_000))
@settings(max_examples=30, deadline=None)
def test_polish_output_is_feasible_for_arbitrary_duals(seed):
    rng = np.random.default_rng(seed)
    n, c, blocks, _ = random_lp(rng, 4, 2)
    y = [rng.uniform(0.0, 2.0, (1, 1)) for _ in blocks]
    t_in = feasible_value(n, c, blocks, y)
    t_out, y_out = polish_dual(n, c, blocks, y)
    assert t_out >= t_in - 1e-15
    assert t_out == pytest.approx(feasible_value(n, c, blocks, y_out), abs=1e-10)


def mixed_instance(rng, cols, dims):
    """Random symmetric blocks of the given dimensions, each shifted by a
    multiple of n times the identity so x0 puts every block sum strictly
    inside the cone; n > 0 keeps the feasible region compact."""
    n = rng.uniform(0.5, 2.0, cols)
    c = rng.uniform(0.0, 3.0, cols)
    x0 = rng.uniform(0.2, 1.0, cols)
    x0 /= n @ x0
    blocks = []
    for d in dims:
        a = rng.normal(size=(cols, d, d))
        a = a + a.transpose(0, 2, 1)
        low = np.linalg.eigvalsh(np.tensordot(x0, a, axes=([0], [0])))[0]
        blocks.append(a + (0.5 - low) * n[:, None, None] * np.eye(d))
    return n, c, blocks, x0


@pytest.mark.parametrize("seed", range(4))
def test_interleaved_block_dimensions(seed):
    # blocks of one dimension are solved as one stack; y must come back in
    # input order, and the block order may move t only by roundoff.  Solved
    # to 1e-6, short of the endgame where both orders can stall.
    rng = np.random.default_rng(seed)
    dims = [2, 1, 3, 1, 2, 3, 1]
    n, c, blocks, x0 = mixed_instance(rng, 9, dims)
    sol = solve_bound_problem(n, c, blocks, x0, tol=1e-6)
    assert sol.optimal
    assert [y.shape for y in sol.y] == [(d, d) for d in dims]
    assert sol.t == pytest.approx(feasible_value(n, c, blocks, sol.y), abs=1e-4)
    perm = rng.permutation(len(dims))
    moved = solve_bound_problem(n, c, [blocks[i] for i in perm], x0, tol=1e-6)
    assert moved.optimal
    assert moved.t == pytest.approx(sol.t, abs=1e-9)
    for y_moved, i in zip(moved.y, perm):
        assert y_moved == pytest.approx(sol.y[i], abs=1e-8)


def test_a_stalled_solve_returns_its_best_iterate():
    # at 1e-12 this instance stops improving near merit 4; the solve must
    # notice within a few iterations and hand back the best point it saw,
    # not the last one
    rng = np.random.default_rng(0)
    n, c, blocks, x0 = mixed_instance(rng, 9, [2, 1, 3, 1, 2, 3, 1])
    sol = solve_bound_problem(n, c, blocks, x0, tol=1e-12)
    assert sol.status == "stalled"
    assert sol.iterations < 30
    assert len(sol.history) == sol.iterations
    merits = [h.merit for h in sol.history]
    best = sol.history[int(np.argmin(merits))]
    assert best is not sol.history[-1]
    # gap and |rp| are recomputed from the returned (t, x) by the same
    # arithmetic as the record, so they match exactly
    assert sol.gap == best.gap
    assert abs(1.0 - n @ sol.x) == best.rp
    assert sol.history[-1].ap == sol.history[-1].ad == 0.0


def test_psd_step_on_a_stack_matches_generalized_eigenvalues():
    rng = np.random.default_rng(5)
    for d in (1, 2, 3):
        g = rng.normal(size=(6, d, d))
        m_mats = g @ g.transpose(0, 2, 1) + 0.1 * np.eye(d)
        dm = rng.normal(size=(6, d, d))
        dm = dm + dm.transpose(0, 2, 1)
        dm[0] = np.abs(dm[0])  # one matrix that never leaves the cone when d = 1
        _, inv_sqrt = _sqrt_and_inv_sqrt(m_mats)
        # M + a dM >= 0 iff 1 + a lam >= 0 for each eigenvalue lam of (dM, M)
        lows = [generalized_eigh(b, a, eigvals_only=True)[0] for a, b in zip(m_mats, dm)]
        want = [np.inf if low >= 0 else 1.0 / -low for low in lows]
        for a_inv, b, w in zip(inv_sqrt, dm, want):
            assert _psd_steps((a_inv,), (b,)) == pytest.approx([w], rel=1e-9)
        assert _psd_steps((inv_sqrt,), (dm,)) == pytest.approx([min(want)], rel=1e-9)
        # one call over two stacks gives each stack's step
        assert _psd_steps((inv_sqrt[:3], inv_sqrt[3:]), (dm[:3], dm[3:])) == pytest.approx(
            [min(want[:3]), min(want[3:])], rel=1e-9)
