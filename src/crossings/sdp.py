"""Primal-dual interior-point solver for the reduced relaxations.

Both relaxations share one shape: columns indexed by constraint classes,
one normalization row, and semidefinite block constraints,

    minimize  c.x   over  x >= 0,  n.x = 1,  sum_j x_j A_Bj >= 0 per block,

whose dual asks for the best uniform lower bound,

    maximize  t   over  Y_B >= 0,  sum_B <Y_B, A_Bj> + n_j t <= c_j.

Nesterov-Todd scaled Newton steps with Mehrotra's corrector on the
nonnegative part.  Problems here are small (blocks of a few dozen rows,
at most a few thousand columns), so LAPACK calls, not flops, set the cost:
the Schur complement K is formed densely and eigendecomposed once per
iteration, and every right side of the iteration reuses that one
factorization.  Eigenvalues that roundoff pushes to zero or below are
floored at 1e-14 times the largest, about 45 eps |K|, so the solve stays
bounded along near-null directions and keeps every eigenvalue roundoff
did not lose.

The full relaxation has many small blocks of a few distinct dimensions, so
the solver groups blocks of one dimension into a (cols, k, d, d) stack and
every per-block step (scaling, right sides, directions, step lengths) is one
batched numpy call per stack; the single-block relaxation is one stack of
one block.  The inverse square roots of M and Y that bound the step lengths
are computed once per iteration, with the scaling.

Near the optimum the Schur complement K is ill conditioned (cond(K) near
1e13 once the gap is below 1e-9), and the dual blocks dY = W^-1 (R - dM)
W^-1 are formed apart from K, so the direction the elimination returns can
miss its own dual equation by eps |K| |dx|; left alone, that error enters
the dual residual and each later direction amplifies it.  So every
direction gets one step of iterative refinement, as in SDPT3 (Toh, Todd and
Tutuncu, Optim. Methods Softw. 1999): its residuals against the linearized
equations go through the same elimination once more and the correction is
added.  Once the merit (the largest of the gap and the two residuals, each
over its optimality threshold) has gone a few iterations without a new
best, the solve stops and returns its best iterate.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ArgumentError

# One pass of iterative refinement per Newton direction brings its
# linearized residuals from about eps * cond(K) down to roundoff; a second
# pass costs more time than it saves.
_REFINE_STEPS = 1
# Iterations the merit may go without a new best, once it is below 1e3,
# before the solve stops and returns its best iterate.
_PATIENCE = 4
_MAX_ITER = 100
# polish_dual keeps the eigenvalues above _RANK_TOL times the largest over
# all blocks and refines the columns with slack at most _TIGHT_TOL (1 + max|c|).
_RANK_TOL = 1e-6
_TIGHT_TOL = 1e-4


@dataclass
class IterationRecord:
    """Residuals of the iterate an iteration started from, and the step
    lengths it then took (0 where the solve ended at that iterate)."""

    mu: float
    gap: float
    rp: float
    rd: float
    merit: float
    ap: float
    ad: float


@dataclass
class ConicSolution:
    status: str
    t: float
    x: np.ndarray
    y: list[np.ndarray]
    s: np.ndarray
    gap: float
    iterations: int
    history: list[IterationRecord] = field(default_factory=list)

    @property
    def optimal(self) -> bool:
        return self.status == "optimal"


def _sqrt_and_inv_sqrt(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Symmetric square root and its inverse of a matrix or of each matrix
    in a stack, eigenvalues clamped from below so nearly singular iterates
    stay usable."""
    vals, vecs = np.linalg.eigh(a)
    vals = np.maximum(vals, np.maximum(vals[..., -1:], 1.0) * 1e-15)
    root = np.sqrt(vals)[..., None, :]
    vecs_t = vecs.swapaxes(-1, -2)
    return (vecs * root) @ vecs_t, (vecs / root) @ vecs_t


class _Scaling:
    """Nesterov-Todd scaling W Y W = M for a stack of blocks, with the
    pieces the corrected Newton step needs: W^-1, W^(1/2), W^(-1/2), the
    scaled point V = W^(-1/2) M W^(-1/2) = W^(1/2) Y W^(1/2), and M^(-1/2)
    and Y^(-1/2) for the step lengths."""

    def __init__(self, m_mat: np.ndarray, y_mat: np.ndarray):
        sq, self.m_inv_sqrt = _sqrt_and_inv_sqrt(m_mat)
        _, self.y_inv_sqrt = _sqrt_and_inv_sqrt(y_mat)
        vals, vecs = np.linalg.eigh(sq @ y_mat @ sq)
        vals = np.maximum(vals, np.maximum(vals[..., -1:], 1.0) * 1e-16)
        root = np.sqrt(vals)[..., None, :]
        vecs_t = vecs.swapaxes(-1, -2)
        inner = (vecs * root) @ vecs_t
        self.winv = self.m_inv_sqrt @ inner @ self.m_inv_sqrt
        self.whalf, self.winvhalf = _sqrt_and_inv_sqrt(sq @ ((vecs / root) @ vecs_t) @ sq)
        self.v = self.winvhalf @ m_mat @ self.winvhalf
        self.vvals, self.vvecs = np.linalg.eigh(0.5 * (self.v + self.v.swapaxes(-1, -2)))

    def lyapunov_rhs(self, target: np.ndarray) -> np.ndarray:
        """R with dM + W dY W = R equivalent to the scaled Newton equation
        (V dV' + dV' V)/2 = target; for target = -V^2/... the plain affine
        right side -M falls out."""
        q, lam = self.vvecs, self.vvals
        q_t = q.swapaxes(-1, -2)
        denom = 0.5 * (lam[..., :, None] + lam[..., None, :])
        np.maximum(denom, np.maximum(lam[..., -1:, None], 1.0) * 1e-15, out=denom)
        solved = q @ ((q_t @ target @ q) / denom) @ q_t
        solved = 0.5 * (solved + solved.swapaxes(-1, -2))
        return self.whalf @ solved @ self.whalf


def _psd_step(inv_sqrt: np.ndarray, dm: np.ndarray) -> float:
    """Largest step a with M + a dM still positive semidefinite, for one
    matrix or every matrix of a stack, given M^(-1/2)."""
    low = np.linalg.eigvalsh(inv_sqrt @ dm @ inv_sqrt)[..., 0].min()
    return np.inf if low >= -1e-14 else 1.0 / -low


def _vec_step(v: np.ndarray, dv: np.ndarray) -> float:
    neg = dv < 0
    return float((-v[neg] / dv[neg]).min()) if neg.any() else np.inf


def solve_bound_problem(
    n: np.ndarray,
    c: np.ndarray,
    blocks: list[np.ndarray],
    x0: np.ndarray,
    tol: float = 1e-9,
) -> ConicSolution:
    """Solve one relaxation instance to relative tolerance tol.

    blocks holds one (cols, d, d) stack of symmetric coefficient matrices
    per semidefinite block; x0 must put the block sums strictly inside the
    cone.  The returned t is the dual bound; y holds one matrix per block,
    in input order, feasible up to roundoff (certify exactly downstream
    before quoting t).

    status is "optimal" when the relative gap is at most tol, |1 - n.x| at
    most 10 tol and the dual residual at most 10 tol (1 + max|c|).  It is
    "stalled" when the merit max(gap / tol, |rp| / (10 tol),
    max|rd| / (10 tol (1 + max|c|))), whose value at most 1 is that test,
    has fallen below 1e3 and then gone _PATIENCE iterations without a new
    best, or when neither step length clears 1e-10; it is "max_iter" when
    _MAX_ITER iterations run out.  Unless optimal, the solve returns the
    iterate of smallest merit, not the last one.  iterations counts the
    iterations that ran, and history holds one IterationRecord per
    iteration.  Input that is not finite raises ArgumentError, and an
    iterate that is not finite raises np.linalg.LinAlgError.
    """
    n = np.asarray(n, dtype=np.float64)
    c = np.asarray(c, dtype=np.float64)
    cols = n.size
    dims = [np.shape(b)[1] for b in blocks]
    # blocks of one dimension are solved as one (cols, k, d, d) stack
    members: dict[int, list[int]] = {}
    for pos, d in enumerate(dims):
        members.setdefault(d, []).append(pos)
    groups = [members[d] for d in sorted(members)]
    stacks = [
        np.stack([np.asarray(blocks[pos], dtype=np.float64) for pos in grp], axis=1)
        for grp in groups
    ]
    vecs = [b.reshape(cols, -1) for b in stacks]

    x = np.asarray(x0, dtype=np.float64).copy()
    if not all(np.isfinite(a).all() for a in (n, c, x, *stacks)):
        raise ArgumentError("n, c, the blocks and the starting point must be finite")
    if (x <= 0).any():
        raise ArgumentError("starting point must be strictly positive")
    t = 0.0
    y = [np.tile(np.eye(b.shape[-1]), (b.shape[1], 1, 1)) for b in stacks]
    s = np.maximum(np.abs(c), 1.0)
    degree = cols + sum(dims)

    def mats_of(xv):
        return [np.tensordot(xv, b, axes=([0], [0])) for b in stacks]

    m_list = mats_of(x)
    for m_mat in m_list:
        np.linalg.cholesky(m_mat)

    def adjoint(dys):
        return sum(v @ dy_.ravel() for v, dy_ in zip(vecs, dys))

    rd_scale = 1.0 + np.abs(c).max()
    history: list[IterationRecord] = []
    best_merit, best, since_best = np.inf, None, 0
    status, it = "max_iter", 0
    for it in range(1, _MAX_ITER + 1):
        rp = 1.0 - n @ x
        rd = c - n * t - adjoint(y) - s
        rd_max = float(np.abs(rd).max())
        mu = (x @ s + sum(float((m * ym).sum()) for m, ym in zip(m_list, y))) / degree
        obj = c @ x
        gap = abs(obj - t) / (1.0 + abs(obj) + abs(t))
        # merit <= 1 is the optimality test below, up to rounding; np.max,
        # unlike max, carries a NaN through to the finiteness check
        merit = float(np.max([gap / tol, abs(rp) / (10 * tol),
                              rd_max / (10 * tol * rd_scale)]))
        if not np.isfinite(merit):
            raise np.linalg.LinAlgError(f"iterate {it} is not finite")
        record = IterationRecord(float(mu), float(gap), float(abs(rp)), rd_max,
                                 float(merit), 0.0, 0.0)
        history.append(record)
        if merit < best_merit:
            best_merit, since_best = merit, 0
            best = (x, t, s, y)
        else:
            since_best += 1
        if (
            gap <= tol
            and abs(rp) <= tol * 10
            and rd_max <= tol * 10 * rd_scale
        ):
            status = "optimal"
            break
        if best_merit < 1e3 and since_best >= _PATIENCE:
            status = "stalled"
            break

        scals = [_Scaling(m, ym) for m, ym in zip(m_list, y)]
        winvs = [sc.winv for sc in scals]
        kmat = np.zeros((cols, cols))
        for b, v, wi in zip(stacks, vecs, winvs):
            tb = (wi @ (b @ wi)).reshape(cols, -1)
            kmat += tb @ v.T
        kmat = 0.5 * (kmat + kmat.T)
        kmat[np.diag_indices_from(kmat)] += s / x
        kval, kvec = np.linalg.eigh(kmat)
        kval[kval <= 0] = 1e-14 * np.abs(kval).max() + 1e-300

        def ksolve(rhs):
            # one pass of residual correction against K as formed
            sol = kvec @ ((kvec.T @ rhs) / kval)
            return sol + kvec @ ((kvec.T @ (rhs - kmat @ sol)) / kval)

        kn = ksolve(n)
        denom = n @ kn

        def eliminate(ep, ed, ec, r_blocks):
            # solve n.dx = ep, n dt + sum_B A_B^T dY_B + ds = ed,
            # s dx + x ds = ec and dM + W dY W = R: eliminate
            # dY = Winv (R - dM) Winv and ds = (ec - s dx)/x, leaving
            # (K + diag(s/x)) dx = n dt - (ed - p - ec/x)
            p = np.zeros(cols)
            for v, wi, rb in zip(vecs, winvs, r_blocks):
                p += v @ (wi @ rb @ wi).ravel()
            g = ed - p - ec / x
            kg = ksolve(g)
            dt = (ep + n @ kg) / denom
            dx = kn * dt - kg
            ds = (ec - s * dx) / x
            dm_list = mats_of(dx)
            dy = [wi @ (rb - dm) @ wi for wi, rb, dm in zip(winvs, r_blocks, dm_list)]
            dy = [0.5 * (d_ + d_.swapaxes(-1, -2)) for d_ in dy]
            return dx, dt, ds, dy, dm_list

        zero_blocks = [np.zeros_like(m) for m in m_list]

        def direction(rc, r_blocks):
            # dY is formed apart from K, and once |W^-1|^2 ~ 1/mu the two
            # disagree by about eps |K| |dx|; refining against the
            # equations themselves keeps that error out of rd
            dx, dt, ds, dy, dm_list = eliminate(rp, rd, rc, r_blocks)
            for _ in range(_REFINE_STEPS):
                fix = eliminate(rp - n @ dx, rd - (n * dt + adjoint(dy) + ds),
                                rc - (s * dx + x * ds), zero_blocks)
                dx, dt, ds = dx + fix[0], dt + fix[1], ds + fix[2]
                dy = [a + b for a, b in zip(dy, fix[3])]
                dm_list = [a + b for a, b in zip(dm_list, fix[4])]
            return dx, dt, ds, dy, dm_list

        def step_pair(dx, ds, dm_list, dy, frac):
            # the largest steps, times frac, that keep both points in their cones
            cone_p = min((_psd_step(sc.m_inv_sqrt, dm) for sc, dm in zip(scals, dm_list)),
                         default=np.inf)
            cone_d = min((_psd_step(sc.y_inv_sqrt, dy_) for sc, dy_ in zip(scals, dy)),
                         default=np.inf)
            return (frac * min(1.0 / frac, _vec_step(x, dx), cone_p),
                    frac * min(1.0 / frac, _vec_step(s, ds), cone_d))

        # predictor: pure Newton toward complementarity zero
        rc_aff = -x * s
        r_aff = [-m for m in m_list]
        dxa, dta, dsa, dya, dma = direction(rc_aff, r_aff)
        ap_aff, ad_aff = step_pair(dxa, dsa, dma, dya, 1.0)
        mu_aff = (
            (x + ap_aff * dxa) @ (s + ad_aff * dsa)
            + sum(
                float(((m + ap_aff * dm) * (ym + ad_aff * dy_)).sum())
                for m, dm, ym, dy_ in zip(m_list, dma, y, dya)
            )
        ) / degree
        sigma = min(0.8, max((max(mu_aff, 0.0) / mu) ** 3, 1e-8))

        bound = 0.98 if mu > 1e-7 else 0.999

        def corrected(center, with_second):
            rc = center * mu - x * s
            if with_second:
                rc = rc - dxa * dsa
            r_blocks = []
            for sc, dm_, dy_ in zip(scals, dma, dya):
                target = center * mu * np.eye(sc.v.shape[-1]) - sc.v @ sc.v
                if with_second:
                    dmt = sc.winvhalf @ dm_ @ sc.winvhalf
                    dyt = sc.whalf @ dy_ @ sc.whalf
                    target = target - 0.5 * (dmt @ dyt + dyt @ dmt)
                r_blocks.append(sc.lyapunov_rhs(target))
            return direction(rc, r_blocks)

        dx, dt, ds, dy, dm_list = corrected(sigma, True)
        ap, ad = step_pair(dx, ds, dm_list, dy, bound)
        # Near convergence the second-order term can point straight out of
        # the cone; a plain centering step keeps progress alive.
        if min(ap, ad) < 0.1 * min(ap_aff, ad_aff):
            cand = corrected(max(sigma, 0.5), False)
            cp, cd = step_pair(cand[0], cand[2], cand[4], cand[3], bound)
            if min(cp, cd) > min(ap, ad):
                dx, dt, ds, dy, dm_list = cand
                ap, ad = cp, cd
        if ap < 1e-10 and ad < 1e-10:
            status = "stalled"
            break
        record.ap, record.ad = float(ap), float(ad)
        x = x + ap * dx
        t = t + ad * dt
        s = s + ad * ds
        y = [ym + ad * dy_ for ym, dy_ in zip(y, dy)]
        m_list = mats_of(x)

    if status != "optimal" and best is not None:
        x, t, s, y = best
    by_pos = {pos: ym[j] for grp, ym in zip(groups, y) for j, pos in enumerate(grp)}
    gap = abs(c @ x - t) / (1.0 + abs(c @ x) + abs(t))
    return ConicSolution(status=status, t=float(t), x=x, y=[by_pos[pos] for pos in range(len(dims))],
                         s=s, gap=float(gap), iterations=it, history=history)


def _dual_slacks(
    n: np.ndarray, c: np.ndarray, blocks: list[np.ndarray], y: list[np.ndarray], t: float = 0.0
) -> np.ndarray:
    """Column slacks c - n t - sum_B <Y_B, A_B>, blocks summed in order."""
    n = np.asarray(n, dtype=np.float64)
    adj = np.zeros(n.size)
    for b, ym in zip(blocks, y):
        adj += np.asarray(b, dtype=np.float64).reshape(n.size, -1) @ ym.ravel()
    return np.asarray(c, dtype=np.float64) - n * t - adj


def feasible_value(
    n: np.ndarray, c: np.ndarray, blocks: list[np.ndarray], y: list[np.ndarray]
) -> float:
    """Largest t keeping (t, y) dual feasible: the worst slack over all
    columns.  Well defined because the normalization row is positive."""
    return float((_dual_slacks(n, c, blocks, y) / np.asarray(n, dtype=np.float64)).min())


def polish_dual(
    n: np.ndarray,
    c: np.ndarray,
    blocks: list[np.ndarray],
    y: list[np.ndarray],
    x: np.ndarray | None = None,
) -> tuple[float, list[np.ndarray]]:
    """Refine a near-optimal dual point onto its active face.

    The interior-point endgame is conditioning-limited; the optimum itself
    is not.  Factoring each block as B B^T at its apparent rank and running
    Gauss-Newton on the nearly tight columns drives the active slacks to
    roundoff, after which the worst slack over every column prices the
    refined point.  The apparent rank counts eigenvalues above _RANK_TOL
    times the largest eigenvalue over all blocks, not the block's own: a
    block that is zero at the optimum ends the solve holding only
    interior-point residue, and judged against itself that residue would
    stay as nearly singular unknowns that stall the Gauss-Newton steps.
    Whatever the face guess, the returned pair is feasible, so a wrong
    guess costs accuracy, never soundness.  Returns the better of the
    refined and the incoming point."""
    n = np.asarray(n, dtype=np.float64)
    c = np.asarray(c, dtype=np.float64)
    stacks = [np.ascontiguousarray(b, dtype=np.float64) for b in blocks]
    t_in = feasible_value(n, c, stacks, y)

    spectra = [np.linalg.eigh(np.asarray(ym, dtype=np.float64)) for ym in y]
    cut = _RANK_TOL * max(max(vals[-1] for vals, _ in spectra), 0.0)
    factors = []
    for vals, vecs_ in spectra:
        keep = vals > cut
        factors.append(vecs_[:, keep] * np.sqrt(vals[keep]))
    sizes = [f.size for f in factors]
    if sum(sizes) == 0:
        return t_in, y

    scale = 1.0 + np.abs(c).max()

    def slacks(fs, t):
        return _dual_slacks(n, c, stacks, [f @ f.T for f in fs], t)

    active = slacks(factors, t_in) <= _TIGHT_TOL * scale
    if x is not None:
        # degenerate columns sit with both x and slack small; the primal
        # support resolves what the slacks alone cannot
        active |= np.asarray(x, dtype=np.float64) >= 1e-5 * np.abs(x).max()
    tight = np.flatnonzero(active)
    if tight.size == 0:
        return t_in, y

    theta_t = t_in
    best = (-np.inf, None)
    res = slacks(factors, theta_t)[tight]
    for _ in range(40):
        norm = np.abs(res).max()
        if norm < 1e-14 * scale:
            break
        jac = np.empty((tight.size, sum(sizes) + 1))
        col = 0
        for b, f in zip(stacks, factors):
            if f.size:
                jac[:, col : col + f.size] = (b[tight] @ f).reshape(tight.size, -1)
                col += f.size
        jac[:, -1] = 0.5 * n[tight]
        step, *_ = np.linalg.lstsq(jac, 0.5 * res, rcond=None)
        scale_step = 1.0
        for _ in range(6):
            trial = []
            col = 0
            for f in factors:
                trial.append(f + scale_step * step[col : col + f.size].reshape(f.shape))
                col += f.size
            trial_t = theta_t + scale_step * step[-1]
            trial_res = slacks(trial, trial_t)[tight]
            if np.abs(trial_res).max() < norm:
                break
            scale_step *= 0.5
        else:
            break
        factors, theta_t, res = trial, trial_t, trial_res
        t_now = feasible_value(n, c, stacks, [f @ f.T for f in factors])
        if t_now > best[0]:
            best = (t_now, [f.copy() for f in factors])

    if best[1] is not None and best[0] > t_in:
        return best[0], [f @ f.T for f in best[1]]
    return t_in, y
