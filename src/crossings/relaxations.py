"""Drivers that turn coefficient tables into certified optimum values.

Both relaxations reduce to the same conic shape, so the flow is shared:
assemble the equilibrated instance (every class block divided by its class
size, costs the plain distances), solve in floating point, polish the dual
onto its active face, then certify.  Certification rounds the dual blocks
to dyadic rationals and rebuilds them as integer-weighted sums of integer
rank-one terms; positive semidefiniteness then holds by construction, and
every class constraint is priced with exact integer arithmetic against the
stored integer tables.  The certified value is a true lower bound no
matter what the floating-point stages did.

The two relaxations differ only in their blocks: the single-block one
keeps the distinguished hook block, the full one every block.  One
cutting-plane loop serves both.  It solves restricted instances, scans
every class for violated columns, adds the worst offenders, and repeats
until the scan comes back clean.  The scan result is advisory; soundness
rests on the certificate alone.  The first restricted instance holds only
class 0, the class of the equal pairs (sigma, sigma), which comes first
because the base word has the smallest canonical key; its blocks are
positive definite, so it anchors a strictly feasible start in every round.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from . import cache
from .coeffs import PairTables, block_constraint_tables, hook_constraint_table
from .errors import ArgumentError, DataError, ResourceError, SolverError
from .repsets import build_blocks, hook_block_dim
from .sdp import polish_dual, solve_bound_problem

# The cutting loop stops once no class is violated by more than _TOL_CUT
# per element, adds at most _BATCH classes per round, and gives up after
# _MAX_ROUNDS rounds.  The certificate rounds dual eigenpairs to _BITS
# binary places.  The certificate is sound for any of these values; they
# only decide how sharp it is and how long the run takes.
_TOL_CUT = 1e-7
_BATCH = 50
_MAX_ROUNDS = 200
_BITS = 48


@dataclass
class RoundRecord:
    round: int
    active: int
    objective: float
    max_violation: float
    worst_class: int
    wall_ms: float
    iterations: int
    status: str


@dataclass
class Certificate:
    """Exactly positive semidefinite dual point with its priced value.

    Each numerator matrix N and the common denominator D describe the
    block N/D, assembled as a nonnegative-integer-weighted sum of integer
    rank-one terms.  value is the exact minimum over classes of
    (|w| q_w - <N/D, A_w>) / |w|, so value <= the relaxation optimum."""

    numerators: list[np.ndarray]
    denominator: int
    value: Fraction
    worst_class: int

    @property
    def bound(self) -> float:
        return float(self.value)


@dataclass
class RelaxationOutcome:
    m: int
    kind: str
    value: float
    raw: float
    certificate: Certificate
    class_count: int
    rounds: list[RoundRecord] = field(default_factory=list)
    y: list[np.ndarray] = field(default_factory=list)
    active: np.ndarray | None = None

    @property
    def iterations(self) -> int:
        """Interior-point iterations summed over all rounds."""
        return sum(r.iterations for r in self.rounds)

    @property
    def status(self) -> str:
        """Solver status of the last round."""
        return self.rounds[-1].status


# -- table acquisition -------------------------------------------------------


def coeff_tables(
    m: int, kind: str, cache_dir=None
) -> tuple[tuple[int, ...], np.ndarray, np.ndarray, np.ndarray]:
    """Integer tables (dims, sizes, costs, upper triangles concatenated in
    block order) of one relaxation, kind "single" or "full", through the
    coefficient cache when a valid file is present."""
    if kind not in ("single", "full"):
        raise ArgumentError(f"unknown relaxation kind {kind!r}")
    if m < 4:
        raise ArgumentError(f"{kind} relaxation needs m >= 4")
    if kind == "full" and m > 9:
        raise ResourceError(
            f"full relaxation tables at m={m} exceed the memory budget"
        )
    path = cache.coeffs_path(cache.resolve_cache_dir(cache_dir), m, kind)
    if path.exists():
        dims, _, sizes, qs, tri = cache.read_coeffs(path, m)
        return dims, sizes.astype(np.int64), qs.astype(np.int64), tri
    tables = PairTables.build(m)
    if kind == "single":
        dims = (hook_block_dim(m),)
        tri = hook_constraint_table(tables)
    else:
        blocks = build_blocks(tables.index)
        dims = tuple(b.dim for b in blocks)
        stacks = block_constraint_tables(tables, blocks)
        tri = np.concatenate(
            [s[:, iu[0], iu[1]] for s, iu in zip(stacks, map(np.triu_indices, dims))],
            axis=1,
        )
    classes = tables.classes
    cache.write_coeffs(path, m, dims, classes.rep_orbits, classes.sizes, classes.q, tri)
    return dims, classes.sizes.astype(np.int64), classes.q.astype(np.int64), tri


def split_triangles(tri: np.ndarray, dims: tuple[int, ...]) -> list[np.ndarray]:
    """Rebuild full symmetric (C, d, d) integer stacks from packed rows."""
    out = []
    off = 0
    for d in dims:
        t = d * (d + 1) // 2
        iu = np.triu_indices(d)
        block = np.zeros((tri.shape[0], d, d), dtype=tri.dtype)
        block[:, iu[0], iu[1]] = tri[:, off : off + t]
        block[:, iu[1], iu[0]] = tri[:, off : off + t]
        off += t
        out.append(block)
    return out


# -- instance assembly -------------------------------------------------------


def _strict_start(mats: list[np.ndarray], sizes: np.ndarray) -> np.ndarray:
    """Strictly feasible start weighted toward the first column, which must
    be class 0: its blocks are positive definite (see _relax)."""
    base = sizes.astype(np.float64)
    base /= base.sum()
    for eps in (0.5, 0.1, 0.01, 1e-3, 1e-4):
        x0 = eps * base
        x0[0] += 1.0 - eps
        try:
            for mat in mats:
                np.linalg.cholesky(np.tensordot(x0, mat, axes=([0], [0])))
        except np.linalg.LinAlgError:
            continue
        return x0
    raise SolverError("could not build a strictly feasible starting point")


def _packed(ys: list[np.ndarray], dims: tuple[int, ...]) -> np.ndarray:
    """Upper triangles of the blocks, concatenated in block order, with the
    off-diagonal entries doubled, so tri @ packed is sum_B <Y_B, A_B>."""
    parts = []
    for y, d in zip(ys, dims):
        iu = np.triu_indices(d)
        parts.append(y[iu] * np.where(iu[0] == iu[1], 1.0, 2.0))
    return np.concatenate(parts)


def class_slacks(
    ys: list[np.ndarray],
    dims: tuple[int, ...],
    t: float,
    sizes: np.ndarray,
    qs: np.ndarray,
    tri: np.ndarray,
) -> np.ndarray:
    """Per-element slack of every class constraint at the dual point."""
    return qs - t - (tri @ _packed(ys, dims)) / sizes


def scan_violations(
    ys: list[np.ndarray],
    dims: tuple[int, ...],
    t: float,
    sizes: np.ndarray,
    qs: np.ndarray,
    tri: np.ndarray,
) -> tuple[float, np.ndarray]:
    """Worst per-element violation over all classes and the ids of the
    _BATCH worst offenders, worst first, ties broken toward the smaller id."""
    v = -class_slacks(ys, dims, t, sizes, qs, tri)
    order = np.lexsort((np.arange(v.size), -v))
    picked = order[:_BATCH]
    return float(v.max()), picked[v[picked] > 0].astype(np.int64)


# -- exact certification -----------------------------------------------------


def _dyadic_numerator(y: np.ndarray) -> np.ndarray:
    """Integer N with N / 2^(3 _BITS) an exactly PSD rounding of y: each
    retained eigenpair is rounded to dyadic rationals and re-expanded, so N
    is a nonnegative-integer combination of integer rank-one terms."""
    scale = 1 << _BITS
    vals, vecs = np.linalg.eigh(np.asarray(y, dtype=np.float64))
    n_mat = np.zeros(y.shape, dtype=object)
    for lam, w in zip(vals, vecs.T):
        lw = int(round(lam * scale))
        if lw <= 0:
            continue
        wi = np.array([int(round(c * scale)) for c in w], dtype=object)
        n_mat += lw * np.outer(wi, wi)
    return n_mat


def _certified_min(
    inners: np.ndarray, sizes: np.ndarray, qs: np.ndarray, denom: int
) -> tuple[Fraction, int]:
    best_num = best_den = None
    worst = 0
    for i in range(len(inners)):
        num = int(qs[i]) * denom * int(sizes[i]) - int(inners[i])
        den = denom * int(sizes[i])
        if best_num is None or num * best_den < best_num * den:
            best_num, best_den, worst = num, den, i
    return Fraction(best_num, best_den), worst


def certify(
    ys: list[np.ndarray],
    dims: tuple[int, ...],
    sizes: np.ndarray,
    qs: np.ndarray,
    tri: np.ndarray,
) -> Certificate:
    """Exact lower bound certificate from near-optimal dual blocks, one per
    entry of dims, priced against the packed integer triangles."""
    numerators = [_dyadic_numerator(y) for y in ys]
    denom = 1 << (3 * _BITS)
    nvec = []
    for n_mat, d in zip(numerators, dims):
        iu = np.triu_indices(d)
        nvec.extend(int(n_mat[i, j]) * (1 if i == j else 2) for i, j in zip(*iu))
    inners = tri.astype(object) @ np.array(nvec, dtype=object)
    value, worst = _certified_min(inners, sizes, qs, denom)
    return Certificate(numerators, denom, value, worst)


def exactly_psd(numerator: np.ndarray) -> bool:
    """Pivoted rational elimination; no rounding anywhere."""
    a = [[Fraction(int(v)) for v in row] for row in np.asarray(numerator, dtype=object)]
    idx = list(range(len(a)))
    while idx:
        piv = max(idx, key=lambda i: a[i][i])
        if a[piv][piv] < 0:
            return False
        if a[piv][piv] == 0:
            return all(a[i][j] == 0 for i in idx for j in idx)
        idx.remove(piv)
        for i in idx:
            r = a[i][piv] / a[piv][piv]
            for j in idx:
                a[i][j] -= r * a[piv][j]
    return True


def rank_report(y: np.ndarray) -> tuple[int, np.ndarray | None]:
    """Numerical rank of an optimal dual block (eigenvalues above 1e-6 of
    the largest), and for rank one the vector v with y = 2 v v^T; the
    factor two mirrors the ordered-pair counting in the class forms."""
    vals, vecs = np.linalg.eigh(np.asarray(y, dtype=np.float64))
    rank = int((vals > 1e-6 * max(vals[-1], 0.0)).sum())
    if rank != 1:
        return rank, None
    v = vecs[:, -1] * np.sqrt(vals[-1] / 2.0)
    if v[np.argmax(np.abs(v))] < 0:
        v = -v
    return rank, v


# -- driver ------------------------------------------------------------------


def _solve_polished(n, c, mats, x0):
    try:
        sol = solve_bound_problem(n, c, mats, x0)
    except np.linalg.LinAlgError as exc:
        raise SolverError(f"factorization failed inside the solver: {exc}") from exc
    t_pol, y_pol = polish_dual(n, c, mats, sol.y, x=sol.x)
    return sol, t_pol, y_pol


def _relax(
    m: int, kind: str, cache_dir=None, resume: bool = False, progress=None
) -> RelaxationOutcome:
    """Certified optimum of one relaxation by the cutting-plane loop.

    Each round solves the instance restricted to the active classes, scans
    every class against the polished dual, and adds the worst offenders;
    the state after each round is saved as cuts_<m>_<kind>.json, so a run
    stopped by its round budget can resume.  progress, when given,
    receives one RoundRecord per round as it completes.

    Class 0 is always active and anchors the strictly feasible start.  It
    is the class of the equal pairs (sigma, sigma): the base word has the
    smallest canonical key, so its orbit and class come first.  Each of its
    blocks is U U^T over linearly independent rows U, hence positive
    definite, so weighting the start toward it puts every block sum inside
    the cone."""
    dims, sizes, qs, tri = coeff_tables(m, kind, cache_dir)
    fsizes = sizes.astype(np.float64)
    c = qs.astype(np.float64)
    active = [0]
    state_file = cache.resolve_cache_dir(cache_dir) / f"cuts_{m}_{kind}.json"
    if resume and state_file.exists():
        try:
            saved = json.loads(state_file.read_text())
        except ValueError as exc:  # truncated, or not text at all
            raise DataError(f"unreadable cutting-plane state: {state_file}") from exc
        if not isinstance(saved, dict):
            raise DataError(f"unreadable cutting-plane state: {state_file}")
        if saved.get("m") == m and saved.get("active"):
            active = [int(i) for i in saved["active"]]
            if 0 not in active:
                active.insert(0, 0)

    rounds: list[RoundRecord] = []
    for rnd in range(1, _MAX_ROUNDS + 1):
        started = time.monotonic()
        ids = np.array(sorted(active), dtype=np.int64)
        sub = [mat / fsizes[ids, None, None] for mat in split_triangles(tri[ids], dims)]
        x0 = _strict_start(sub, sizes[ids])
        sol, t_pol, y_pol = _solve_polished(np.ones(ids.size), c[ids], sub, x0)
        maxv, offenders = scan_violations(y_pol, dims, t_pol, fsizes, c, tri)
        rec = RoundRecord(rnd, ids.size, t_pol,
                          maxv, int(offenders[0]) if offenders.size else -1,
                          (time.monotonic() - started) * 1e3, sol.iterations, sol.status)
        rounds.append(rec)
        if progress is not None:
            progress(rec)
        cache._publish(state_file, json.dumps(
            {"m": m, "round": rnd, "active": sorted(active)}).encode())
        if maxv <= _TOL_CUT:
            break
        known = set(active)
        active.extend(int(i) for i in offenders if int(i) not in known)
    else:
        raise SolverError(f"cutting-plane loop did not settle in {_MAX_ROUNDS} rounds")

    cert = certify(y_pol, dims, sizes, qs, tri)
    state_file.unlink(missing_ok=True)
    return RelaxationOutcome(
        m=m, kind=kind, value=float(class_slacks(y_pol, dims, 0.0, fsizes, c, tri).min()),
        raw=sol.t, certificate=cert, class_count=len(qs),
        rounds=rounds, y=y_pol, active=ids,
    )


def run_single(m: int, **kwargs) -> RelaxationOutcome:
    """Certified optimum of the single-block relaxation; keywords as _relax."""
    return _relax(m, "single", **kwargs)


def run_full(m: int, **kwargs) -> RelaxationOutcome:
    """Certified optimum of the full relaxation, every block; keywords as _relax."""
    return _relax(m, "full", **kwargs)
