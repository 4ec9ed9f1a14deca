"""Drivers that turn coefficient tables into certified optimum values.

Both relaxations reduce to the same conic shape, so the flow is shared:
assemble the equilibrated instance (every class block divided by its class
size, costs the plain distances), solve in floating point, polish the dual
onto its active face, then certify.  Certification rounds the dual blocks
to dyadic rationals and rebuilds them as integer-weighted sums of integer
rank-one terms; positive semidefiniteness then holds by construction, and
every class constraint is priced with exact integer arithmetic against the
stored integer tables, widened exactly by their block scales.  The
certified value is a true lower bound no matter what the floating-point
stages did.

The two relaxations differ only in their block list: the single-block one
is the hook block of shape (m-2, 1, 1) with sign 0, whose rows are the raw
tableau vectors, the full one every symmetrized block.  One table assembly
turns either list into the packed class triangles, and one cutting-plane
loop serves both.  It solves restricted instances, scans every class for
violated columns, adds the worst offenders, and repeats until the scan
comes back clean.  The scan result is advisory; soundness
rests on the certificate alone.  Class 0, the class of the equal pairs
(sigma, sigma), comes first because the base word has the smallest
canonical key; its blocks are positive definite, so it anchors a strictly
feasible start in every round.  The instance restricted to class 0 alone
has a known optimum, so the first scan is done in closed form and the
first solved instance already holds class 0 and the first cuts.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from . import cache
from .coeffs import PairTables, scaled_block_tables
from .cycles import check_fits
from .errors import ArgumentError, SolverError
from .repsets import Block, hook_block_columns, psd_pivots, shape_blocks
from .sdp import polish_dual, solve_bound_problem
from .tableaux import block_multiplicity, partitions

# The cutting loop stops once no class is violated by more than _TOL_CUT
# per element, adds at most _BATCH classes per round, and gives up after
# _MAX_ROUNDS restricted solves.  The certificate rounds dual eigenpairs to
# _BITS binary places, and _pair casts _PAIR_ENTRIES table entries at a
# time (2 MB as float64, about 10 MB as Python ints).  The certificate is
# sound for any of these values; they only decide how sharp it is, how
# long the run takes and how much memory it holds.
_TOL_CUT = 1e-7
_BATCH = 50
_MAX_ROUNDS = 200
_BITS = 48
_PAIR_ENTRIES = 1 << 18
_EXACT_FLOAT = 1 << 53  # every integer below it is a float64


@dataclass
class RoundRecord:
    """One restricted solve of the cutting loop and the scan after it."""

    round: int
    active: int
    objective: float
    max_violation: float
    wall_time_ms: float
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
) -> tuple[tuple[int, ...], np.ndarray, np.ndarray, list[np.ndarray], np.ndarray]:
    """Integer tables (dims, sizes, costs, each block's narrow upper
    triangles, int64 block scales) of one relaxation, kind "single" or
    "full": class block B is widen(tris[B], scales[B]), unpacked by
    square_triangles.  They are read from the coefficient cache, where a
    build first publishes them when no valid file of the current version is
    there, so cold and warm runs price the same bytes; each block's table
    is a view into them, the one copy of it a run holds (see _pair).

    A build is refused with ResourceError once the classes are counted,
    before any block is selected, when its tables and its int64 build
    buffer exceed physical memory.  The tables are counted at one byte an
    entry, the least their types take; the buffer holds the hook block, or
    the columns of one shape, at most T(T+1)/2 for a shape of
    T = block_multiplicity rows in all.  A full class has one entry in all
    its blocks together: the swap transposes each block's d^2 pair orbits,
    fixing d, so sum d(d+1)/2 is the class count."""
    if kind not in ("single", "full"):
        raise ArgumentError(f"unknown relaxation kind {kind!r}")
    if m < 4:
        raise ArgumentError(f"{kind} relaxation needs m >= 4")
    path = cache.coeffs_path(cache.resolve_cache_dir(cache_dir), m, kind)
    if not path.exists() or cache.is_stale(path):
        tables = PairTables.build(m)
        count = tables.classes.count
        hook = Block((m - 2, 1, 1), 0, hook_block_columns(m))
        if kind == "full":
            width = count
            buffer = max(t * (t + 1) // 2 for t in map(block_multiplicity, partitions(m)))
        else:
            width = buffer = hook.dim * (hook.dim + 1) // 2
        check_fits(count * (width + 2 + 8 * buffer), f"{kind} m={m}")
        shapes = shape_blocks(m) if kind == "full" else [(hook.lam, None, [hook])]
        blocks, scales, parts = scaled_block_tables(tables, shapes)
        cache.write_coeffs(path, m, tuple(b.dim for b in blocks), scales, parts,
                           tables.classes.sizes, tables.q)
        del tables, parts  # freed before the file is read back
    return cache.read_coeffs(path, m)


def widen(tri: np.ndarray, scale: int) -> np.ndarray:
    """The int64 table of one block's narrow triangles tri and scale."""
    return tri.astype(np.int64) * scale


def square_triangles(tri: np.ndarray, d: int) -> np.ndarray:
    """The symmetric (C, d, d) stack of one block's packed upper triangles."""
    iu = np.triu_indices(d)
    block = np.zeros((tri.shape[0], d, d), dtype=tri.dtype)
    block[:, iu[0], iu[1]] = tri
    block[:, iu[1], iu[0]] = tri
    return block


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


def _packed(y: np.ndarray) -> np.ndarray:
    """The upper triangle of a block with its off-diagonal entries doubled,
    so tri @ _packed(y) is <Y, A> for the blocks A of packed triangles tri.
    The weights are the ints 1 and 2, so a float block stays exact in the
    float doubling and an object block of Python ints stays ints."""
    iu = np.triu_indices(len(y))
    return y[iu] * np.where(iu[0] == iu[1], 1, 2)


def _pair(tris: list[np.ndarray], scales: np.ndarray, ys: list[np.ndarray]) -> np.ndarray:
    """sum_B <Y_B, A_B> over the blocks of every class, in the dtype of the
    ys (float64, int64 or Python ints), each block priced on its own
    table, one row chunk at a time, never a whole table widened.  Int64 and
    Python-int prices widen each chunk exactly in int64, then cast.  Float
    prices cast the narrow chunk to float64 and multiply by the float
    scale: while every entry and the scale are below 2**53 both casts are
    exact, so each product is t g correctly rounded, the float of the int64
    entry, and every dtype pairs the values of the int64 table.  A block
    outside that range takes the int64 route."""
    total = 0
    for tri, g, y in zip(tris, scales, ys):
        packed = _packed(y)
        rows = max(1, _PAIR_ENTRIES // tri.shape[1])
        narrow = (tri[lo : lo + rows] for lo in range(0, len(tri), rows))
        if packed.dtype == np.float64 and tri.dtype.itemsize <= 4 and int(g) < _EXACT_FLOAT:
            chunks = (chunk.astype(np.float64) * float(g) for chunk in narrow)
        else:
            chunks = (widen(chunk, g).astype(packed.dtype, copy=False) for chunk in narrow)
        total = total + np.concatenate([chunk @ packed for chunk in chunks])
    return total


def scan_violations(
    ys: list[np.ndarray],
    t: float,
    sizes: np.ndarray,
    qs: np.ndarray,
    tris: list[np.ndarray],
    scales: np.ndarray,
) -> tuple[float, np.ndarray, np.ndarray]:
    """Worst per-element violation over all classes, the ids of the _BATCH
    worst offenders, worst first, ties broken toward the smaller id, and
    the per-element price of the dual blocks on every class.  A class's
    slack at the dual point is qs - t - price, so the least qs - price is
    the value of the dual blocks."""
    price = _pair(tris, scales, ys) / sizes
    slack = qs - t - price
    # the candidates are the classes at or below the _BATCH-th least slack,
    # listed by id, so a stable sort leaves ties in id order
    cut = np.partition(slack, _BATCH - 1)[_BATCH - 1] if slack.size > _BATCH else np.inf
    picked = np.flatnonzero(~(slack > cut))
    picked = picked[np.argsort(slack[picked], kind="stable")[:_BATCH]]
    return float(-slack.min()), picked[slack[picked] < 0].astype(np.int64), price


def first_cuts(
    dims: tuple[int, ...],
    sizes: np.ndarray,
    qs: np.ndarray,
    tris: list[np.ndarray],
    scales: np.ndarray,
) -> list[int]:
    """Class 0 and the classes a scan of the optimum restricted to class 0
    adds, found without solving that instance.

    Class 0 is alone at the largest cost and its blocks are positive
    definite, so that optimum is Y = 0, t = q_0, and the violated classes
    are those with q_j < q_0.  The interior-point solve reaches it along
    Y = eps I with eps about 3e-12, so its scan ranks the violated classes
    by cost ascending, then equal costs by tr(A_j) / |j| descending; the
    ties left go to the smaller id, as in scan_violations.  The traces are
    exact integers."""
    trace = _pair(tris, scales, [np.eye(d, dtype=np.int64) for d in dims])
    below = np.flatnonzero(qs < qs[0])
    order = np.lexsort((below, -(trace[below] / sizes[below]), qs[below]))
    return [0] + [int(i) for i in below[order[:_BATCH]]]


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
    sizes: np.ndarray,
    qs: np.ndarray,
    tris: list[np.ndarray],
    scales: np.ndarray,
) -> Certificate:
    """Exact lower bound certificate from near-optimal dual blocks, one per
    block table, each priced against its block's widened triangles in
    Python ints one row chunk at a time (_pair)."""
    numerators = [_dyadic_numerator(y) for y in ys]
    denom = 1 << (3 * _BITS)
    inners = _pair(tris, scales, numerators)
    value, worst = _certified_min(inners, sizes, qs, denom)
    return Certificate(numerators, denom, value, worst)


def exactly_psd(numerator: np.ndarray) -> bool:
    """Whether an integer matrix is symmetric PSD, decided exactly by the
    fraction-free elimination that also selects the block rows."""
    return psd_pivots(numerator) is not None


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
        raise SolverError(f"interior-point solve failed: {exc}") from exc
    t_pol, y_pol = polish_dual(n, c, mats, sol.y, x=sol.x)
    return sol, t_pol, y_pol


def _relax(m: int, kind: str, cache_dir=None, progress=None) -> RelaxationOutcome:
    """Certified optimum of one relaxation by the cutting-plane loop.

    Each round solves the instance restricted to the active classes, scans
    every class against the polished dual, and adds the worst offenders.
    The first round starts from first_cuts: class 0 and the offenders of
    the class-0 optimum, which needs no solve.  Rounds, one per restricted
    solve, are numbered from 1; a run that does not settle within
    _MAX_ROUNDS raises SolverError and leaves no state behind.  progress,
    when given, receives one RoundRecord per round as it completes.

    Class 0 is always active and anchors the strictly feasible start.  It
    is the class of the equal pairs (sigma, sigma): the base word has the
    smallest canonical key, so its orbit and class come first.  Each of its
    blocks is U U^T over linearly independent rows U, hence positive
    definite, so weighting the start toward it puts every block sum inside
    the cone."""
    dims, sizes, qs, tris, scales = coeff_tables(m, kind, cache_dir)
    active = first_cuts(dims, sizes, qs, tris, scales)
    rounds: list[RoundRecord] = []
    for rnd in range(1, _MAX_ROUNDS + 1):
        started = time.monotonic()
        ids = np.array(sorted(active), dtype=np.int64)
        sub = [square_triangles(widen(tri[ids], g), d) / sizes[ids, None, None]
               for tri, g, d in zip(tris, scales, dims)]
        x0 = _strict_start(sub, sizes[ids])
        sol, t_pol, y_pol = _solve_polished(np.ones(ids.size), qs[ids], sub, x0)
        maxv, offenders, price = scan_violations(y_pol, t_pol, sizes, qs, tris, scales)
        rec = RoundRecord(rnd, ids.size, t_pol, maxv,
                          (time.monotonic() - started) * 1e3, sol.iterations, sol.status)
        rounds.append(rec)
        if progress is not None:
            progress(rec)
        if maxv <= _TOL_CUT:
            break
        known = set(active)
        active.extend(int(i) for i in offenders if int(i) not in known)
    else:
        raise SolverError(f"cutting-plane loop did not settle in {_MAX_ROUNDS} rounds")

    cert = certify(y_pol, sizes, qs, tris, scales)
    return RelaxationOutcome(
        m=m, kind=kind, value=float((qs - price).min()),
        raw=sol.t, certificate=cert, class_count=len(qs),
        rounds=rounds, y=y_pol, active=ids,
    )


def run_single(m: int, **kwargs) -> RelaxationOutcome:
    """Certified optimum of the single-block relaxation; keywords as _relax."""
    return _relax(m, "single", **kwargs)


def run_full(m: int, **kwargs) -> RelaxationOutcome:
    """Certified optimum of the full relaxation, every block; keywords as _relax."""
    return _relax(m, "full", **kwargs)
