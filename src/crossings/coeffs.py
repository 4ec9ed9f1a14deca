"""Constraint coefficients of the reduced relaxations.

Every invariant matrix is a combination of the pair-class indicators, so
each reduced constraint is carried by one small integer block per class.
The pair tables gather what the constraints are indexed by: the cycle
table, the swap classes of the pair orbits, and each class's cost, read
from the swap distances at the class representative only.
The blocks come from expanding the pairing polynomial by differential
operators: its degree-m monomials are permutation patterns in bijection
with relabeling orbits of pairs of full orders.  Expanded in full, an
entry costs one pattern per element of the column tableau's row group,
(m-2)! per monomial on the hook shape (m-2, 1, 1).  The hook shape, the
single block and one shape of the full relaxation, is never expanded: its
patterns collapse to a position histogram of the classes, and an entry is
the histogram at its column tableau's offset times an m-vector of
row-cascade coefficients.  Every entry of a hook block is counted in one
pass over the stabilizer-orbit representatives, and no histogram is held.
The tests compare both routes exactly against each other and against two
independent oracles kept in tests/oracles.py: direct quadruple enumeration
over the expansions of both tableau vectors, and streaming over all
ordered cycle pairs.

The expansion runs on numpy arrays, and every step refuses to run if an
int64 coefficient could leave +-2**62.  Through the shape polynomial and
the row cascade of one tableau, held whole (it stays small), a monomial is
a sorted row of m uint8 cells.  The column cascade needs no operator
steps: with one unit per row, each column move sends a unit to a value of
the column tableau's row it leaves and no unit moves twice, so a monomial
expands to one pattern, coefficient 1, per element of that tableau's row
group.  The patterns are gathered from the group in batches, each reduced
to class sums at once, so the final patterns never all exist together;
their cycle ids are ranked from the positions directly
(cycles.ids_of_positions, no word is built) and their classes read from
the per-cycle class table, which only this gather builds.

Every block, the single-block relaxation's hook block included, is
assembled by one routine into the packed upper triangles the cache stores,
each writing its raw tableau forms into its own columns of the table.  A
block of sign s has rows w + s (w o eta) and reduces to those forms: eta
flips one pair component, which descends to an involution on classes, and
each entry is (1 + s^2) times the raw form plus 2s times its flip, applied
in place.  Sign 0 leaves the raw forms, the rows being the tableau
vectors, so the single block holds no form beside the table.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from math import factorial

import numpy as np

from .cycles import CycleIndex, ids_of_positions, image_letters, invert_seqs, unpack_keys
from .errors import CrossingsError, ResourceError
from .orbits import SymmetricClasses, build_pair_orbits
from .repsets import Block, row_group
from .swapgraph import distances_from_base
from .tableaux import lex_permutations

Filling = tuple[tuple[int, ...], ...]
Poly = tuple[np.ndarray, np.ndarray]  # (monomials, coeffs), see the expansion section


@dataclass
class PairTables:
    """Cycle table plus the swap classes of the pair orbits for one m, with
    the cost of each class (the swap distance from the base to the inverse
    of the class representative's second component) and the class image of
    inverting one pair component."""

    index: CycleIndex
    classes: SymmetricClasses  # class_of_orbit: class of (base, tau) by stabilizer orbit of tau
    q: np.ndarray  # (C,) u16, pair cost on each class
    flip: np.ndarray  # (C,) int32, class after inverting one component (an involution)

    @classmethod
    def build(cls, m: int) -> "PairTables":
        index = CycleIndex(m)
        orbits = build_pair_orbits(index)
        classes = orbits.symmetric_classes()
        # inversion permutes stabilizer orbits, (g tau)^-1 = g tau^-1 for g
        # in the stabilizer, so the orbits of the inverted class
        # representatives give the cost and the flip
        inverse = index.orbit_ids(invert_seqs(orbits.rep_seqs[classes.rep_orbits]))
        return cls(index=index, classes=classes, q=distances_from_base(index)[inverse],
                   flip=classes.class_of_orbit[inverse])

    @property
    def m(self) -> int:
        return self.index.m

    @cached_property
    def class_of_cycle(self) -> np.ndarray:
        """(N,) int32, class of (base, tau) by cycle id of tau: the one
        per-cycle table, built on first use (only the gather reads it)."""
        return self.classes.class_of_orbit[self.index.orbit_ids(self.index.seqs)]


# -- differential-operator expansion ---------------------------------------
#
# A polynomial is a pair (monomials, coeffs) with (N,) int64 coefficients;
# after every merge its monomials are distinct and its coefficients nonzero.
# Through the row cascade a monomial is a sorted row of (N, deg) uint8 cells
# 16*(c-1) + (r-1), one per unit of exponent, with the moving row r in the
# low nibble.  Row operators keep the columns and the determinants are their
# own transpose, so all monomials share their high nibbles and the low ones
# are the merge key.  A row operator rewrites one low nibble and re-sorts;
# the e equal entries of a cell of exponent e give the same new row, so
# merging supplies the factor e.  _class_sums then expands the column
# operators in closed form over the row group of the column tableau.

_COEFF_LIMIT = 1 << 62

# Most final patterns one batch of the column expansion gathers; a row group
# larger than this is cut into slices.  Keeps the working set small: 1 << 16
# raised the peak RSS of a cold m=4..8 table build by about 5%.
_PATTERN_BATCH = 1 << 12

# Representatives per chunk of the hook kernel (_hook_forms); its temporaries
# take about 40m bytes per representative, plus 4m per offset of the span
# (0.6 MB a chunk for the single block at m = 10).
_HISTOGRAM_ROWS = 1 << 10

_SHIFT = np.arange(60, -4, -4, dtype=np.uint64)  # bit offset of nibble r of a merge key


def _check_range(bound: int) -> None:
    """Refuse a step whose coefficients could leave +-2**62 before int64 wraps."""
    if bound >= _COEFF_LIMIT:
        raise ResourceError(f"coefficient bound {bound} exceeds the int64 range of the expansion")


def _max_abs(coeffs: np.ndarray) -> int:
    return int(np.abs(coeffs).max()) if coeffs.size else 0


def _merge(keys: np.ndarray, monos: np.ndarray, coeffs: np.ndarray) -> Poly:
    """Sum the coefficients of monomials with equal u64 keys; drop zero sums."""
    order = np.argsort(keys)
    keys = keys[order]
    first = np.ones(keys.size, dtype=bool)
    first[1:] = keys[1:] != keys[:-1]
    starts = np.flatnonzero(first)
    sums = np.add.reduceat(coeffs[order], starts)
    keep = sums != 0
    return monos[order[starts[keep]]], sums[keep]


def _pack(nibbles: np.ndarray, shifts: np.ndarray) -> np.ndarray:
    """u64 keys of (N, k) nibbles placed at the given bit offsets."""
    return np.bitwise_or.reduce(nibbles.astype(np.uint64) << shifts, axis=1)


def _poly_mul(a: Poly, b: Poly) -> Poly:
    (ca, xa), (cb, xb) = a, b
    _check_range(_max_abs(xa) * xa.size * _max_abs(xb) * xb.size)
    cells = np.concatenate([np.repeat(ca, len(cb), axis=0), np.tile(cb, (len(ca), 1))], axis=1)
    cells.sort(axis=1)
    return _merge(_pack(cells & 15, _SHIFT[: cells.shape[1]]), cells,
                  np.multiply.outer(xa, xb).ravel())


def _frozen(poly: Poly) -> Poly:
    """Mark a memoized polynomial read-only, so no caller can alter the cache."""
    for arr in poly:
        arr.flags.writeable = False
    return poly


@lru_cache(maxsize=None)
def _det_poly(k: int) -> Poly:
    """The k x k determinant; memoized, so its arrays are read-only."""
    perms, signs = lex_permutations(k)
    cells = perms + (16 * np.arange(k, dtype=np.uint8))
    return _frozen((cells, signs.astype(np.int64)))


@lru_cache(maxsize=None)
def _shape_poly(lam: tuple[int, ...]) -> Poly:
    """The shape polynomial: product of leading-minor determinant powers.

    Memoized per shape, so its arrays are read-only."""
    poly = (np.zeros((1, 0), dtype=np.uint8), np.ones(1, dtype=np.int64))
    for k in range(1, len(lam) + 1):
        power = lam[k - 1] - (lam[k] if k < len(lam) else 0)
        if power == 0:
            continue
        det = _det_poly(k)
        for _ in range(power):
            poly = _poly_mul(poly, det)
        const = factorial(k) ** power
        _check_range(_max_abs(poly[1]) * const)
        poly = (poly[0], poly[1] * const)
    return _frozen(poly)


def _moves(t: Filling, m: int) -> list[tuple[int, int]]:
    """The operators (src, dst) a tableau calls for, source index descending.

    Operators with distinct source indices only interact through values the
    earlier one produced, so blocks compose right to left; within a block,
    and between row and column movers, everything commutes.
    """
    row_of = {v: i + 1 for i, row in enumerate(t) for v in row}
    return [(j, s) for j in range(m - 1, 0, -1) for s in range(j + 1, m + 1) if row_of[s] == j]


def _row_cascade(poly: Poly, moves: list[tuple[int, int]]) -> Poly:
    """Row operators on cells: each move takes one unit of row src to dst."""
    cells, coeffs = poly
    for src, dst in moves:
        at, pos = np.nonzero(cells & 15 == src - 1)
        _check_range(_max_abs(coeffs) * at.size)
        cells = cells[at]
        cells[np.arange(at.size), pos] += np.uint8(dst - src)
        cells.sort(axis=1)
        cells, coeffs = _merge(_pack(cells & 15, _SHIFT[: cells.shape[1]]), cells, coeffs[at])
    return cells, coeffs


def _cascade_rows(cells: np.ndarray, t2: Filling, m: int) -> np.ndarray:
    """The rows of row-cascaded cells, checked to hold one unit per row and
    len(row c) of t2 units in column c.

    Sorted cells list the rows of column c together, so the k-th cell is
    then the k-th row-major cell of t2.  Raised, so the checks hold under
    python -O.
    """
    rows = cells & 15
    seen = np.bitwise_or.reduce(np.left_shift(1, rows, dtype=np.uint32), axis=1)
    if cells.shape[1] != m or (seen != (1 << m) - 1).any():
        raise CrossingsError("row cascade ended on a monomial without one unit per row")
    if (cells >> 4 != np.repeat(np.arange(len(t2)), [len(r) for r in t2])).any():
        raise CrossingsError("row cascade ended off the row lengths of the column tableau")
    return rows


def _offset_weights(rows_done: Poly, t: Filling) -> np.ndarray:
    """The m-vector c of a hook tableau's row cascade, c[e] summing the
    coefficients of its monomials whose column-2 row a and column-3 row b
    have (b - a) mod m = e: the raw form of t against a hook tableau tb =
    (first row, (j,), (i,)) is H_d @ c for d = (i - j) mod m, where
    H_d[class, e] counts the cycles of the class whose anchored word has
    letter e + 1 at position d (see _hook_forms).

    The row group of tb permutes its first row only, so the terms g o p of
    such a monomial are the cycles with value a + 1 at position j - 1 and
    b + 1 at position i - 1 of some rotation, every other value anywhere
    else: each cycle in which b + 1 comes d = (i - j) mod m places after
    a + 1, once.  The value shift by -a, a power of the base cycle, fixes
    the base and so every class; it takes these to the cycles whose
    anchored word has letter e + 1 at position d.
    """
    m, (cells, coeffs) = sum(map(len, t)), rows_done
    rows = _cascade_rows(cells, t, m).astype(np.intp)
    # bounds the histogram product too: a class holds at most (m-1)! cycles
    _check_range(_max_abs(coeffs) * coeffs.size * factorial(m - 1))
    weight = np.zeros(m, dtype=np.int64)
    np.add.at(weight, (rows[:, m - 1] - rows[:, m - 2]) % m, coeffs)
    return weight


def _hook_offset(t2: Filling) -> int:
    """d = (i - j) mod m of a hook tableau (first row, (j,), (i,))."""
    return (t2[2][0] - t2[1][0]) % sum(map(len, t2))


def _class_sums(rows_done: Poly, t2: Filling, group: np.ndarray, tables: PairTables) -> np.ndarray:
    """Apply the column operators of t2 to row-cascaded cells in closed form
    and sum the final patterns by class.

    A column move takes one unit of column j to a value s > j of row j of
    t2, sources descending, so no unit moves twice: a monomial whose rows
    in column c go, by p, to the cells of row c of t2 expands to the sum of
    g o p over the row group of t2, every term with coefficient 1.  Class
    sums are linear, so no term is merged; the terms are gathered in
    batches of at most _PATTERN_BATCH, so the m! or so never all exist.
    The group is given on cells, (m, R) with column g the image of each
    row-major cell, as the block's tableaux share it.
    """
    m, (cells, coeffs) = tables.m, rows_done
    rows = _cascade_rows(cells, t2, m)
    slot = np.empty(cells.shape, dtype=np.intp)
    np.put_along_axis(slot, rows.astype(np.intp), np.arange(m), axis=1)
    # column g: g(v) - 1 for the values v of t2 in row-major order
    images = np.array([v - 1 for r in t2 for v in r], dtype=np.uint8)[group]
    _check_range(_max_abs(coeffs) * coeffs.size * images.shape[1])
    acc = np.zeros(tables.classes.count, dtype=np.int64)
    step = max(1, _PATTERN_BATCH // images.shape[1])
    for lo in range(0, coeffs.size, step):
        for at in range(0, images.shape[1], _PATTERN_BATCH):
            part = images[:, at : at + _PATTERN_BATCH]
            pos = part[slot[lo : lo + step].T].reshape(m, -1)  # row r of term (k, g) at g(p_k(r))
            np.add.at(acc, tables.class_of_cycle[ids_of_positions(pos)],
                      np.repeat(coeffs[lo : lo + step], part.shape[1]))
    return acc


# -- assembly ----------------------------------------------------------------


def _hook_forms(tables: PairTables, offsets: list[int], weights: np.ndarray, out: np.ndarray) -> None:
    """Add H_d @ weights[:, k], d = offsets[k], to each column k of out (C, K),
    in one pass over the stabilizer-orbit representatives.

    H_d[class, e] counts the cycles of the class whose anchored word has
    letter e + 1 at position d.  The 2m images of a representative list
    every cycle of its orbit once per element of its stabilizer, so the
    images with letter e + 1 at position d, divided by that order, count
    the orbit's cycles that have it.  The images are built once per chunk
    over the span of the offsets.
    """
    m, class_of_orbit = tables.m, tables.classes.class_of_orbit
    keys, fixed = tables.index.representatives()
    order = fixed.sum(axis=0, dtype=np.int64)
    first, last = min(offsets), max(offsets)
    at = {d: [k for k, e in enumerate(offsets) if e == d] for d in offsets}
    for lo in range(0, keys.size, _HISTOGRAM_ROWS):
        span = image_letters(unpack_keys(keys[lo : lo + _HISTOGRAM_ROWS], m), slice(first, last + 1))
        n = span.shape[-1]
        rows = class_of_orbit[lo : lo + n, None]
        for d, cols in at.items():
            # counts[k, e]: images of representative lo + k with letter e + 1
            counts = np.bincount((span[d - first].reshape(2 * m, n) + m * np.arange(n)).ravel(),
                                 minlength=n * m).reshape(n, m)
            cycles, rest = np.divmod(counts, order[lo : lo + n, None])
            if rest.any():
                raise CrossingsError(f"position {d}: image counts not divisible by the stabilizer order")
            np.add.at(out, (rows, cols), cycles @ weights[:, cols])


def block_constraint_tables(tables: PairTables, blocks: list[Block]) -> np.ndarray:
    """Class blocks of a relaxation as packed upper triangles, (C, t).

    Rows follow the class order; columns run over the upper triangle of
    each block, row-major, blocks in order.  The entry of a block of sign s
    at tableaux (ta, tb) is (1 + s^2) raw + 2 s raw[flip] for the raw
    pairing form raw of (ta, tb), since F(w + s Pw, w' + s Pw') expands to
    (1 + s^2) F(w, w') + 2 s F(w, Pw') and inverting both components fixes
    every class.  Each block writes its raw forms into its own columns of
    the table and, unless s = 0, applies the sign there.

    Hook blocks, of shape (m-2, 1, 1), take every raw form from one pass of
    _hook_forms, weighted by _offset_weights.  Every other shape goes
    through the row-group gather (_class_sums); a form is symmetric at
    class level and the signed blocks of one shape share their forms, so
    each is computed once per shape.
    """
    m, hook = tables.m, (tables.m - 2, 1, 1)
    widths = [b.dim * (b.dim + 1) // 2 for b in blocks]
    tri = np.zeros((tables.classes.count, sum(widths)), dtype=np.int64)
    shape, forms = None, {}
    for b, lo in zip(blocks, np.cumsum([0] + widths)):
        ts = b.tableaux
        pairs = [(i, j) for i in range(b.dim) for j in range(i, b.dim)]
        raw = tri[:, lo : lo + len(pairs)]
        if b.lam == hook:
            cascades = [_row_cascade(_shape_poly(hook), _moves(t, m)) for t in ts]
            weights = np.column_stack([_offset_weights(c, t) for c, t in zip(cascades, ts)])
            _hook_forms(tables, [_hook_offset(ts[j]) for _, j in pairs],
                        weights[:, [i for i, _ in pairs]], raw)
        else:
            if b.lam != shape:
                shape, group = b.lam, np.ascontiguousarray(row_group(b.lam).T)
                forms.clear()
            held = None  # (i, row cascade of ts[i]); the pairs come by row
            for k, (i, j) in enumerate(pairs):
                key = min((ts[i], ts[j]), (ts[j], ts[i]))
                if key not in forms:
                    if held is None or held[0] != i:
                        held = (i, _row_cascade(_shape_poly(b.lam), _moves(ts[i], m)))
                    forms[key] = _class_sums(held[1], ts[j], group, tables)
                raw[:, k] = forms[key]
        if b.sign:
            raw[:] = (1 + b.sign**2) * raw + 2 * b.sign * raw[tables.flip]
    return tri
