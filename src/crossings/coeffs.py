"""Constraint coefficients of the reduced relaxations.

Every invariant matrix is a combination of the pair-class indicators, so
each reduced constraint is carried by one small integer block per class.
The blocks come from expanding the pairing polynomial by differential
operators: its degree-m monomials are permutation patterns in bijection
with relabeling orbits of pairs of full orders, so the cost is governed by
the final monomial count, about m!/2 per entry of the single block.
The tests compare the expansion exactly against two independent oracles
kept in tests/oracles.py: direct quadruple enumeration over the expansions
of both tableau vectors, and streaming over all ordered cycle pairs.

The expansion runs on numpy arrays: a monomial is one sorted row of
m uint8 cell ids, an operator rewrites entries and merges equal rows by
sorting and summing int64 coefficients, and every step refuses to run if a
coefficient could leave +-2**62.  The row cascade of one tableau is held
whole (it stays small); the column cascade is streamed over batches of row
monomials and each batch is reduced to class sums at once, so the final
patterns never all exist together.  A final pattern is a cycle word whose
column nibbles are the positions of its values, so its cycle id is ranked
from them directly (cycles.ids_of_positions, no word is built) and its
class read from the per-cycle class table.

Every block, the single-block relaxation's hook block included, is
assembled by one routine into the packed upper triangles the cache stores.
A block of sign s has rows w + s (w o eta) and reduces to the raw tableau
forms: eta flips one pair component, which descends to an involution on
classes, and each entry is (1 + s^2) times the raw form plus 2s times its
flip.  Sign 0 leaves the raw forms, the rows being the tableau vectors.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass, field
from functools import lru_cache
from math import factorial, prod

import numpy as np

from .cycles import CycleIndex, ids_of_positions, invert_seqs
from .errors import CrossingsError, ResourceError
from .orbits import PairOrbits, SymmetricClasses, build_pair_orbits
from .repsets import Block
from .swapgraph import distances_from_base
from .tableaux import perm_sign

Filling = tuple[tuple[int, ...], ...]
Poly = tuple[np.ndarray, np.ndarray]  # (cells, coeffs), see the expansion section


@dataclass
class PairTables:
    """Cycle table plus pair-orbit and class tables for one m."""

    index: CycleIndex
    orbits: PairOrbits
    classes: SymmetricClasses
    class_of_cycle: np.ndarray  # (N,) int32, class of (base, tau) by cycle id of tau
    _flip: np.ndarray | None = field(default=None, repr=False)

    @classmethod
    def build(cls, m: int) -> "PairTables":
        index = CycleIndex(m)
        orbits = build_pair_orbits(index, distances_from_base(index))
        classes = orbits.symmetric_classes()
        class_of_cycle = classes.class_of_orbit[index.stabilizer_orbits()[1]].astype(np.int32)
        return cls(index=index, orbits=orbits, classes=classes, class_of_cycle=class_of_cycle)

    @property
    def m(self) -> int:
        return self.index.m

    def class_ids_of_words(self, words: np.ndarray) -> np.ndarray:
        """Class ids of the pairs (base, tau) for each word tau, which may be
        any rotation of a cycle's word."""
        return self.class_of_cycle[self.index.id_of_words(words)]

    def flip_classes(self) -> np.ndarray:
        """Class image of inverting one pair component (an involution)."""
        if self._flip is None:
            reps = self.orbits.rep_seqs[self.classes.rep_orbits]
            self._flip = self.class_ids_of_words(invert_seqs(reps))
        return self._flip


# -- differential-operator expansion ---------------------------------------
#
# A polynomial is a pair (cells, coeffs).  Each row of the (N, deg) uint8
# array cells is one monomial: its cells 16*(r-1) + (c-1) in ascending
# order, one entry per unit of exponent, so row r lives in the high nibble
# and column c in the low one (every m <= MAX_M fits).  coeffs holds the
# (N,) int64 coefficients.  After every merge the rows are distinct and the
# coefficients nonzero.  An operator replaces one entry and re-sorts the
# row; the e equal entries of a cell of exponent e each give the same new
# row, so merging duplicates supplies the factor e of the derivative.

_COEFF_LIMIT = 1 << 62

# Most final patterns one batch of the column cascade may produce, unless a
# single row monomial alone expands further; keeps the working set small.
_PATTERN_BATCH = 1 << 12


def _check_range(bound: int) -> None:
    """Refuse a step whose coefficients could leave +-2**62, before int64
    arithmetic could wrap."""
    if bound >= _COEFF_LIMIT:
        raise ResourceError(
            f"coefficient bound {bound} exceeds the int64 range of the expansion"
        )


def _max_abs(coeffs: np.ndarray) -> int:
    return int(np.abs(coeffs).max()) if coeffs.size else 0


def _merge(cells: np.ndarray, coeffs: np.ndarray) -> Poly:
    """Sum the coefficients of equal rows and drop zero sums."""
    n, deg = cells.shape
    if n == 0:
        return cells, coeffs
    padded = np.zeros((n, max(8, -(-deg // 8) * 8)), dtype=np.uint8)
    padded[:, :deg] = cells
    keys = padded.view(np.uint64)
    if keys.shape[1] == 1:
        order = np.argsort(keys[:, 0])
    else:
        order = np.lexsort(keys.T[::-1])
    keys = keys[order]
    first = np.ones(n, dtype=bool)
    first[1:] = (keys[1:] != keys[:-1]).any(axis=1)
    starts = np.flatnonzero(first)
    sums = np.add.reduceat(coeffs[order], starts)
    keep = sums != 0
    return cells[order[starts[keep]]], sums[keep]


def _poly_mul(a: Poly, b: Poly) -> Poly:
    (ca, xa), (cb, xb) = a, b
    _check_range(_max_abs(xa) * xa.size * _max_abs(xb) * xb.size)
    cells = np.concatenate(
        [np.repeat(ca, len(cb), axis=0), np.tile(cb, (len(ca), 1))], axis=1
    )
    cells.sort(axis=1)
    return _merge(cells, np.multiply.outer(xa, xb).ravel())


def _frozen(poly: Poly) -> Poly:
    """Mark a memoized polynomial read-only, so no caller can alter the cache."""
    for arr in poly:
        arr.flags.writeable = False
    return poly


@lru_cache(maxsize=None)
def _det_poly(k: int) -> Poly:
    """The k x k determinant; memoized, so its arrays are read-only."""
    base = tuple(range(1, k + 1))
    perms = list(itertools.permutations(base))
    cells = np.array([[16 * i + p - 1 for i, p in enumerate(perm)] for perm in perms],
                     dtype=np.uint8)
    signs = np.array([perm_sign(base, perm) for perm in perms], dtype=np.int64)
    return _frozen((cells, signs))


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


def _derive(poly: Poly, src: int, dst: int, on_rows: bool) -> Poly:
    """One operator pass: move one unit of row (or column) src to dst."""
    cells, coeffs = poly
    at, pos = np.nonzero((cells >> 4 if on_rows else cells & 15) == src - 1)
    _check_range(_max_abs(coeffs) * at.size)
    out = cells[at]
    k = np.arange(at.size)
    old = out[k, pos]
    out[k, pos] = ((dst - 1) << 4) | (old & 15) if on_rows else (old & 0xF0) | (dst - 1)
    out.sort(axis=1)
    return _merge(out, coeffs[at])


def _cascade(poly: Poly, t: Filling, m: int, on_rows: bool) -> Poly:
    """Apply every operator a tableau calls for, source index descending.

    Operators with distinct source indices only interact through values the
    earlier one produced, so blocks compose right to left; within a block,
    and between row and column movers, everything commutes.
    """
    row_of = {v: i + 1 for i, row in enumerate(t) for v in row}
    for j in range(m - 1, 0, -1):
        for s in range(j + 1, m + 1):
            if row_of[s] == j:
                poly = _derive(poly, j, s, on_rows=on_rows)
    return poly


def _pattern_ids(cells: np.ndarray, m: int) -> np.ndarray:
    """Cycle ids of final monomials, each of which must be a permutation
    pattern: row a to column c means the word reads a at position c, so the
    columns of the sorted cells are the positions of the values 1..m."""
    pats = np.ascontiguousarray(cells.T)  # one monomial per column
    pos = pats & 15
    seen = np.bitwise_or.reduce(np.left_shift(1, pos, dtype=np.uint32), axis=0)
    if (
        pats.shape[0] != m
        or (pats >> 4 != np.arange(m, dtype=np.uint8)[:, None]).any()
        or (seen != (1 << m) - 1).any()
    ):
        raise CrossingsError("operator expansion ended on a non-permutation monomial")
    return ids_of_positions(pos)


def _class_sums(rows_done: Poly, t2: Filling, tables: PairTables) -> np.ndarray:
    """Column-cascade a row-cascaded polynomial and sum its final patterns
    by class, a batch of row monomials at a time.

    Derivations are linear, so batches cascade apart and their sums are
    exact.  One row monomial expands to at most prod(lam_i!) patterns, which
    sizes the batches, so the whole pattern set (which approaches m!
    entries) never exists at once.
    """
    m = tables.m
    per_row = prod(factorial(len(r)) for r in t2)
    step = max(1, _PATTERN_BATCH // per_row)
    cells, coeffs = rows_done
    acc = np.zeros(tables.classes.count, dtype=np.int64)
    bound = 0
    for lo in range(0, coeffs.size, step):
        done = _cascade((cells[lo : lo + step], coeffs[lo : lo + step]), t2, m, on_rows=False)
        bound += _max_abs(done[1]) * done[1].size
        _check_range(bound)
        np.add.at(acc, tables.class_of_cycle[_pattern_ids(done[0], m)], done[1])
    return acc


# -- assembly ----------------------------------------------------------------


def block_constraint_tables(tables: PairTables, blocks: list[Block]) -> np.ndarray:
    """Class blocks of a relaxation as packed upper triangles, (C, t).

    Rows follow the class order; columns run over the upper triangle of
    each block, row-major, blocks in order.  The entry of a block of sign s
    at tableaux (ta, tb) is (1 + s^2) raw + 2 s raw[flip] for the raw
    pairing form raw of (ta, tb), since F(w + s Pw, w' + s Pw') expands to
    (1 + s^2) F(w, w') + 2 s F(w, Pw') and inverting both components fixes
    every class.  A raw form is kept only while a later entry still reads
    it, so the table is the one array held whole.
    """
    m, flip = tables.m, tables.flip_classes()
    # a form is symmetric at class level, so both orders share one key
    entries = [(b, ta, tb, min((ta, tb), (tb, ta))) for b in blocks
               for i, ta in enumerate(b.tableaux) for tb in b.tableaux[i:]]
    uses = Counter(key for *_, key in entries)
    forms: dict[tuple[Filling, Filling], np.ndarray] = {}
    held: tuple[Filling, Poly] | None = None
    tri = np.zeros((tables.classes.count, len(entries)), dtype=np.int64)
    for pos, (b, ta, tb, key) in enumerate(entries):
        raw = forms.pop(key, None)
        if raw is None:
            # ta takes the left cascade; the entries of a block row share
            # their ta, so one held cascade suffices
            if held is None or held[0] != ta:
                held = (ta, _cascade(_shape_poly(b.lam), ta, m, on_rows=True))
            raw = _class_sums(held[1], tb, tables)
        uses[key] -= 1
        if uses[key]:
            forms[key] = raw
        tri[:, pos] = (1 + b.sign**2) * raw + 2 * b.sign * raw[flip]
    return tri
