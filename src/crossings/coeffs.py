"""Constraint coefficients of the reduced relaxations.

Every invariant matrix is a combination of the pair-class indicators, so
each reduced constraint is carried by one small integer block per class.
The pair tables gather what the constraints are indexed by: the cycle
table, the swap classes of the pair orbits, and each class's cost, read
from the swap distances at the class representative only.

A block entry pairs two column tableaux ta and tb of one shape.  The
pairing polynomial's differential-operator expansion has two halves, and
both are closed forms over the row group R and the column group C of the
shape (repsets.shape_tables).  The row half of ta is its Young symmetrizer
read on tabloids: |C| sign(g) times the tabloid that puts the value of each
cell y in the diagram row of cell g(r(y)), summed over g in C and r in R.
The column half sends a tabloid to one permutation pattern per element of
the row group of tb, coefficient 1; the degree-m patterns are in bijection
with relabeling orbits of pairs of full orders, so they are summed by
class.  Expanded in full, an entry costs one pattern per tabloid and
row-group element, (m-2)! per tabloid on the hook shape (m-2, 1, 1).  The
hook shape, the single block and one shape of the full relaxation, is
never expanded: its patterns collapse to a position histogram of the
classes, and an entry is the histogram at the offset of tb times an
m-vector read from ta in closed form.  Every entry of a hook block is
counted in one pass over the stabilizer-orbit representatives, and no
histogram is held.
The tests compare both routes exactly against each other and against two
independent oracles kept in tests/oracles.py: direct quadruple enumeration
over the expansions of both tableau vectors, and streaming over all
ordered cycle pairs.

The expansion runs on numpy arrays, and every sum that could leave
+-2**62 is refused before int64 wraps.  A tabloid is a sorted row of m
uint8 cells.  The patterns of the column half are gathered from the group
in batches, each reduced to class sums at once, so the final patterns
never all exist together; their cycle ids are ranked from the positions
directly (cycles.ids_of_positions, no word is built) and their classes
read from the per-cycle class table, which only this gather builds.

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
from functools import cached_property
from math import factorial

import numpy as np

from .cycles import (CycleIndex, _pack_nibbles, ids_of_positions, image_letters, invert_seqs,
                     unpack_keys)
from .errors import CrossingsError, ResourceError
from .orbits import SymmetricClasses, build_pair_orbits
from .repsets import Block, shape_tables
from .swapgraph import distances_from_base

Filling = tuple[tuple[int, ...], ...]
Cascade = tuple[np.ndarray, np.ndarray]  # (tabloid cells, coeffs), see the expansion section


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


# -- tableau expansion -------------------------------------------------------
#
# A row cascade is a pair (cells, coeffs) with (N,) int64 coefficients,
# distinct and nonzero: one sorted row of m uint8 cells 16*(r-1) + (v-1)
# per tabloid, value v in diagram row r.  All tabloids of one shape share
# their high nibbles, so the low ones, packed as a cycles key, tell them
# apart.  _class_sums then expands the column half in closed form over the
# row group of the other tableau.

_COEFF_LIMIT = 1 << 62

# Most final patterns one batch of the column expansion gathers; a row group
# larger than this is cut into slices.  Keeps the working set small: 1 << 16
# raised the peak RSS of a cold m=4..8 table build by about 5%.
_PATTERN_BATCH = 1 << 12

# Representatives per chunk of the hook kernel (_hook_forms); its temporaries
# take about 40m bytes per representative, plus 4m per offset of the span
# (0.6 MB a chunk for the single block at m = 10).
_HISTOGRAM_ROWS = 1 << 10


def _check_range(bound: int) -> None:
    """Refuse a step whose coefficients could leave +-2**62 before int64 wraps."""
    if bound >= _COEFF_LIMIT:
        raise ResourceError(f"coefficient bound {bound} exceeds the int64 range of the expansion")


def _row_cascade(t: Filling, shape: tuple[np.ndarray, np.ndarray, np.ndarray]) -> Cascade:
    """The row cascade of a column tableau t: |C| sign(g) times the tabloid
    that puts t(y) in the diagram row of cell g(r(y)), summed over g in the
    column group and r in the row group, equal tabloids merged.

    shape is repsets.shape_tables of the shape of t: the row group on
    cells, the column signs and the column group as base values.  A merged
    coefficient is at most |C| |C| |R|, checked before any tabloid is built.
    """
    rearr, signs, crows = shape
    _check_range(len(signs) ** 2 * len(rearr))
    lam = tuple(map(len, t))
    row_of_cell = np.repeat(np.arange(len(lam), dtype=np.uint8), lam)
    values = np.array([v - 1 for r in t for v in r], dtype=np.uint8)
    cells = (row_of_cell[crows - 1][:, rearr] << 4 | values).reshape(-1, len(values))
    cells.sort(axis=1)
    keys = _pack_nibbles((cells & 15).T)
    order = np.argsort(keys)
    keys = keys[order]
    starts = np.flatnonzero(np.concatenate([[True], keys[1:] != keys[:-1]]))
    coeffs = np.repeat(len(signs) * signs.astype(np.int64), len(rearr))
    sums = np.add.reduceat(coeffs[order], starts)
    keep = sums != 0
    return cells[order[starts[keep]]], sums[keep]


def _offset_weights(t: Filling) -> np.ndarray:
    """The m-vector c of a hook tableau t = (first row, (j,), (i,)), c[e]
    summing the coefficients of the tabloids of its row cascade whose
    values a + 1 in row 2 and b + 1 in row 3 have (b - a) mod m = e: the
    raw form of t against a hook tableau tb is H_d @ c for d =
    _hook_offset(tb), where H_d[class, e] counts the cycles of the class
    whose anchored word has letter e + 1 at position d (see _hook_forms).

    The row group of tb permutes its first row only, so the patterns of
    such a tabloid are the cycles with value a + 1 at the position of the
    row-2 value of tb and b + 1 at that of its row-3 value, in some
    rotation, every other value anywhere else: each cycle in which b + 1
    comes d places after a + 1, once.  The value shift by -a, a power of
    the base cycle, fixes the base and so every class; it takes these to
    the cycles whose anchored word has letter e + 1 at position d.

    No cascade is built: the row group of t moves one first-row value v
    into the first column, (m-3)! ways for each v, and the column group,
    |C| = 6, sends v, j, i to rows 1, 2, 3 in every order with its sign.
    The even orders, the rotations of (v, j, i), put (j, i), (i, v) and
    (v, j) in rows 2 and 3; the odd ones (i, j), (v, i) and (j, v).
    """
    m, (j,), (i,) = sum(map(len, t)), t[1], t[2]
    c = [0] * m  # (j, i) and (i, j) come once for each of the m - 2 values v
    c[(i - j) % m] += 6 * factorial(m - 2)
    c[(j - i) % m] -= 6 * factorial(m - 2)
    for v in t[0]:
        for e, sign in ((v - i, 1), (j - v, 1), (i - v, -1), (v - j, -1)):
            c[e % m] += sign * 6 * factorial(m - 3)
    # bounds the histogram product too: a class holds at most (m-1)! cycles
    _check_range(sum(map(abs, c)) * factorial(m - 1))
    return np.array(c, dtype=np.int64)


def _hook_offset(t2: Filling) -> int:
    """d = (i - j) mod m of a hook tableau (first row, (j,), (i,))."""
    return (t2[2][0] - t2[1][0]) % sum(map(len, t2))


def _class_sums(rows_done: Cascade, t2: Filling, group: np.ndarray, tables: PairTables) -> np.ndarray:
    """The column half of the pairing forms of a row cascade against t2,
    summed by class.

    A tabloid whose diagram row c holds, by p, the values placed at the
    cells of row c of t2 expands to the sum of g o p over the row group of
    t2, every term with coefficient 1.  Class sums are linear, so no term
    is merged; the terms are gathered in batches of at most
    _PATTERN_BATCH, so the m! or so never all exist.  The group is given
    on cells, (m, R) with column g the image of each row-major cell, as
    the block's tableaux share it.

    The tabloids are checked to hold each value once and len(row c) of t2
    values in row c, so the k-th sorted cell is the k-th row-major cell of
    t2; raised, so the checks hold under python -O.
    """
    m, (cells, coeffs) = tables.m, rows_done
    values = cells & 15
    seen = np.bitwise_or.reduce(np.left_shift(1, values, dtype=np.uint32), axis=1)
    if cells.shape[1] != m or (seen != (1 << m) - 1).any():
        raise CrossingsError("row cascade holds a tabloid without each value once")
    if (cells >> 4 != np.repeat(np.arange(len(t2)), [len(r) for r in t2])).any():
        raise CrossingsError("row cascade holds a tabloid off the row lengths of the column tableau")
    slot = np.empty(cells.shape, dtype=np.intp)
    np.put_along_axis(slot, values.astype(np.intp), np.arange(m), axis=1)
    # column g: g(v) - 1 for the values v of t2 in row-major order
    images = np.array([v - 1 for r in t2 for v in r], dtype=np.uint8)[group]
    _check_range(int(np.abs(coeffs).max(initial=0)) * coeffs.size * images.shape[1])
    acc = np.zeros(tables.classes.count, dtype=np.int64)
    step = max(1, _PATTERN_BATCH // images.shape[1])
    for lo in range(0, coeffs.size, step):
        for at in range(0, images.shape[1], _PATTERN_BATCH):
            part = images[:, at : at + _PATTERN_BATCH]
            pos = part[slot[lo : lo + step].T].reshape(m, -1)  # value v of term (k, g) at g(p_k(v))
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
    hook = (tables.m - 2, 1, 1)
    widths = [b.dim * (b.dim + 1) // 2 for b in blocks]
    tri = np.zeros((tables.classes.count, sum(widths)), dtype=np.int64)
    lam, forms = None, {}
    for b, lo in zip(blocks, np.cumsum([0] + widths)):
        ts = b.tableaux
        pairs = [(i, j) for i in range(b.dim) for j in range(i, b.dim)]
        raw = tri[:, lo : lo + len(pairs)]
        if b.lam == hook:
            weights = np.column_stack([_offset_weights(t) for t in ts])
            _hook_forms(tables, [_hook_offset(ts[j]) for _, j in pairs],
                        weights[:, [i for i, _ in pairs]], raw)
        else:
            if b.lam != lam:
                lam, shape = b.lam, shape_tables(b.lam)
                group = np.ascontiguousarray(shape[0].T)
                forms.clear()
            held = None  # (i, row cascade of ts[i]); the pairs come by row
            for k, (i, j) in enumerate(pairs):
                key = min((ts[i], ts[j]), (ts[j], ts[i]))
                if key not in forms:
                    if held is None or held[0] != i:
                        held = (i, _row_cascade(ts[i], shape))
                    forms[key] = _class_sums(held[1], ts[j], group, tables)
                raw[:, k] = forms[key]
        if b.sign:
            raw[:] = (1 + b.sign**2) * raw + 2 * b.sign * raw[tables.flip]
    return tri
