"""Integer bases for the symmetry-reduced blocks of the relaxations.

Each partition of m contributes a family of candidate cycle-space vectors,
one per standard tableau, whose span has dimension equal to the number of
standard tableaux with descent sum divisible by m.  No vector is built.  A
tableau is handled through its row cascade, a signed sum of tabloids.  The
cascades of a shape's tableaux are one pattern table, merged once from its
row and column groups (the tests check both against the scalar tableau
chain in tests/oracles.py), each tableau relabeling the table's columns by
its values; every Gram matrix of the vectors is a sum of m pattern lookups
per entry (shape_blocks).  A minimal spanning subset is extracted first,
scanning the tableaux in their fixed enumeration order; the survivors are
then symmetrized by the inversion sign, and a maximal independent
subfamily per sign yields the blocks, each recorded by its shape, sign
and tableaux, from which the coefficient tables are computed.  The blocks
come one shape at a time with the shape's pattern table, so a full build
merges each shape's table once and its coefficient tables reuse it.

Independence decisions are made exactly, by one routine: fraction-free
symmetric elimination over Python ints (psd_pivots), which on a Gram matrix
gives a nonzero pivot exactly for a row independent of the rows before it.
No floating point rank guess can corrupt a block.  A Gram matrix is PSD,
so a negative pivot, or a zero pivot with a nonzero reduced row, raises.
The same routine decides whether an exact certificate block is PSD.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .cycles import _check_m, _pack_nibbles, unpack_keys
from .errors import ArgumentError, CrossingsError, ResourceError
from .tableaux import (block_multiplicity, conjugate, lex_permutations, partitions,
                       standard_tableaux)

Filling = tuple[tuple[int, ...], ...]
# a shape's row cascade pattern table: (rows, keys, coeffs), see _pattern_table
Patterns = tuple[np.ndarray, np.ndarray, np.ndarray]


@dataclass
class Block:
    """One block of the reduced problem: shape, inversion sign and the
    tableaux whose symmetrized vectors w + sign (w o inversion) are its rows.
    Sign 0 makes the rows the raw tableau vectors w, as in the hook block of
    the single-block relaxation."""

    lam: tuple[int, ...]
    sign: int
    tableaux: list[Filling]

    @property
    def dim(self) -> int:
        return len(self.tableaux)


def _product(
    factors: list[tuple[np.ndarray, np.ndarray]],
) -> tuple[np.ndarray, np.ndarray]:
    """Cartesian product of (rows, signs) factors, first factor slowest, as
    a nested loop would run: rows concatenate, signs multiply."""
    picks = np.indices([len(f_signs) for _, f_signs in factors]).reshape(len(factors), -1)
    rows = np.hstack([f_rows[k] for (f_rows, _), k in zip(factors, picks)])
    signs = np.prod([f_signs[k] for (_, f_signs), k in zip(factors, picks)], axis=0, dtype=np.int8)
    return rows, signs


def row_group(lam: tuple[int, ...]) -> np.ndarray:
    """The row group of a shape, (prod lam_i!, m) uint8: all permutations of
    the row-major cell indices that keep each row setwise."""
    starts = np.cumsum((0,) + lam[:-1], dtype=np.uint8)
    return _product([(perms + start, signs) for part, start in zip(lam, starts)
                     for perms, signs in [lex_permutations(part)]])[0]


def shape_tables(lam: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The per-shape tables of the tableau vectors and the row cascade: the
    row group (R, m), and the signs (C,) and row-major values (C, m) of
    c . t over the column group of the base filling."""
    starts = np.cumsum((0,) + lam[:-1], dtype=np.uint8)
    rearr = row_group(lam)
    # column j holds the base values starts[i] + j + 1 at cells starts[i] + j
    heights = conjugate(lam)
    values, signs = _product(
        [(starts[perms] + j + 1, col_signs) for j, h in enumerate(heights)
         for perms, col_signs in [lex_permutations(h)]]
    )
    cells = np.concatenate([starts[:h] + j for j, h in enumerate(heights)])
    crows = np.empty_like(values)
    crows[:, cells] = values
    return rearr, signs, crows


# -- row cascades ------------------------------------------------------------
#
# The row cascades of a shape's tableaux share one pattern table (rows, keys,
# coeffs): one row of m uint8 diagram rows per tabloid, read cell by cell in
# row-major order, its packed key, sorted, and its (N,) int64 coefficient,
# distinct and nonzero.  A tableau's cascade is the table with each value
# taking the column of its cell (_cascade_rows): a tabloid keyed, where it
# is looked up, by the row of each value in value order.

_COEFF_LIMIT = 1 << 62


def _check_range(bound: int) -> None:
    """Refuse a step whose coefficients could leave +-2**62 before int64 wraps."""
    if bound >= _COEFF_LIMIT:
        raise ResourceError(f"coefficient bound {bound} exceeds the int64 range of the expansion")


def _pattern_table(lam: tuple[int, ...]) -> Patterns:
    """The row cascade pattern table of a shape: |C| sign(g) times the
    tabloid that puts cell y in the diagram row of cell g(r(y)), summed over
    g in the column group and r in the row group, equal tabloids merged.

    The row cascade of a column tableau t of the shape puts t(y) where this
    puts y, and relabeling keeps distinct tabloids distinct, so every
    tableau shares the merge.  A merged coefficient is at most |C| |C| |R|,
    checked before any tabloid is built.
    """
    rearr, signs, crows = shape_tables(lam)
    _check_range(len(signs) ** 2 * len(rearr))
    row_of_cell = np.repeat(np.arange(len(lam), dtype=np.uint8), lam)
    rows = row_of_cell[crows - 1][:, rearr].reshape(-1, len(row_of_cell))
    keys = _pack_nibbles(rows.T)
    order = np.argsort(keys)
    keys = keys[order]
    starts = np.flatnonzero(np.concatenate([[True], keys[1:] != keys[:-1]]))
    coeffs = np.repeat(len(signs) * signs.astype(np.int64), len(rearr))
    sums = np.add.reduceat(coeffs[order], starts)
    keep = sums != 0
    return rows[order[starts[keep]]], keys[starts[keep]], sums[keep]


def _cascade_rows(t: Filling, rows: np.ndarray) -> np.ndarray:
    """(N, m) uint8, the diagram row of each value in each tabloid of the
    row cascade of t, from the pattern rows of its shape: value v + 1 takes
    the column of its cell in t.  t is checked to hold each value once, in
    rows of the lengths the patterns have; raised, so the checks hold under
    python -O."""
    values = [v - 1 for r in t for v in r]
    if sorted(values) != list(range(rows.shape[1])):
        raise CrossingsError(f"{t}: a row cascade needs each value 1..{rows.shape[1]} once")
    if rows.size and np.bincount(rows[0]).tolist() != [len(r) for r in t]:
        raise CrossingsError(f"{t}: off the row lengths of its cascade patterns")
    return rows[:, np.argsort(values)]


def tabloid_keys(t: Filling, pos: np.ndarray) -> np.ndarray:
    """Keys (..., m) of the tabloids T_t(w) of the m rotations w of words
    given by the position of each value, pos (m, ...) uint8.  T_t(w) puts
    letter w[p] in the row of t holding p + 1; rotation r has letter
    w[p + r] at p, so value v goes to the row of t holding pos[v] - r + 1."""
    m = len(pos)
    rows = np.empty(m, dtype=np.uint8)
    for r, row in enumerate(t):
        rows[[v - 1 for v in row]] = r
    return _pack_nibbles(rows[(np.arange(m)[:, None] - np.arange(m)) % m][pos])


def _reduce_row(reduced: list[list[int]], row: list[int]) -> list[int] | None:
    """The next row of fraction-free symmetric elimination (Bareiss, Math.
    Comp. 22, 1968): row holds a new index's entries against the earlier
    indices, then its diagonal, and reduced the earlier rows as returned
    here.  Each earlier nonzero pivot p maps x to (x p - x_t a_t) / prev,
    prev the pivot before p, so every division is exact.  The last entry
    returned is the new pivot; None when the matrix cannot be PSD."""
    x = list(row)
    prev = 1
    for t, red in enumerate(reduced):
        p, xt = red[t], x[t]
        if p == 0:
            if xt:  # a zero pivot with a nonzero reduced row
                return None
            continue
        for u in range(t + 1, len(x) - 1):
            x[u] = (x[u] * p - xt * reduced[u][t]) // prev
        x[-1] = (x[-1] * p - xt * xt) // prev
        prev = p
    return x if x[-1] >= 0 else None


def psd_pivots(mat) -> list[int] | None:
    """Pivots of the fraction-free symmetric elimination of an integer
    matrix in index order, or None unless it is symmetric PSD.  Pivot k is
    positive when index k is independent of the earlier ones and 0 when it
    is dependent, so on a Gram matrix the nonzero pivots pick a maximal
    independent set of rows greedily in order."""
    rows = [[int(v) for v in row] for row in mat]
    reduced: list[list[int]] = []
    for k, row in enumerate(rows):
        x = _reduce_row(reduced, row[: k + 1])
        if x is None or any(row[j] != rows[j][k] for j in range(k)):
            return None
        reduced.append(x)
    return [x[k] for k, x in enumerate(reduced)]


def _base_positions(m: int) -> np.ndarray:
    """(m, 2) uint8: the position of each value v in the 0-based base word
    (0, 1, ..., m-1), then in its inverse (0, m-1, ..., 1)."""
    return np.array([[v, -v % m] for v in range(m)], dtype=np.uint8)


def shape_blocks(m: int) -> Iterator[tuple[tuple[int, ...], Patterns, list[Block]]]:
    """The nonempty blocks for one cycle length, one shape at a time: each
    shape's (lam, pattern table, blocks), so that the pattern table that
    selects the blocks also serves their coefficient tables.

    Partitions are visited in descending lex order.  The Gram matrix of the
    tableau vectors is their pairing form at class 0, which holds the base
    cycle alone: G[a, b] sums c_a(T_b(w)) over the m rotations w of the
    base word (coeffs explains the notation), and G_P[a, b] = <v_a, v_b o P>,
    P the inversion, is the same sum over the inverse base word; both are
    symmetric.  For each shape the standard tableaux are scanned in order,
    and a candidate is kept when its pivot against the kept rows is
    nonzero, up to the descent-sum count.  Its rows of G and G_P take one
    searchsorted in the shape's pattern table: the tabloids of the kept
    tableaux and its own, relabeled through its values from value order
    to its cells, are the patterns its cascade puts there.  The rows
    w + s wP have the Gram matrix 2G + 2s G_P, which splits the span by
    sign, even first.  The rows of every returned block are independent
    over the rationals.
    """
    _check_m(m)
    base = _base_positions(m)
    for lam in partitions(m):
        target = block_multiplicity(lam)
        if target == 0:
            continue
        patterns = _pattern_table(lam)
        _, keys, coeffs = patterns
        _check_range(m * int(np.abs(coeffs).max(initial=0)))
        # [v, k]: the row of value v in the tabloids of kept k, then the candidate
        at = np.empty((m, target + 1, 2, m), dtype=np.uint8)
        grams = np.zeros((2, target, target), dtype=np.int64)  # G, G_P
        reduced: list[list[int]] = []
        span_ts: list[Filling] = []
        for t in standard_tableaux(lam):
            k = len(span_ts)
            if k == target:
                break
            at[:, k] = np.moveaxis(unpack_keys(tabloid_keys(t, base), m) - 1, -1, 0)
            cells = _pack_nibbles(at[[v - 1 for r in t for v in r], : k + 1])
            hit = np.searchsorted(keys, cells).clip(max=keys.size - 1)
            sums = np.where(keys[hit] == cells, coeffs[hit], 0).sum(axis=-1)
            x = _reduce_row(reduced, sums[:, 0].tolist())
            if x is None:
                raise CrossingsError(f"shape {lam}: tableau vector Gram matrix is not PSD")
            if x[-1]:
                grams[:, k, : k + 1] = grams[:, : k + 1, k] = sums.T
                reduced.append(x)
                span_ts.append(t)
        if len(span_ts) != target:
            raise CrossingsError(
                f"shape {lam}: tableau vectors span {len(span_ts)} dimensions, expected {target}"
            )
        gram, flip = grams.astype(object)
        blocks: list[Block] = []
        split = 0
        for sign in (1, -1):
            pivots = psd_pivots(2 * gram + 2 * sign * flip)
            if pivots is None:
                raise CrossingsError(f"shape {lam}: Gram matrix of sign {sign:+d} is not PSD")
            sel = [i for i, p in enumerate(pivots) if p]
            split += len(sel)
            if sel:
                blocks.append(Block(lam=lam, sign=sign, tableaux=[span_ts[i] for i in sel]))
        if split != target:
            raise CrossingsError(
                f"shape {lam}: sign blocks have {split} rows in all, expected {target}"
            )
        yield lam, patterns, blocks


def build_blocks(m: int) -> list[Block]:
    """All nonempty blocks for one cycle length, in shape_blocks order."""
    return [b for _, _, blocks in shape_blocks(m) for b in blocks]


# -- the (m-2, 1, 1) block, used alone by the single-block relaxation -------


def hook_block_columns(m: int) -> list[Filling]:
    """Column tableaux spanning the (m-2, 1, 1) block: second row 2, third
    row i, for i = 3 .. (m+1)//2 + 1."""
    if m < 4:
        raise ArgumentError(f"single-block relaxation needs m >= 4, got {m}")
    cols = []
    for i in range(3, (m + 1) // 2 + 2):
        row1 = tuple(v for v in range(1, m + 1) if v not in (2, i))
        cols.append((row1, (2,), (i,)))
    return cols
