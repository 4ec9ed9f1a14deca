"""Integer bases for the symmetry-reduced blocks of the relaxations.

Each partition of m contributes a family of candidate cycle-space vectors,
one per standard tableau (built here from row-rearrangement and signed
column-group tables made once per shape; the tests check them against the
scalar tableau chain in tests/oracles.py).  The span of that family has
dimension equal to the number of standard tableaux with descent sum
divisible by m, so a minimal spanning subset is extracted first: vectors are
built a chunk at a time in the fixed tableau enumeration order into
preallocated rows, and each chunk only adds its cross products to the
integer Gram matrix of the rows kept so far; the scan stops at that
dimension, so the vectors past the last one it reads are never built.  The
survivors are then symmetrized by the inversion sign, and a maximal
independent subfamily per sign yields the blocks, each recorded by its
shape, sign and tableaux: the row vectors are only needed to select them,
and the coefficient tables are computed from the tableaux alone.

Independence decisions are made exactly, by one routine: fraction-free
symmetric elimination over Python ints (psd_pivots), which on a Gram matrix
gives a nonzero pivot exactly for a row independent of the rows before it.
No floating point rank guess can corrupt a block.  A Gram matrix is PSD,
so a negative pivot, or a zero pivot with a nonzero reduced row, raises.
The same routine decides whether an exact certificate block is PSD.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cycles import CycleIndex
from .errors import ArgumentError, CrossingsError, ResourceError
from .tableaux import (block_multiplicity, conjugate, lex_permutations, partitions,
                       standard_tableaux)

Filling = tuple[tuple[int, ...], ...]


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
    rows = np.zeros((1, 0), dtype=np.uint8)
    signs = np.ones(1, dtype=np.int8)
    for f_rows, f_signs in factors:
        rows = np.hstack([np.repeat(rows, len(f_rows), axis=0), np.tile(f_rows, (len(rows), 1))])
        signs = np.repeat(signs, len(f_signs)) * np.tile(f_signs, len(signs))
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


def _tableau_vectors(
    tables: tuple[np.ndarray, np.ndarray, np.ndarray], ts, index: CycleIndex
) -> np.ndarray:
    """Cycle-space vectors of the column tableaux ts, (len(ts), N), from the
    tables of their shape."""
    rearr, signs, crows = tables
    m = index.m
    tinv = np.empty((len(ts), m), dtype=np.intp)
    for k, t in enumerate(ts):
        tinv[k, [v - 1 for row in t for v in row]] = np.arange(m)
    holder = rearr[:, tinv].swapaxes(0, 1)  # (K, R, m): cell of p+1 per rearrangement
    words = crows[:, holder]  # (C, K, R, m)
    slots = index.id_of_words(words.reshape(-1, m)).reshape(words.shape[:-1])
    slots += (np.arange(len(ts)) * len(index))[:, None]
    # float weights are exact here: every sum is an integer below C * R
    weights = np.broadcast_to(signs[:, None, None], slots.shape)
    sums = np.bincount(slots.ravel(), weights.ravel(), minlength=len(ts) * len(index))
    return sums.astype(np.int64).reshape(len(ts), len(index))


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


# words per chunk of tableau vectors, so one chunk stays a few megabytes
_CHUNK_WORDS = 1 << 16


def build_blocks(index: CycleIndex) -> list[Block]:
    """All nonempty blocks for one cycle length, in a fixed order.

    Partitions are visited in descending lex order.  For each shape the
    standard-tableau vectors are built a chunk at a time, in enumeration
    order, into preallocated span rows; a vector is kept when its pivot
    against the Gram matrix of the kept rows is nonzero, and the scan stops
    at the descent-sum count, so no chunk asks for more rows than are still
    missing.  With P the inversion, the rows w + s wP have the Gram matrix
    2G + s(G_P + G_P^T), G_P = span (span P)^T, so the sign split (even
    sign first) never builds the flipped rows.  The rows of every returned
    block are independent over the rationals.
    """
    inv_ids = index.inverse_ids()
    width = len(index)
    blocks: list[Block] = []
    for lam in partitions(index.m):
        target = block_multiplicity(lam)
        if target == 0:
            continue
        ts = standard_tableaux(lam)
        tables = shape_tables(lam)
        per_tableau = len(tables[0]) * len(tables[1])  # words: R rearrangements x C
        span = np.empty((target, width), dtype=np.int64)
        gram = np.zeros((target, target), dtype=np.int64)
        reduced: list[list[int]] = []
        span_ts: list[Filling] = []
        pos = 0
        while len(span_ts) < target and pos < len(ts):
            n = len(span_ts)
            chunk = ts[pos : pos + min(target - n, max(1, _CHUNK_WORDS // per_tableau))]
            pos += len(chunk)
            new = span[n : n + len(chunk)]
            new[:] = _tableau_vectors(tables, chunk, index)
            if int(np.abs(new).max()) ** 2 * width >= 2**62:
                raise ResourceError("tableau vector entries too large for int64 Gram products")
            cross = (span[: n + len(chunk)] @ new.T).tolist()
            kept = list(range(n))
            for j, t in enumerate(chunk):
                row = [cross[i][j] for i in kept] + [cross[n + j][j]]
                x = _reduce_row(reduced, row)
                if x is None:
                    raise CrossingsError(f"shape {lam}: tableau vector Gram matrix is not PSD")
                if x[-1]:
                    k = len(kept)
                    gram[k, : k + 1] = gram[: k + 1, k] = row
                    kept.append(n + j)
                    reduced.append(x)
                    span_ts.append(t)
            span[n : len(kept)] = span[kept[n:]]
        if len(span_ts) != target:
            raise CrossingsError(
                f"shape {lam}: tableau vectors span {len(span_ts)} dimensions, expected {target}"
            )
        flip = np.column_stack([span @ w[inv_ids] for w in span]).astype(object)
        split = 0
        for sign in (1, -1):
            pivots = psd_pivots(2 * gram.astype(object) + sign * (flip + flip.T))
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
    return blocks


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
