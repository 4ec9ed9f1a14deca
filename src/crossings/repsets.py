"""Integer bases for the symmetry-reduced blocks of the relaxations.

Each partition of m contributes a family of candidate cycle-space vectors,
one per standard tableau (built here from row-rearrangement and signed
column-group tables made once per shape; the tests check them against the
scalar tableau chain in tests/oracles.py).  The span of that family has
dimension equal to the number of standard tableaux with descent sum
divisible by m, so a minimal spanning subset is extracted first: vectors are
built a chunk at a time in the fixed tableau enumeration order and streamed
into the greedy independence test, which stops at that dimension, so the
vectors past the last one it reads are never built.  The survivors are then
symmetrized by the inversion sign, and a maximal independent subfamily per
sign yields the blocks, each recorded by its shape, sign and tableaux: the
row vectors are only needed to select them, and the coefficient tables are
computed from the tableaux alone.

Independence decisions are made exactly: a candidate joins a block when the
integer Gram determinant of the enlarged set is nonzero (computed by
fraction-free elimination over Python ints, so no floating point rank guess
can ever corrupt a block).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cycles import CycleIndex
from .errors import ArgumentError, CrossingsError, ResourceError
from .tableaux import block_multiplicity, conjugate, partitions, standard_tableaux

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


def _lex_permutations(k: int) -> tuple[np.ndarray, np.ndarray]:
    """All permutations of range(k) in lexicographic (itertools) order, (k!, k),
    with their signs by inversion parity: a leading entry f precedes exactly
    f smaller entries, so it contributes f inversions."""
    perms = np.zeros((1, 0), dtype=np.uint8)
    signs = np.ones(1, dtype=np.int8)
    for n in range(1, k + 1):
        first = np.repeat(np.arange(n, dtype=np.uint8), len(perms))
        rest = np.tile(perms, (n, 1))
        perms = np.column_stack([first, rest + (rest >= first[:, None])])
        signs = np.tile(signs, n)
        signs[first % 2 == 1] *= -1
    return perms, signs


def _product(
    factors: list[tuple[np.ndarray, np.ndarray]],
) -> tuple[np.ndarray, np.ndarray]:
    """Cartesian product of (rows, signs) factors in itertools.product order
    (first factor slowest): rows concatenate, signs multiply."""
    rows = np.zeros((1, 0), dtype=np.uint8)
    signs = np.ones(1, dtype=np.int8)
    for f_rows, f_signs in factors:
        rows = np.hstack([np.repeat(rows, len(f_rows), axis=0), np.tile(f_rows, (len(rows), 1))])
        signs = np.repeat(signs, len(f_signs)) * np.tile(f_signs, len(signs))
    return rows, signs


def _shape_tables(lam: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The per-shape tables of the vector builder: all row-preserving
    permutations of row-major cell indices (R, m), and the signs (C,) and
    row-major values (C, m) of c . t over the column group of the base
    filling."""
    starts = np.cumsum((0,) + lam[:-1], dtype=np.uint8)
    rearr, _ = _product(
        [(perms + start, signs) for part, start in zip(lam, starts)
         for perms, signs in [_lex_permutations(part)]]
    )
    # column j holds the base values starts[i] + j + 1 at cells starts[i] + j
    heights = conjugate(lam)
    values, signs = _product(
        [(starts[perms] + j + 1, col_signs) for j, h in enumerate(heights)
         for perms, col_signs in [_lex_permutations(h)]]
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


def bareiss_det(mat: list[list[int]]) -> int:
    """Exact integer determinant by fraction-free Gaussian elimination."""
    a = [list(map(int, row)) for row in mat]
    n = len(a)
    if n == 0:
        return 1
    sign, prev = 1, 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


class _GreedyBasis:
    """A maximal independent subset grown row by row in scan order.

    Keeps the accepted rows and their exact integer Gram matrix; a row joins
    when the bordered Gram determinant is nonzero.  Entry sizes are checked
    so the int64 dot products below cannot wrap.
    """

    def __init__(self, width: int):
        self.rows = np.zeros((0, width), dtype=np.int64)
        self.gram: list[list[int]] = []

    def __len__(self) -> int:
        return self.rows.shape[0]

    def offer(self, rows: np.ndarray, limit: int | None = None) -> list[int]:
        """Positions of the offered rows that join, scanning until the basis
        holds limit rows."""
        if rows.size and int(np.abs(rows).max()) ** 2 * rows.shape[1] >= 2**62:
            raise ResourceError("tableau vector entries too large for exact int64 Gram products")
        joined: list[int] = []
        for i, w in enumerate(rows):
            if limit is not None and len(self) == limit:
                break
            if not w.any():
                continue
            cross = [int(x) for x in self.rows @ w]
            bordered = [g + [c] for g, c in zip(self.gram, cross)] + [cross + [int(w @ w)]]
            if bareiss_det(bordered) == 0:
                continue
            joined.append(i)
            self.gram = bordered
            self.rows = np.vstack([self.rows, w[None]])
        return joined


def _greedy_independent(rows: np.ndarray, stop_at: int | None = None) -> list[int]:
    """Indices of a maximal independent subset, scanned in the given order.

    When the target rank is known in advance, stop_at cuts the scan short
    once that many rows are chosen.
    """
    return _GreedyBasis(rows.shape[1]).offer(rows, stop_at)


# words per chunk of tableau vectors, so one chunk stays a few megabytes
_CHUNK_WORDS = 1 << 16


def build_blocks(index: CycleIndex) -> list[Block]:
    """All nonempty blocks for one cycle length, in a fixed order.

    Partitions are visited in descending lex order.  For each shape the
    standard-tableau vectors are built a chunk at a time, in enumeration
    order, and fed to the greedy independence test until it holds as many
    rows as the descent-sum count; no chunk asks for more rows than are
    still missing, so only the rows the scan reads are ever built.  The
    survivors are then symmetrized by the inversion sign, even sign first.
    The rows of every returned block are independent over the rationals.
    """
    inv_ids = index.inverse_ids()
    blocks: list[Block] = []
    for lam in partitions(index.m):
        target = block_multiplicity(lam)
        if target == 0:
            continue
        ts = standard_tableaux(lam)
        tables = _shape_tables(lam)
        per_tableau = len(tables[0]) * len(tables[1])  # words: R rearrangements x C
        basis = _GreedyBasis(len(index))
        span_ts: list[Filling] = []
        pos = 0
        while len(basis) < target and pos < len(ts):
            chunk = ts[pos : pos + min(target - len(basis), max(1, _CHUNK_WORDS // per_tableau))]
            joined = basis.offer(_tableau_vectors(tables, chunk, index), target)
            span_ts.extend(chunk[i] for i in joined)
            pos += len(chunk)
        if len(basis) != target:
            raise CrossingsError(
                f"shape {lam}: tableau vectors span {len(basis)} dimensions, expected {target}"
            )
        span = basis.rows
        flipped = span[:, inv_ids]
        split = 0
        for sign in (1, -1):
            sel = _greedy_independent(span + sign * flipped)
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
