"""Integer bases for the symmetry-reduced blocks of the relaxations.

Each partition of m contributes a family of candidate cycle-space vectors,
one per standard tableau (built here by a vectorized version of the direct
expansion in the tableau module).  The span of that family has dimension
equal to the number of standard tableaux with descent sum divisible by m,
so a minimal spanning subset is extracted first; the survivors are then
symmetrized by the inversion sign, and a maximal independent subfamily per
sign, in the fixed tableau enumeration order, yields the blocks: integer
matrices whose row spans carry the whole optimization problem.

Independence decisions are made exactly: a candidate joins a block when the
integer Gram determinant of the enlarged set is nonzero (computed by
fraction-free elimination over Python ints, so no floating point rank guess
can ever corrupt a block).

The block for the shape (m-2, 1, 1) also has a closed-form evaluator that
reads each vector entry off the cycle word in O(m), with no pass over the
symmetric group; large-m single-block runs depend on it.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import factorial, prod

import numpy as np

from .cycles import CycleIndex
from .errors import ArgumentError
from .tableaux import (
    base_filling,
    block_multiplicity,
    partitions,
    signed_column_fillings,
    standard_tableaux,
)

Filling = tuple[tuple[int, ...], ...]


@dataclass
class Block:
    """One block of the reduced problem: lam, inversion sign, row matrix."""

    lam: tuple[int, ...]
    sign: int
    tableaux: list[Filling]
    u: np.ndarray  # (d, N) int64

    @property
    def dim(self) -> int:
        return self.u.shape[0]


def _row_cell_perms(lam: tuple[int, ...]) -> np.ndarray:
    """All row-preserving permutations of row-major cell indices, (R, m)."""
    starts = [0]
    for part in lam:
        starts.append(starts[-1] + part)
    per_row = [
        list(itertools.permutations(range(s, s + part)))
        for s, part in zip(starts, lam)
    ]
    m = sum(lam)
    out = np.empty((prod(factorial(p) for p in lam), m), dtype=np.int32)
    for r, combo in enumerate(itertools.product(*per_row)):
        out[r] = [c for grp in combo for c in grp]
    return out


def _signed_col_rows(lam: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray]:
    """Signs and row-major value arrays of c . t over the column group of the
    base filling."""
    items = list(signed_column_fillings(base_filling(lam)))
    signs = np.array([s for s, _ in items], dtype=np.int64)
    crows = np.array([[v for row in f for v in row] for _, f in items], dtype=np.uint8)
    return signs, crows


def tableau_vector_matrix(
    lam: tuple[int, ...], ts: list[Filling], index: CycleIndex
) -> np.ndarray:
    """Stack of cycle-space vectors for the given column tableaux, (len(ts), N).

    Vectorized over the column group and the row rearrangements at once: the
    word read off a pair (c, T') has letter p equal to the value of c . t at
    the cell where the rearranged T places p+1.
    """
    m = index.m
    if sum(lam) != m:
        raise ArgumentError(f"shape {lam} does not partition {m}")
    rearr = _row_cell_perms(lam)  # (R, m)
    signs, crows = _signed_col_rows(lam)  # (C,), (C, m)
    rep_signs = np.repeat(signs, rearr.shape[0])
    out = np.zeros((len(ts), len(index)), dtype=np.int64)
    for k, t in enumerate(ts):
        tinv = np.empty(m, dtype=np.int32)
        for cell, v in enumerate(v for row in t for v in row):
            tinv[v - 1] = cell
        holder = rearr[:, tinv]  # (R, m): cell of p+1 under each rearrangement
        words = crows[:, holder].reshape(-1, m)  # (C*R, m)
        ids = index.id_of_words(words)
        np.add.at(out[k], ids, rep_signs)
    return out


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


def _greedy_independent(rows: np.ndarray, stop_at: int | None = None) -> list[int]:
    """Indices of a maximal independent subset, scanned in the given order.

    Grows an exact integer Gram matrix; a row joins when the bordered Gram
    determinant is nonzero.  Entry sizes are checked so the int64 dot
    products below cannot wrap.  When the target rank is known in advance,
    stop_at cuts the scan short once that many rows are chosen.
    """
    if rows.size:
        assert abs(rows).max() ** 2 * rows.shape[1] < 2**62
    chosen: list[int] = []
    gram: list[list[int]] = []
    picked = np.zeros((0, rows.shape[1]), dtype=np.int64)
    for i in range(rows.shape[0]):
        if stop_at is not None and len(chosen) == stop_at:
            break
        w = rows[i]
        if not w.any():
            continue
        cross = [int(x) for x in picked @ w]
        corner = int(w @ w)
        bordered = [g + [c] for g, c in zip(gram, cross)] + [cross + [corner]]
        if bareiss_det(bordered) == 0:
            continue
        chosen.append(i)
        gram = bordered
        picked = np.vstack([picked, w[None]])
    return chosen


def build_blocks(index: CycleIndex) -> list[Block]:
    """All nonempty blocks for one cycle length, in a fixed order.

    Partitions are visited in descending lex order.  For each shape a minimal
    spanning subset of the standard-tableau vectors is kept (its size must
    match the descent-sum count, asserted below); the survivors are then
    symmetrized by the inversion sign, even sign first.  Every returned
    matrix has full row rank over the rationals.
    """
    inv_ids = index.inverse_ids()
    blocks: list[Block] = []
    for lam in partitions(index.m):
        target = block_multiplicity(lam)
        if target == 0:
            continue
        ts = standard_tableaux(lam)
        vecs = tableau_vector_matrix(lam, ts, index)
        keep = _greedy_independent(vecs, stop_at=target)
        assert len(keep) == target, (lam, len(keep), target)
        span = vecs[keep]
        span_ts = [ts[i] for i in keep]
        flipped = span[:, inv_ids]
        split = 0
        for sign in (1, -1):
            cand = span + sign * flipped
            sel = _greedy_independent(cand)
            split += len(sel)
            if sel:
                blocks.append(
                    Block(
                        lam=lam,
                        sign=sign,
                        tableaux=[span_ts[i] for i in sel],
                        u=cand[sel],
                    )
                )
        assert split == target, (lam, split, target)
    return blocks


def block_dims(blocks: list[Block]) -> list[int]:
    """Block dimensions in descending order (the shape of the reduction)."""
    return sorted((b.dim for b in blocks), reverse=True)


# -- the (m-2, 1, 1) block, used alone by the single-block relaxation -------


def hook_block_dim(m: int) -> int:
    return (m - 1) // 2


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


# value-pair patterns read off the cycle word at offset i-2, one rotation at
# a time; entries below are (value at p, value at p + i - 2, weight)
def _hook_patterns(m: int) -> list[tuple[int, int, int]]:
    return [
        (m - 1, m, 1),
        (m, m - 1, -1),
        (1, m, -1),
        (m - 1, 1, -1),
        (m, 1, 1),
        (1, m - 1, 1),
    ]


def hook_block_values(seqs: np.ndarray, i: int) -> np.ndarray:
    """Entries of the (m-2,1,1) block vector for column i, per input word.

    O(m) per word: counts the signed value-pair patterns at cyclic offset
    i-2.  Must agree with the direct expansion of the column tableau; the
    tests enforce that.
    """
    seqs = np.asarray(seqs, dtype=np.uint8)
    m = seqs.shape[-1]
    off = (i - 2) % m
    shifted = np.roll(seqs, -off, axis=-1)
    acc = np.zeros(seqs.shape[:-1], dtype=np.int64)
    for va, vb, weight in _hook_patterns(m):
        acc += weight * ((seqs == va) & (shifted == vb)).sum(axis=-1)
    return acc


def hook_block_matrix(seqs: np.ndarray) -> np.ndarray:
    """The full (d, N) single-block matrix over the given words."""
    m = seqs.shape[-1]
    return np.stack(
        [hook_block_values(seqs, i) for i in range(3, (m + 1) // 2 + 2)]
    )
