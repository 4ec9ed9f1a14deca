"""Partition and tableau combinatorics behind the block decomposition.

The symmetry reduction assigns to every partition of m a block whose size is
the number of standard tableaux whose descent sum vanishes mod m.  This
module supplies the combinatorial layer: partitions, hook length dimensions,
standard tableaux in a fixed enumeration order, descent sums, and a scalar
construction of the cycle-space vector attached to one tableau.  The scalar
construction is deliberately naive; the vectorized builder elsewhere is
checked against it.

Fillings are tuples of row tuples.  A filling of shape lam places 1..m
bijectively; standard means rows and columns increase.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from math import factorial

import numpy as np

from .cycles import CycleIndex, normalize_words
from .errors import ArgumentError, CrossingsError


def partitions(m: int) -> list[tuple[int, ...]]:
    """All partitions of m, parts decreasing, in descending lex order."""
    out: list[tuple[int, ...]] = []

    def rec(remaining: int, cap: int, prefix: tuple[int, ...]) -> None:
        if remaining == 0:
            out.append(prefix)
            return
        for part in range(min(cap, remaining), 0, -1):
            rec(remaining - part, part, prefix + (part,))

    rec(m, m, ())
    return out


def hook_dim(lam: tuple[int, ...]) -> int:
    """Number of standard tableaux of the shape, by the hook length product."""
    m = sum(lam)
    cols = conjugate(lam)
    hooks = 1
    for i, row in enumerate(lam):
        for j in range(row):
            hooks *= (row - j) + (cols[j] - i) - 1
    dim, rem = divmod(factorial(m), hooks)
    if rem:
        raise CrossingsError(f"hook product {hooks} of {lam} does not divide {m}!")
    return dim


def conjugate(lam: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(sum(1 for row in lam if row > j) for j in range(lam[0])) if lam else ()


@lru_cache(maxsize=None)
def standard_tableaux(lam: tuple[int, ...]) -> tuple[tuple[tuple[int, ...], ...], ...]:
    """All standard tableaux of the shape, in a fixed order.

    Values 1..m are placed in increasing order, always at the leftmost free
    cell of a row, trying rows top to bottom; the resulting order is what the
    greedy block construction enumerates, so it must never change.
    """
    m = sum(lam)
    rows = len(lam)
    filled = [0] * rows
    grid = [[0] * r for r in lam]
    out: list[tuple[tuple[int, ...], ...]] = []

    def rec(v: int) -> None:
        if v > m:
            out.append(tuple(tuple(r) for r in grid))
            return
        for i in range(rows):
            j = filled[i]
            if j >= lam[i]:
                continue
            if i > 0 and filled[i - 1] <= j:
                continue
            grid[i][j] = v
            filled[i] += 1
            rec(v + 1)
            filled[i] -= 1
    rec(1)
    return tuple(out)


def descent_sum(t: tuple[tuple[int, ...], ...]) -> int:
    """Sum of the i whose successor i+1 sits in a strictly lower row."""
    m = sum(len(r) for r in t)
    row_of = [0] * (m + 1)
    for i, row in enumerate(t):
        for v in row:
            row_of[v] = i
    return sum(i for i in range(1, m) if row_of[i + 1] > row_of[i])


def cyclic_tableaux(lam: tuple[int, ...]) -> list[tuple[tuple[int, ...], ...]]:
    """Standard tableaux whose descent sum is divisible by m, in order."""
    m = sum(lam)
    return [t for t in standard_tableaux(lam) if descent_sum(t) % m == 0]


def block_multiplicity(lam: tuple[int, ...]) -> int:
    return len(cyclic_tableaux(lam))


def base_filling(lam: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    """Row-major filling 1..m; its cell b holds b+1 when cells are flattened."""
    out, v = [], 1
    for r in lam:
        out.append(tuple(range(v, v + r)))
        v += r
    return tuple(out)


def row_equivalent_fillings(t):
    """All fillings reachable by permuting entries inside rows."""
    for rows in itertools.product(*(itertools.permutations(r) for r in t)):
        yield tuple(rows)


def signed_column_fillings(t):
    """(sign, c . t) over the column group of t: per-column permutations."""
    lam = tuple(len(r) for r in t)
    cols = [[t[i][j] for i in range(len(lam)) if lam[i] > j] for j in range(lam[0])]
    for perms in itertools.product(*(itertools.permutations(c) for c in cols)):
        sgn = 1
        for orig, perm in zip(cols, perms):
            sgn *= perm_sign(orig, perm)
        grid = [list(r) for r in t]
        for j, perm in enumerate(perms):
            for i, v in enumerate(perm):
                grid[i][j] = v
        yield sgn, tuple(tuple(r) for r in grid)


def perm_sign(src, dst) -> int:
    """Sign of the permutation carrying tuple src to tuple dst."""
    pos = {v: i for i, v in enumerate(src)}
    seq = [pos[v] for v in dst]
    sgn, seen = 1, [False] * len(seq)
    for i in range(len(seq)):
        if seen[i]:
            continue
        length, j = 0, i
        while not seen[j]:
            seen[j] = True
            j = seq[j]
            length += 1
        if length % 2 == 0:
            sgn = -sgn
    return sgn


def compose_word(a, b) -> tuple[int, ...]:
    """Word whose p-th letter is the value of filling a at the cell holding
    p+1 in filling b.  Both fillings must share a shape."""
    m = sum(len(r) for r in a)
    cell_of = {}
    for i, row in enumerate(b):
        for j, v in enumerate(row):
            cell_of[v] = (i, j)
    return tuple(a[i][j] for i, j in (cell_of[p] for p in range(1, m + 1)))


Tabloid = tuple[tuple[int, ...], ...]


def tabloid_of(filling) -> Tabloid:
    """Row equivalence class of a filling: each row sorted."""
    return tuple(tuple(sorted(r)) for r in filling)


def polytabloid(t) -> dict[Tabloid, int]:
    """Signed sum of tabloids over the column group of t, coefficients exact."""
    flat = [v for row in t for v in row]
    if len(set(flat)) != len(flat):
        raise ArgumentError("polytabloid needs distinct entries")
    out: dict[Tabloid, int] = {}
    for sgn, ct in signed_column_fillings(t):
        key = tabloid_of(ct)
        c = out.get(key, 0) + sgn
        if c:
            out[key] = c
        else:
            out.pop(key, None)
    return out


def theta_apply(t_hom, v: dict[Tabloid, int]) -> dict[Tabloid, int]:
    """Homomorphism into the full-order module, indexed by the filling t_hom.

    A term {s} maps to the sum, over row rearrangements T' of t_hom, of the
    word placing the entry of s at each cell into position T' of that cell.
    The result does not depend on the representative chosen for {s} because
    the rearrangement sum runs over the whole row class.
    """
    out: dict[Tabloid, int] = {}
    for s, coeff in v.items():
        if tuple(len(r) for r in s) != tuple(len(r) for r in t_hom):
            raise ArgumentError("tabloid shape does not match the tableau")
        for tp in row_equivalent_fillings(t_hom):
            key = tuple((x,) for x in compose_word(s, tp))
            c = out.get(key, 0) + coeff
            if c:
                out[key] = c
            else:
                out.pop(key, None)
    return out


def project_f(v: dict[Tabloid, int], index: CycleIndex) -> np.ndarray:
    """Collapse a signed sum over full orders to the cycle space.

    A tabloid with singleton rows i1, ..., im contributes its coefficient to
    the cycle traversing i1 -> i2 -> ... -> im -> i1.
    """
    w = np.zeros(len(index), dtype=np.int64)
    for s, coeff in v.items():
        word = np.array([r[0] for r in s], dtype=np.uint8)
        w[index.id_of_words(normalize_words(word[None]))[0]] += coeff
    return w


def repset_vector(lam: tuple[int, ...], t_col: tuple[tuple[int, ...], ...], index: CycleIndex) -> np.ndarray:
    """Cycle-space vector of one column tableau, by direct expansion.

    Composite of the three maps above at the row-major base filling.  Scalar
    reference; quadratic in the row and column group sizes.
    """
    return project_f(theta_apply(t_col, polytabloid(base_filling(lam))), index)
