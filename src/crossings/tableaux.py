"""Partition and tableau combinatorics behind the block decomposition.

The symmetry reduction assigns to every partition of m a block whose size is
the number of standard tableaux whose descent sum vanishes mod m.  This
module supplies the combinatorial layer: partitions, standard tableaux in a
fixed enumeration order, descent sums, and the permutations of a row or
column with their signs, in bulk, which both the block vectors and the
determinant polynomials of the coefficient expansion are built from.  The
cycle-space vector of a tableau is built in bulk by the block module; the
scalar construction it is checked against (tabloids, the column group and
row rearrangements one filling at a time, with the scalar permutation sign)
and the hook length count of the standard tableaux live with the other test
oracles in tests/oracles.py.

Fillings are tuples of row tuples.  A filling of shape lam places 1..m
bijectively; standard means rows and columns increase.
"""

from __future__ import annotations

from functools import lru_cache
from math import factorial

import numpy as np


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


@lru_cache(maxsize=None)
def block_multiplicity(lam: tuple[int, ...]) -> int:
    return len(cyclic_tableaux(lam))


def lex_permutations(k: int) -> tuple[np.ndarray, np.ndarray]:
    """All permutations of range(k) in lexicographic order, (k!, k) uint8,
    with their int8 signs by inversion parity.  The Lehmer codes (digit j
    counts the smaller entries after position j) run in lexicographic
    order with their permutations, and their digit sum is the inversion
    count; each is decoded from the right, entry j taking the value d_j
    and pushing every later entry at or above it up by one."""
    perms = np.indices(tuple(range(k, 0, -1)), dtype=np.uint8).reshape(k, factorial(k))
    signs = np.where(perms.sum(axis=0) % 2, np.int8(-1), np.int8(1))
    for j in range(k - 2, -1, -1):
        perms[j + 1 :] += perms[j + 1 :] >= perms[j]
    return np.ascontiguousarray(perms.T), signs
