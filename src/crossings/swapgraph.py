"""Shortest-path costs between m-cycles under adjacent-entry swaps.

Two cycles are adjacent when their anchored words differ by swapping two
cyclically consecutive entries, which is the same as conjugating by the
transposition of those two values.  The cost attached to an ordered pair
(sigma, tau) is the graph distance from sigma to tau^{-1}; relabelings act as
graph automorphisms and carry the base row to every other row, so only
distances from the base cycle are ever computed.

The production BFS runs on the quotient by the base cycle's stabilizer:
distances from the base are constant on stabilizer orbits, so expanding only
canonical representatives shrinks the vertex set by a factor of about 2m,
and the result keeps one distance per orbit.  The neighbours of a frontier
are looked up by their orbit one chunk of representatives at a time
(CycleIndex.chunks) and marked as they come, so neither a per-cycle
table nor the neighbour words of a whole frontier are held.
The tests check it against a plain sweep over all words in tests/oracles.py.
"""

from __future__ import annotations

from functools import cache

import numpy as np

from .cycles import CycleIndex
from .errors import CrossingsError

UNREACHED = np.uint16(0xFFFF)


def self_cost(m: int) -> int:
    """Distance from any cycle to its own inverse.

    Closed form floor((m-1)^2 / 4); the BFS tables are checked against it.
    """
    return (m - 1) ** 2 // 4


@cache
def _swap_positions(m: int) -> np.ndarray:
    """(m, m) positions read by each swap: row j is the identity with j and
    j+1 mod m exchanged."""
    pos = np.tile(np.arange(m), (m, 1))
    j = np.arange(m)
    pos[j, (j + 1) % m] = j
    pos[j, j] = (j + 1) % m
    pos.flags.writeable = False
    return pos


def neighbor_words(words: np.ndarray) -> np.ndarray:
    """The m adjacent-entry swaps of each row, wrap included.

    Input (..., m), output (..., m, m) with the new axis enumerating the
    swapped position pair (j, j+1 mod m).  Neighbors are not deduplicated;
    distinct swaps can produce the same cycle.  Swaps that touch position 0
    move the 1 entry off the front, so rows are rotations of anchored words.
    """
    words = np.asarray(words, dtype=np.uint8)
    return words[..., _swap_positions(words.shape[-1])]


def distances_from_base(index: CycleIndex) -> np.ndarray:
    """Graph distance from the base cycle to every stabilizer orbit, by
    quotient BFS.

    Returns a uint16 array indexed like index.representatives(); the
    distance to a word is the entry at index.orbit_ids(word).
    """
    m = index.m
    dist = np.full(index.representatives()[0].size, UNREACHED, dtype=np.uint16)

    frontier = index.orbit_ids(np.arange(1, m + 1, dtype=np.uint8)[None])  # the base word
    dist[frontier] = 0
    d = 0
    while frontier.size:
        # marking the neighbor orbits dedupes them with no sort, ids ascending
        hit = np.zeros(dist.size, dtype=bool)
        for _, words in index.chunks(frontier):
            hit[index.orbit_ids(neighbor_words(words))] = True
        ids = np.flatnonzero(hit & (dist == UNREACHED))
        d += 1
        dist[ids] = d
        frontier = ids
    if (dist == UNREACHED).any():
        raise CrossingsError(f"swap graph on {m}-cycles is not connected")
    return dist
