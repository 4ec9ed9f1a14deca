"""Orbits of ordered cycle pairs under simultaneous relabeling and inversion.

The group acts diagonally on pairs (sigma, tau).  It is transitive on the
first component, so each pair orbit meets {base} x Z_m in exactly one
stabilizer orbit of the second component: pair orbits are in bijection with
canonical forms of single cycles, and the orbit through (base, tau) has size
(m-1)! times the stabilizer-orbit length of tau.  That length is 2m over
the stabilizer order of the representative, so the orbits, their sizes and
the census come from the representatives alone (CycleIndex.representatives)
and never from a per-cycle table.

Swapping the two components permutes the orbits (an involution), and the
classes of that involution index the constraints of the relaxations: the
class's coefficient block is the symmetrized sum over its one or two
orbits.  The classes are all that is kept (build_pair_orbits): each
orbit's swap partner is looked up from its representative one chunk at a
time (CycleIndex.chunks) and dropped once the classes are formed.
Everything here is combinatorial; the pair costs, which are
constant on classes, are read off the swap distances where the constraint
tables are built (coeffs.PairTables).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import factorial

import numpy as np

from .cycles import CycleIndex
from .errors import CrossingsError


@dataclass
class SymmetricClasses:
    """Classes of the pair-swap involution on orbits, the constraint index set."""

    rep_orbits: np.ndarray  # (C,) orbit id of the smaller member
    sizes: np.ndarray  # (C,) u64, total pairs covered by the class
    class_of_orbit: np.ndarray  # (R,) int32, class index of every orbit

    @property
    def count(self) -> int:
        return self.rep_orbits.size


def swap_partner_words(rep_seqs: np.ndarray) -> np.ndarray:
    """Second component of each swapped pair, before canonicalization.

    Swapping (base, tau) and renormalizing the first component applies the
    inverse rank map of tau's word to the base, whose word is then the
    argsort of tau's word (shifted to 1-based values).
    """
    return (np.argsort(rep_seqs, axis=-1) + 1).astype(np.uint8)


def build_pair_orbits(index: CycleIndex) -> SymmetricClasses:
    """The swap classes of all pair orbits, from the stabilizer-orbit
    representatives.

    The orbit through (base, tau) holds (m-1)! pairs for each cycle in the
    stabilizer orbit of tau, and that orbit has 2m divided by the stabilizer
    order of its representative members; no per-cycle table is read.  The
    swap partners are looked up one chunk of representatives at a time
    (CycleIndex.chunks) and dropped once the classes are formed.
    """
    m = index.m
    rep_keys, fixed = index.representatives()
    lengths = (2 * m) // fixed.sum(axis=0, dtype=np.uint8)
    if int(lengths.sum()) != factorial(m - 1):
        raise CrossingsError(f"stabilizer orbits of {m}-cycles cover {int(lengths.sum())} "
                             f"cycles, not {factorial(m - 1)}")
    ids = np.arange(rep_keys.size, dtype=np.int32)
    partner = np.empty_like(ids)
    for at, words in index.chunks():
        partner[at] = index.orbit_ids(swap_partner_words(words))
    rep = ids <= partner
    rep_orbits = np.flatnonzero(rep)
    paired = partner[rep_orbits] != rep_orbits
    sizes = (lengths[rep_orbits].astype(np.uint64) * np.uint64(factorial(m - 1))
             * np.where(paired, np.uint64(2), np.uint64(1)))
    # an orbit's class counts the class representatives up to its own
    class_of_orbit = np.cumsum(rep, dtype=np.int32)[np.minimum(ids, partner, out=partner)]
    class_of_orbit -= 1
    return SymmetricClasses(rep_orbits=rep_orbits, sizes=sizes, class_of_orbit=class_of_orbit)


def count_relabel_only_orbits(index: CycleIndex) -> int:
    """Pair orbits under relabeling alone, inversion excluded.

    Relabeling alone is transitive on first components and the base cycle's
    stabilizer in it is the cyclic group of value shifts, so these orbits are
    the shift orbits of second components.  That cyclic group has index two
    in the full stabilizer, so each stabilizer orbit is one shift orbit or
    two: one exactly when a reflecting element fixes its representative,
    which then lies in the shift orbit of its own reflected inverse.
    """
    reflect_fixed = index.representatives()[1][1]
    return reflect_fixed.size + int((reflect_fixed == 0).sum())


def orbit_census(index: CycleIndex) -> tuple[int, int, int]:
    """(relabel-only orbits, orbits, swap classes) for one cycle length."""
    classes = build_pair_orbits(index)
    return count_relabel_only_orbits(index), classes.class_of_orbit.size, classes.count
