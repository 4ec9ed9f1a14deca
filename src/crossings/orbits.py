"""Orbits of ordered cycle pairs under simultaneous relabeling and inversion.

The group acts diagonally on pairs (sigma, tau).  It is transitive on the
first component, so each pair orbit meets {base} x Z_m in exactly one
stabilizer orbit of the second component: pair orbits are in bijection with
canonical forms of single cycles, and the orbit through (base, tau) has size
(m-1)! times the stabilizer-orbit length of tau.

Swapping the two components permutes the orbits (an involution), and the
classes of that involution index the constraints of the relaxations: the
class's coefficient block is the symmetrized sum over its one or two
orbits.  Everything here is combinatorial; the pair costs, which are
constant on classes, are read off the swap distances where the constraint
tables are built (coeffs.PairTables).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import factorial

import numpy as np

from .cycles import CycleIndex, canonical_keys, shift_families, unpack_keys


@dataclass
class PairOrbits:
    """Pair-orbit table for one cycle length.

    Orbits are identified by the packed canonical key of their second
    component at base first component; ids are positions in ascending key
    order.
    """

    m: int
    rep_keys: np.ndarray  # (R,) u64, ascending
    rep_seqs: np.ndarray  # (R, m) u8, the canonical second components
    n_tau: np.ndarray  # (R,) i64, cycles in each stabilizer class
    partner: np.ndarray  # (R,) i64, orbit id after swapping the pair

    @property
    def num_orbits(self) -> int:
        return self.rep_keys.size

    @property
    def sizes(self) -> np.ndarray:
        return self.n_tau.astype(np.uint64) * np.uint64(factorial(self.m - 1))

    def symmetric_classes(self) -> "SymmetricClasses":
        ids = np.arange(self.num_orbits, dtype=np.int64)
        is_rep = ids <= self.partner
        rep_orbits = ids[is_rep]
        paired = self.partner[rep_orbits] != rep_orbits
        sizes = self.sizes[rep_orbits] * np.where(paired, np.uint64(2), np.uint64(1))
        class_of_orbit = np.searchsorted(rep_orbits, np.minimum(ids, self.partner))
        return SymmetricClasses(
            rep_orbits=rep_orbits,
            sizes=sizes,
            class_of_orbit=class_of_orbit,
        )


@dataclass
class SymmetricClasses:
    """Classes of the pair-swap involution on orbits, the constraint index set."""

    rep_orbits: np.ndarray  # (C,) orbit id of the smaller member
    sizes: np.ndarray  # (C,) u64, total pairs covered by the class
    class_of_orbit: np.ndarray  # (R,) class index of every orbit

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


def build_pair_orbits(index: CycleIndex) -> PairOrbits:
    """Enumerate all pair orbits from the cycle table."""
    m = index.m
    rep_keys, orbit_of = index.stabilizer_orbits()
    counts = np.bincount(orbit_of, minlength=rep_keys.size)
    rep_seqs = unpack_keys(rep_keys, m)
    partner_keys = canonical_keys(swap_partner_words(rep_seqs))
    partner = np.searchsorted(rep_keys, partner_keys).astype(np.int64)
    return PairOrbits(
        m=m,
        rep_keys=rep_keys,
        rep_seqs=rep_seqs,
        n_tau=counts.astype(np.int64),
        partner=partner,
    )


def count_relabel_only_orbits(index: CycleIndex) -> int:
    """Pair orbits under relabeling alone, inversion excluded.

    Relabeling alone is transitive on first components and the base cycle's
    stabilizer in it is the cyclic group of value shifts, so these orbits are
    the shift orbits of second components.  That cyclic group has index two
    in the full stabilizer, so each stabilizer orbit is one shift orbit or
    two: one exactly when the reflecting generator maps its representative
    into the representative's own shift orbit, when its two shift_families
    rows agree.  Only the stabilizer-orbit representatives are
    canonicalized, not the whole cycle table.
    """
    shifted, reflected = shift_families(unpack_keys(index.stabilizer_orbits()[0], index.m))
    return shifted.size + int((shifted != reflected).sum())


def orbit_census(index: CycleIndex) -> tuple[int, int, int]:
    """(relabel-only orbits, orbits, swap classes) for one cycle length."""
    orbits = build_pair_orbits(index)
    return (
        count_relabel_only_orbits(index),
        orbits.num_orbits,
        orbits.symmetric_classes().count,
    )
