"""Orbits of ordered cycle pairs under simultaneous relabeling and inversion.

The group acts diagonally on pairs (sigma, tau).  It is transitive on the
first component, so each pair orbit meets {base} x Z_m in exactly one
stabilizer orbit of the second component: pair orbits are in bijection with
canonical forms of single cycles, and the orbit through (base, tau) has size
(m-1)! times the stabilizer-orbit length of tau.

Swapping the two components permutes the orbits (an involution), and the
classes of that involution index the constraints of the relaxations: the
cost q is constant on each class, and the class's coefficient block is the
symmetrized sum over its one or two orbits.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import factorial

import numpy as np

from .cycles import (
    Cycle,
    CycleIndex,
    canonical_keys,
    invert_seqs,
    pack_keys,
    reflect_invert_seqs,
    shift_canonical_keys,
    unpack_keys,
)
from .errors import ArgumentError


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
    q: np.ndarray  # (R,) u16, pair cost on the orbit
    partner: np.ndarray  # (R,) i64, orbit id after swapping the pair

    @property
    def num_orbits(self) -> int:
        return self.rep_keys.size

    @property
    def sizes(self) -> np.ndarray:
        return self.n_tau.astype(np.uint64) * np.uint64(factorial(self.m - 1))

    def orbit_ids_of_tau_seqs(self, seqs: np.ndarray) -> np.ndarray:
        """Orbit ids of the pairs (base, tau) for each word tau in seqs."""
        return np.searchsorted(self.rep_keys, canonical_keys(seqs))

    def orbit_of_pair(self, sigma: Cycle, tau: Cycle) -> int:
        """Orbit id of an arbitrary ordered pair.

        Normalizes by the relabeling that carries sigma's word to the base
        (the unique such permutation); any other normalizer differs by a
        stabilizer element and lands in the same class.
        """
        if sigma.m != self.m or tau.m != self.m:
            raise ArgumentError("pair degree does not match the orbit table")
        to_base = np.empty(self.m, dtype=np.uint8)
        to_base[np.array(sigma.seq) - 1] = np.arange(1, self.m + 1)
        moved = to_base[np.array(tau.seq, dtype=np.uint8) - 1]
        return int(self.orbit_ids_of_tau_seqs(moved[None])[0])

    def relabel_to_base(self, sigma_seq: np.ndarray) -> np.ndarray:
        """Value map (as an array over 1..m, 0-indexed) sending sigma to base."""
        to_base = np.empty(self.m, dtype=np.uint8)
        to_base[np.asarray(sigma_seq) - 1] = np.arange(1, self.m + 1, dtype=np.uint8)
        return to_base

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
            q=self.q[rep_orbits],
            class_of_orbit=class_of_orbit,
        )


@dataclass
class SymmetricClasses:
    """Classes of the pair-swap involution on orbits, the constraint index set."""

    rep_orbits: np.ndarray  # (C,) orbit id of the smaller member
    sizes: np.ndarray  # (C,) u64, total pairs covered by the class
    q: np.ndarray  # (C,) u16
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


def build_pair_orbits(index: CycleIndex, dist_from_base: np.ndarray) -> PairOrbits:
    """Enumerate all pair orbits from the cycle table and the distance table."""
    m = index.m
    rep_keys, orbit_of = index.stabilizer_orbits()
    counts = np.bincount(orbit_of, minlength=rep_keys.size)
    rep_seqs = unpack_keys(rep_keys, m)
    q = dist_from_base[index.id_of_keys(pack_keys(invert_seqs(rep_seqs)))].astype(np.uint16)
    partner_keys = canonical_keys(swap_partner_words(rep_seqs))
    partner = np.searchsorted(rep_keys, partner_keys).astype(np.int64)
    return PairOrbits(
        m=m,
        rep_keys=rep_keys,
        rep_seqs=rep_seqs,
        n_tau=counts.astype(np.int64),
        q=q,
        partner=partner,
    )


def count_relabel_only_orbits(index: CycleIndex) -> int:
    """Pair orbits under relabeling alone, inversion excluded.

    Relabeling alone is transitive on first components and the base cycle's
    stabilizer in it is the cyclic group of value shifts, so these orbits are
    the shift orbits of second components.  That cyclic group has index two
    in the full stabilizer, so each stabilizer orbit is one shift orbit or
    two: one exactly when the reflecting generator maps its representative
    into the representative's own shift orbit.  Only the stabilizer-orbit
    representatives are canonicalized, not the whole cycle table.
    """
    rep_seqs = unpack_keys(index.stabilizer_orbits()[0], index.m)
    split = shift_canonical_keys(rep_seqs) != shift_canonical_keys(reflect_invert_seqs(rep_seqs))
    return rep_seqs.shape[0] + int(split.sum())


def orbit_census(index: CycleIndex, dist_from_base: np.ndarray) -> tuple[int, int, int]:
    """(relabel-only orbits, orbits, swap classes) for one cycle length."""
    orbits = build_pair_orbits(index, dist_from_base)
    return (
        count_relabel_only_orbits(index),
        orbits.num_orbits,
        orbits.symmetric_classes().count,
    )
