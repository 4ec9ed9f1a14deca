"""Independent reference implementations that the tests check the library
against.

None of this is used by the package.  Each oracle computes something the
production code also computes, by a slower and more literal route:

- the whole lex-ordered word table, a word's row its cycle id, which the
  package never holds (it streams the words through its representative
  filter);
- a single cycle as a value (Cycle, its inverse and the base cycle) and
  its id through the bulk lookup;
- the relabel-and-invert group as explicit elements, with the scalar
  canonical form taken as a minimum over the stabilizer orbit, and the
  cycle helpers it needs (a cycle from any rotation of its word, the
  one-line image);
- the reflecting stabilizer generator applied in bulk, and the
  shift-only canonical key as the first row of cycles.shift_families;
- the stabilizer orbits and pair orbits by canonicalizing every cycle
  and sorting the keys, with orbit sizes counted over the whole table,
  held in a pair-orbit record (representatives, lengths, swap partners)
  that the package keeps no longer, and that record read back from the
  swap classes the package builds;
- the pair orbit of an arbitrary ordered pair, by relabeling the first
  component to the base, and the class of a pair (base, tau) for any
  rotation of tau's word;
- the position histograms of the classes, counted over every cycle;
- cycle ids by binary search of the packed keys of re-anchored words
  (pack_keys, words packed whole in the package's key format), and by the
  scalar lexicographic rank of one word;
- the per-cycle route the package no longer takes: cycle ids ranked in
  bulk from value positions (Lehmer codes), the inversion map on ids, the
  class of every cycle, the tableau vectors over all cycles, and each
  pairing form gathered over the row group of the column tableau, every
  pattern ranked and its class read;
- the swap distances by BFS over every word, with no quotienting;
- the scalar tableau chain (polytabloid, the homomorphism into full orders,
  the projection to cycles) that builds one tableau vector at a time, with
  the scalar permutation sign by cycle counting;
- the row cascade of a column tableau as |C| times the polytabloids of its
  row rearrangements, summed tabloid by tabloid;
- the block rows of a built Block, rebuilt from its tableaux, and the
  standard tableau count by the hook length product;
- the PSD test by pivoted rational elimination, and greedy row selection
  from the pivots of one whole Gram matrix;
- the closed-form evaluator of the (m-2, 1, 1) block, reading each entry off
  the cycle word;
- class blocks by direct quadruple enumeration and by streaming over all
  ordered cycle pairs, against which the expansion is compared;
- the cutting loop's first offenders by solving, polishing and scanning
  the instance restricted to class 0 alone, beside the closed form, and
  the slack of every class at a dual point;
- decimal rounding half away from zero, beside the library's truncation,
  for targets published either way.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import factorial

import numpy as np

from crossings.bounds import exact, truncated
from crossings.coeffs import PairTables
from crossings.cycles import (
    MAX_M,
    CycleIndex,
    _check_m,
    _pack_nibbles,
    canonical_keys,
    invert_seqs,
    shift_families,
    unpack_keys,
)
from crossings.errors import ArgumentError, CrossingsError, ResourceError
from crossings.orbits import SymmetricClasses, swap_partner_words
from crossings.relaxations import (
    _pair,
    _solve_polished,
    _strict_start,
    scan_violations,
    square_triangles,
    widen,
)
from crossings.repsets import Block, _check_range, psd_pivots, shape_tables
from crossings.swapgraph import UNREACHED, neighbor_words
from crossings.tableaux import conjugate, lex_permutations

Filling = tuple[tuple[int, ...], ...]


# -- single cycles --------------------------------------------------------------


@dataclass(frozen=True)
class Cycle:
    """An m-cycle, stored as its orbit word anchored at 1."""

    seq: tuple[int, ...]

    def __post_init__(self):
        m = len(self.seq)
        _check_m(m)
        if self.seq[0] != 1 or sorted(self.seq) != list(range(1, m + 1)):
            raise ArgumentError(f"not a 1-anchored permutation word: {self.seq}")

    @property
    def m(self) -> int:
        return len(self.seq)

    @classmethod
    def base(cls, m: int) -> "Cycle":
        _check_m(m)
        return cls(tuple(range(1, m + 1)))

    def invert(self) -> "Cycle":
        # (1, a, b, ..., z) traversed backwards is (1, z, ..., b, a).
        return Cycle((1,) + self.seq[:0:-1])


@lru_cache(maxsize=None)
def all_cycle_seqs(m: int) -> np.ndarray:
    """All (m-1)! anchored words in lexicographic order, (N, m) uint8 and
    read-only: the word table the package does not hold, for the oracles
    that sweep every cycle.  A word's row is its cycle id."""
    _check_m(m)
    tails = lex_permutations(m - 1)[0]
    words = np.empty((tails.shape[0], m), dtype=np.uint8)
    words[:, 0] = 1
    np.add(tails, np.uint8(2), out=words[:, 1:])
    words.flags.writeable = False
    return words


def id_of(index: CycleIndex, c: Cycle) -> int:
    """Id of one cycle in the index, through the bulk rank lookup."""
    return int(id_of_words(index, np.array([c.seq], dtype=np.uint8))[0])


def orbit_id_of(index: CycleIndex, c: Cycle) -> int:
    """Stabilizer orbit of one cycle, as a position in index.representatives()."""
    return int(index.orbit_ids(np.array(c.seq, dtype=np.uint8)))


# -- the relabel-and-invert group, element by element ------------------------


@dataclass(frozen=True)
class GroupElement:
    """An element (pi, eps) of S_m x {+1,-1}; perm holds the images of 1..m."""

    perm: tuple[int, ...]
    eps: int

    def __post_init__(self):
        if self.eps not in (1, -1):
            raise ArgumentError(f"eps must be +1 or -1, got {self.eps}")
        if sorted(self.perm) != list(range(1, len(self.perm) + 1)):
            raise ArgumentError(f"not a permutation of 1..{len(self.perm)}: {self.perm}")

    @property
    def m(self) -> int:
        return len(self.perm)

    @classmethod
    def identity(cls, m: int) -> "GroupElement":
        return cls(tuple(range(1, m + 1)), 1)

    def __call__(self, v: int) -> int:
        return self.perm[v - 1]

    def compose(self, other: "GroupElement") -> "GroupElement":
        """Product in the direct product group: self applied after other."""
        if self.m != other.m:
            raise ArgumentError("cannot compose elements of different degree")
        return GroupElement(
            tuple(self.perm[other.perm[v - 1] - 1] for v in range(1, self.m + 1)),
            self.eps * other.eps,
        )

    def inverse(self) -> "GroupElement":
        inv = [0] * self.m
        for v in range(1, self.m + 1):
            inv[self.perm[v - 1] - 1] = v
        return GroupElement(tuple(inv), self.eps)


def act(g: GroupElement, c: Cycle) -> Cycle:
    """Apply (pi, eps) . sigma = pi sigma^eps pi^-1, re-anchored at 1.

    Conjugation by pi relabels the orbit word entrywise, so the whole action
    is: optionally reverse the traversal, relabel, rotate 1 back to front.
    """
    if g.m != c.m:
        raise ArgumentError(f"degree mismatch: group element on {g.m}, cycle on {c.m}")
    word = c.seq if g.eps == 1 else c.invert().seq
    return cycle_from_word(g.perm[v - 1] for v in word)


def cycle_from_word(word) -> Cycle:
    """The cycle of any rotation of its orbit word."""
    word = tuple(word)
    if 1 not in word:
        raise ArgumentError(f"cycle word must contain 1: {word}")
    k = word.index(1)
    return Cycle(word[k:] + word[:k])


def cycle_image(c: Cycle) -> tuple[int, ...]:
    """One-line notation: entry v-1 is where the cycle sends v."""
    img = [0] * c.m
    for i, v in enumerate(c.seq):
        img[v - 1] = c.seq[(i + 1) % c.m]
    return tuple(img)


def stabilizer_generators(m: int) -> tuple[GroupElement, GroupElement]:
    """The two generators of the order-2m stabilizer of the base cycle.

    The first is the base cycle itself as a relabeling (with no inversion):
    conjugating (1 2 ... m) by itself fixes it.  The second pairs inversion
    with the reflection fixing 1 (v -> m + 2 - v), which undoes the traversal
    reversal.  Any valid reflection works; this one is the obvious choice.
    """
    _check_m(m)
    shift = GroupElement(tuple((v % m) + 1 for v in range(1, m + 1)), 1)
    reflect = GroupElement((1,) + tuple(m + 2 - v for v in range(2, m + 1)), -1)
    return shift, reflect


def stabilizer_elements(m: int) -> list[GroupElement]:
    """All 2m elements of the base-cycle stabilizer, generators expanded."""
    shift, reflect = stabilizer_generators(m)
    out = []
    g = GroupElement.identity(m)
    for _ in range(m):
        out.append(g)
        out.append(g.compose(reflect))
        g = g.compose(shift)
    return out


def reflect_invert_seqs(seqs: np.ndarray) -> np.ndarray:
    """Images under the reflecting stabilizer generator: the inverse cycle
    with values reflected about 1 (v -> m + 2 - v, i.e. 1 - v mod m)."""
    m = seqs.shape[-1]
    return (m + 1 - invert_seqs(seqs)) % m + 1


def shift_canonical_keys(seqs: np.ndarray) -> np.ndarray:
    """Packed min over the m value shifts of each row; no inversion.

    This is canonicalization under the relabeling-only part of the base
    cycle's stabilizer (the cyclic half of the group).
    """
    return shift_families(seqs)[0]


def canonical_form(c: Cycle) -> Cycle:
    """Lexicographically smallest word in the stabilizer orbit of c.

    The orbit has at most 2m members, the images of c under
    stabilizer_elements.  The bulk canonical keys must agree with this on
    every cycle, and this with a full group sweep at small m.
    """
    return min((act(h, c) for h in stabilizer_elements(c.m)), key=lambda x: x.seq)


# -- cycle ids by search and by scalar rank ------------------------------------


def pack_keys(seqs: np.ndarray) -> np.ndarray:
    """Pack words into u64 keys; integer order == lex order of the words."""
    seqs = np.asarray(seqs, dtype=np.uint8)
    return _pack_nibbles(np.ascontiguousarray(np.moveaxis(seqs, -1, 0)) - np.uint8(1))


def normalize_words(words: np.ndarray) -> np.ndarray:
    """Rotate each row of an (N, m) word array so the 1 entry leads."""
    m = words.shape[-1]
    pos1 = np.argmax(words == 1, axis=-1)
    idx = (pos1[..., None] + np.arange(m)) % m
    return np.take_along_axis(words, idx, axis=-1)


def sorted_key_ids(index: CycleIndex, words: np.ndarray) -> np.ndarray:
    """Ids of rows that may be rotations of anchored words: re-anchor, pack
    and binary-search the ascending keys of the whole cycle table."""
    keys = pack_keys(all_cycle_seqs(index.m))
    query = pack_keys(normalize_words(np.asarray(words, dtype=np.uint8)))
    ids = np.searchsorted(keys, query)
    if (keys[np.minimum(ids, keys.size - 1)] != query).any():
        raise ArgumentError("a row is not a rotation of an anchored word")
    return ids


def lex_rank(word) -> int:
    """Rank of one word among the anchored words of its length, by re-anchoring
    and counting, at each position, the smaller letters still unused."""
    k = list(word).index(1)
    anchored = list(word[k:]) + list(word[:k])
    rank, left = 0, sorted(anchored[1:])
    for j, v in enumerate(anchored[1:], start=1):
        rank += left.index(v) * factorial(len(anchored) - 1 - j)
        left.remove(v)
    return rank


# -- cycle ids by rank, the per-cycle route ---------------------------------
#
# The package keys everything on stabilizer-orbit representatives; these
# rank every cycle instead, and build the per-cycle tables the routes below
# read: the lexicographic id of any rotation of a word, the inversion map on
# ids and the class of every cycle.

# Columns per chunk of the rank kernel; its temporaries take about 12m
# bytes per column.
_RANK_CHUNK = 1 << 14

# k! for k < MAX_M; a rank is below (MAX_M - 1)! < 2**63, so int64 is exact.
_FACTORIALS = np.array([factorial(k) for k in range(MAX_M)], dtype=np.int64)


def ids_of_positions(pos: np.ndarray) -> np.ndarray:
    """Cycle ids from value positions, one word per column, as (B,) int64.

    pos[v, i] is the position of value v + 1 in word i, which may be any
    rotation of an anchored word.  Anchoring at the value 1 gives
    q_v = (pos_v - pos_0) mod m, the position of value v + 1 in the
    anchored word, and its lexicographic rank among the (m-1)! anchored
    words is the Lehmer code sum over v of #{u < v : q_u > q_v} times
    (m - 1 - q_v)!: the smaller values that come later, weighted by the
    number of words sharing the prefix up to q_v.
    """
    m, n = pos.shape
    weight = _FACTORIALS[m - 1::-1]  # weight[q] = (m - 1 - q)!
    ids = np.empty(n, dtype=np.int64)
    for lo in range(0, n, _RANK_CHUNK):
        # int16, since a uint8 difference would wrap mod 256, not mod m
        q = pos[:, lo:lo + _RANK_CHUNK].astype(np.int16, order="C")
        q -= q[0].copy()
        q += np.int16(m) * (q < 0)
        at = q.astype(np.intp)
        acc = np.zeros(q.shape[1], dtype=np.int64)
        for v in range(1, m):
            acc += (q[:v] > q[v]).sum(axis=0, dtype=np.uint8) * weight[at[v]]
        ids[lo:lo + q.shape[1]] = acc
    return ids


def id_of_words(index: CycleIndex, words: np.ndarray) -> np.ndarray:
    """Ids for rows that may be arbitrary rotations of anchored words."""
    words = np.asarray(words, dtype=np.uint8)
    rows = words.reshape(-1, index.m)
    pos = np.empty((index.m, rows.shape[0]), dtype=np.uint8)
    pos[rows.T - 1, np.arange(rows.shape[0])] = np.arange(index.m, dtype=np.uint8)[:, None]
    return ids_of_positions(pos).reshape(words.shape[:-1])


@lru_cache(maxsize=None)
def inverse_ids(index: CycleIndex) -> np.ndarray:
    """Permutation of ids sending each cycle to its inverse (an involution),
    computed once per index."""
    return id_of_words(index, invert_seqs(all_cycle_seqs(index.m)))


@lru_cache(maxsize=None)
def orbit_of_cycle(index: CycleIndex) -> np.ndarray:
    """Stabilizer orbit of every cycle by id, computed once per index."""
    return index.orbit_ids(all_cycle_seqs(index.m))


def class_of_cycle(tables: PairTables) -> np.ndarray:
    """(N,) int32, class of (base, tau) by cycle id of tau."""
    return tables.classes.class_of_orbit[orbit_of_cycle(tables.index)]


# -- stabilizer orbits by sorting the whole table ------------------------------


def stabilizer_orbits_by_sort(index: CycleIndex) -> tuple[np.ndarray, np.ndarray]:
    """Distinct canonical keys, ascending, and the int32 position of each
    cycle's key among them, by canonicalizing every cycle and sorting."""
    keys, orbit_of = np.unique(canonical_keys(all_cycle_seqs(index.m)), return_inverse=True)
    return keys, orbit_of.astype(np.int32)


@dataclass
class PairOrbitRecord:
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

    def symmetric_classes(self) -> SymmetricClasses:
        """Classes of the swap involution, each led by its smaller orbit."""
        ids = np.arange(self.num_orbits, dtype=np.int64)
        rep_orbits = ids[ids <= self.partner]
        paired = self.partner[rep_orbits] != rep_orbits
        sizes = self.sizes[rep_orbits] * np.where(paired, np.uint64(2), np.uint64(1))
        class_of_orbit = np.searchsorted(rep_orbits, np.minimum(ids, self.partner)).astype(np.int32)
        return SymmetricClasses(rep_orbits=rep_orbits, sizes=sizes, class_of_orbit=class_of_orbit)


def pair_orbits_by_sort(index: CycleIndex) -> PairOrbitRecord:
    """Pair orbits from the sorted table, each stabilizer orbit's size
    counted over all its cycles."""
    keys, orbit_of = stabilizer_orbits_by_sort(index)
    rep_seqs = unpack_keys(keys, index.m)
    partner = np.searchsorted(keys, canonical_keys(swap_partner_words(rep_seqs)))
    return PairOrbitRecord(
        m=index.m,
        rep_keys=keys,
        rep_seqs=rep_seqs,
        n_tau=np.bincount(orbit_of, minlength=keys.size).astype(np.int64),
        partner=partner.astype(np.int64),
    )


def pair_orbits_of_classes(index: CycleIndex, classes: SymmetricClasses) -> PairOrbitRecord:
    """The pair-orbit record read back from swap classes: an orbit's partner
    is the other orbit of its class, or itself, and its length the class
    size over (m-1)! times the class's orbit count."""
    keys = index.representatives()[0]
    ids = np.arange(keys.size, dtype=np.int64)
    partner = classes.rep_orbits[classes.class_of_orbit].astype(np.int64)
    moved = partner != ids
    partner[partner[moved]] = ids[moved]
    members = np.where(partner == ids, 1, 2).astype(np.uint64)
    lengths = classes.sizes[classes.class_of_orbit] // (members * np.uint64(factorial(index.m - 1)))
    return PairOrbitRecord(m=index.m, rep_keys=keys, rep_seqs=unpack_keys(keys, index.m),
                           n_tau=lengths.astype(np.int64), partner=partner)


# -- pair orbits of arbitrary ordered pairs ----------------------------------


def relabel_to_base(sigma_seq) -> np.ndarray:
    """Value map (as an array over 1..m, 0-indexed) sending sigma to base."""
    sigma_seq = np.asarray(sigma_seq)
    to_base = np.empty(sigma_seq.size, dtype=np.uint8)
    to_base[sigma_seq - 1] = np.arange(1, sigma_seq.size + 1, dtype=np.uint8)
    return to_base


def orbit_ids_of_tau_seqs(orbits: PairOrbitRecord, seqs: np.ndarray) -> np.ndarray:
    """Orbit ids of the pairs (base, tau) for each word tau in seqs."""
    return np.searchsorted(orbits.rep_keys, canonical_keys(seqs))


def orbit_of_pair(orbits: PairOrbitRecord, sigma: Cycle, tau: Cycle) -> int:
    """Orbit id of an arbitrary ordered pair.

    Normalizes by the relabeling that carries sigma's word to the base (the
    unique such permutation); any other normalizer differs by a stabilizer
    element and lands in the same class.
    """
    if sigma.m != orbits.m or tau.m != orbits.m:
        raise ArgumentError("pair degree does not match the orbit table")
    moved = relabel_to_base(sigma.seq)[np.array(tau.seq, dtype=np.uint8) - 1]
    return int(orbit_ids_of_tau_seqs(orbits, moved[None])[0])


def class_ids_of_words(tables: PairTables, words: np.ndarray) -> np.ndarray:
    """Class ids of the pairs (base, tau) for each word tau, which may be
    any rotation of a cycle's word."""
    return class_of_cycle(tables)[id_of_words(tables.index, words)]


def position_histogram_by_cycles(tables: PairTables, d: int) -> np.ndarray:
    """(C, m) counts of the cycles of each class by the letter at position
    d of their anchored word, counted over every cycle."""
    m, c = tables.m, tables.classes.count
    cells = class_of_cycle(tables).astype(np.int64) * m + all_cycle_seqs(m)[:, d] - 1
    return np.bincount(cells, minlength=c * m).reshape(c, m)


# -- swap distances over every word -----------------------------------------


def distances_from_base_unpruned(index: CycleIndex) -> np.ndarray:
    """Distances from the base cycle by BFS over all words, no quotienting."""
    m = index.m
    seqs = all_cycle_seqs(m)
    dist = np.full(seqs.shape[0], UNREACHED, dtype=np.uint16)
    frontier = np.array([id_of(index, Cycle.base(m))])
    dist[frontier] = 0
    d = 0
    while frontier.size:
        ids = np.unique(sorted_key_ids(index, neighbor_words(seqs[frontier]).reshape(-1, m)))
        ids = ids[dist[ids] == UNREACHED]
        d += 1
        dist[ids] = d
        frontier = ids
    if (dist == UNREACHED).any():
        raise CrossingsError(f"swap graph on {m}-cycles is not connected")
    return dist


# -- the scalar tableau chain -----------------------------------------------


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


def row_cascade_tabloids(t) -> dict[Tabloid, int]:
    """The row cascade of a column tableau t, scalar: |C| sign(g) times the
    tabloid of g . (r . t) over the row group (r) and the column group (g)
    of t, that is |C| times the polytabloids of the row rearrangements."""
    lam = tuple(len(r) for r in t)
    k = 1
    for h in conjugate(lam):
        k *= factorial(h)
    out: dict[Tabloid, int] = {}
    for f in row_equivalent_fillings(t):
        for key, c in polytabloid(f).items():
            out[key] = out.get(key, 0) + k * c
    return {key: c for key, c in out.items() if c}


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
    w = np.zeros(factorial(index.m - 1), dtype=np.int64)
    for s, coeff in v.items():
        word = np.array([r[0] for r in s], dtype=np.uint8)
        w[id_of_words(index, word[None])[0]] += coeff
    return w


def repset_vector(lam: tuple[int, ...], t_col: Filling, index: CycleIndex) -> np.ndarray:
    """Cycle-space vector of one column tableau, by direct expansion.

    Composite of the three maps above at the row-major base filling;
    quadratic in the row and column group sizes.
    """
    return project_f(theta_apply(t_col, polytabloid(base_filling(lam))), index)


def base_filling(lam: tuple[int, ...]) -> Filling:
    """Row-major filling 1..m; its cell b holds b+1 when cells are flattened."""
    out, v = [], 1
    for r in lam:
        out.append(tuple(range(v, v + r)))
        v += r
    return tuple(out)


# -- block rows ----------------------------------------------------------------


def tableau_vectors(
    tables: tuple[np.ndarray, np.ndarray, np.ndarray], ts, index: CycleIndex
) -> np.ndarray:
    """Cycle-space vectors of the column tableaux ts, (len(ts), N), in bulk
    from the tables of their shape (repsets.shape_tables): the word of every
    column-group element and row rearrangement, ranked."""
    rearr, signs, crows = tables
    m = index.m
    tinv = np.empty((len(ts), m), dtype=np.intp)
    for k, t in enumerate(ts):
        tinv[k, [v - 1 for row in t for v in row]] = np.arange(m)
    holder = rearr[:, tinv].swapaxes(0, 1)  # (K, R, m): cell of p+1 per rearrangement
    words = crows[:, holder]  # (C, K, R, m)
    n = factorial(m - 1)
    slots = id_of_words(index, words.reshape(-1, m)).reshape(words.shape[:-1])
    slots += (np.arange(len(ts)) * n)[:, None]
    # float weights are exact here: every sum is an integer below C * R
    weights = np.broadcast_to(signs[:, None, None], slots.shape)
    sums = np.bincount(slots.ravel(), weights.ravel(), minlength=len(ts) * n)
    return sums.astype(np.int64).reshape(len(ts), n)


def block_rows(index: CycleIndex, block: Block) -> np.ndarray:
    """The (d, N) int64 rows of a block: each tableau vector plus its sign
    times its image under inversion (sign 0 leaves the tableau vectors)."""
    vecs = tableau_vectors(shape_tables(block.lam), block.tableaux, index)
    return vecs + block.sign * vecs[:, inverse_ids(index)]


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


# -- exact PSD tests and row selection -----------------------------------------


def pivoted_psd(numerator) -> bool:
    """Whether a symmetric integer matrix is PSD, by rational elimination
    that always pivots on the largest remaining diagonal entry."""
    a = [[Fraction(int(v)) for v in row] for row in np.asarray(numerator, dtype=object)]
    idx = list(range(len(a)))
    while idx:
        piv = max(idx, key=lambda i: a[i][i])
        if a[piv][piv] < 0:
            return False
        if a[piv][piv] == 0:
            return all(a[i][j] == 0 for i in idx for j in idx)
        idx.remove(piv)
        for i in idx:
            r = a[i][piv] / a[piv][piv]
            for j in idx:
                a[i][j] -= r * a[piv][j]
    return True


def independent_rows(rows: np.ndarray, stop_at: int | None = None) -> list[int]:
    """Indices of a maximal independent subset of integer rows, scanned in
    order, from the pivots of their whole Gram matrix; stop_at keeps the
    first that many."""
    rows = np.asarray(rows, dtype=np.int64)
    pivots = psd_pivots(rows @ rows.T)
    assert pivots is not None, "a Gram matrix is PSD"
    return [i for i, p in enumerate(pivots) if p][:stop_at]


# -- closed form of the (m-2, 1, 1) block ----------------------------------------


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
    i-2.  Must agree with the direct expansion of the column tableau.
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


# -- class blocks by quadruple enumeration ------------------------------------


def monomial_to_orbit(pattern, tables: PairTables) -> int:
    """Class of the pair encoded by a permutation-pattern monomial.

    The pattern maps row index a to column index pattern[a-1]; the paired
    cycle reads value a at word position pattern[a-1], the first component
    being the base cycle.
    """
    m = tables.m
    pattern = tuple(int(v) for v in pattern)
    if sorted(pattern) != list(range(1, m + 1)):
        raise ArgumentError(f"not a permutation pattern: {pattern}")
    word = np.empty(m, dtype=np.uint8)
    for a, b in enumerate(pattern, start=1):
        word[b - 1] = a
    return int(class_ids_of_words(tables, word[None])[0])


def _expansion_words(t: Filling, m: int) -> tuple[np.ndarray, np.ndarray]:
    """Signs and cycle words of every term of one tableau vector."""
    lam = tuple(len(r) for r in t)
    signs, words = [], []
    for sgn, ct in signed_column_fillings(base_filling(lam)):
        for tp in row_equivalent_fillings(t):
            signs.append(sgn)
            words.append(compose_word(ct, tp))
    return np.array(signs, dtype=np.int64), np.array(words, dtype=np.uint8)


def direct_expansion(t1: Filling, t2: Filling, tables: PairTables) -> dict[int, int]:
    """Signed pair-class counts over all term pairs of two tableau vectors.

    Term count is the product of the two expansion sizes, so this is gated
    to small m.
    """
    m = tables.m
    if m > 7:
        raise ResourceError(f"direct expansion is quadratic in (m-1)!, refusing m={m}")
    signs1, words1 = _expansion_words(t1, m)
    signs2, words2 = _expansion_words(t2, m)
    acc = np.zeros(tables.classes.count, dtype=np.int64)
    shifted = words2 - 1
    for sgn, word in zip(signs1, words1):
        moved = relabel_to_base(word)[shifted]
        np.add.at(acc, class_ids_of_words(tables, moved), sgn * signs2)
    return {int(c): int(v) for c, v in enumerate(acc) if v}


# -- class blocks by the row-group gather -------------------------------------

# Most final patterns one batch of the gather holds; a row group larger than
# this is cut into slices.
_PATTERN_BATCH = 1 << 12


def class_sums(rows_done, t2: Filling, group: np.ndarray, tables: PairTables) -> np.ndarray:
    """The column half of the pairing forms of a row cascade against t2,
    summed by class, by ranking every pattern: the per-cycle route.

    A tabloid whose diagram row c holds, by p, the values placed at the
    cells of row c of t2 expands to the sum of g o p over the row group of
    t2, every term with coefficient 1.  Class sums are linear, so no term
    is merged; the terms are gathered in batches of at most
    _PATTERN_BATCH.  The group is given on cells, (m, R) with column g the
    image of each row-major cell.

    The tabloids are checked to hold each value once and len(row c) of t2
    values in row c, so the k-th sorted cell is the k-th row-major cell of
    t2; raised, so the checks hold under python -O, and every sum is
    bounded before it is formed.
    """
    m, (cells, coeffs) = tables.m, rows_done
    values = cells & 15
    seen = np.bitwise_or.reduce(np.left_shift(1, values, dtype=np.uint32), axis=1)
    if cells.shape[1] != m or (seen != (1 << m) - 1).any():
        raise CrossingsError("row cascade holds a tabloid without each value once")
    if (cells >> 4 != np.repeat(np.arange(len(t2)), [len(r) for r in t2])).any():
        raise CrossingsError("row cascade holds a tabloid off the row lengths of the column tableau")
    slot = np.empty(cells.shape, dtype=np.intp)
    np.put_along_axis(slot, values.astype(np.intp), np.arange(m), axis=1)
    # column g: g(v) - 1 for the values v of t2 in row-major order
    images = np.array([v - 1 for r in t2 for v in r], dtype=np.uint8)[group]
    _check_range(int(np.abs(coeffs).max(initial=0)) * coeffs.size * images.shape[1])
    acc = np.zeros(tables.classes.count, dtype=np.int64)
    classes = class_of_cycle(tables)
    step = max(1, _PATTERN_BATCH // images.shape[1])
    for lo in range(0, coeffs.size, step):
        for at in range(0, images.shape[1], _PATTERN_BATCH):
            part = images[:, at : at + _PATTERN_BATCH]
            pos = part[slot[lo : lo + step].T].reshape(m, -1)  # value v of term (k, g) at g(p_k(v))
            np.add.at(acc, classes[ids_of_positions(pos)],
                      np.repeat(coeffs[lo : lo + step], part.shape[1]))
    return acc


# -- class blocks by streaming over ordered pairs ------------------------------


def pair_stream_forms(
    tables: PairTables, mats: list[np.ndarray], chunk: int = 64
) -> list[np.ndarray]:
    """Exact class blocks U K U^T for each row matrix, by scanning all pairs.

    Work grows with the square of the cycle count; this certifies the
    closed-form expansion on moderate m.
    """
    index, classes = tables.index, tables.classes
    seqs = all_cycle_seqs(index.m)
    n, m = seqs.shape
    c = classes.count
    for u in mats:
        if int(np.abs(u).max()) ** 2 * n >= 2**53:
            raise ResourceError("pair sums could exceed the exact range of float64")
    out = [np.zeros((c, u.shape[0], u.shape[0])) for u in mats]
    shifted = seqs - 1
    arange = np.arange(1, m + 1, dtype=np.uint8)
    for lo in range(0, n, chunk):
        block = seqs[lo : lo + chunk]
        b = block.shape[0]
        maps = np.empty((b, m), dtype=np.uint8)
        np.put_along_axis(maps, block.astype(np.intp) - 1, arange, axis=1)
        moved = maps[:, shifted]
        ids = class_ids_of_words(tables, moved.reshape(-1, m)).reshape(b, n)
        offs = ids + c * np.arange(b, dtype=np.int64)[:, None]
        flat = offs.ravel()
        weights = np.empty((b, n))
        for u, acc in zip(mats, out):
            left = u[:, lo : lo + b].astype(np.float64)
            for j in range(u.shape[0]):
                weights[:] = u[j]
                s = np.bincount(flat, weights=weights.ravel(), minlength=b * c)
                acc[:, :, j] += (left @ s.reshape(b, c)).T
    result = []
    for acc in out:
        ints = np.rint(acc).astype(np.int64)
        if (ints != acc).any():
            raise CrossingsError("pair-stream sums came out non-integral")
        result.append(ints)
    return result


def pair_stream_hook_table(tables: PairTables) -> np.ndarray:
    """The single-block table, (C, t) upper triangles row-major, from the
    closed-form rows by the pair stream."""
    a = pair_stream_forms(tables, [hook_block_matrix(all_cycle_seqs(tables.m))])[0]
    iu = np.triu_indices(a.shape[1])
    return a[:, iu[0], iu[1]]


# -- the cutting loop's first round by a solve ----------------------------------


def class_zero_offenders(
    dims: tuple[int, ...], sizes: np.ndarray, qs: np.ndarray, tris: list[np.ndarray], scales: np.ndarray
) -> np.ndarray:
    """Classes the scan adds after the solve restricted to class 0 alone:
    the first round of the cutting loop, run as a solve, polish and scan."""
    fsizes, c = sizes.astype(np.float64), qs.astype(np.float64)
    ids = np.array([0])
    sub = [square_triangles(widen(tri[ids], g), d) / fsizes[ids, None, None]
           for tri, g, d in zip(tris, scales, dims)]
    _, t_pol, y_pol = _solve_polished(np.ones(1), c[ids], sub, _strict_start(sub, sizes[ids]))
    return scan_violations(y_pol, t_pol, fsizes, c, tris, scales)[1]


def class_slacks(
    ys: list[np.ndarray],
    t: float,
    sizes: np.ndarray,
    qs: np.ndarray,
    tris: list[np.ndarray],
    scales: np.ndarray,
) -> np.ndarray:
    """Per-element slack of every class constraint at the dual point."""
    return qs - t - _pair(tris, scales, ys) / sizes


# -- decimal display -------------------------------------------------------------


def rounded(value, places: int) -> str:
    """Decimal string rounded half away from zero: the truncation of the
    value moved half a unit of the last place away from zero."""
    f = exact(value)
    half = Fraction(1, 2 * 10**places)
    return truncated(f + half if f >= 0 else f - half, places)
