import itertools
import tracemalloc
from math import factorial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crossings import cycles
from crossings.coeffs import PairTables
from crossings.cycles import CycleIndex, invert_seqs
from crossings.errors import CrossingsError
from crossings.orbits import (
    build_pair_orbits,
    count_relabel_only_orbits,
    orbit_census,
    swap_partner_words,
)
from crossings.swapgraph import distances_from_base
from oracles import (
    Cycle,
    GroupElement,
    act,
    all_cycle_seqs,
    inverse_ids,
    orbit_ids_of_tau_seqs,
    orbit_of_pair,
    pair_orbits_by_sort,
    pair_orbits_of_classes,
    shift_canonical_keys,
    stabilizer_elements,
    stabilizer_orbits_by_sort,
)


def make(m):
    """The index and its pair orbits, read back from the swap classes."""
    idx = CycleIndex(m)
    return idx, pair_orbits_of_classes(idx, build_pair_orbits(idx))


def orbit_costs(idx, orbits):
    """Pair cost on each orbit: the distance from the base to the inverse of
    the orbit's second component."""
    return distances_from_base(idx)[idx.orbit_ids(invert_seqs(orbits.rep_seqs))]


# census values for small m, frozen from an independent hand count at m=4
# and from the brute-force sweep below for the rest
CENSUS = {4: (3, 3, 3), 5: (8, 8, 7), 6: (24, 20, 17), 7: (108, 78, 56)}


@pytest.mark.parametrize("m", sorted(CENSUS))
def test_census(m):
    idx = CycleIndex(m)
    assert orbit_census(idx) == CENSUS[m]


@pytest.mark.parametrize("m", [4, 5, 6, 7])
def test_orbit_sizes_cover_all_pairs(m):
    idx, orbits = make(m)
    assert int(orbits.sizes.sum()) == factorial(m - 1) ** 2
    cls = build_pair_orbits(idx)
    assert int(cls.sizes.sum()) == factorial(m - 1) ** 2


def test_m4_orbits_by_hand():
    idx, orbits = make(4)
    assert orbits.num_orbits == 3
    reps = [tuple(int(v) for v in r) for r in orbits.rep_seqs]
    assert reps == [(1, 2, 3, 4), (1, 2, 4, 3), (1, 4, 3, 2)]
    assert orbits.n_tau.tolist() == [1, 4, 1]
    assert orbits.sizes.tolist() == [6, 24, 6]
    # cost of (base, tau) is the distance from base to tau inverse
    assert orbit_costs(idx, orbits).tolist() == [2, 1, 0]
    # all three orbits are fixed by the pair swap
    assert orbits.partner.tolist() == [0, 1, 2]


def test_m5_has_one_swapped_pair():
    _, orbits = make(5)
    moved = np.flatnonzero(orbits.partner != np.arange(orbits.num_orbits))
    assert moved.size == 2
    a, b = moved
    assert orbits.partner[a] == b and orbits.partner[b] == a


@pytest.mark.parametrize("m", [4, 5, 6, 7])
def test_partner_is_involution_preserving_size_and_cost(m):
    idx, orbits = make(m)
    p = orbits.partner
    q = orbit_costs(idx, orbits)
    assert (p[p] == np.arange(orbits.num_orbits)).all()
    assert (orbits.n_tau[p] == orbits.n_tau).all()
    assert (q[p] == q).all()


def brute_pair_orbit(m, tau, elements):
    base = Cycle.base(m)
    return {(act(g, base), act(g, tau)) for g in elements}


@pytest.mark.parametrize("m", [4, 5])
def test_orbits_against_full_group_sweep(m):
    idx, orbits = make(m)
    elements = [
        GroupElement(p, e)
        for p in itertools.permutations(range(1, m + 1))
        for e in (1, -1)
    ]
    seen = set()
    for r in range(orbits.num_orbits):
        tau = Cycle(tuple(int(v) for v in orbits.rep_seqs[r]))
        orb = brute_pair_orbit(m, tau, elements)
        assert len(orb) == int(orbits.sizes[r])
        assert not (orb & seen)
        seen |= orb
        # every pair in the sweep resolves to this orbit id
        for sigma, t in itertools.islice(orb, 25):
            assert orbit_of_pair(orbits, sigma, t) == r
        # swapped pairs resolve to the partner
        sigma, t = next(iter(orb))
        assert orbit_of_pair(orbits, t, sigma) == int(orbits.partner[r])
    assert len(seen) == factorial(m - 1) ** 2


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_orbit_of_pair_invariant_under_group(data):
    m = data.draw(st.integers(4, 6))
    idx, orbits = make(m)
    tau = Cycle((1,) + tuple(data.draw(st.permutations(list(range(2, m + 1))))))
    perm = tuple(data.draw(st.permutations(list(range(1, m + 1)))))
    g = GroupElement(perm, data.draw(st.sampled_from([1, -1])))
    base = Cycle.base(m)
    want = orbit_of_pair(orbits, base, tau)
    assert orbit_of_pair(orbits, act(g, base), act(g, tau)) == want


@pytest.mark.parametrize("m", [5, 6])
def test_cost_constant_on_orbits(m):
    idx, orbits = make(m)
    seqs = all_cycle_seqs(m)
    dist = distances_from_base(idx)[idx.orbit_ids(seqs)]
    q = orbit_costs(idx, orbits)
    inv = inverse_ids(idx)
    ids = orbit_ids_of_tau_seqs(orbits, seqs)
    for r in range(orbits.num_orbits):
        member_ids = np.flatnonzero(ids == r)
        assert member_ids.size == int(orbits.n_tau[r])
        assert (dist[inv[member_ids]] == q[r]).all()


def test_swap_partner_words_is_rank_word():
    seqs = np.array([[1, 4, 3, 2], [1, 2, 4, 3]], dtype=np.uint8)
    out = swap_partner_words(seqs)
    assert out.tolist() == [[1, 4, 3, 2], [1, 2, 4, 3]]
    s = np.array([[1, 3, 4, 2]], dtype=np.uint8)
    assert swap_partner_words(s).tolist() == [[1, 4, 2, 3]]


def test_diagonal_orbit_properties():
    # the orbit of (base, base) has cost equal to the self distance and its
    # second components are exactly the stabilizer-fixed class of the base
    for m in (4, 5, 6, 7):
        idx, orbits = make(m)
        r = orbit_of_pair(orbits, Cycle.base(m), Cycle.base(m))
        assert int(orbit_costs(idx, orbits)[r]) == (m - 1) ** 2 // 4
        assert int(orbits.n_tau[r]) == 1
        assert int(orbits.partner[r]) == r


def test_relabel_only_counts_match_brute(m=5):
    # brute force: orbits of pairs (sigma, tau) under relabeling only,
    # counted through the transitive first component as cyclic classes of tau
    idx = CycleIndex(m)
    elements = [GroupElement(p, 1) for p in itertools.permutations(range(1, m + 1))]
    base = Cycle.base(m)
    stab = [g for g in elements if act(g, base) == base]
    seen, count = set(), 0
    for rest in itertools.permutations(range(2, m + 1)):
        tau = Cycle((1,) + rest)
        if tau in seen:
            continue
        seen |= {act(g, tau) for g in stab}
        count += 1
    assert count_relabel_only_orbits(idx) == count


@pytest.mark.parametrize("m", range(4, 10))
def test_relabel_only_count_matches_full_table_oracle(m):
    # the count over the whole cycle table: distinct shift-canonical forms
    idx = CycleIndex(m)
    want = int(np.unique(shift_canonical_keys(all_cycle_seqs(m))).size)
    assert count_relabel_only_orbits(idx) == want


@pytest.mark.parametrize("m", range(3, 11))
def test_representatives_match_sorted_table(m):
    idx = CycleIndex(m)
    # the census keeps no per-cycle table in the index
    orbit_census(idx)
    n = factorial(m - 1)
    per_cycle = [k for k, v in vars(idx).items() if getattr(v, "shape", ())[:1] == (n,)]
    assert per_cycle == []
    want = pair_orbits_by_sort(idx)
    classes = build_pair_orbits(idx)
    # partners and orbit lengths as the classes hold them, then the classes
    got = pair_orbits_of_classes(idx, classes)
    for name in ("rep_keys", "rep_seqs", "n_tau", "partner"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and np.array_equal(a, b), name
    want_classes = want.symmetric_classes()
    for name in ("rep_orbits", "sizes", "class_of_orbit"):
        a, b = getattr(classes, name), getattr(want_classes, name)
        assert a.dtype == b.dtype and np.array_equal(a, b), name
    keys, orbit_of = idx.representatives()[0], idx.orbit_ids(all_cycle_seqs(m))
    want_keys, want_of = stabilizer_orbits_by_sort(idx)
    assert np.array_equal(keys, want_keys)
    assert orbit_of.dtype == np.intp and np.array_equal(orbit_of, want_of)


@pytest.mark.parametrize("m", [3, 4, 5, 6, 7])
def test_representative_fixers_match_stabilizer_elements(m):
    # row 0 counts the value shifts fixing each representative, row 1 the
    # reflecting elements (those that invert)
    idx, orbits = make(m)
    fixed = idx.representatives()[1]
    assert fixed.shape == (2, orbits.num_orbits)
    elements = stabilizer_elements(m)
    for r, seq in enumerate(orbits.rep_seqs):
        tau = Cycle(tuple(int(v) for v in seq))
        for row, eps in ((0, 1), (1, -1)):
            want = sum(act(g, tau) == tau for g in elements if g.eps == eps)
            assert int(fixed[row, r]) == want


def test_orbit_sizes_must_cover_the_cycles():
    # a stabilizer count that is off leaves the orbit sizes short of (m-1)!,
    # which is raised, not asserted, so it holds under python -O
    idx = CycleIndex(6)
    keys, fixed = idx.representatives()
    wrong = fixed.copy()
    wrong[0, 0] *= 2
    idx._representatives = (keys, wrong)
    with pytest.raises(CrossingsError, match="cover"):
        build_pair_orbits(idx)


def test_pair_orbits_hold_few_arrays_per_orbit():
    # the orbit ids, the partners and the class ranks are int32 arrays, and
    # the partners are filled in place: 27 bytes an orbit at m=11, where
    # int64 ids and partners, a concatenated chunk list and an int64
    # searchsorted took 38; the representatives are built before tracing
    idx = CycleIndex(11)
    idx.representatives()
    tracemalloc.start()
    try:
        classes = build_pair_orbits(idx)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * classes.class_of_orbit.size


@pytest.mark.parametrize("m", [7, 8, 9])
def test_image_lookups_do_not_depend_on_the_chunk(m, monkeypatch):
    # partners, inverses and BFS frontiers are looked up in chunks of
    # representatives; chunks of 7 cut every set at many places, against
    # one chunk holding each whole set
    def build(rows):
        with monkeypatch.context() as patch:
            patch.setattr(cycles, "_CHUNK_ROWS", rows)
            return PairTables.build(m)

    one, cut = build(1 << 30), build(7)
    for name in ("rep_orbits", "sizes", "class_of_orbit"):
        a, b = getattr(cut.classes, name), getattr(one.classes, name)
        assert a.dtype == b.dtype and np.array_equal(a, b), name
    for name in ("q", "flip"):
        a, b = getattr(cut, name), getattr(one, name)
        assert a.dtype == b.dtype and np.array_equal(a, b), name
