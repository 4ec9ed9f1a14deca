import numpy as np
import pytest

from crossings import cycles
from crossings.cycles import CycleIndex, canonical_keys
from crossings.orbits import orbit_census
from crossings.swapgraph import distances_from_base, neighbor_words, self_cost
from oracles import (
    Cycle,
    all_cycle_seqs,
    distances_from_base_unpruned,
    id_of,
    id_of_words,
    orbit_id_of,
)


def test_neighbor_words_are_valid_and_adjacent():
    seqs = all_cycle_seqs(6)
    nbr = neighbor_words(seqs[:40])
    assert nbr.shape == (40, 6, 6)
    assert (np.sort(nbr, axis=-1) == np.arange(1, 7)).all()
    # row j swaps positions j and j+1 mod m, wrap included, in place: the
    # rows are not re-anchored
    for j in range(6):
        k = (j + 1) % 6
        swapped = seqs[:40].copy()
        swapped[:, [j, k]] = swapped[:, [k, j]]
        assert (nbr[:, j] == swapped).all()


def test_neighbor_relation_symmetric():
    m = 5
    idx = CycleIndex(m)
    seqs = all_cycle_seqs(m)
    adj = set()
    for i in range(len(seqs)):
        for nb in neighbor_words(seqs[i]):
            j = int(id_of_words(idx, nb[None])[0])
            adj.add((i, j))
    assert all((j, i) in adj for i, j in adj)
    # swaps never fix a cycle
    assert all(i != j for i, j in adj)


def test_small_distances_by_hand():
    idx = CycleIndex(4)
    dist = distances_from_base(idx)
    # base at 0; the four words one swap away; the inverse two swaps away
    at = lambda seq: dist[orbit_id_of(idx, Cycle(seq))]
    assert at((1, 2, 3, 4)) == 0
    for seq in [(1, 3, 2, 4), (1, 2, 4, 3), (1, 3, 4, 2), (1, 4, 2, 3)]:
        assert at(seq) == 1
    assert at((1, 4, 3, 2)) == 2


@pytest.mark.parametrize("m", [4, 5, 6, 7, 8, 9])
def test_pruned_matches_unpruned(m):
    idx = CycleIndex(m)
    per_cycle = distances_from_base(idx)[idx.orbit_ids(all_cycle_seqs(m))]
    assert (per_cycle == distances_from_base_unpruned(idx)).all()


@pytest.mark.parametrize("m", [4, 5, 6, 7, 8])
def test_self_cost_matches_bfs(m):
    idx = CycleIndex(m)
    dist = distances_from_base(idx)
    assert dist[orbit_id_of(idx, Cycle.base(m).invert())] == self_cost(m)
    assert self_cost(m) == (m - 1) ** 2 // 4


def test_distance_constant_on_stabilizer_classes():
    idx = CycleIndex(6)
    dist = distances_from_base_unpruned(idx)
    ck = canonical_keys(all_cycle_seqs(6))
    for key in np.unique(ck):
        vals = dist[ck == key]
        assert (vals == vals[0]).all()


def test_distance_zero_only_at_base():
    idx = CycleIndex(6)
    dist = distances_from_base(idx)[idx.orbit_ids(all_cycle_seqs(6))]
    assert (dist == 0).sum() == 1
    assert dist[id_of(idx, Cycle.base(6))] == 0


class TableAllocated(Exception):
    pass


def no_table(m):
    raise TableAllocated(m)


@pytest.mark.parametrize("m", [4, 7, 9])
def test_distances_read_no_per_cycle_table(m, monkeypatch):
    # with the representatives known, the BFS and the census enumerate no
    # words: they start from the base word itself
    full = CycleIndex(m)
    cut = CycleIndex(m)
    cut.representatives()
    want = distances_from_base(full), orbit_census(full)
    monkeypatch.setattr(cycles, "word_blocks", no_table)
    assert np.array_equal(distances_from_base(cut), want[0])
    assert orbit_census(cut) == want[1]
