import itertools
from math import factorial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crossings.cycles import CycleIndex
from crossings.errors import ArgumentError
from crossings.orbits import count_relabel_only_orbits
from crossings.tableaux import (
    block_multiplicity,
    conjugate,
    cyclic_tableaux,
    descent_sum,
    lex_permutations,
    partitions,
    standard_tableaux,
)
from oracles import (
    all_cycle_seqs,
    base_filling,
    compose_word,
    hook_dim,
    id_of_words,
    perm_sign,
    polytabloid,
    project_f,
    repset_vector,
    row_equivalent_fillings,
    signed_column_fillings,
    tabloid_of,
    theta_apply,
)


def test_partition_counts():
    for m, p in [(4, 5), (5, 7), (7, 15), (9, 30), (10, 42)]:
        assert len(partitions(m)) == p
    assert partitions(4) == [(4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)]
    for lam in partitions(8):
        assert sum(lam) == 8
        assert all(a >= b for a, b in zip(lam, lam[1:]))


def test_conjugate():
    assert conjugate((3, 1)) == (2, 1, 1)
    assert conjugate((2, 2)) == (2, 2)
    assert conjugate(conjugate((4, 2, 1))) == (4, 2, 1)


def test_hook_dims_m4():
    dims = {lam: hook_dim(lam) for lam in partitions(4)}
    assert dims == {(4,): 1, (3, 1): 3, (2, 2): 2, (2, 1, 1): 3, (1, 1, 1, 1): 1}


@pytest.mark.parametrize("m", [3, 4, 5, 6, 7])
def test_dim_squares_sum_to_group_order(m):
    assert sum(hook_dim(lam) ** 2 for lam in partitions(m)) == factorial(m)


@pytest.mark.parametrize("m", [3, 4, 5, 6])
def test_standard_tableaux_match_hook_dims(m):
    for lam in partitions(m):
        ts = standard_tableaux(lam)
        assert len(ts) == hook_dim(lam)
        assert len(set(ts)) == len(ts)
        for t in ts:
            flat = sorted(v for row in t for v in row)
            assert flat == list(range(1, m + 1))
            for row in t:
                assert list(row) == sorted(row)
            for i in range(1, len(t)):
                for j in range(len(t[i])):
                    assert t[i][j] > t[i - 1][j]


def test_descent_sums_m4_by_hand():
    assert sorted(descent_sum(t) for t in standard_tableaux((2, 2))) == [2, 4]
    assert sorted(descent_sum(t) for t in standard_tableaux((2, 1, 1))) == [3, 4, 5]
    assert descent_sum(standard_tableaux((4,))[0]) == 0
    assert descent_sum(standard_tableaux((1, 1, 1, 1))[0]) == 6


def test_block_multiplicities_m4():
    mult = {lam: block_multiplicity(lam) for lam in partitions(4)}
    assert mult == {(4,): 1, (3, 1): 0, (2, 2): 1, (2, 1, 1): 1, (1, 1, 1, 1): 0}


@pytest.mark.parametrize("m", [4, 5, 6, 7, 8, 9])
def test_hook_shape_multiplicity_closed_form(m):
    assert block_multiplicity((m - 2, 1, 1)) == (m - 1) // 2


@pytest.mark.parametrize("m", [4, 5, 6, 7, 8])
def test_multiplicities_weighted_by_dim(m):
    total = sum(block_multiplicity(lam) * hook_dim(lam) for lam in partitions(m))
    assert total == factorial(m - 1)


@pytest.mark.parametrize("m", [4, 5, 6, 7])
def test_multiplicity_squares_count_relabel_orbits(m):
    total = sum(block_multiplicity(lam) ** 2 for lam in partitions(m))
    assert total == count_relabel_only_orbits(CycleIndex(m))


def test_perm_sign():
    assert perm_sign((1, 2, 3), (1, 2, 3)) == 1
    assert perm_sign((1, 2, 3), (2, 1, 3)) == -1
    assert perm_sign((1, 2, 3), (2, 3, 1)) == 1
    assert perm_sign((5, 9), (9, 5)) == -1


@pytest.mark.parametrize("k", range(8))
def test_lex_permutations_match_itertools(k):
    perms, signs = lex_permutations(k)
    want = list(itertools.permutations(range(k)))
    assert perms.dtype == np.uint8 and perms.shape == (len(want), k)
    assert [tuple(p) for p in perms.tolist()] == want
    assert signs.tolist() == [perm_sign(tuple(range(k)), p) for p in want]


def test_signed_column_fillings_counts():
    base = base_filling((2, 2))
    items = list(signed_column_fillings(base))
    assert len(items) == 4
    assert sum(s for s, _ in items) == 0
    base = base_filling((3, 1))
    assert len(list(signed_column_fillings(base))) == 2
    base = base_filling((2, 1, 1))
    assert len(list(signed_column_fillings(base))) == 6


def test_row_equivalent_counts():
    assert len(list(row_equivalent_fillings(base_filling((3, 1))))) == 6
    assert len(list(row_equivalent_fillings(base_filling((2, 2))))) == 4


def test_compose_word_with_base_is_row_reading():
    a = ((1, 4), (3,), (2,))
    b = base_filling((2, 1, 1))
    assert compose_word(a, b) == (1, 4, 3, 2)
    # composing a filling with itself ranks every value into place
    assert compose_word(a, a) == (1, 2, 3, 4)


def test_repset_vector_single_row_is_constant():
    for m in (4, 5):
        idx = CycleIndex(m)
        w = repset_vector((m,), base_filling((m,)), idx)
        assert (w == m).all()


def test_repset_vector_total_weight():
    # column permutations with sign cancel unless the shape is a single row,
    # so the entries must sum to zero for taller shapes
    idx = CycleIndex(5)
    for lam in [(3, 1, 1), (2, 2, 1), (4, 1)]:
        for t in cyclic_tableaux(lam)[:2]:
            assert repset_vector(lam, t, idx).sum() == 0

def test_polytabloid_term_counts():
    assert polytabloid(base_filling((5,))) == {(tuple(range(1, 6)),): 1}
    two = polytabloid(((1,), (2,)))
    assert two == {((1,), (2,)): 1, ((2,), (1,)): -1}
    # first column {1, 4, 5} carries an S3, the other columns are trivial
    assert len(polytabloid(base_filling((3, 1, 1)))) == 6


def test_polytabloid_rejects_repeats():
    with pytest.raises(ArgumentError):
        polytabloid(((1, 1), (2,)))


def test_theta_single_row_hits_every_full_order():
    t = base_filling((4,))
    out = theta_apply(t, polytabloid(t))
    assert len(out) == 24
    assert set(out.values()) == {1}


def test_theta_on_single_column_is_identity():
    t = base_filling((1, 1, 1, 1))
    v = {(( 2,), (4,), (1,), (3,)): 5, ((1,), (2,), (3,), (4,)): -2}
    assert theta_apply(t, v) == v


def test_theta_shape_mismatch():
    with pytest.raises(ArgumentError):
        theta_apply(base_filling((2, 1)), {((1,), (2,), (3,)): 1})


def test_theta_independent_of_tabloid_representative():
    t = ((1, 4), (2,), (3,))
    a = theta_apply(t, {((2, 3), (4,), (1,)): 1})
    b = theta_apply(t, {((3, 2), (4,), (1,)): 1})
    assert a == b


def test_project_single_tabloids():
    idx = CycleIndex(3)
    v = project_f({((1,), (2,), (3,)): 1}, idx)
    rotated = project_f({((2,), (3,), (1,)): 1}, idx)
    assert (v == rotated).all()
    assert v.sum() == 1
    assert v[id_of_words(idx, np.array([[1, 2, 3]], dtype=np.uint8))[0]] == 1


def test_hook_vector_m4_by_hand():
    # T = ((1,4),(2,),(3,)), t the row-major filling of (2,1,1); the twelve
    # signed words collapse to +-2 on each of the six cycles
    idx = CycleIndex(4)
    w = repset_vector((2, 1, 1), ((1, 4), (2,), (3,)), idx)
    assert w.tolist() == [2, -2, 2, 2, -2, -2]


def _random_filling(data, lam):
    m = sum(lam)
    vals = data.draw(st.permutations(list(range(1, m + 1))))
    rows = []
    pos = 0
    for part in lam:
        rows.append(tuple(vals[pos : pos + part]))
        pos += part
    return tuple(rows)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_theta_is_equivariant(data):
    m = data.draw(st.integers(3, 6))
    lam = data.draw(st.sampled_from(partitions(m)))
    t_hom = data.draw(st.sampled_from(standard_tableaux(lam)))
    s = _random_filling(data, lam)
    pi = data.draw(st.permutations(list(range(1, m + 1))))

    def relabel(filling):
        return tuple(tuple(pi[v - 1] for v in row) for row in filling)

    lhs = theta_apply(t_hom, {tabloid_of(relabel(s)): 1})
    rhs = {tabloid_of(relabel(list(key))): c for key, c in theta_apply(t_hom, {tabloid_of(s): 1}).items()}
    assert lhs == rhs


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_project_is_equivariant(data):
    m = data.draw(st.integers(3, 6))
    idx = CycleIndex(m)
    word = data.draw(st.permutations(list(range(1, m + 1))))
    pi = data.draw(st.permutations(list(range(1, m + 1))))
    v = {tuple((x,) for x in word): 3}
    lhs = project_f({tuple((pi[x - 1],) for x in word): 3}, idx)
    # conjugating the cycle relabels its word entries
    relabeled = np.array([[pi[x - 1] for x in seq] for seq in all_cycle_seqs(m)], dtype=np.uint8)
    image_ids = id_of_words(idx, relabeled)
    rhs = np.zeros_like(lhs)
    rhs[image_ids] = project_f(v, idx)
    assert (lhs == rhs).all()
