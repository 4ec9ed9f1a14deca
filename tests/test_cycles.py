import hashlib
import itertools
import tracemalloc
from math import factorial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crossings import cycles
from crossings.cycles import (
    CycleIndex,
    _pack_nibbles,
    canonical_keys,
    image_letters,
    invert_seqs,
    shift_families,
    unpack_keys,
    word_blocks,
)
from crossings.errors import ArgumentError
from oracles import (
    Cycle,
    GroupElement,
    act,
    all_cycle_seqs,
    canonical_form,
    cycle_from_word,
    cycle_image,
    id_of_words,
    ids_of_positions,
    inverse_ids,
    lex_rank,
    normalize_words,
    pack_keys,
    reflect_invert_seqs,
    sorted_key_ids,
    stabilizer_elements,
    stabilizer_generators,
)


def canonical_seqs(seqs):
    return unpack_keys(canonical_keys(seqs), seqs.shape[-1])


def random_words(m, n, seed):
    """n random anchored words of length m, as (n, m) uint8."""
    rng = np.random.default_rng(seed)
    rest = np.argsort(rng.random((n, m - 1)), axis=1) + 2
    return np.concatenate([np.ones((n, 1), dtype=np.int64), rest], axis=1).astype(np.uint8)


def random_cycle(draw, m):
    rest = draw(st.permutations(list(range(2, m + 1))))
    return Cycle((1,) + tuple(rest))


cycles_st = st.integers(3, 8).flatmap(
    lambda m: st.permutations(list(range(2, m + 1))).map(lambda r: Cycle((1,) + tuple(r)))
)


def group_elements_st(m):
    return st.tuples(
        st.permutations(list(range(1, m + 1))).map(tuple), st.sampled_from([1, -1])
    ).map(lambda t: GroupElement(*t))


def test_cycle_validation():
    with pytest.raises(ArgumentError):
        Cycle((2, 1, 3))
    with pytest.raises(ArgumentError):
        Cycle((1, 2, 2))
    with pytest.raises(ArgumentError):
        Cycle((1, 2))
    Cycle((1, 3, 2))


def test_from_word_rotates():
    assert cycle_from_word((3, 4, 1, 2)).seq == (1, 2, 3, 4)
    assert cycle_from_word((2, 1, 3)).seq == (1, 3, 2)


def test_invert_examples():
    assert Cycle((1, 2, 3)).invert().seq == (1, 3, 2)
    assert Cycle((1, 3, 2, 4)).invert().seq == (1, 4, 2, 3)
    assert Cycle.base(5).invert().seq == (1, 5, 4, 3, 2)


def test_image_roundtrip():
    c = Cycle((1, 4, 2, 3))
    img = cycle_image(c)
    assert img == (4, 3, 1, 2)
    # follow the orbit of 1 through the one-line form, must recover the word
    word, v = [], 1
    for _ in range(c.m):
        word.append(v)
        v = img[v - 1]
    assert tuple(word) == c.seq


def test_act_identity_and_inversion():
    c = Cycle((1, 4, 2, 3))
    e = GroupElement.identity(4)
    assert act(e, c) == c
    flip = GroupElement(e.perm, -1)
    assert act(flip, c) == c.invert()


def test_act_is_conjugation():
    # (pi, +1) . sigma must have one-line form pi sigma pi^-1
    pi = GroupElement((2, 3, 1, 5, 4), 1)
    c = Cycle((1, 3, 5, 2, 4))
    moved = act(pi, c)
    expect = [0] * 5
    img = cycle_image(c)
    for v in range(1, 6):
        expect[pi(v) - 1] = pi(img[v - 1])
    assert cycle_image(moved) == tuple(expect)


@settings(max_examples=200)
@given(st.data())
def test_action_law(data):
    m = data.draw(st.integers(3, 7))
    c = data.draw(st.permutations(list(range(2, m + 1))).map(lambda r: Cycle((1,) + tuple(r))))
    g1 = data.draw(group_elements_st(m))
    g2 = data.draw(group_elements_st(m))
    assert act(g1, act(g2, c)) == act(g1.compose(g2), c)


@settings(max_examples=100)
@given(st.data())
def test_inverse_element(data):
    m = data.draw(st.integers(3, 7))
    g = data.draw(group_elements_st(m))
    assert g.compose(g.inverse()) == GroupElement.identity(m)
    assert g.inverse().compose(g) == GroupElement.identity(m)


def test_stabilizer_fixes_base():
    for m in range(3, 9):
        c0 = Cycle.base(m)
        for h in stabilizer_elements(m):
            assert act(h, c0) == c0
        assert len(stabilizer_elements(m)) == 2 * m
        assert len(set(stabilizer_elements(m))) == 2 * m


def test_stabilizer_is_full_stabilizer():
    # brute force over the whole group at small m: exactly 2m elements fix c0
    for m in (3, 4, 5):
        c0 = Cycle.base(m)
        fixers = [
            GroupElement(p, e)
            for p in itertools.permutations(range(1, m + 1))
            for e in (1, -1)
            if act(GroupElement(p, e), c0) == c0
        ]
        assert len(fixers) == 2 * m
        assert set(fixers) == set(stabilizer_elements(m))


def test_reflection_generator_shape():
    _, refl = stabilizer_generators(6)
    assert refl.eps == -1
    assert refl.perm == (1, 6, 5, 4, 3, 2)


@settings(max_examples=150)
@given(cycles_st)
def test_canonical_idempotent_and_invariant(c):
    can = canonical_form(c)
    assert canonical_form(can) == can
    for h in stabilizer_elements(c.m):
        assert canonical_form(act(h, c)) == can


def test_canonical_base_fixed():
    for m in range(3, 9):
        assert canonical_form(Cycle.base(m)) == Cycle.base(m)


def brute_orbits(m):
    """Partition of all cycles into stabilizer orbits, by full enumeration."""
    elems = stabilizer_elements(m)
    seen, orbits = set(), []
    for rest in itertools.permutations(range(2, m + 1)):
        c = Cycle((1,) + rest)
        if c in seen:
            continue
        orb = {act(h, c) for h in elems}
        seen |= orb
        orbits.append(orb)
    return orbits


@pytest.mark.parametrize("m", [4, 5, 6])
def test_canonical_separates_orbits(m):
    for orb in brute_orbits(m):
        forms = {canonical_form(c) for c in orb}
        assert len(forms) == 1
        assert min(orb, key=lambda c: c.seq) in forms
    # distinct orbits get distinct forms
    forms = [canonical_form(next(iter(o))) for o in brute_orbits(m)]
    assert len(set(forms)) == len(forms)


@pytest.mark.parametrize("m", [4, 5, 6, 7])
def test_orbit_sizes_divide_group_order(m):
    for orb in brute_orbits(m):
        assert 2 * m % len(orb) == 0


def test_all_cycle_seqs_shape_and_order():
    for m in (3, 4, 5, 6):
        seqs = all_cycle_seqs(m)
        assert seqs.shape == (factorial(m - 1), m)
        keys = pack_keys(seqs)
        assert (np.diff(keys.astype(np.int64)) > 0).all()


def test_pack_unpack_roundtrip():
    seqs = all_cycle_seqs(6)
    assert (unpack_keys(pack_keys(seqs), 6) == seqs).all()


def test_pack_order_matches_lex():
    seqs = all_cycle_seqs(5)
    keys = pack_keys(seqs)
    rows = [tuple(r) for r in seqs]
    by_key = [tuple(r) for r in seqs[np.argsort(keys)]]
    assert by_key == sorted(rows)


def test_normalize_words():
    w = np.array([[3, 1, 2], [1, 2, 3], [2, 3, 1]], dtype=np.uint8)
    out = normalize_words(w)
    assert (out[:, 0] == 1).all()
    assert out.tolist() == [[1, 2, 3], [1, 2, 3], [1, 2, 3]]


@pytest.mark.parametrize("m", range(4, 10))
def test_id_of_words_matches_key_search_on_every_rotation(m):
    idx = CycleIndex(m)
    seqs = all_cycle_seqs(m)
    rotations = np.stack([np.roll(seqs, k, axis=1) for k in range(m)])
    got = id_of_words(idx, rotations)
    assert got.dtype == np.int64 and got.shape == (m, len(seqs))
    assert (got == np.arange(len(seqs))).all()
    assert (got.ravel() == sorted_key_ids(idx, rotations.reshape(-1, m))).all()
    assert (inverse_ids(idx) == sorted_key_ids(idx, invert_seqs(seqs))).all()
    if m <= 6:
        assert [lex_rank(tuple(map(int, row))) for row in seqs] == list(range(len(seqs)))


@pytest.mark.parametrize("m", range(10, 17))
def test_rank_kernel_matches_scalar_rank(m):
    words = random_words(m, ORACLE_ROWS, seed=400 + m)
    turns = np.random.default_rng(m).integers(0, m, size=ORACLE_ROWS)
    rotated = np.array([np.roll(row, k) for row, k in zip(words, turns)])
    want = np.array([lex_rank(tuple(map(int, row))) for row in words], dtype=np.int64)
    # argsort of a permutation word is the position of each value
    got = ids_of_positions(np.argsort(rotated, axis=1).T.astype(np.uint8))
    assert (got == want).all()
    assert want.max() < factorial(m - 1)
    if m == 10:
        assert (id_of_words(CycleIndex(m), rotated) == want).all()


def test_invert_seqs_matches_scalar():
    seqs = all_cycle_seqs(6)
    inv = invert_seqs(seqs)
    for i in (0, 5, 17, 100):
        assert tuple(inv[i]) == Cycle(tuple(int(v) for v in seqs[i])).invert().seq


@pytest.mark.parametrize("m", [4, 5, 6, 7])
def test_bulk_canonical_matches_scalar(m):
    seqs = all_cycle_seqs(m)
    keys = canonical_keys(seqs)
    cans = canonical_seqs(seqs)
    assert (pack_keys(cans) == keys).all()
    for i in range(seqs.shape[0]):
        c = Cycle(tuple(int(v) for v in seqs[i]))
        assert tuple(int(v) for v in cans[i]) == canonical_form(c).seq


# more rows than one kernel chunk, and not a multiple of it
ORACLE_ROWS = 1500


@pytest.mark.parametrize("m", range(3, 17))
def test_canonical_keys_match_scalar_oracle(m):
    seqs = random_words(m, ORACLE_ROWS, seed=m)
    keys = canonical_keys(seqs)
    want = [pack_keys(np.array(canonical_form(Cycle(tuple(map(int, row)))).seq, dtype=np.uint8))
            for row in seqs]
    assert keys.dtype == np.uint64 and keys.shape == (ORACLE_ROWS,)
    assert (keys == np.array(want, dtype=np.uint64)).all()


def scalar_shift_canonical(word):
    """Min over the m value shifts of one word, each re-anchored at 1."""
    m = len(word)
    return min(cycle_from_word(tuple((v - 1 + k) % m + 1 for v in word)).seq for k in range(m))


# every m with more rows than one chunk, and a few with one row either side
# of a whole chunk
@pytest.mark.parametrize(
    "m, n",
    [pytest.param(m, ORACLE_ROWS, id=str(m)) for m in range(3, 17)]
    + [pytest.param(m, cycles._CHUNK_ROWS + d, id=f"{m}-chunk{d:+d}")
       for m in (3, 8, 13, 16) for d in (-1, 1)],
)
def test_shift_canonical_keys_match_scalar_oracle(m, n):
    # row 0 of shift_families shifts each word, row 1 its image under the
    # reflecting generator
    seqs = random_words(m, n, seed=100 + m)
    _, reflect = stabilizer_generators(m)
    words = [tuple(map(int, row)) for row in seqs]
    images = [act(reflect, Cycle(w)).seq for w in words]
    families = shift_families(seqs)
    assert families.dtype == np.uint64 and families.shape == (2, n)
    for got, family in zip(families, (words, images)):
        want = [pack_keys(np.array(scalar_shift_canonical(w), dtype=np.uint8)) for w in family]
        assert (got == np.array(want, dtype=np.uint64)).all()


@pytest.mark.parametrize("m", [5, 8, 16])
def test_canonical_keys_ignore_rotation_and_leading_shape(m):
    seqs = random_words(m, 64, seed=200 + m)
    turns = np.random.default_rng(m).integers(0, m, size=64)
    rotated = np.array([np.roll(row, k) for row, k in zip(seqs, turns)])
    assert (canonical_keys(rotated) == canonical_keys(seqs)).all()
    assert (shift_families(rotated) == shift_families(seqs)).all()
    assert (canonical_keys(seqs.reshape(8, 8, m)) == canonical_keys(seqs).reshape(8, 8)).all()


@pytest.mark.parametrize("m", range(4, 14))
def test_image_letters_at_a_slice_are_those_of_every_position(m):
    rows = random_words(m, 50, seed=500 + m)
    whole = image_letters(rows)
    assert whole.dtype == np.uint8 and whole.shape == (m, 2, m, 50)
    assert (whole[:, 0, 0] == rows.T - 1).all()  # image [0, 0] is the word
    for lo, hi in itertools.combinations(range(m + 1), 2):
        assert np.array_equal(image_letters(rows, slice(lo, hi)), whole[lo:hi])
    for at in (slice(None), slice(1, None, 2), slice(-3, None), slice(2, 2)):
        assert np.array_equal(image_letters(rows, at), whole[at])


def test_reflect_invert_matches_the_reflecting_generator():
    # the generator is an involution, so reflecting the words swaps the two
    # rows of shift_families
    for m in (3, 6, 9):
        _, reflect = stabilizer_generators(m)
        seqs = all_cycle_seqs(m)
        got = reflect_invert_seqs(seqs)
        for row, image in zip(seqs[::7], got[::7]):
            assert tuple(map(int, image)) == act(reflect, Cycle(tuple(map(int, row)))).seq
        assert (shift_families(got) == shift_families(seqs)[::-1]).all()


@pytest.mark.parametrize("m", range(3, 17))
def test_pack_keys_match_shift_and_sum(m):
    seqs = random_words(m, 300, seed=300 + m)
    shifts = np.array([4 * (15 - j) for j in range(m)], dtype=np.uint64)
    want = ((seqs.astype(np.uint64) - 1) << shifts).sum(axis=-1, dtype=np.uint64)
    keys = pack_keys(seqs)
    assert keys.dtype == np.uint64 and (keys == want).all()
    assert (unpack_keys(keys, m) == seqs).all()
    assert pack_keys(seqs[0]) == want[0]
    # the packer itself, on a transposed (non-contiguous) view and on
    # leading shapes, contiguous or not
    vals = seqs - np.uint8(1)
    assert not vals.T.flags.c_contiguous
    for got in (_pack_nibbles(vals.T), _pack_nibbles(vals.reshape(20, 15, m).transpose(2, 0, 1)),
                _pack_nibbles(np.ascontiguousarray(vals.reshape(15, 20, m).T)).T):
        assert got.dtype == np.uint64 and (got.ravel() == want).all()


@pytest.mark.parametrize("m", range(3, 10))
def test_all_cycle_seqs_match_itertools(m):
    want = np.array([(1,) + rest for rest in itertools.permutations(range(2, m + 1))],
                    dtype=np.uint8)
    got = all_cycle_seqs(m)
    assert got.dtype == np.uint8 and got.shape == want.shape
    assert (got == want).all()


@pytest.mark.parametrize("m", range(4, 11))
def test_word_blocks_concatenate_to_lex_order(m):
    # one block of all the words up to m = 9, then one block of 8! per
    # ordering of the letters after the anchor that precede the last eight
    want = np.array([(1,) + rest for rest in itertools.permutations(range(2, m + 1))],
                    dtype=np.uint8)
    blocks = list(word_blocks(m))
    assert len(blocks) == (9 if m == 10 else 1)
    assert all(b.dtype == np.uint8 and b.shape[0] <= factorial(8) for b in blocks)
    assert np.array_equal(np.concatenate(blocks), want)


# sha256 of the representative keys as little-endian u64, then of their
# (2, R) uint8 fixers, frozen from the filter run over the whole word table
REPRESENTATIVES_SHA256 = {
    10: "62da5552e8d67455a116be43d0947b07ff7a920d0f4e8c825a9e7cab143db0a3",
    11: "3a9124735eaf44e45f950865cdeba13befb13c7ea6f6186735ecd1f9dcf78072",
}


@pytest.mark.parametrize("m", sorted(REPRESENTATIVES_SHA256))
def test_representatives_bytes_frozen(m):
    keys, fixed = CycleIndex(m).representatives()
    h = hashlib.sha256(keys.astype("<u8").tobytes())
    h.update(fixed.tobytes())
    assert h.hexdigest() == REPRESENTATIVES_SHA256[m]


def test_index_holds_no_word_table():
    # the 9! words of m = 10 take 3.6 MB as a table; the index keeps only the
    # representatives, and the filter holds one block of words at a time
    table = factorial(9) * 10
    tracemalloc.start()
    try:
        idx = CycleIndex(10)
        idx.representatives()
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert held < table / 4 and peak < table, (held, peak)
