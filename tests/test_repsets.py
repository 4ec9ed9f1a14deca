import hashlib
import itertools
import os
import subprocess
import sys
from collections import Counter
from functools import lru_cache
from math import factorial
from pathlib import Path

import numpy as np
import pytest

from crossings import cycles
from crossings.cycles import CycleIndex, invert_seqs
from crossings.errors import ArgumentError
from crossings.orbits import orbit_census
from crossings.repsets import (
    Block,
    build_blocks,
    hook_block_columns,
    psd_pivots,
    shape_tables,
)
from crossings.tableaux import block_multiplicity, partitions, standard_tableaux
from oracles import (
    all_cycle_seqs,
    base_filling,
    block_rows,
    hook_block_matrix,
    hook_block_values,
    independent_rows,
    inverse_ids,
    pivoted_psd,
    repset_vector,
    signed_column_fillings,
    sorted_key_ids,
    tableau_vectors,
)

DIMS = {
    4: [1, 1, 1],
    5: [2, 1, 1, 1, 1],
    6: [2, 2, 2] + [1] * 8,
    7: [3] * 6 + [2] * 4 + [1] * 8,
    8: [7] * 2 + [5] * 2 + [4] * 9 + [3] * 7 + [2] * 4 + [1] * 9,
    9: [12] * 8 + [11] * 2 + [9] * 6 + [7] * 3 + [6] * 5 + [5] * 2 + [4] * 2 + [3] * 16 + [1] * 5,
}


class TableAllocated(Exception):
    pass


def no_table(m):
    raise TableAllocated(m)


@lru_cache(maxsize=None)
def _character(lam: tuple, rho: tuple) -> int:
    """Murnaghan-Nakayama over first-column hook lengths (beta sets)."""
    if not rho:
        return 1
    n = len(lam)
    beta = tuple(lam[i] + (n - 1 - i) for i in range(n))
    members = set(beta)
    k = rho[0]
    total = 0
    for b in beta:
        nb = b - k
        if nb < 0 or nb in members:
            continue
        crossed = sum(1 for x in beta if nb < x < b)
        newbeta = sorted(members - {b} | {nb}, reverse=True)
        newlam = tuple(p for i, x in enumerate(newbeta) if (p := x - (n - 1 - i)) > 0)
        total += (-1) ** crossed * _character(newlam, rho[1:])
    return total


def _class_rep(rho: tuple, m: int) -> np.ndarray:
    """Image array of a permutation with cycle type rho, 0-indexed values."""
    images = np.arange(m)
    pos = 0
    for part in rho:
        cells = np.arange(pos, pos + part)
        images[cells] = np.roll(cells, -1)
        pos += part
    return images


def _class_size(rho: tuple, m: int) -> int:
    z = 1
    for k, cnt in Counter(rho).items():
        z *= k**cnt * factorial(cnt)
    return factorial(m) // z


def _multiplicities_by_characters(m: int) -> dict[tuple, tuple[int, int]]:
    """(even, odd) block sizes per shape from character sums over the group
    combining relabelings with the optional inversion.  Independent of all
    tableau machinery."""
    idx = CycleIndex(m)
    plus = {}
    minus = {}
    seqs = all_cycle_seqs(m)
    inv_words = invert_seqs(seqs)
    ids = np.arange(len(seqs))
    for rho in partitions(m):
        pi = _class_rep(rho, m)
        conj = sorted_key_ids(idx, pi[seqs - 1] + 1)
        conj_inv = sorted_key_ids(idx, pi[inv_words - 1] + 1)
        plus[rho] = int((conj == ids).sum())
        minus[rho] = int((conj_inv == ids).sum())
    out = {}
    for lam in partitions(m):
        tot_plus = sum(
            _class_size(rho, m) * _character(lam, rho) * (plus[rho] + minus[rho])
            for rho in partitions(m)
        )
        tot_minus = sum(
            _class_size(rho, m) * _character(lam, rho) * (plus[rho] - minus[rho])
            for rho in partitions(m)
        )
        denom = 2 * factorial(m)
        assert tot_plus % denom == 0 and tot_minus % denom == 0
        out[lam] = (tot_plus // denom, tot_minus // denom)
    return out


@pytest.mark.parametrize("m", [4, 5, 6, 7, 8, 9])
def test_block_dimension_multisets(m, monkeypatch):
    # the blocks come from the tableaux alone: no cycle table is built
    monkeypatch.setattr(cycles, "word_blocks", no_table)
    dims = sorted(b.dim for b in build_blocks(m))
    assert dims == sorted(DIMS[m])


@pytest.mark.parametrize("m", [4, 5, 6, 7])
def test_dimension_sums_count_orbits(m):
    idx = CycleIndex(m)
    _, pair_orbits, classes = orbit_census(idx)
    dims = [b.dim for b in build_blocks(m)]
    assert sum(d * d for d in dims) == pair_orbits
    assert sum(d * (d + 1) // 2 for d in dims) == classes


@pytest.mark.parametrize("m", [4, 5, 6, 7])
def test_blocks_match_character_multiplicities(m):
    truth = _multiplicities_by_characters(m)
    built = {(b.lam, b.sign): b.dim for b in build_blocks(m)}
    for lam, (even, odd) in truth.items():
        assert built.get((lam, 1), 0) == even, lam
        assert built.get((lam, -1), 0) == odd, lam
    assert sum(truth[lam][0] + truth[lam][1] for lam in truth) == sum(
        block_multiplicity(lam) for lam in partitions(m)
    )


@pytest.mark.parametrize("m", [5, 6])
def test_vectorized_matches_direct_expansion(m):
    idx = CycleIndex(m)
    for lam in [(m - 2, 1, 1), (m - 1, 1), (2,) * (m // 2) + (1,) * (m % 2)]:
        ts = standard_tableaux(lam)[:6]
        mat = tableau_vectors(shape_tables(lam), ts, idx)
        for row, t in zip(mat, ts):
            assert (row == repset_vector(lam, t, idx)).all()


@pytest.mark.parametrize("m", [5, 6, 7])
def test_block_rows_have_declared_symmetry(m):
    idx = CycleIndex(m)
    inv = inverse_ids(idx)
    for b in build_blocks(m):
        rows = block_rows(idx, b)
        assert (rows[:, inv] == b.sign * rows).all()


@pytest.mark.parametrize("m", [5, 6])
def test_blocks_are_mutually_orthogonal(m):
    idx = CycleIndex(m)
    rows = [block_rows(idx, b) for b in build_blocks(m)]
    for i, a in enumerate(rows):
        for b in rows[i + 1 :]:
            assert not (a @ b.T).any()


@pytest.mark.parametrize("m", [5, 6])
def test_rank_selection_is_order_independent(m):
    idx = CycleIndex(m)
    for lam in partitions(m):
        a = block_multiplicity(lam)
        if a == 0:
            continue
        vecs = tableau_vectors(shape_tables(lam), standard_tableaux(lam), idx)
        assert len(independent_rows(vecs)) == a
        assert len(independent_rows(np.ascontiguousarray(vecs[::-1]))) == a


def test_greedy_independent_basics():
    rows = np.array([[1, 1, 0], [2, 2, 0], [0, 0, 0], [1, 0, 1]], dtype=np.int64)
    assert independent_rows(rows) == [0, 3]
    assert independent_rows(rows, stop_at=1) == [0]
    # pivot k is the leading principal minor through k over the previous one
    assert psd_pivots([[2, 1], [1, 2]]) == [2, 3]
    assert psd_pivots([[1, 2], [2, 4]]) == [1, 0]
    assert psd_pivots([[0, 0], [0, 5]]) == [0, 5]
    assert psd_pivots([]) == []
    assert psd_pivots([[1, 2], [2, 1]]) is None  # negative pivot
    assert psd_pivots([[0, 1], [1, 0]]) is None  # zero pivot, nonzero row
    assert psd_pivots([[1, 0, 1], [0, 0, 0], [1, 0, 1]]) == [1, 0, 0]
    assert psd_pivots([[1, 2], [0, 4]]) is None  # not symmetric


def _random_symmetric(rng, n: int, psd: bool) -> np.ndarray:
    """A symmetric integer matrix: a Gram matrix of rank at most n (PSD), or
    such a matrix with one diagonal entry lowered, or plain noise."""
    a = rng.integers(-4, 5, size=(n, int(rng.integers(1, n + 1))))
    mat = a @ a.T
    if not psd:
        if rng.random() < 0.5:
            i = int(rng.integers(n))
            mat[i, i] -= int(rng.integers(1, 4))
        else:
            b = rng.integers(-3, 4, size=(n, n))
            mat = b + b.T
    return mat


def test_psd_pivots_match_the_pivoted_oracle():
    rng = np.random.default_rng(2206)
    seen = Counter()
    for trial in range(600):
        n = int(rng.integers(1, 8))
        mat = _random_symmetric(rng, n, psd=trial % 2 == 0)
        pivots = psd_pivots(mat)
        assert (pivots is not None) == pivoted_psd(mat), mat
        seen[pivots is not None] += 1
        if pivots is not None:
            # a Gram matrix's nonzero pivots count its rank
            assert sum(1 for p in pivots if p) == np.linalg.matrix_rank(mat.astype(float))
            assert all(p >= 0 for p in pivots)
    assert seen[True] > 250 and seen[False] > 100


@pytest.mark.parametrize("m", [5, 6, 7])
def test_hook_shape_vectors_collapse_by_offset(m):
    # vectors of shape (m-2,1,1) depend only on the residue of the gap
    # between the second and third row entries
    idx = CycleIndex(m)
    by_offset = {}
    for t in standard_tableaux((m - 2, 1, 1)):
        a, b = t[1][0], t[2][0]
        by_offset.setdefault((b - a) % m, []).append(repset_vector((m - 2, 1, 1), t, idx))
    assert len(by_offset) == m - 2
    for vecs in by_offset.values():
        for v in vecs[1:]:
            assert (v == vecs[0]).all()


def test_hook_block_columns_guard():
    with pytest.raises(ArgumentError):
        hook_block_columns(3)


def test_hook_block_m4_single_column():
    (t,) = hook_block_columns(4)
    assert t == ((1, 4), (2,), (3,))


@pytest.mark.parametrize("m", [5, 6, 7])
def test_hook_evaluator_equals_direct_expansion(m):
    idx = CycleIndex(m)
    cols = hook_block_columns(m)
    assert len(cols) == (m - 1) // 2
    for i, t in zip(range(3, (m + 1) // 2 + 2), cols):
        direct = repset_vector((m - 2, 1, 1), t, idx)
        assert (hook_block_values(all_cycle_seqs(m), i) == direct).all()


@pytest.mark.parametrize("m", [5, 6, 7, 8, 9])
def test_hook_evaluator_is_inversion_odd(m):
    idx = CycleIndex(m)
    inv = inverse_ids(idx)
    mat = hook_block_matrix(all_cycle_seqs(m))
    assert mat.shape == ((m - 1) // 2, factorial(m - 1))
    assert (mat[:, inv] == -mat).all()


@pytest.mark.parametrize("m", [5, 6, 7])
def test_hook_block_spans_built_odd_block(m):
    idx = CycleIndex(m)
    blocks = [b for b in build_blocks(m) if b.lam == (m - 2, 1, 1)]
    assert [b.sign for b in blocks] == [-1]
    d = (m - 1) // 2
    assert blocks[0].dim == d
    mat = hook_block_matrix(all_cycle_seqs(m))
    assert len(independent_rows(mat)) == d
    stacked = np.vstack([mat, block_rows(idx, blocks[0])])
    assert len(independent_rows(stacked)) == d


def _blocks_from_all_vectors(index: CycleIndex) -> list[tuple[Block, np.ndarray]]:
    """Block construction over every tableau vector of a shape at once, then
    one greedy scan: the selection build_blocks makes from Gram matrices,
    kept as an oracle.  Each block comes with the symmetrized rows the scan
    selected."""
    inv_ids = inverse_ids(index)
    blocks = []
    for lam in partitions(index.m):
        target = block_multiplicity(lam)
        if target == 0:
            continue
        ts = standard_tableaux(lam)
        vecs = tableau_vectors(shape_tables(lam), ts, index)
        keep = independent_rows(vecs, stop_at=target)
        assert len(keep) == target
        span, span_ts = vecs[keep], [ts[i] for i in keep]
        for sign in (1, -1):
            cand = span + sign * span[:, inv_ids]
            sel = independent_rows(cand)
            if sel:
                blocks.append((Block(lam, sign, [span_ts[i] for i in sel]), cand[sel]))
    return blocks


@pytest.mark.parametrize("m", [4, 5, 6, 7, 8])
def test_streamed_blocks_match_all_vector_selection(m, monkeypatch):
    idx = CycleIndex(m)
    want = _blocks_from_all_vectors(idx)
    monkeypatch.setattr(cycles, "word_blocks", no_table)
    got = build_blocks(m)
    assert [(b.lam, b.sign, b.tableaux) for b in got] == [
        (b.lam, b.sign, b.tableaux) for b, _ in want
    ]
    for a, (_, rows) in zip(got, want):
        got_rows = block_rows(idx, a)
        assert got_rows.dtype == rows.dtype and (got_rows == rows).all()


# sha256 of the repr of each block's (shape, sign, tableaux) at m=10, in
# build_blocks order, as selected when each candidate's row cascade was
# built, sorted and merged on its own
BLOCK_SELECTION_SHA256 = {
    10: "65943e0585b923815dc5465c7d4f2e674d2d8911cf436284fe2d1e1528e5cf00",
}


@pytest.mark.parametrize("m", sorted(BLOCK_SELECTION_SHA256))
def test_block_selection_frozen(m):
    h = hashlib.sha256()
    for b in build_blocks(m):
        h.update(repr((b.lam, b.sign, b.tableaux)).encode())
    assert h.hexdigest() == BLOCK_SELECTION_SHA256[m]


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5, 6, 7])
def test_shape_tables_match_the_scalar_groups(m):
    # row rearrangements in itertools order, and the column group with the
    # signs the scalar chain computes by perm_sign
    for lam in partitions(m):
        rearr, signs, crows = shape_tables(lam)
        starts = np.cumsum((0,) + lam)
        per_row = [itertools.permutations(range(a, b)) for a, b in zip(starts, starts[1:])]
        assert rearr.tolist() == [
            [c for grp in combo for c in grp] for combo in itertools.product(*per_row)
        ]
        items = list(signed_column_fillings(base_filling(lam)))
        assert signs.tolist() == [sgn for sgn, _ in items]
        assert crows.tolist() == [[v for row in f for v in row] for _, f in items]


_BLOCK_CHECKS = """
import numpy as np
import crossings.repsets as repsets
from crossings.errors import CrossingsError, ResourceError

def refused(kind, call):
    try:
        call()
    except kind as exc:
        print(exc)
        return
    raise SystemExit(f"no {kind.__name__} from {call}")

# Gram sums of coefficients this large could wrap in int64
true_patterns = repsets._pattern_table
def huge(lam):
    rows, keys, coeffs = true_patterns(lam)
    return rows, keys, np.full(coeffs.shape, 2**60)
repsets._pattern_table = huge
refused(ResourceError, lambda: repsets.build_blocks(5))
repsets._pattern_table = true_patterns
# G_P read at one word, (1, 2, 4, 3, 5), m times in place of the m
# rotations of the inverse base word: no flipped Gram matrix of a map on
# cycles, and 2G + 2G_P < 0 on the first (3, 2) tableau
true_keys = repsets.tabloid_keys
def one_word(t, pos):
    keys = true_keys(t, pos)
    keys[1] = true_keys(t, np.array([0, 1, 3, 2, 4], dtype=np.uint8))[0]
    return keys
repsets.tabloid_keys = one_word
refused(CrossingsError, lambda: repsets.build_blocks(5))
repsets.tabloid_keys = true_keys
# a multiplicity the tableau vectors cannot reach
true_mult = repsets.block_multiplicity
repsets.block_multiplicity = lambda lam: true_mult(lam) + (lam == (3, 1, 1))
refused(CrossingsError, lambda: repsets.build_blocks(5))
repsets.block_multiplicity = true_mult
# inverse base words whose tabloids lie in no shape but (m): G_P = 0, so
# both signs keep the whole span
true_base = repsets._base_positions
repsets._base_positions = lambda m: true_base(m) * np.array([1, 0], dtype=np.uint8)
refused(CrossingsError, lambda: repsets.build_blocks(5))
"""


@pytest.mark.parametrize("flags", [[], ["-O"]])
def test_block_checks_survive_optimization(flags):
    # raised, not asserted, so they hold under python -O too; each check
    # runs in a fresh interpreter because the script patches the module
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, *flags, "-c", _BLOCK_CHECKS],
                          env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert len(lines) == 4
    assert "int64" in lines[0]
    assert "sign +1 is not PSD" in lines[1] and "(3, 2)" in lines[1]
    assert "expected 3" in lines[2] and "(3, 1, 1)" in lines[2]
    assert "sign blocks" in lines[3]
