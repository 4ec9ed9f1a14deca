import hashlib
import itertools
import math
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from crossings import coeffs, cycles, repsets
from crossings.coeffs import (
    PairTables,
    _hook_forms,
    _hook_offset,
    _offset_weights,
    _shift_sums,
    _tabloid_forms,
    block_constraint_tables,
)
from crossings.cycles import image_letters
from crossings.errors import ArgumentError, CrossingsError, ResourceError
from crossings.relaxations import coeff_tables, square_triangles, widen
from crossings.repsets import (
    Block,
    _cascade_rows,
    _pattern_table,
    build_blocks,
    hook_block_columns,
    row_group,
    shape_blocks,
)
from crossings.tableaux import standard_tableaux
from oracles import (
    _expansion_words,
    all_cycle_seqs,
    base_filling,
    block_rows,
    class_ids_of_words,
    class_of_cycle,
    class_sums,
    compose_word,
    direct_expansion,
    hook_block_matrix,
    ids_of_positions,
    monomial_to_orbit,
    pair_stream_forms,
    pair_stream_hook_table,
    position_histogram_by_cycles,
    relabel_to_base,
    row_cascade_tabloids,
    row_equivalent_fillings,
    signed_column_fillings,
)

TABLES = {m: PairTables.build(m) for m in range(4, 8)}


class TableAllocated(Exception):
    pass


def no_table(m):
    raise TableAllocated(m)


def tri_pairs(d):
    return [(i, j) for i in range(d) for j in range(i, d)]


def scaled_tables(t, shapes):
    """The (g, narrow table) of every block of the (lam, pattern table,
    blocks) groups shapes, from one block_constraint_tables call a group."""
    return [gt for _, patterns, group in shapes for gt in block_constraint_tables(t, group, patterns)]


def widened_tables(t, blocks):
    """The int64 table g t of each block, built for each shape's run of
    blocks, in block order."""
    hook = (t.m - 2, 1, 1)
    shapes = [(lam, None if lam == hook else _pattern_table(lam), list(run))
              for lam, run in itertools.groupby(blocks, key=lambda b: b.lam)]
    return [widen(part, g) for g, part in scaled_tables(t, shapes)]


def block_tables(t, blocks):
    """The widened tables of blocks side by side in block order."""
    return np.hstack(widened_tables(t, blocks))


def block_squares(t, blocks):
    """The (C, d, d) class stacks of each block, in block order."""
    return [square_triangles(x, b.dim) for x, b in zip(widened_tables(t, blocks), blocks)]


def hook_table(t):
    """The single-block table: the hook block with sign 0."""
    return block_tables(t, [Block((t.m - 2, 1, 1), 0, hook_block_columns(t.m))])


def hook_tableau(m, j, i):
    """The hook column tableau (first row, (j,), (i,)) of 1..m."""
    return (tuple(v for v in range(1, m + 1) if v not in (j, i)), (j,), (i,))


def form(t1, t2, t):
    """Signed class counts of one pairing form, the off-diagonal entry of a
    sign-0 block of the two tableaux."""
    lam = tuple(len(r) for r in t1)
    col = block_tables(t, [Block(lam, 0, [t1, t2])])[:, 1]
    return {int(c): int(v) for c, v in enumerate(col) if v}


@pytest.mark.parametrize("m", [4, 5, 6])
def test_poly_matches_direct_expansion_on_hook_columns(m):
    t = TABLES[m]
    cols = hook_block_columns(m)
    tri = hook_table(t)
    for pos, (i, j) in enumerate(tri_pairs(len(cols))):
        got = {int(c): int(v) for c, v in enumerate(tri[:, pos]) if v}
        assert got == direct_expansion(cols[i], cols[j], t)


def test_poly_matches_direct_expansion_spot_check_m7():
    t = TABLES[7]
    cols = hook_block_columns(7)
    assert form(cols[0], cols[2], t) == direct_expansion(cols[0], cols[2], t)


@pytest.mark.parametrize("m", [4, 5, 6])
def test_poly_matches_direct_on_other_shapes(m):
    t = TABLES[m]
    fillings = [
        tuple((v,) for v in range(1, m + 1)),
        ((1,) + tuple(range(4, m + 1)), (2, 3)),
    ]
    for t1, t2 in itertools.combinations_with_replacement(fillings, 2):
        if tuple(len(r) for r in t1) != tuple(len(r) for r in t2):
            continue
        assert form(t1, t2, t) == direct_expansion(t1, t2, t)


@given(data=st.data(), m=st.integers(4, 5))
@settings(max_examples=25, deadline=None)
def test_poly_matches_direct_on_random_fillings(data, m):
    t = TABLES[m]
    shape = data.draw(st.sampled_from([(m - 2, 1, 1), (m - 1, 1), (m - 2, 2)]))
    fillings = []
    for _ in range(2):
        vals = data.draw(st.permutations(range(1, m + 1)))
        out, at = [], 0
        for r in shape:
            out.append(tuple(vals[at : at + r]))
            at += r
        assume(all(v >= i for i, row in enumerate(out, start=1) for v in row))
        fillings.append(tuple(out))
    assert form(*fillings, t) == direct_expansion(*fillings, t)


@pytest.mark.parametrize("m", [4, 5, 6, 7])
def test_transpose_coherence(m):
    t = TABLES[m]
    cols = hook_block_columns(m)
    assert form(cols[0], cols[-1], t) == form(cols[-1], cols[0], t)


@pytest.mark.parametrize("m", [4, 5, 6, 7, 8])
def test_hook_table_routes_agree(m):
    t = TABLES.get(m) or PairTables.build(m)
    assert (hook_table(t) == pair_stream_hook_table(t)).all()


@pytest.mark.parametrize("m", [4, 5, 6, 7])
def test_block_table_routes_agree(m):
    t = TABLES[m]
    blocks = build_blocks(m)
    poly = block_squares(t, blocks)
    pairs = pair_stream_forms(t, [block_rows(t.index, b) for b in blocks])
    for b, x, y in zip(blocks, poly, pairs):
        assert (x == y).all(), (b.lam, b.sign)


@pytest.mark.parametrize("m", [5, 6, 7])
def test_sign_zero_blocks_of_other_shapes(m):
    # sign 0 keeps the raw tableau vectors as rows, on shapes beyond the hook
    t = TABLES[m]
    for lam in [(m - 1, 1), (m - 2, 2)]:
        b = Block(lam, 0, standard_tableaux(lam)[:4])
        (got,) = block_squares(t, [b])
        (want,) = pair_stream_forms(t, [block_rows(t.index, b)])
        assert (got == want).all(), lam


# sha256 of the little-endian int64 bytes of the single-block table (the
# sign-0 hook block), and of the full (C, d, d) blocks in build_blocks
# order, as computed when class lookup went through re-anchored words and a
# sorted key table; m=11 as computed by the row-group gather, before hook
# blocks were read from position histograms
HOOK_TABLE_SHA256 = {
    4: "fc9c711c75b3d90310e362a4bbb130075af22ae2272b8f2e52282cd77b1a3bc5",
    5: "442177d3d184608348d5e1595a64d5a5a9218d15c86e92bd9985a490dd2f658e",
    6: "e15667c41d69d083ed14b6e2871c5f3714e4036da501cc4ac3aa712a115db540",
    7: "8a67ee91d98aa252cb705159db8af5e453e042ac26c15ae6ce97a868015b12f4",
    8: "c03d8434a897382ad642a7ceb71f033c2eb215b0a46d6ff4ed6951a0de41d3c1",
    9: "ebddbfcfc8addef7271bf1b103cfa2a0cc1312fae3cc5b2581db79c8138021c4",
    10: "f065820c5e883d52e5491c5728a081a6e6f216676b629b1e2b0388d6489f2f8e",
    11: "6ac934ea2c31bd7060f19c096026c4f07fd6794a2eda232fdccafb72ee29d793",
}
BLOCK_TABLES_SHA256 = {
    4: "77955ddc05f5499b4668301eaa5e970f69293840cfabb0b524912038041e4269",
    5: "238c06323be709eeae20eb2fe72b31294010437a457381cb1fe875cf05ea08bd",
    6: "17fff49739aab4313baaff1718aa9ec50362ced99d81fde02f9d3a46c8c0e616",
    7: "adc90fa68043de11225502d3b37cae592f113b5635754674d037d401e20374f9",
    8: "efdd4241a694f387206efef43132ba60f4f0f5fab910d45d3c4b7d30e9f5ab59",
}


def table_sha256(arrays):
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a, dtype="<i8").tobytes())
    return h.hexdigest()


@pytest.mark.parametrize("m", sorted(HOOK_TABLE_SHA256))
def test_hook_table_bytes_frozen(m):
    t = TABLES.get(m) or PairTables.build(m)
    assert table_sha256([hook_table(t)]) == HOOK_TABLE_SHA256[m]


def class_forms(t, kernel, width):
    """The (n, width) rows kernel(words, order) of every chunk of
    representatives, summed by class."""
    fixed = t.index.representatives()[1]
    out = np.zeros((t.classes.count, width), dtype=np.int64)
    for at, words in t.index.chunks():
        np.add.at(out, t.classes.class_of_orbit[at], kernel(words, fixed[:, at].sum(axis=0, dtype=np.int64)))
    return out


def hook_forms(t, offsets, weights):
    """The hook kernel's columns H_d @ weights[:, k], d = offsets[k], alone."""
    return class_forms(t, lambda words, order: _hook_forms(words, order, offsets, weights), len(offsets))


@pytest.mark.parametrize("m", range(4, 11))
def test_position_histograms_match_the_cycle_count(m, monkeypatch):
    # the single path reads the representatives alone: it builds no
    # per-cycle table, and enumerates no words to build one from
    t = PairTables.build(m)
    with monkeypatch.context() as patch:
        patch.setattr(cycles, "word_blocks", no_table)
        hook_table(t)
    # one column per letter: each offset's whole histogram
    eye = np.eye(m, dtype=np.int64)
    for d in range(m):
        assert (hook_forms(t, [d] * m, eye) == position_histogram_by_cycles(t, d) @ eye).all(), d
    # offsets with gaps, out of order and repeated, under distinct weights
    offsets = [m - 1, 1, 3 % m, 1]
    weights = np.arange(m * len(offsets), dtype=np.int64).reshape(m, -1) - m
    got = hook_forms(t, offsets, weights)
    for k, d in enumerate(offsets):
        assert (got[:, k] == position_histogram_by_cycles(t, d) @ weights[:, k]).all(), (k, d)


def test_position_histogram_refuses_counts_off_the_stabilizer_order(monkeypatch):
    # stabilizer orders raised by one cannot divide every image count
    t = PairTables.build(6)
    keys, fixed = t.index.representatives()
    monkeypatch.setattr(t.index, "representatives", lambda: (keys, fixed + 1))
    with pytest.raises(CrossingsError):
        hook_forms(t, [2], np.ones((6, 1), dtype=np.int64))


def test_single_block_builds_the_images_once_per_chunk(monkeypatch):
    # one pass over the representatives serves every offset of the block
    t = PairTables.build(10)
    calls = []

    def counted(*args):
        calls.append(args)
        return image_letters(*args)

    monkeypatch.setattr(coeffs, "image_letters", counted)
    hook_table(t)
    chunks = -(-t.index.representatives()[0].size // cycles._CHUNK_ROWS)
    assert len(calls) == chunks == 19


def hook_block_entries(blocks):
    """(block, pairs) of every hook block among blocks, pairs listing the
    (ta, tb) of its entries in column order."""
    return [(b, [(ta, tb) for i, ta in enumerate(b.tableaux) for tb in b.tableaux[i:]])
            for b in blocks if b.lam[1:] == (1, 1)]


@pytest.mark.parametrize("m,kind", [(m, "single") for m in range(4, 10)]
                         + [(m, "full") for m in range(5, 9)])
def test_hook_kernel_matches_the_gather(m, kind):
    # single: the sign-0 hook block, second row {2}; full: the signed hook
    # blocks of build_blocks, whose column tableaux also have other second
    # rows, so offsets d = i - j with j != 2
    t = TABLES.get(m) or PairTables.build(m)
    if kind == "single":
        entries = hook_block_entries([Block((m - 2, 1, 1), 0, hook_block_columns(m))])
    else:
        entries = hook_block_entries(build_blocks(m))
        assert any(tb[1] != (2,) for _, pairs in entries for _, tb in pairs)
    group = cell_group((m - 2, 1, 1))
    for b, pairs in entries:
        weights = np.column_stack([_offset_weights(ta) for ta, _ in pairs])
        got = hook_forms(t, [_hook_offset(tb) for _, tb in pairs], weights)
        for k, (ta, tb) in enumerate(pairs):
            want = class_sums(row_cascade(ta), tb, group, t)
            assert (got[:, k] == want).all(), (ta, tb)


def test_tabloid_kernel_matches_the_gather():
    # every form of every block of the full relaxation at m=8 but the hook
    # ones, against the per-cycle gather
    m = 8
    t = PairTables.build(m)
    for lam, patterns, blocks in shape_blocks(m):
        if lam == (m - 2, 1, 1):
            continue
        group = cell_group(lam)
        ts = list(dict.fromkeys(ta for b in blocks for ta in b.tableaux))
        keys, table = _shift_sums(ts, patterns)
        pairs = [(ts.index(ta), ts.index(tb)) for b in blocks
                 for j, tb in enumerate(b.tableaux) for ta in b.tableaux[: j + 1]]
        got = class_forms(t, lambda words, order: _tabloid_forms(words, order, ts, pairs, keys, table),
                          len(pairs))
        for k, (a, b) in enumerate(pairs):
            want = class_sums(row_cascade(ts[a]), ts[b], group, t)
            assert (got[:, k] == want).all(), (ts[a], ts[b])


@lru_cache(maxsize=1)  # callers visit the tableaux shape by shape
def pattern_table(lam):
    return _pattern_table(lam)


def row_cascade(t):
    """The row cascade of a column tableau t as cells: one sorted row of m
    uint8 cells 16*(r-1) + (v-1) per tabloid, value v in diagram row r,
    tabloids in lex order of their values read row by row, and the (N,)
    int64 coefficients."""
    rows, _, coeffs = pattern_table(tuple(map(len, t)))
    value_rows = _cascade_rows(t, rows)
    cells = value_rows << 4 | np.arange(value_rows.shape[1], dtype=np.uint8)
    cells.sort(axis=1)
    order = np.lexsort((cells & 15).T[::-1])
    return cells[order], coeffs[order]


def filling(cells):
    """The rows of sorted values that a row of cells puts in each diagram row."""
    rows = [[] for _ in range(max(cells) // 16 + 1)]
    for cell in cells:
        rows[cell >> 4].append((cell & 15) + 1)
    return tuple(map(tuple, rows))


def cascade_tabloids(cells, coeffs):
    """A row cascade as {tabloid: coefficient}, rows of sorted values."""
    return {filling(row): c for row, c in zip(cells.tolist(), coeffs.tolist())}


@pytest.mark.parametrize("m", [4, 5, 6, 7])
def test_row_cascade_matches_the_polytabloid_sum(m):
    for b in build_blocks(m):
        for t in b.tableaux:
            assert cascade_tabloids(*row_cascade(t)) == row_cascade_tabloids(t), t


# sha256 of the row cascades of every block tableau in build_blocks order
# (the uint8 cells, then the little-endian int64 coefficients, of each), and
# of the hook weights of (first row, (j,), (i,)) for 1 < j < i <= m, (j, i)
# ascending, as int64; both computed by the operator expansion (products of
# leading-minor determinants, then one row operator per move) before the
# closed forms replaced it
ROW_CASCADE_SHA256 = {
    8: "6d3d09890035cc6fc074913a9354ada2ca7dd8fe31cadfe1fc03436b68d7a362",
    9: "a04766cfc17bddc6ed485c7c3d54c59e6b0ab5340611a615f413b0b945cfab0a",
}
HOOK_WEIGHTS_SHA256 = {
    4: "ab5426233fa47b7e45f4d8544f68ec93775010021b4d9a50f5df227a37e8b72d",
    5: "9731edfb0372aa987dbaf618f96da695466bb94a277e77380301c9a6644cf3b8",
    6: "486652117ecf747ebd4e4ddebc355878c7db793799c75d377adfd13cc69cec6e",
    7: "8501518d3131be6abca2bd2904a6c690b61bb5b7be11f2697613a0a15759e728",
    8: "c640fd7feb5fd21d49fb9baf4e9702bd1b1e50779eaaec35f9f4379eae8024af",
    9: "01fc2d0bf3980fa7cc24d7c4f067206fe004c640b713f9fe5af4800afcfd044d",
    10: "7fb071e713084c0a579c056e2221eae16ebfaf9906e314e98be58dc77c88544c",
    11: "23f68630a1a6fa0f7096aa08be748d820b9d4bb6dda9e1cc298b63d12413c6eb",
    12: "18c2a37868edfb1ca363d262cdd8ea440052a52099cb1d34891e4b02694f7d72",
}


@pytest.mark.parametrize("m", sorted(ROW_CASCADE_SHA256))
def test_row_cascade_bytes_frozen(m):
    h = hashlib.sha256()
    for b in build_blocks(m):
        for ta in b.tableaux:
            cells, coeffs = row_cascade(ta)
            h.update(cells.tobytes())
            h.update(np.ascontiguousarray(coeffs, dtype="<i8").tobytes())
    assert h.hexdigest() == ROW_CASCADE_SHA256[m]


@pytest.mark.parametrize("m", sorted(HOOK_WEIGHTS_SHA256))
def test_hook_weights_bytes_frozen(m):
    pairs = itertools.combinations(range(2, m + 1), 2)
    got = np.array([_offset_weights(hook_tableau(m, j, i)) for j, i in pairs])
    assert table_sha256([got]) == HOOK_WEIGHTS_SHA256[m]


@pytest.mark.parametrize("m", sorted(BLOCK_TABLES_SHA256))
def test_block_tables_bytes_frozen(m, monkeypatch):
    # every block reads the representatives alone: no per-cycle table is
    # built, and no words enumerated to build one from
    t = TABLES.get(m) or PairTables.build(m)
    monkeypatch.setattr(cycles, "word_blocks", no_table)
    blocks = build_blocks(m)
    assert table_sha256(block_squares(t, blocks)) == BLOCK_TABLES_SHA256[m]


def relaxation_shapes(m, kind):
    """The (lam, pattern table, blocks) groups of a relaxation's blocks."""
    if kind == "full":
        return list(shape_blocks(m))
    return [((m - 2, 1, 1), None, [Block((m - 2, 1, 1), 0, hook_block_columns(m))])]


@pytest.mark.parametrize("m,kind", [(8, "single"), (6, "full"), (7, "full")])
def test_block_tables_are_exact_and_narrowest(m, kind):
    # each block is its scale times a table of the narrowest type: the
    # scale is the gcd of the block's int64 entries, which the product
    # gives back exactly, and the next narrower type would not hold it;
    # the int64 entries are the frozen tables'
    t = TABLES.get(m) or PairTables.build(m)
    shapes = relaxation_shapes(m, kind)
    blocks = [b for _, _, group in shapes for b in group]
    built = scaled_tables(t, shapes)
    assert len(built) == len(blocks)
    want = [widen(part, g) for g, part in built]
    if kind == "single":
        assert table_sha256(want) == HOOK_TABLE_SHA256[m]
    else:
        assert table_sha256(map(square_triangles, want, [b.dim for b in blocks])) == BLOCK_TABLES_SHA256[m]
    types = [np.int8, np.int16, np.int32, np.int64]
    for (g, part), raw in zip(built, want, strict=True):
        assert g == np.gcd.reduce(raw, axis=None) > 0
        assert (part.astype(np.int64) * g == raw).all()
        k = types.index(part.dtype.type)
        assert k == 0 or np.abs(raw // g).max() > np.iinfo(types[k - 1]).max
    assert max(part.dtype.itemsize for _, part in built) == (2 if m == 7 else 1)


@pytest.mark.parametrize("m,kind", [(m, "single") for m in range(4, 10)]
                         + [(m, "full") for m in range(5, 9)])
def test_block_tables_do_not_depend_on_the_chunk(m, kind, monkeypatch):
    # each shape's forms are summed by class one chunk of representatives
    # at a time; chunks of 7 cut every walk at many places, against one
    # chunk holding all the representatives
    t = TABLES.get(m) or PairTables.build(m)

    def build(rows):
        with monkeypatch.context() as patch:
            patch.setattr(cycles, "_CHUNK_ROWS", rows)
            return scaled_tables(t, relaxation_shapes(m, kind))

    for (cut_g, a), (g, b) in zip(build(7), build(1 << 30), strict=True):
        assert cut_g == g and a.dtype == b.dtype and np.array_equal(a, b)


def test_a_narrowing_that_loses_entries_is_refused(monkeypatch):
    # full m=7 needs int16 for entries up to 140; narrowed to int8 they
    # wrap, and the exact check of g t against the int64 table raises
    t = TABLES[7]
    monkeypatch.setattr(coeffs, "_narrowest", lambda bound: np.dtype(np.int8))
    with pytest.raises(CrossingsError, match="is not its table"):
        scaled_tables(t, shape_blocks(7))


@pytest.mark.parametrize("m", range(4, 11))
def test_tables_widened_from_the_cache_files_keep_their_digests(m, tmp_path):
    # each block's narrow table, read back from the file and widened by its
    # scale, is the int64 table the digests were taken of
    kinds = ["single", "full"] if m in BLOCK_TABLES_SHA256 else ["single"]
    for kind in kinds:
        coeff_tables(m, kind, tmp_path)
        dims, _, _, tris, scales = coeff_tables(m, kind, tmp_path)
        assert not any(tri.flags.writeable for tri in tris)  # the file's tables, not the build's
        wide = [widen(tri, g) for tri, g in zip(tris, scales)]
        if kind == "single":
            assert table_sha256(wide) == HOOK_TABLE_SHA256[m]
        else:
            squares = [square_triangles(w, d) for w, d in zip(wide, dims)]
            assert table_sha256(squares) == BLOCK_TABLES_SHA256[m]


@pytest.mark.parametrize("m", [5, 6, 7])
def test_diagonal_class_entries_are_gram_matrices(m):
    # the class of (c, c) pairs collects u_i(c) u_j(c) over all cycles
    t = TABLES[m]
    diag = int(class_ids_of_words(t, np.arange(1, m + 1, dtype=np.uint8)[None])[0])
    tri = hook_table(t)
    hooks = hook_block_matrix(all_cycle_seqs(m))
    gram = hooks @ hooks.T
    for pos, (i, j) in enumerate(tri_pairs(hooks.shape[0])):
        assert tri[diag, pos] == gram[i, j]
    blocks = build_blocks(m)
    stacks = block_squares(t, blocks)
    for b, a in zip(blocks, stacks):
        rows = block_rows(t.index, b)
        assert (a[diag] == rows @ rows.T).all()


@pytest.mark.parametrize("m", [5, 6, 7])
def test_forms_sum_to_zero_over_classes(m):
    # summing a class form over all classes pairs the vectors against the
    # all-ones matrix, and every hook vector is orthogonal to constants
    tri = hook_table(TABLES[m])
    assert (tri.sum(axis=0) == 0).all()


def test_m4_hook_form_frozen():
    tri = hook_table(TABLES[4])
    assert tri.shape == (3, 1)
    got = {c: int(v) for c, v in enumerate(tri[:, 0]) if v}
    assert got == direct_expansion(((1, 4), (2,), (3,)), ((1, 4), (2,), (3,)), TABLES[4])
    t = TABLES[4]
    by_q = {int(t.q[c]): v for c, v in enumerate(tri[:, 0])}
    assert by_q == {2: 24, 1: 0, 0: -24}


def test_expansion_term_count():
    for m in (5, 6):
        signs, words = _expansion_words(hook_block_columns(m)[0], m)
        assert len(signs) == 6 * math.factorial(m - 2)
        assert words.shape == (len(signs), m)


def test_direct_expansion_guard():
    t = PairTables.build(8)
    cols = hook_block_columns(8)
    with pytest.raises(ResourceError):
        direct_expansion(cols[0], cols[0], t)


def test_hook_weights_past_the_coefficient_limit_are_refused():
    # sum |c| * (m-1)! bounds the histogram product: 2.7e17 at m=13, and
    # 4.2e19 at m=14, past 2**62
    c = _offset_weights(hook_tableau(13, 2, 3))
    assert int(np.abs(c).sum()) * math.factorial(12) < 2**62
    with pytest.raises(ResourceError):
        _offset_weights(hook_tableau(14, 2, 3))


def test_row_cascade_past_the_coefficient_limit_is_refused(monkeypatch):
    # |C| |C| |R| bounds every merged coefficient: 2**31 column signs and
    # two rearrangements, views of one element each, reach 2**63
    m = 4
    rearr = np.broadcast_to(np.arange(m, dtype=np.uint8), (2, m))
    crows = np.broadcast_to(np.arange(1, m + 1, dtype=np.uint8), (2**31, m))
    signs = np.broadcast_to(np.int8(1), (2**31,))
    monkeypatch.setattr(repsets, "shape_tables", lambda lam: (rearr, signs, crows))
    with pytest.raises(ResourceError):
        _pattern_table((m,))


def test_tabloid_forms_past_the_coefficient_limit_are_refused(monkeypatch):
    # 2m lookups for each of the R representatives bound every sum: at m=4,
    # 8 lookups over 3 representatives, so 24 max|c^| passes at 2**57 and
    # reaches 2**62 at 2**58, where it is refused before any form exists
    t, ta, lam = TABLES[4], ((1, 2, 3, 4),), (4,)
    assert t.index.representatives()[0].size == 3
    patterns = _pattern_table(lam)
    keys, table = _shift_sums([ta], patterns)
    unit = table // 96  # the shift sums of the one-row tableau are 0 and 96
    assert (96 * unit == table).all() and np.abs(unit).max() == 1
    calls, kernel = [], coeffs._tabloid_forms
    monkeypatch.setattr(coeffs, "_tabloid_forms", lambda *args: calls.append(1) or kernel(*args))

    def forms(scale):
        monkeypatch.setattr(coeffs, "_shift_sums", lambda ts, table: (keys, unit * scale))
        ((g, part),) = block_constraint_tables(t, [Block(lam, 0, [ta])], patterns)
        return widen(part, g)

    assert (forms(2**57) == 2**57 * forms(1)).all() and len(calls) == 2
    with pytest.raises(ResourceError):
        forms(2**58)
    assert len(calls) == 2


def cell_group(lam):
    """The row group of a shape on cells, laid out as the gather oracle
    (class_sums) takes it."""
    return np.ascontiguousarray(row_group(lam).T)


def test_expansion_checks_survive_optimization():
    # raised, not asserted, so they hold under python -O too
    t = TABLES[4]
    hook = ((1, 4), (2,), (3,))
    group = cell_group((2, 1, 1))

    def cascade(cells, coeffs=(1,)):
        return np.array(cells, dtype=np.uint8), np.array(coeffs, dtype=np.int64)

    def sums(cells, coeffs=(1,)):
        return class_sums(cascade(cells, coeffs), hook, group, t)

    # cells are 16 (row - 1) + (value - 1): values 1, 2 in row 1, value 3 in
    # row 2, value 4 in row 3; values 1, 2 take the cells of 1, 4 in row 1
    # of the hook both ways, values 3 and 4 those of 2 and 3
    pos = np.array([[0, 3], [3, 0], [1, 1], [2, 2]], dtype=np.uint8)
    want = np.bincount(class_of_cycle(t)[ids_of_positions(pos)], minlength=t.classes.count)
    assert (sums([[0x00, 0x01, 0x12, 0x23]]) == want).all()
    # where the kernels key a cascade, by the row of each value: the tableau
    # the cells make relabels the patterns, here the cell rows of (2, 1, 1)
    patterns = np.array([[0, 0, 1, 2]], dtype=np.uint8)
    assert _cascade_rows(filling([0x00, 0x01, 0x12, 0x23]), patterns).tolist() == [[0, 0, 1, 2]]
    # width other than m; a repeated value; a value past m, which must not
    # fail as an IndexError
    for bad in ([[0x00, 0x01, 0x12]], [[0x00, 0x00, 0x12, 0x23]], [[0x00, 0x01, 0x12, 0x2f]]):
        with pytest.raises(CrossingsError):
            sums(bad)
        with pytest.raises(CrossingsError):
            _cascade_rows(filling(*bad), patterns)
    # each value once, but row content (1, 2, 1) against the hook's row
    # lengths (2, 1, 1), or a value in a row past the last
    for bad in ([[0x00, 0x11, 0x12, 0x23]], [[0x00, 0x01, 0x12, 0x33]]):
        with pytest.raises(CrossingsError):
            sums(bad)
        with pytest.raises(CrossingsError):
            _cascade_rows(filling(*bad), patterns)
    # the bound is max|c| * tabloids * |R(tb)|: 2**61 * 1 * 2 reaches 2**62
    with pytest.raises(ResourceError):
        sums([[0x00, 0x01, 0x12, 0x23]], (2**61,))
    assert (sums([[0x00, 0x01, 0x12, 0x23]], (2**60,)) == 2**60 * want).all()
    with pytest.raises(ResourceError):
        pair_stream_forms(t, [np.full((1, math.factorial(t.m - 1)), 2**26, dtype=np.int64)])


# fillings where row j of the column tableau does not contain j, as row 2
# of ((1, 2), (3, 4))
MOVE_OUT_FILLINGS = {
    4: [((1, 2), (3, 4)), ((1, 3), (2, 4))],
    5: [((1, 2, 3), (4, 5)), ((1, 2, 5), (3, 4)), ((1, 3, 5), (2, 4))],
    6: [((1, 2), (3, 4), (5, 6)), ((1, 3), (2, 5), (4, 6)), ((1, 4), (2, 5), (3, 6))],
}


@pytest.mark.parametrize("m", sorted(MOVE_OUT_FILLINGS))
def test_class_sums_match_direct_expansion_when_columns_empty(m):
    t = TABLES[m]
    fillings = MOVE_OUT_FILLINGS[m]
    assert any(j not in row for f in fillings for j, row in enumerate(f, start=1))
    for t1, t2 in itertools.product(fillings, repeat=2):
        assert form(t1, t2, t) == direct_expansion(t1, t2, t), (t1, t2)


@pytest.mark.parametrize("tb", [((1, 2), (3, 4)), ((1, 4, 5), (2,), (3,)), ((1, 3, 5), (2, 4)),
                                ((1, 2), (3, 5), (4,)), ((1, 2, 3, 4),)])
def test_row_group_keeps_each_row_of_the_tableau(tb):
    lam = tuple(len(r) for r in tb)
    values = np.array([v for r in tb for v in r])
    images = values[row_group(lam)]  # row g: g(v) for v of tb in row-major order
    assert len({tuple(g) for g in images.tolist()}) == len(images) == math.prod(map(math.factorial, lam))
    starts = np.cumsum((0,) + lam)
    for row, a, b in zip(tb, starts, starts[1:]):
        assert (np.sort(images[:, a:b], axis=1) == sorted(row)).all()


@pytest.mark.parametrize("m", [5, 6])
def test_monomial_to_orbit_examples(m):
    t = TABLES[m]
    ident = tuple(range(1, m + 1))
    assert t.q[monomial_to_orbit(ident, t)] == (m - 1) ** 2 // 4
    reverse = (1,) + tuple(range(m, 1, -1))
    assert t.q[monomial_to_orbit(reverse, t)] == 0
    with pytest.raises(ArgumentError):
        monomial_to_orbit((1,) * m, t)


@pytest.mark.parametrize("m", [4, 5, 6])
def test_same_monomial_same_class(m):
    # the pattern of a term pair determines its class, so the map from
    # monomials to classes is well defined
    t = TABLES[m]
    t1 = hook_block_columns(m)[0]
    lam = tuple(len(r) for r in t1)
    terms = [
        compose_word(ct, tp)
        for _, ct in signed_column_fillings(base_filling(lam))
        for tp in row_equivalent_fillings(t1)
    ]
    seen: dict[tuple[int, ...], int] = {}
    for w1 in terms[:24]:
        for w2 in terms:
            pattern = tuple(int(np.argwhere(np.array(w2) == np.array(w1)[p])[0, 0]) + 1 for p in range(m))
            relabel = relabel_to_base(np.array(w1, dtype=np.uint8))
            moved = relabel[np.array(w2, dtype=np.uint8) - 1]
            cid = int(class_ids_of_words(t, moved[None])[0])
            assert monomial_to_orbit(pattern, t) == cid
            assert seen.setdefault(pattern, cid) == cid


@pytest.mark.parametrize("m", [4, 5, 6, 7])
def test_flip_is_an_involution_preserving_sizes(m):
    t = TABLES[m]
    flip = t.flip
    assert (flip[flip] == np.arange(t.classes.count)).all()
    assert (t.classes.sizes[flip] == t.classes.sizes).all()
