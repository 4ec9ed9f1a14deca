"""Constraint coefficients of the reduced relaxations.

Every invariant matrix is a combination of the pair-class indicators, so
each reduced constraint is carried by one small integer block per class.
The pair tables gather what the constraints are indexed by: the
stabilizer-orbit representatives, the swap classes of the pair orbits, and
each class's cost, read from the swap distances at the class
representative only.

A block entry pairs two column tableaux ta and tb of one shape.  The
pairing polynomial's differential-operator expansion has two halves.  The
row half of ta is its row cascade c, a signed sum of tabloids: its
shape's pattern table (repsets._pattern_table), merged once per shape,
with each value in the column of its cell in ta.  A full build merges
each table once: the table that selected the shape's blocks
(repsets.shape_blocks) comes with them.  The column half gives
a cycle the sum of c(T_tb(w)) over the m rotations w of its word,
T_tb(w) the tabloid that puts letter w[p] in the row of tb holding p + 1.
Summed over a class, that runs over the class's stabilizer-orbit
representatives, their 2m images and the m rotations, each orbit divided
by its stabilizer order; the images are the value shifts of a
representative and of its reflected inverse, and a value shift of w
shifts the values of T_tb(w), so the shifts fold into c.
An entry then costs 2m lookups per representative (_tabloid_forms), and
no table over the (m-1)! cycles is built.  On the hook shape (m-2, 1, 1),
the single block and one shape of the full relaxation, the lookups
collapse further: an entry is a position histogram of the classes at the
offset of tb times an m-vector read from ta in closed form (_hook_forms).
Each kernel maps one chunk of representatives to its forms for every
column of a shape.  The tests compare both exactly against three
independent oracles kept in tests/oracles.py: the per-cycle gather over
the row group of tb, direct quadruple enumeration over the expansions of
both tableau vectors, and streaming over all ordered cycle pairs.  Every
sum that could leave +-2**62 is refused before int64 wraps.

The blocks of one shape, the single-block relaxation's hook block
included, take one call (block_constraint_tables) and one pass over the
representatives (CycleIndex.chunks), each chunk's forms added to their
classes in one int64 table of the shape, each block's raw tableau forms
in its own columns.  A block of sign s has rows w + s (w o eta) and
reduces to those forms: eta flips one pair component, which descends to
an involution on classes, and each entry is (1 + s^2) times the raw form
plus 2s times its flip, applied in place.  Sign 0 leaves the raw forms,
the rows being the tableau vectors, so the single block holds no form
beside the table.  The call returns each block as the gcd of its entries
and a table of the narrowest integer type that holds the quotients, the
form the cache stores, and the int64 table goes with the call.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import factorial

import numpy as np

from .cycles import CycleIndex, _pack_nibbles, image_letters, invert_seqs, unpack_keys
from .errors import CrossingsError
from .orbits import SymmetricClasses, build_pair_orbits
from .repsets import Block, Patterns, _cascade_rows, _check_range, tabloid_keys
from .swapgraph import distances_from_base

Filling = tuple[tuple[int, ...], ...]


@dataclass
class PairTables:
    """Stabilizer-orbit representatives plus the swap classes of the pair
    orbits for one m, with the cost of each class (the swap distance from
    the base to the inverse of the class representative's second
    component) and the class image of inverting one pair component."""

    index: CycleIndex
    classes: SymmetricClasses  # class_of_orbit: class of (base, tau) by stabilizer orbit of tau
    q: np.ndarray  # (C,) u16, pair cost on each class
    flip: np.ndarray  # (C,) int32, class after inverting one component (an involution)

    @classmethod
    def build(cls, m: int) -> "PairTables":
        index = CycleIndex(m)
        classes = build_pair_orbits(index)
        # inversion permutes stabilizer orbits, (g tau)^-1 = g tau^-1 for g
        # in the stabilizer, so the orbits of the inverted class
        # representatives give the cost and the flip
        inverse = np.concatenate([index.orbit_ids(invert_seqs(words))
                                  for _, words in index.chunks(classes.rep_orbits)])
        return cls(index=index, classes=classes, q=distances_from_base(index)[inverse],
                   flip=classes.class_of_orbit[inverse])

    @property
    def m(self) -> int:
        return self.index.m


# -- tableau expansion -------------------------------------------------------

# Table entries per row chunk when a block is divided by its scale
# (block_constraint_tables): 2 MB of int64 transients.
_NARROW_ENTRIES = 1 << 18

# Tabloids per chunk of the shift orbit search (_shift_sums); its
# temporaries take about m(m + 24) bytes per tabloid (7 MB at m = 9).
_SHIFT_ROWS = 1 << 15


def _offset_weights(t: Filling) -> np.ndarray:
    """The m-vector c of a hook tableau t = (first row, (j,), (i,)), c[e]
    summing the coefficients of the tabloids of its row cascade whose
    values a + 1 in row 2 and b + 1 in row 3 have (b - a) mod m = e: the
    raw form of t against a hook tableau tb is H_d @ c for d =
    _hook_offset(tb), where H_d[class, e] counts the cycles of the class
    whose anchored word has letter e + 1 at position d (see _hook_forms).

    The row group of tb permutes its first row only, so the patterns of
    such a tabloid are the cycles with value a + 1 at the position of the
    row-2 value of tb and b + 1 at that of its row-3 value, in some
    rotation, every other value anywhere else: each cycle in which b + 1
    comes d places after a + 1, once.  The value shift by -a, a power of
    the base cycle, fixes the base and so every class; it takes these to
    the cycles whose anchored word has letter e + 1 at position d.

    No cascade is built: the row group of t moves one first-row value v
    into the first column, (m-3)! ways for each v, and the column group,
    |C| = 6, sends v, j, i to rows 1, 2, 3 in every order with its sign.
    The even orders, the rotations of (v, j, i), put (j, i), (i, v) and
    (v, j) in rows 2 and 3; the odd ones (i, j), (v, i) and (j, v).
    """
    m, (j,), (i,) = sum(map(len, t)), t[1], t[2]
    c = [0] * m  # (j, i) and (i, j) come once for each of the m - 2 values v
    c[(i - j) % m] += 6 * factorial(m - 2)
    c[(j - i) % m] -= 6 * factorial(m - 2)
    for v in t[0]:
        for e, sign in ((v - i, 1), (j - v, 1), (i - v, -1), (v - j, -1)):
            c[e % m] += sign * 6 * factorial(m - 3)
    # bounds the histogram product too: a class holds at most (m-1)! cycles
    _check_range(sum(map(abs, c)) * factorial(m - 1))
    return np.array(c, dtype=np.int64)


def _hook_offset(t2: Filling) -> int:
    """d = (i - j) mod m of a hook tableau (first row, (j,), (i,))."""
    return (t2[2][0] - t2[1][0]) % sum(map(len, t2))


def _shift_sums(ts: list[Filling], table: Patterns) -> tuple[np.ndarray, np.ndarray]:
    """The row cascades c of the tableaux ts of one shape summed over the m
    value shifts, c^ = sum over s of c o shift_s: sorted tabloid keys and
    coefficients (U, len(ts)), closed by the largest u64 key, no tabloid's,
    and a zero row.  Each c is the shape's pattern table, table, relabeled
    by its tableau.  c^ is the stabilizer order times the sum of c on each
    shift orbit, found by the smallest key over the shifts of a tabloid."""
    patterns, _, pattern_coeffs = table
    m = patterns.shape[1]
    _check_range(m * int(np.abs(pattern_coeffs).max(initial=0)))
    spread = (np.arange(m)[:, None] - np.arange(m)) % m  # [v, u]: value v of shift u was v - u
    rows = np.concatenate([_cascade_rows(t, patterns) for t in ts]).T
    coeffs = np.tile(pattern_coeffs, len(ts))
    col = np.repeat(np.arange(len(ts)), pattern_coeffs.size)
    low = np.empty(coeffs.size, dtype=np.uint64)
    fixed = np.empty(coeffs.size, dtype=np.int64)
    for lo in range(0, coeffs.size, _SHIFT_ROWS):
        keys = _pack_nibbles(rows[:, lo : lo + _SHIFT_ROWS][spread])  # (m, n), by shift
        at = slice(lo, lo + keys.shape[1])
        low[at] = keys.min(axis=0)
        fixed[at] = (keys == low[at]).sum(axis=0)
    orbits, first, inverse = np.unique(low, return_index=True, return_inverse=True)
    sums = np.zeros((orbits.size + 1, len(ts)), dtype=np.int64)  # the last row for no orbit
    np.add.at(sums, (inverse, col), coeffs)
    sums[:-1] *= fixed[first, None]
    keys = _pack_nibbles((unpack_keys(orbits, m).T - 1)[spread])  # (m, K), by shift
    listed = np.arange(m)[:, None] < m // fixed[first]  # the distinct shifts of each orbit
    order = np.argsort(keys[listed])
    orbit = np.broadcast_to(np.arange(orbits.size), keys.shape)[listed][order]
    return np.append(keys[listed][order], np.iinfo(np.uint64).max), sums[np.append(orbit, -1)]


def _orbit_positions(words: np.ndarray) -> np.ndarray:
    """(m, n, 2) uint8: the position of each value in the word words[i],
    then in its reflected inverse, whose letter at p is -w[-p] mod m, so
    that it holds v at -pos(-v)."""
    m, pos = words.shape[1], np.argsort(words, axis=1).T.astype(np.uint8)
    return np.stack([pos, (np.uint8(m) - pos[(-np.arange(m)) % m]) % m], axis=-1)


def _tabloid_forms(words: np.ndarray, order: np.ndarray, ts: list[Filling],
                   pairs: list[tuple[int, int]], keys: np.ndarray, coeffs: np.ndarray) -> np.ndarray:
    """(n, K) raw forms of the pairs (a, b) of tableaux ts at n representatives
    words of stabilizer orders order: c^_a(T_tb(w)), tb = ts[b], summed over
    the rotations w of the word and of its reflected inverse, over the order,
    from the shift sums (keys, coeffs); 2m lookups for each distinct tb."""
    pos, (a, b) = _orbit_positions(words), np.array(pairs).T
    out = np.empty((len(words), len(pairs)), dtype=np.int64)
    for j in dict.fromkeys(b.tolist()):
        found = tabloid_keys(ts[j], pos).reshape(len(words), -1)
        hit = np.searchsorted(keys, found)
        hit[keys[hit] != found] = keys.size - 1
        forms, rest = np.divmod(coeffs[hit].sum(axis=1), order[:, None])
        if rest.any():
            raise CrossingsError(f"{ts[j]}: tabloid sums not divisible by the stabilizer order")
        out[:, b == j] = forms[:, a[b == j]]
    return out


def _hook_forms(words: np.ndarray, order: np.ndarray, offsets: list[int],
                weights: np.ndarray) -> np.ndarray:
    """(n, K) rows of H_d @ weights[:, k], d = offsets[k], at n representatives
    words of stabilizer orders order.

    H_d[class, e] counts the cycles of the class whose anchored word has
    letter e + 1 at position d.  The 2m images of a representative list
    every cycle of its orbit once per element of its stabilizer, so the
    images with letter e + 1 at position d, divided by that order, count
    the orbit's cycles that have it.  The images are built once over the
    span of the offsets.
    """
    (n, m), first = words.shape, min(offsets)
    span = image_letters(words, slice(first, max(offsets) + 1))
    out = np.empty((n, len(offsets)), dtype=np.int64)
    for d in dict.fromkeys(offsets):
        cols = [k for k, e in enumerate(offsets) if e == d]
        # counts[k, e]: images of representative k with letter e + 1
        counts = np.bincount((span[d - first].reshape(2 * m, n) + m * np.arange(n)).ravel(),
                             minlength=n * m).reshape(n, m)
        cycles, rest = np.divmod(counts, order[:, None])
        if rest.any():
            raise CrossingsError(f"position {d}: image counts not divisible by the stabilizer order")
        out[:, cols] = cycles @ weights[:, cols]
    return out


# -- assembly ----------------------------------------------------------------


def block_constraint_tables(tables: PairTables, blocks: list[Block],
                            patterns: Patterns | None) -> list[tuple[int, np.ndarray]]:
    """Each block of one shape as (g, t), in block order: g t are its
    packed upper triangles, rows in class order and columns row-major, g
    the gcd of their entries and t of the narrowest signed type holding
    the quotients.  patterns is the shape's pattern table, the one that
    selected its blocks (repsets.shape_blocks); the hook needs none.

    The entry of a block of sign s at tableaux (ta, tb) is (1 + s^2) raw +
    2 s raw[flip] for the raw pairing form raw of (ta, tb), since
    F(w + s Pw, w' + s Pw') expands to (1 + s^2) F(w, w') + 2 s F(w, Pw')
    and inverting both components fixes every class.  The raw forms fill
    one int64 table of the shape; each block applies its sign in place on
    its own columns and is divided by g in row chunks of _NARROW_ENTRIES
    entries, g t compared with them exactly: a difference raises
    CrossingsError.

    Every shape takes one pass over the representatives, one chunk at a
    time: the hook shape (m-2, 1, 1) through _hook_forms, weighted by
    _offset_weights, every other shape through _tabloid_forms, against its
    shift sums.  Each chunk's forms, one row per representative, are added
    to the rows of their classes.  A form is symmetric at class level, so
    the signed blocks of one shape share the cascades and the pass.
    """
    at = {t: k for k, t in enumerate(dict.fromkeys(t for b in blocks for t in b.tableaux))}
    ts = list(at)
    pairs = [(at[b.tableaux[i]], at[b.tableaux[j]]) for b in blocks
             for i in range(b.dim) for j in range(i, b.dim)]
    fixed = tables.index.representatives()[1]
    if blocks[0].lam == (tables.m - 2, 1, 1):
        weights = np.column_stack([_offset_weights(t) for t in ts])[:, [a for a, _ in pairs]]
        kernel, args = _hook_forms, ([_hook_offset(ts[b]) for _, b in pairs], weights)
    else:
        keys, coeffs = _shift_sums(ts, patterns)
        # 2m lookups at each representative bound every class sum
        _check_range(2 * tables.m * fixed.shape[1] * int(np.abs(coeffs).max(initial=0)))
        kernel, args = _tabloid_forms, (ts, pairs, keys, coeffs)
    tri = np.zeros((tables.classes.count, len(pairs)), dtype=np.int64)
    for chunk, words in tables.index.chunks():
        forms = kernel(words, fixed[:, chunk].sum(axis=0, dtype=np.int64), *args)
        np.add.at(tri, tables.classes.class_of_orbit[chunk], forms)
    widths = [b.dim * (b.dim + 1) // 2 for b in blocks]
    scaled = []
    for b, raw in zip(blocks, np.split(tri, np.cumsum(widths)[:-1], axis=1)):
        if b.sign:
            flipped = raw[tables.flip]
            flipped *= 2 * b.sign
            raw *= 1 + b.sign**2
            raw += flipped
        rows = max(1, _NARROW_ENTRIES // raw.shape[1])
        chunks = [slice(lo, lo + rows) for lo in range(0, len(raw), rows)]
        g = int(np.gcd.reduce([np.gcd.reduce(raw[c], axis=None) for c in chunks])) or 1
        bound = max(int(np.abs(raw[c]).max(initial=0)) for c in chunks) // g
        part = np.empty(raw.shape, dtype=_narrowest(bound))
        for c in chunks:
            part[c] = raw[c] // g
            if (part[c] * np.int64(g) != raw[c]).any():
                raise CrossingsError(f"block {b.lam}{b.sign:+d}: {part.dtype} times {g} is not its table")
        scaled.append((g, part))
    return scaled


def _narrowest(bound: int) -> np.dtype:
    """The narrowest signed integer type holding every |t| <= bound."""
    return next(np.dtype(t) for t in (np.int8, np.int16, np.int32, np.int64)
                if bound <= np.iinfo(t).max)
