"""Single-cycle permutations of {1..m} and the signed relabeling group.

A length-m cycle is stored as the word of its orbit starting at 1, so the
cycle sending 1 -> 4 -> 2 -> 3 -> 1 is the word (1, 4, 2, 3).  Distinct words
anchored at 1 are distinct cycles and there are (m-1)! of them.

The group acting on cycles is S_m x {+1,-1}: a relabeling pi together with an
optional inversion, (pi, eps) . sigma = pi sigma^eps pi^-1.  The stabilizer of
the base cycle (1 2 ... m) has order 2m; it is generated by the base cycle
itself acting as a value shift, and by the value reflection about 1 combined
with inversion.  Canonical forms under that stabilizer are what every other
module keys orbits on.  They are computed in bulk here, on uint8 word
arrays; a single cycle as a value, the group as explicit elements and the
scalar canonical form it defines live with the other test oracles in
tests/oracles.py, and the bulk form is checked against them.

The bulk form rests on anchored differences.  In 0-based values v, shifting
a word's values so that v[p] becomes the anchor and rotating position p to
the front gives (v[p + j] - v[p]) mod m, so the m value shifts of a word are
its m difference sequences, one per start position, and the m reflected
inverses are (v[p] - v[p - j]) mod m.  One kernel builds all 2m of them for
a chunk of words from two strided views of the doubled word, one read
forwards and one backwards, packs each into a u64 key and keeps the
smallest of each family of m: the value shifts alone, which key the orbits
under relabeling without inversion, and the reflected inverses.  The
canonical key is the smaller of the two.

Every key in the package is packed the same way.  Letter pairs become
bytes, high nibble first, and the first byte is the most significant, so
integer order is lexicographic order.  The packer ORs the pairs into
contiguous byte planes and writes each plane once into its byte of a
zeroed little-endian u64 (_KEY_BYTES), which a little-endian host reads
with no copy; unpack_keys reads the bytes back through the same layout.

The stabilizer-orbit representatives, the words equal to their own
canonical form, are found without canonicalizing every word: every image
of a word begins 0 and then one of its cyclic consecutive differences, so
only words whose first difference is their smallest can be
representatives, and only those go through the kernel.  The words are
enumerated in lexicographic blocks of at most 8! and dropped after the
filter, so no table of all (m-1)! words is ever held; the representatives
come out in ascending key order, each with the count of its images equal
to it, which is its stabilizer order.  The census reads no more than
that.  Any word's orbit is looked up among them by its canonical key
(CycleIndex.orbit_ids), and no per-cycle orbit table is kept.  One
chunker (CycleIndex.chunks) is the only walk over the representatives: it
unpacks them one chunk at a time for the orbits of their swap partners,
inverses and swap neighbours, and for the coefficient forms.
"""

from __future__ import annotations

import itertools
import os
from functools import lru_cache
from math import factorial

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .errors import ArgumentError, ResourceError
from .tableaux import lex_permutations

# Words are packed 4 bits per entry into one u64, so relabeled values must
# stay below 16.
MAX_M = 16

# Byte layout of a packed key.  Byte b of a key, position pair (2b, 2b+1),
# is byte 7 - b of this little-endian u64, so the pair that leads is the
# most significant; on a little-endian host the u64 is native and reading
# it as one copies nothing.
_KEY_BYTES = np.dtype("<u8")


def _check_m(m: int) -> None:
    if not 3 <= m <= MAX_M:
        raise ArgumentError(f"cycle length must be in [3, {MAX_M}], got {m}")


# ---------------------------------------------------------------------------
# Bulk (numpy) layer.  Words live in (N, m) uint8 arrays, one word per row,
# and compare through 4-bit packed u64 keys whose integer order is the
# lexicographic order of the words.
# ---------------------------------------------------------------------------


def _pack_nibbles(vals: np.ndarray) -> np.ndarray:
    """Keys of position-major nibble arrays: vals (m, ...) with values < 16.

    Position pairs (2b, 2b+1) become byte b, high nibble first, so integer
    order is the lexicographic order of the nibble sequences.  The bytes are
    ORed in contiguous planes, and each plane is written once, into byte
    7 - b of a zeroed little-endian u64 (_KEY_BYTES).
    """
    m = vals.shape[0]
    byte = np.left_shift(vals[0::2], 4, order="C")
    byte[: m // 2] |= vals[1::2]
    buf = np.zeros(vals.shape[1:] + (8,), dtype=np.uint8)
    # one plane at a time: a single assignment of all of them would run
    # its inner loop over the few bytes of one key
    for b, plane in enumerate(byte):
        buf[..., 7 - b] = plane
    return buf.view(_KEY_BYTES)[..., 0].astype(np.uint64, copy=False)


def unpack_keys(keys: np.ndarray, m: int) -> np.ndarray:
    keys = np.asarray(keys, dtype=_KEY_BYTES, order="C")
    buf = keys[..., None].view(np.uint8)[..., ::-1]  # byte b of the key first
    out = np.empty(keys.shape + (16,), dtype=np.uint8)
    np.right_shift(buf, 4, out=out[..., 0::2])
    np.bitwise_and(buf, 0xF, out=out[..., 1::2])
    return out[..., :m] + np.uint8(1)


def invert_seqs(seqs: np.ndarray) -> np.ndarray:
    """Words of the inverse cycles; stays anchored since entry 0 is fixed."""
    return np.concatenate([seqs[..., :1], seqs[..., :0:-1]], axis=-1)


# Rows per chunk of the canonicalization kernel, and representatives per
# chunk of CycleIndex.chunks.  The kernel's temporaries peak at about
# m(3m + 17) bytes per row while packing (the 2m^2 letters, their byte
# planes and the 16m key bytes) and 2m(2m + 1) while reducing the letters
# mod m (the doubled word, the letters and their sum with m): 0.47 MB a
# chunk at m = 10, 1.1 MB at m = 16.  A chunk of swap neighbours is m rows
# per representative, about m(m + 16) bytes each beside them; the
# coefficient forms about 40m per representative plus 4m per offset of a
# hook's span (0.6 MB a chunk for the single block at m = 10), 2m^2 + 32m
# plus 16m per tableau of any other shape.  So chunks stay in cache and off
# the peak memory of callers that walk whole tables.
_CHUNK_ROWS = 1024


def image_letters(rows: np.ndarray, at: slice = slice(None)) -> np.ndarray:
    """0-based letters of all 2m stabilizer images of (c, m) words at the
    positions j in the slice at, (k, 2, m, c) for k such positions.

    In 0-based values v, entry [j, 0, p] is letter j of the anchored
    difference sequence (v[p + j] - v[p]) mod m: the word shifted in value
    so that v[p] becomes the anchor, rotated so position p leads.  Entry
    [j, 1, p] is letter j of a value shift of the reflected inverse,
    (v[p] - v[p - j]) mod m: the anchored differences of the reversed word,
    negated.  Image [0, 0] of an anchored word is the word itself.
    """
    m = rows.shape[-1]
    # the words doubled, one word per column, so every operation runs along
    # the chunk: for p < 2m, row p of twice is v[p mod m] and row p of back
    # is v[(m - 1 - p) mod m]
    twice = np.empty((2 * m, rows.shape[0]), dtype=np.uint8)
    np.subtract(rows.T, np.uint8(1), out=twice[:m])
    twice[m:] = twice[:m]
    back = twice[::-1]
    ahead = _windows(twice)[at]
    # imgs[j, f, p, i]: entry j of image p of family f of word i
    imgs = np.empty((ahead.shape[0], 2, m, rows.shape[0]), dtype=np.uint8)
    np.subtract(ahead, twice[:m], out=imgs[:, 0])
    np.subtract(back[:m], _windows(back)[at], out=imgs[:, 1])
    # a difference -k of values below m wraps to 256 - k; adding m turns
    # that into m - k, below it, and any x >= 0 into x + m, above it, so
    # the minimum of the two is the difference mod m
    np.minimum(imgs, imgs + np.uint8(m), out=imgs)
    return imgs


def _windows(twice: np.ndarray) -> np.ndarray:
    """Read-only (m, m, c) view of a doubled (2m, c) array with
    [j, p] = twice[p + j]."""
    step, col = twice.strides
    m = twice.shape[0] // 2
    return as_strided(twice, (m, m, twice.shape[1]), (step, step, col), writeable=False)


def _image_keys(rows: np.ndarray) -> np.ndarray:
    """Packed keys of all 2m stabilizer images of (c, m) words, (2, m, c),
    indexed like image_letters."""
    return _pack_nibbles(image_letters(rows))


def shift_families(seqs: np.ndarray) -> np.ndarray:
    """Min packed key over each stabilizer coset of every row, (2, ...).

    Row 0 of the result is the smallest of the m value shifts of the word,
    row 1 the smallest of the m value shifts of its reflected inverse (see
    _image_keys).  Words may be any rotation of an anchored word, since
    every rotation has the same images.
    """
    seqs = np.asarray(seqs, dtype=np.uint8)
    m = seqs.shape[-1]
    rows = seqs.reshape(-1, m)
    out = np.empty((2, rows.shape[0]), dtype=np.uint64)
    for start in range(0, rows.shape[0], _CHUNK_ROWS):
        chunk = rows[start:start + _CHUNK_ROWS]
        out[:, start:start + chunk.shape[0]] = _image_keys(chunk).min(axis=1)
    return out.reshape((2,) + seqs.shape[:-1])


def canonical_keys(seqs: np.ndarray) -> np.ndarray:
    """Packed canonical form of each row under the base-cycle stabilizer.

    The 2m orbit members of a word are the m value shifts of the word and
    the m value shifts of its reflected inverse (reflection about 1 is value
    negation mod m, which is what makes the inversion land back in the
    stabilizer), so the canonical key is the smaller of the two
    shift_families rows.  Rows may be any rotation of an anchored word.
    """
    return shift_families(seqs).min(axis=0)


@lru_cache(maxsize=None)
def _word_tails(k: int) -> np.ndarray:
    """The read-only (k, k!) uint8 orderings of 2..k+1, lexicographic by column."""
    tails = np.ascontiguousarray(lex_permutations(k)[0].T) + np.uint8(2)
    tails.setflags(write=False)
    return tails


def word_blocks(m: int):
    """The (m-1)! anchored words in lexicographic order, as (N, m) uint8
    blocks of at most 8! words, one per ordering of the m - 9 letters after
    the anchor (a single block for m <= 9).  They are made one at a time,
    so the representative filter holds about 3m bytes a word of one block.
    Each block is the transpose of a C-ordered (m, N) array, the layout the
    filter reads; the tail orderings are shared (_word_tails).
    """
    _check_m(m)
    tails = _word_tails(min(m - 1, 8))
    head = m - 1 - tails.shape[0]
    for prefix in itertools.permutations(range(2, m + 1), head):
        cols = np.empty((m, tails.shape[1]), dtype=np.uint8)
        cols[:head + 1] = np.array((1,) + prefix, dtype=np.uint8)[:, None]
        rest = cols[head + 1:]
        rest[:] = tails
        for q in sorted(prefix):  # the tail letters step over each prefix letter
            rest += rest >= q
        yield cols.T


def stabilizer_representatives(m: int) -> tuple[np.ndarray, np.ndarray]:
    """Keys of the words that are their own canonical form, and their fixers.

    The words come in lexicographic order from word_blocks, one block at a
    time, so the keys come out ascending without a sort.  A word represents
    its stabilizer orbit exactly when none of its 2m images is smaller.
    Every image starts with 0 and then one of the word's cyclic consecutive
    differences, so a word whose first difference v[1] is not its smallest
    cannot be one, and only the rest are canonicalized (61,830 of 362,880
    words at m = 10).  The second result, (2, R) uint8, counts the images of
    each representative equal to it, in the value-shift family and in the
    reflected one: its stabilizer, split by whether the element inverts.
    """
    keys, fixed = [], []
    for block in word_blocks(m):
        cols = np.ascontiguousarray(block.T)
        diffs = np.concatenate([cols[1:], cols[:1]]) - cols
        np.minimum(diffs, diffs + np.uint8(m), out=diffs)  # mod m, as in _image_keys
        cands = np.compress(diffs.min(axis=0) == diffs[0], cols, axis=1).T
        for start in range(0, cands.shape[0], _CHUNK_ROWS):
            imgs = _image_keys(cands[start:start + _CHUNK_ROWS])
            own = imgs[0, 0]  # the word itself
            rep = imgs.min(axis=(0, 1)) == own
            keys.append(own[rep])
            fixed.append((imgs == own).sum(axis=1, dtype=np.uint8)[:, rep])
    return np.concatenate(keys), np.concatenate(fixed, axis=1)


# Bytes per stabilizer orbit, about (m-1)!/(2m) of them.  PairTables.build
# peaked 79 MiB above the imports at m = 12 (50 B an orbit) and 716 MiB at
# m = 13 (41 B); m = 11 read 55 to 66 B, mostly RSS granularity.  A level
# asking more than the physical memory is refused (m = 13 asks 1.2 GB).
_PEAK_PER_REPRESENTATIVE = 66


def _physical_memory() -> int:
    """Bytes of physical memory, or 0 where the platform does not say."""
    try:
        return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, ValueError, OSError):
        return 0


def check_fits(need: int, what: str) -> None:
    """ResourceError when what, peaking near need bytes, exceeds the physical memory."""
    have = _physical_memory()
    if have and need > have:
        raise ResourceError(f"{what} needs about {need / 2**30:.1f} GiB, "
                            f"the machine has {have / 2**30:.1f} GiB")


class CycleIndex:
    """The (m-1)! anchored words of one length, keyed by stabilizer orbit.

    No word table is held: the representative filter enumerates the words
    block by block (word_blocks), every table of the package is keyed on
    the stabilizer-orbit representatives, and a word is looked up by its
    orbit (orbit_ids), never by its position among the words.
    """

    def __init__(self, m: int):
        _check_m(m)
        check_fits(_PEAK_PER_REPRESENTATIVE * factorial(m - 1) // (2 * m), f"m={m}")
        self.m = m
        self._representatives: tuple[np.ndarray, np.ndarray] | None = None

    def representatives(self) -> tuple[np.ndarray, np.ndarray]:
        """Canonical keys of the stabilizer orbits, ascending, and how many
        value shifts and reflecting elements fix each (see
        stabilizer_representatives); computed on first use."""
        if self._representatives is None:
            self._representatives = stabilizer_representatives(self.m)
        return self._representatives

    def orbit_ids(self, words: np.ndarray) -> np.ndarray:
        """Position of each row's stabilizer orbit among representatives(),
        for rows that may be arbitrary rotations of anchored words."""
        return np.searchsorted(self.representatives()[0], canonical_keys(words))

    def chunks(self, ids: np.ndarray | None = None):
        """(at, words) of _CHUNK_ROWS representatives at a time, those at ids
        or all: at indexes representatives(), a slice when all are walked,
        and words is (n, m) uint8, so no word table of the set is held."""
        keys = self.representatives()[0]
        n = keys.size if ids is None else len(ids)
        for lo in range(0, n, _CHUNK_ROWS):
            at = slice(lo, lo + _CHUNK_ROWS) if ids is None else ids[lo : lo + _CHUNK_ROWS]
            yield at, unpack_keys(keys[at], self.m)
