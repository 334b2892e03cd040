"""Kernel for bit-packed portrait arithmetic, in pure Python.

A depth-d automorphism is a Python int whose bit k is the label (vertex
permutation, 0 or 1) at heap index k.  Heap indexing: the root is 0, the
children of vertex i are 2i+1 and 2i+2, so level j occupies the contiguous
bit range [2^j - 1, 2^(j+1) - 2].

Convention used throughout: compose(h, g) applies g FIRST, so the label of
the product at vertex u is  label_h(g(u)) XOR label_g(u).

Whole-portrait delta swaps
--------------------------
Write a level-i vertex u as its offset p in [0, 2^i).  g(u) is p with bit k
flipped exactly when g's label at u's ancestor k+1 levels up is 1, and that
condition reads only the bits of p above k.  So on every level at once, the
action of g is d-1 conditional block swaps at distances 2^k, k = 0..d-2, each
a delta swap (Knuth, TAOCP 4A §7.1.3): exchange bits p and p + 2^k of the
portrait wherever the mask M_k is set.  Pulling h back along g (the h-part of
h∘g, whose label at u is h's label at g(u)) applies the swaps for k = d-2
down to 0; pushing g forward along itself (g^-1) applies them for k = 0 up
to d-2.

The masks come from g by bit doubling (Hacker's Delight, ch. 7).  Work with
t = heap index + 1, so level i is [2^i, 2^(i+1)) and the descendants k+1
levels below the vertex at t are [2^(k+1) t, 2^(k+1) (t+1)).  Replacing
every bit of g by the block "2^k copies of the bit, then 2^k zeros" therefore
puts each label over exactly those descendants whose offset has bit k clear:
that is M_k, for every level in one int.  M_0 interleaves g's bits with
zeros, and M_k is M_(k-1) with every bit doubled.  h∘g and g^-1 thus take
d-1 mask steps and d-1 swaps, O(d) operations on whole portraits, in place
of a loop over all 2^d - 1 vertices.

Batches
-------
n portraits of one depth side by side form one int in a level-major layout:
the vertex at level m, offset p, of sample j is bit n 2^m + j 2^m + p.  For
n = 1 these are the t coordinates above.  Level m is the block
[n 2^m, n 2^(m+1)), and sample j's slice of it starts at the block's bit
j 2^m.  The vertex at t = (n + j) 2^m + p has its descendants k+1 levels
below at [2^(k+1) t, 2^(k+1) (t+1)), which are the same sample's vertices
under (m, p).  So the bit widening that builds M_k for one portrait builds
it for the batch, and the delta swaps, which never cross a slice, act on
every sample at once: a batch costs the d-1 mask steps and d-1 swaps of one
portrait, on an int n times as wide.  Only the byte sizes scale with n.
compose, invert, conjugate and commutator are the n = 1 cases of the
*_batch functions, which take batches built by pack; unpack reads a batch
back.  law_batches returns the product, the first operand's inverse and
the commutator of two batches in one call, with each operand's masks
built once and that inverse reused inside the commutator: it is the
half-tree law check's one call per chunk.

half_parities reads per-level half-tree parities off several batches by
the inverse of the widening, on the levels asked for only: it joins the
batches' level-m blocks into one string and XOR-folds it m - 1 times in one
chain.  Each fold translates every byte to the hex digit of its four XOR-ed
bit pairs and unhexlifies, halving the string, so each batch's sample
slices shrink in place until a sample's two halves are two bits.  The law
check's level sets at d = 6 and 8 read the top level alone, so the folds
skip the lower levels, which hold as many bits again, and the five batches
of a chunk share one chain.

Closure
-------
close is Dimino's coset closure (G. Butler, Fundamental Algorithms for
Permutation Groups, LNCS 559, 1991, ch. 1).  Its elements are a list of
whole right cosets of the subgroup H closed so far.  Accepting a generator
g appends H·g; then, for each new coset's representative r in turn and
each accepted generator s with r·s not yet present, it appends
(H·r)·s = H·(r·s).  That coset is disjoint from the list: the list is a
union of right cosets of H, so it either holds all of H·(r·s) or none of
it.  A product x∘s is s XOR x pulled back along s, through the delta swaps
above with s's masks, and one coset takes them all at once.  Its portraits
go side by side into one int in fixed slots of ceil((2^d - 1)/8) bytes
(sample-major, unlike the level-major batches); s's masks, each repeated
in every slot, make the d-1 swaps act on every slot, since masks that fit
the portrait never reach the slot's top bit; and XOR-ing s into every slot
finishes the products, which are read back slot by slot.  A coset goes
through in chunks of at most CHUNK_BITS bits of slots, so the transient
ints stay bounded (a portrait wider than a chunk is a chunk alone).  The
conjugates s^-1 g s of an accepted g by every normalizer element s come
from one such pass over the packed normalizer, its inverses and its masks.
They go on top of the work stack, so they and their own conjugates are all
folded in before the next seed is read: H is then closed under the
normalizer, hence normal in the group S it generates.  A seed g in S
normalizes H, so each earlier generator a keeps each coset H·g^i, as
H·g^i·a = H·(g^i a g^-i)·g^i, and the walk adds only the cosets of g's
powers, one when g^2 lies in H.  Every seed of a derived-subgroup fold is
a commutator of S's generators, so in S; in classify's 16 folds at d = 4,
87 of the 109 steps past each fold's first are of index 2.
Each coset then costs O(d) operations on chunk-wide ints plus one
membership probe per (representative, generator), in place of a
Python-level product per element.  The cap is checked before a coset is
built, so a refused closure never holds more than cap elements.  A
closure runs at the depth its inputs occupy: portraits with no label
below level L - 1 multiply among themselves as depth-L portraits, so
slots of 2^L bits do the work that slots of 2^d bits would.

slot_codec packs portraits into fixed byte slots of one int for close's
cosets, the listing in gf2 (spanned in them by whole-int doubling), the
members of subgroups.EnumeratedSubgroup and pack's rows, where a slot is
one big-endian row once shifted into t coordinates.  slot_gather reads
every slot at once through (shift, mask) steps, each one shift and one
AND with the broadcast mask: a mask alone (shift 0), a k-level subtree
(heap.subtree_steps: level l of the subtree at v is
(x >> (v << l)) & level_mask(l), each kept bit from a higher bit of the
same portrait, so nothing crosses a slot) or the left-path labels
(heap.path_steps of 0^d: the label at 2^k - 1 moves to bit k).  So
EnumeratedSubgroup's masked(mask), its members' classes and child classes
and their left-path vectors are each one read and one unpack, as are the
children of the few members patterns.is_essential tests; slot_runs reads
each doubling run of slots the same way, when reached, for the readers
that stop once their answer is fixed.  EnumeratedSubgroup's
count_clear(mask) and count_odd(mask) fold each masked slot onto its low
bit, by OR and by XOR, for one bit_count.
subgroups.conjugation_law_counts reads its pairs' labels off the batches
in one byte per pair and uses no codec.

The byte translation tables of _swap_masks, half_parities and pack
(_hex_tables, _fold_table and _digit_tables) are worked out on all their
bytes at once, as one int: each shift is followed by an AND with a
per-byte mask, which keeps every byte's bits inside that byte.  A fresh
process pays a few whole-int operations for them instead of a loop over
the bits of every byte.
"""

from __future__ import annotations

import struct
import sys
from binascii import hexlify, unhexlify
from functools import cache, lru_cache
from itertools import islice, repeat
from operator import itemgetter
from random import Random
from typing import Callable, Iterable, Iterator, Sequence

from .errors import EnumerationCapExceeded


def backend_name() -> str:
    """Name of the kernel that runs, as recorded in benchmark environments."""
    return "pure"


def has_c_kernel() -> bool:
    """Whether a compiled kernel is present: it never is."""
    return False


_HEX_DIGITS = b"0123456789abcdef"


def _bytes(count: int) -> int:
    """The bytes 0 .. count-1 side by side as one int, each below the next."""
    return int.from_bytes(bytes(range(count)), "big")


def _each(byte: int, count: int) -> int:
    """The byte repeated count times, as one int."""
    return int.from_bytes(bytes((byte,)) * count, "big")


#: Translates a byte holding a nibble value to that value's ASCII hex digit.
_NIBBLE_DIGITS = _HEX_DIGITS.ljust(256, b"\0")


@cache
def _hex_tables() -> tuple[bytes, ...]:
    """Byte translations of an ASCII hex digit to its nibble zero-interleaved, and doubled."""
    v = _bytes(16)
    v = (v | v << 2) & _each(0x33, 16)
    v = (v | v << 1) & _each(0x55, 16)  # nibble bit i at bit 2i
    tables = []
    for widened in (v, v | v << 1):
        table = bytearray(256)
        for c, b in zip(_HEX_DIGITS, widened.to_bytes(16, "big")):
            table[c] = b
        tables.append(bytes(table))
    return tuple(tables)


@cache
def _fold_table() -> bytes:
    """Byte translation of a byte to the ASCII hex digit of its four XOR-ed bit pairs."""
    v = _bytes(256)
    v = (v ^ v >> 1) & _each(0x55, 256)  # pair i's XOR at bit 2i
    v = (v | v >> 1) & _each(0x33, 256)
    v = (v | v >> 2) & _each(0x0F, 256)
    return v.to_bytes(256, "big").translate(_NIBBLE_DIGITS)


@cache
def _digit_tables() -> tuple[bytes, ...]:
    """Byte translations of a byte to its bits [2^m, 2^(m+1)) as one digit in
    base 2^(2^m), for m = 0, 1, 2: the levels a t-coordinate portrait keeps
    in its lowest byte."""
    v = _bytes(256)
    return tuple((v >> w & _each((1 << w) - 1, 256)).to_bytes(256, "big").translate(_NIBBLE_DIGITS)
                 for w in (1, 2, 4))


def _swap_masks(x: int, n: int, d: int) -> list[int]:
    """M_0 .. M_(d-2) of the batch x of n depth-d portraits.

    Each step widens the low half of the previous mask (x itself for M_0):
    its hex digits are its nibbles, and one translation turns each digit
    into the byte holding that nibble widened.
    """
    size = ((n << d) + 7) >> 3  # bytes of the batch
    half = (size + 1) >> 1  # only bits below n 2^(d-1) land inside the batch
    table, double = _hex_tables()
    b = x.to_bytes(size, "big")
    masks = []
    for _ in range(d - 1):
        b = hexlify(b[-half:]).translate(table)
        masks.append(int.from_bytes(b, "big"))
        table = double
    return masks


def _pull(x: int, masks: list[int]) -> int:
    """x pulled back along g (t coordinates): the result at u is x at g(u)."""
    for k in range(len(masks) - 1, -1, -1):
        s = 1 << k
        t = (x ^ (x >> s)) & masks[k]
        x ^= t ^ (t << s)
    return x


def _push(x: int, masks: list[int]) -> int:
    """x pushed forward along g (t coordinates): the result at g(u) is x at u."""
    for k, m in enumerate(masks):
        s = 1 << k
        t = (x ^ (x >> s)) & m
        x ^= t ^ (t << s)
    return x


def pack(xs: Sequence[int], d: int) -> int:
    """The depth-d portraits xs (heap-indexed ints) as one batch, xs[j] as sample j."""
    n = len(xs)
    row = slot_bytes(d)  # bytes of one portrait in t coordinates
    # Big-endian rows, last sample first: the same run of bytes taken from
    # every row, in row order, is a big-endian level block.  A row is one
    # slot of slot_codec and each slot's top bit is clear, so shifting the
    # packed slots by one shifts every portrait into t coordinates inside
    # its own row.
    rows = (slot_codec(n, d)[0](xs) << 1).to_bytes(n * row, "big")
    blocks = []
    for m in range(d - 1, 2, -1):  # level m >= 3 is 2^(m-3) whole bytes of a row
        w = 1 << (m - 3)
        lo = row - 2 * w
        block = bytearray(n * w)
        for i in range(w):  # one strided column per byte of the level slice
            block[i::w] = rows[lo + i::row]
        blocks.append(block)
    out = int.from_bytes(b"".join(blocks), "big") << (n << 3)
    low = rows[row - 1::row]  # levels 0, 1 and 2 share each row's last byte
    for m, table in enumerate(_digit_tables()[:d]):
        out |= int(low.translate(table), 1 << (1 << m)) << (n << m)
    return out


def unpack(x: int, n: int, d: int) -> list[int]:
    """The n depth-d portraits (heap-indexed ints) of the batch x, inverting
    pack: sample j's level m is the 2^m bits of x from (n + j) 2^m on.

    Read off x's binary digits, most significant first: each level block
    is sliced once, into its samples' pieces, and each portrait is its
    pieces joined from the deepest level up, one int() each.
    """
    size = n << d
    digits = format(x, f"0{size}b")
    levels = []
    for m in range(d - 1, -1, -1):
        w = 1 << m
        block = digits[size - (n << m + 1):size - (n << m)]  # sample n - 1 first
        levels.append([block[i:i + w] for i in range((n - 1) * w, -1, -w)])
    return [int("".join(pieces), 2) for pieces in zip(*levels)]


#: Bits of batch in one chunk of a pair stream, and of packed slots in one
#: chunk of a coset in close (one portrait where a portrait is wider).  It
#: bounds the transient memory, whatever the number of pairs or coset size.
CHUNK_BITS = 1 << 16


#: A packed chunk of a pair stream: (n, pack(xs), pack(ys)) for its n pairs
#: (x, y).  Sample j's labels on level m are the 2^m bits of its batch from
#: (n + j) 2^m on, its heap bits from 2^m - 1 on: a reader of a single
#: pair takes them level by level.
Chunk = tuple[int, int, int]


def packed_chunks(pairs: Iterable[tuple[int, int]], d: int) -> Iterator[Chunk]:
    """The stream of depth-d portrait pairs (x, y), cut into packed chunks.

    Each chunk holds at most CHUNK_BITS bits of batch, and at least one
    pair.
    """
    pairs = iter(pairs)
    per_chunk = max(1, CHUNK_BITS >> d)
    while chunk := list(islice(pairs, per_chunk)):
        xs, ys = zip(*chunk)
        yield len(chunk), pack(xs, d), pack(ys, d)


def sampled_chunks(rng: Random, samples: int, d: int, level: int = 0) -> Iterator[Chunk]:
    """`samples` seeded random pairs (x, y) of depth-d portraits, drawn from
    rng in packed_chunks' chunks, each chunk of n pairs as
    x = rng.getrandbits(n (2^d - 2^level)) << (n 2^level), then
    y = rng.getrandbits(n (2^d - 1)) << n.

    A batch holds its labels in bits [n, n 2^d), so a uniform draw of those
    bits is n uniform depth-d portraits; x's draw starts at level `level`
    (0 <= level < d), so x has labels on levels level..d-1 only.  The pairs
    depend on the seed, on CHUNK_BITS and on where `samples` cuts the last
    chunk: the first k pairs of a longer stream need not be the stream of k.
    """
    if not 0 <= level < d:
        raise ValueError(f"level must be in 0..{d - 1}, got {level}")
    per_chunk = max(1, CHUNK_BITS >> d)
    for start in range(0, samples, per_chunk):
        n = min(per_chunk, samples - start)
        x = rng.getrandbits(n * ((1 << d) - (1 << level))) << (n << level)
        yield n, x, rng.getrandbits(n * ((1 << d) - 1)) << n


def half_parities(xs: Sequence[int], n: int, levels: Iterable[int]) -> dict[int, list[int]]:
    """Half-tree parities of the batches xs of n depth-d portraits, on each
    of the levels in `levels` (all in 1 .. d-1).

    Entry m is a list with one 2n-bit int per batch, in the order of xs,
    whose bit 2j + i is the parity of sample j's level-m labels under the
    root's child i.  Level m's block is the n 2^m bits from n 2^m on.  The
    blocks of every batch are joined, the first one highest, and each
    XOR-fold halves every sample's slice, so after m - 1 folds batch k's
    parities are the 2n bits at 2n (len(xs) - 1 - k).
    """
    low = (1 << 2 * n) - 1
    fold = _fold_table()
    out = {}
    for m in levels:
        w = n << m
        joined, below = 0, (1 << 2 * w) - 1  # the AND keeps the shift off the batch
        for x in xs:
            joined = joined << w | (x & below) >> w
        b = joined.to_bytes((len(xs) * w + 7) >> 3, "big")
        for _ in range(m - 1):
            b = unhexlify((b"\0" * (len(b) & 1) + b).translate(fold))
        v = int.from_bytes(b, "big")
        out[m] = [v >> 2 * n * k & low for k in range(len(xs) - 1, -1, -1)]
    return out


def root_swap_mask(x: int, n: int) -> int:
    """Bit 2j set where sample j of the batch x moves the root.

    This is the level-1 block of x's M_0, the delta-swap mask that exchanges
    each sample's pair of half-tree bits at 2j, 2j + 1 where its root is
    active.
    """
    return _swap_masks(x & ((1 << 2 * n) - 1), n, 2)[0] >> 2 * n


def compose_batch(h: int, g: int, n: int, d: int) -> int:
    """Products h_j∘g_j of two batches: pulls h's labels back along g's action."""
    return g ^ _pull(h, _swap_masks(g, n, d))


def invert_batch(g: int, n: int, d: int) -> int:
    """Inverses: the label of g_j^-1 at g_j(v) equals the label of g_j at v."""
    return _push(g, _swap_masks(g, n, d))


def conjugate_batch(x: int, s: int, n: int, d: int) -> int:
    """s_j^-1 x_j s_j, i.e. compose_batch(compose_batch(invert_batch(s), x), s)."""
    ms = _swap_masks(s, n, d)
    inv_s = _push(s, ms)
    return s ^ _pull(x ^ _pull(inv_s, _swap_masks(x, n, d)), ms)


def _commutator(x: int, y: int, mx: list[int], my: list[int], inv_x: int) -> int:
    """x^-1 y^-1 x y from the masks of x and y and the inverse of x.

    Pulling back along y^-1 is pushing forward along y, so x^-1∘y^-1 is
    push_y(y XOR x^-1) and only the masks of x and y are needed.
    """
    return y ^ _pull(x ^ _pull(_push(y ^ inv_x, my), mx), my)


def commutator_batch(x: int, y: int, n: int, d: int) -> int:
    """x_j^-1 y_j^-1 x_j y_j for two batches."""
    mx = _swap_masks(x, n, d)
    return _commutator(x, y, mx, _swap_masks(y, n, d), _push(x, mx))


def law_batches(g: int, h: int, n: int, d: int) -> tuple[int, int, int]:
    """g_j∘h_j, g_j^-1 and g_j^-1 h_j^-1 g_j h_j for two batches.

    The same batches as compose_batch(g, h), invert_batch(g) and
    commutator_batch(g, h), from one mask build per operand and one push
    of g.
    """
    mg, mh = _swap_masks(g, n, d), _swap_masks(h, n, d)
    inv_g = _push(g, mg)
    return h ^ _pull(g, mh), inv_g, _commutator(g, h, mg, mh, inv_g)


def compose(h: int, g: int, d: int) -> int:
    """Product h∘g (g applied first)."""
    return compose_batch(h << 1, g << 1, 1, d) >> 1


def invert(g: int, d: int) -> int:
    """Inverse of g."""
    return invert_batch(g << 1, 1, d) >> 1


def conjugate(x: int, s: int, d: int) -> int:
    """s^-1 x s."""
    return conjugate_batch(x << 1, s << 1, 1, d) >> 1


def commutator(x: int, y: int, d: int) -> int:
    """x^-1 y^-1 x y."""
    return commutator_batch(x << 1, y << 1, 1, d) >> 1


def _right_masks(s: int, d: int) -> list[int]:
    """The delta-swap masks of s in heap coordinates: x∘s is s ^ _pull(x, masks).

    They are s's t-coordinate masks shifted down by one bit.  No mask has
    bit 0 (t = 0 is no vertex), so the swaps act on x as they would on x << 1.
    Below d = 4 the t-coordinate masks also widen the last level's labels
    past the portrait; those bits are cut off, so the masks fit the 2^d - 1
    portrait bits and, broadcast to every slot of a packed coset, stay in it.
    """
    portrait = (1 << ((1 << d) - 1)) - 1
    return [m >> 1 & portrait for m in _swap_masks(s << 1, 1, d)]


_ORDER = sys.byteorder
#: struct formats of the slot widths that are one machine word.
_WORD_FORMATS = {1: "B", 2: "H", 4: "I", 8: "Q"}


def slot_bytes(d: int) -> int:
    """Bytes of one slot of a depth-d portrait: ceil((2^d - 1) / 8)."""
    return ((1 << d) + 6) >> 3


@lru_cache(maxsize=64)
def slot_codec(n: int, d: int) -> tuple[Callable, Callable, Callable]:
    """pack, unpack and broadcast for n depth-d portraits in slots of one int.

    A slot is w = slot_bytes(d) bytes, portrait i is slot i and the
    bytes are in sys.byteorder, so pack(xs) is the int whose bytes are
    those of xs[0], xs[1], ... each in w bytes, and unpack(x) reads them
    back.  broadcast(x) puts x in every slot.  The top bit of every slot is
    clear, so delta swaps whose masks fit the portrait never cross a slot.
    One slot is the portrait itself.
    """
    if n == 1:
        return itemgetter(0), lambda x: (x,), lambda x: x
    w = slot_bytes(d)
    size = n * w
    if w in _WORD_FORMATS:  # struct packs and unpacks machine words in C
        layout = struct.Struct(f"={n}{_WORD_FORMATS[w]}")
        ones = int.from_bytes((1).to_bytes(w, _ORDER) * n, _ORDER)

        def pack(xs):
            return int.from_bytes(layout.pack(*xs), _ORDER)

        def unpack(x):
            return layout.unpack(x.to_bytes(size, _ORDER))

        def broadcast(x):
            return x * ones  # one word times the slot repunit: linear in n
    else:
        def pack(xs):
            return int.from_bytes(b"".join(map(int.to_bytes, xs, repeat(w), repeat(_ORDER))),
                                  _ORDER)

        def unpack(x):
            b = x.to_bytes(size, _ORDER)
            return [int.from_bytes(b[i:i + w], _ORDER) for i in range(0, size, w)]

        def broadcast(x):  # x times the repunit would grow as w^2 n
            return int.from_bytes(x.to_bytes(w, _ORDER) * n, _ORDER)
    return pack, unpack, broadcast


def slot_gather(x: int, n: int, d: int, steps: Iterable[tuple[int, int]]) -> int:
    """Every slot of x, packed as slot_codec(n, d) packs it, read through
    the (shift, mask) steps: each slot becomes the OR of its bits
    (slot >> shift) & mask.  With heap.subtree_steps(v, k) each slot holds
    its k-level subtree at heap index v, with heap.path_steps(word) the
    labels at word's proper prefixes.  Each mask must fit the portrait and
    each kept bit come from the same portrait (a subtree that fits it, a
    word no longer than d), so nothing crosses a slot: one shift and one
    AND of the whole int per step, whatever n."""
    broadcast = slot_codec(n, d)[2]
    out = 0
    for shift, mask in steps:
        out |= (x >> shift if shift else x) & broadcast(mask)
    return out


#: Slots in the first run of slot_runs.
FIRST_RUN = 1 << 8


def slot_runs(x: int, n: int, d: int, steps: Sequence[tuple[int, int]]) -> Iterator[Sequence[int]]:
    """The n slots of x, packed as slot_codec(n, d) packs them, each read
    through steps, in order and in runs: FIRST_RUN slots, then runs as long
    as all before them, the last cut short (one empty run when n = 0).
    Each run is cut off x, by a shift past the runs before it and an AND
    below the runs after it, and read as a listing of its own: one
    slot_gather and the unpack of slot_codec(k, d).  So a reader that
    stops after the first run never reads or converts the rest of x; one
    that reads every run shifts x once per run past the first."""
    bits = slot_bytes(d) << 3
    start, k = 0, min(FIRST_RUN, n)
    while True:
        run = x >> start * bits if start else x  # x >> 0 would copy x
        if start + k < n:
            run &= (1 << k * bits) - 1
        yield slot_codec(k, d)[1](slot_gather(run, k, d, steps))
        start += k
        if start == n:
            return
        k = min(start, n - start)


def close(d: int, gens: list[int], cap: int, normalizer: Sequence[int] = ()) -> set[int]:
    """Subgroup generated by gens, as a set of portrait ints.

    gens is a work list folded in one generator at a time; a generator
    already inside the current subgroup H costs only a membership test.  An
    accepted generator g extends H to <H, g> by Dimino's coset closure (see
    Closure above): append the coset H·g, then walk the new cosets'
    representatives r in order and append (H·r)·s for every accepted s with
    r·s not yet present, a chunk of at most CHUNK_BITS bits of packed slots
    at a time.  Each accepted generator also pushes its conjugates s^-1 g s
    by every normalizer element s, all from one packed pass, on top of the
    work stack, so they come before the next seed (see Closure above: a
    seed inside <normalizer> then walks only its own powers).  The result N
    is generated by the accepted set A, and A^s lies in N for every s, so s
    normalizes N: N is the normal closure of gens under the group the
    normalizer generates (finite groups need no inverse conjugators, since
    N^s <= N forces N^s = N).  Only accepted generators are conjugated, at
    most log2|N| packed passes.  The cap is checked before each coset is
    built, so a closure that would pass it raises EnumerationCapExceeded,
    reporting exactly cap + 1, while it holds at most cap elements.

    The closure runs at the depth the inputs occupy: the fewest levels L
    (1 <= L <= d) that hold every label of gens and normalizer.  A product
    of portraits with no label below level L - 1 has none either, and on
    the top L levels the depth-d product is the depth-L one, so the result
    is the same set of ints, with slots of 2^L bits in place of 2^d.
    """
    # Heap bit b - 1 lies on level b.bit_length() - 1.
    d = min(d, max(1, max(map(int.bit_length, (*gens, *normalizer)), default=0).bit_length()))
    per_chunk = max(1, CHUNK_BITS >> max(d, 3))  # slots of max(2^d, 8) bits
    if normalizer:
        k = len(normalizer)
        pack_n, unpack_n, broadcast_n = slot_codec(k, d)
        conjugators = pack_n(normalizer)
        conjugator_masks = [pack_n(ms) for ms in zip(*(_right_masks(s, d) for s in normalizer))]
        inverses = _push(conjugators, conjugator_masks)
    els = [0]  # whole right cosets of H, H itself first
    seen = {0}
    accepted: list[tuple[int, list[int]]] = []
    work = list(reversed(gens))  # a stack, read from its end
    while work:
        g = work.pop()
        if g in seen:
            continue
        g_masks = _right_masks(g, d)
        accepted.append((g, g_masks))
        h = len(els)  # |H|: every coset is a run of h elements
        # h and per_chunk are powers of two (every subgroup of the 2-group
        # of depth-d portraits has 2-power order), so a coset is a whole
        # number of chunks of n slots.
        n = min(h, per_chunk)
        pack, unpack, broadcast = slot_codec(n, d)
        # The coset H·1 = H is closed under the earlier generators, so only
        # g acts on it; every later coset's representative meets them all.
        start, steps = 0, accepted[-1:]
        while start < len(els):
            r = els[start]
            for s, masks in steps:
                if s ^ _pull(r, masks) in seen:
                    continue
                if len(els) + h > cap:
                    raise EnumerationCapExceeded(cap, cap + 1)
                wide_s, wide_masks = broadcast(s), [broadcast(m) for m in masks]
                for lo in range(start, start + h, n):
                    ys = unpack(wide_s ^ _pull(pack(els[lo:lo + n]), wide_masks))
                    seen.update(ys)
                    els += ys
            start, steps = start + h, accepted
        if normalizer:  # s^-1 g s = (s^-1∘g)∘s in every slot, as in conjugate_batch
            inv_s_g = broadcast_n(g) ^ _pull(inverses, [broadcast_n(m) for m in g_masks])
            work += unpack_n(conjugators ^ _pull(inv_s_g, conjugator_masks))
    return seen
