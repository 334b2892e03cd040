"""Heap geometry: subtree gather/place, the (shift, mask) steps of subtree
and path reads on one portrait and on every slot of a packed int, prefix
masks and the range check."""

import itertools
import random

import pytest

from treegrp import kernel
from treegrp.heap import (
    gather,
    heap_index,
    in_range,
    level_mask,
    path_steps,
    place,
    prefix_mask,
    subtree_steps,
)
from treegrp.portrait import MAX_DEPTH, FiniteAutomorphism

from oracles import gather_bits, label, scatter_bits, vertex_word

MAX_TESTED_DEPTH = 8


def subtrees(depth):
    """Every (heap index v, size k >= 1) whose subtree fits in `depth` levels."""
    for v in range((1 << depth) - 1):
        for k in range(1, depth - len(vertex_word(v)) + 1):
            yield v, k


def block_positions(v0, levels):
    """The bit positions of the subtree at v0, listed level by level."""
    positions = []
    for lvl in range(levels):
        start = ((v0 + 1) << lvl) - 1
        positions.extend(range(start, start + (1 << lvl)))
    return positions


def test_gather_inverts_place():
    rng = random.Random(5)
    for v, k in subtrees(MAX_TESTED_DEPTH):
        for x in (0, (1 << ((1 << k) - 1)) - 1, rng.getrandbits((1 << k) - 1)):
            assert gather(place(x, v, k), v, k) == x


def test_gather_reads_labels_of_section_and_subpattern():
    rng = random.Random(7)
    for depth in range(1, MAX_TESTED_DEPTH + 1):
        g = FiniteAutomorphism.random(depth, rng)
        for v, k in subtrees(depth):
            w = vertex_word(v)
            expected = 0
            for u in range((1 << k) - 1):
                expected |= label(g, w + vertex_word(u)) << u
            assert gather(g.bits, v, k) == expected
            assert g.subpattern(w, k).bits == expected
            if len(w) + k == depth:
                assert g.section(w).bits == expected


def test_place_matches_scatter_over_positions():
    rng = random.Random(11)
    for v, k in subtrees(MAX_TESTED_DEPTH):
        x = rng.getrandbits((1 << k) - 1)
        assert place(x, v, k) == scatter_bits(x, block_positions(v, k))


def words_up_to(depth):
    """Every vertex word of length 0 .. depth."""
    for length in range(depth + 1):
        for symbols in itertools.product("01", repeat=length):
            yield "".join(symbols)


def prefix_positions(word):
    """Heap indices of the proper prefixes of word, shortest first."""
    return [heap_index(word[:j]) for j in range(len(word))]


def leak_catching_slots(rng, depth):
    """All-ones portraits beside identities, and a random one: a read that
    took a bit from a neighbouring slot would set a bit of an identity's."""
    full = prefix_mask(depth)
    return [full, 0, full, rng.getrandbits((1 << depth) - 1), 0, full]


@pytest.mark.parametrize("depth", range(1, MAX_TESTED_DEPTH + 1))
def test_slot_gather_reads_every_subtree_and_path_of_every_slot(depth):
    # n = 1 is the identity codec, the portrait alone; n = 6 spans the 1-,
    # 2-, 4- and 8-byte struct slots and the byte-joined slots at d >= 7.
    rng = random.Random(13 + depth)
    xs = leak_catching_slots(rng, depth)
    batches = [[b] for b in xs] + [xs]
    for batch in batches:
        n = len(batch)
        pack, unpack, _ = kernel.slot_codec(n, depth)
        x = pack(batch)
        for v, k in subtrees(depth):
            got = list(unpack(kernel.slot_gather(x, n, depth, subtree_steps(v, k))))
            want = [gather_bits(b, block_positions(v, k)) for b in batch]
            assert got == want == [gather(b, v, k) for b in batch], (v, k)
        for word in words_up_to(depth):
            got = list(unpack(kernel.slot_gather(x, n, depth, path_steps(word))))
            assert got == [gather_bits(b, prefix_positions(word)) for b in batch], word


def test_path_steps_invert_scatter_over_the_prefixes():
    rng = random.Random(239)
    for depth in range(1, MAX_TESTED_DEPTH + 1):
        for word in words_up_to(depth):
            v = rng.getrandbits(len(word)) if word else 0
            bits = scatter_bits(v, prefix_positions(word))
            assert kernel.slot_gather(bits, 1, depth, path_steps(word)) == v


def test_prefix_mask_is_union_of_level_masks():
    for k in range(17):
        union = 0
        for j in range(k):
            union |= level_mask(j)
        assert prefix_mask(k) == union


def test_in_range_at_the_boundaries():
    for d in range(1, MAX_DEPTH + 1):
        top = 1 << ((1 << d) - 1)
        for x in (-1, 0, 1, top - 1, top, top + 1, 2 * top):
            assert in_range(x, d) == (0 <= x < top)
