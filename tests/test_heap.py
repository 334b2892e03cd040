"""Heap geometry: subtree gather/place, prefix masks and the range check."""

import random

from treegrp.heap import (
    gather,
    in_range,
    level_mask,
    place,
    prefix_mask,
)
from treegrp.portrait import MAX_DEPTH, FiniteAutomorphism

from oracles import label, scatter_bits, vertex_word

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
