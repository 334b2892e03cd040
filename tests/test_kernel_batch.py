"""Batches of portraits in the kernel's level-major layout: pack against a
reference unpack, sampled chunks against their pairs read one at a time
off each chunk's draws, packed, the
batch ops against the single ops, law_batches against the three batch ops
it stands for, the level half parities and root swap mask against
heap-mask popcounts, and the byte translation tables against their per-bit
definitions."""

import random

import pytest

from treegrp import kernel
from treegrp.heap import half_level_mask

from oracles import (
    batch_members,
    digit_tables_by_bits,
    fold_table_by_bits,
    hex_tables_by_bits,
    pack_by_rows,
    sampled_pairs,
)

BATCH_SIZES = [1, 2, 3, 7, 8, 9, 64]


def unpack(x, n, d):
    """The n heap-indexed portraits of the batch x: sample j's level m is the
    2^m bits from n 2^m + j 2^m on."""
    xs = []
    for j in range(n):
        g = 0
        for m in range(d):
            w = 1 << m
            g |= ((x >> (n * w + j * w)) & ((1 << w) - 1)) << (w - 1)
        xs.append(g)
    return xs


def batches(rng, n, d):
    """A random batch holding the identity and the all-ones portrait when
    n >= 2, a batch of identities and a batch of all-ones portraits."""
    full = (1 << ((1 << d) - 1)) - 1
    mixed = [rng.getrandbits((1 << d) - 1) for _ in range(n)]
    if n >= 2:
        mixed[0], mixed[-1] = 0, full
    return [mixed, [0] * n, [full] * n]


@pytest.mark.parametrize("d", range(1, 13))
def test_pack_round_trips_through_unpack(d):
    rng = random.Random(900 + d)
    for n in BATCH_SIZES:
        for xs in batches(rng, n, d):
            x = kernel.pack(xs, d)
            assert unpack(x, n, d) == xs
            # Only the n 2^d - n vertex bits above the n unused low bits are set.
            assert 0 <= x < 1 << (n << d) and not x & ((1 << n) - 1)
        # One portrait is its t coordinates, heap index + 1.
        assert kernel.pack(xs[:1], d) == xs[0] << 1


@pytest.mark.parametrize("d", range(1, 15))
def test_pack_equals_per_portrait_rows(d):
    # Every slot width from one byte (d <= 3) to 2 KiB, with batch sizes
    # that are and are not powers of two, up to one full chunk.
    rng = random.Random(950 + d)
    for n in (1, 2, 3, 255, kernel.CHUNK_BITS >> d):
        for xs in batches(rng, n, d):
            assert kernel.pack(xs, d) == pack_by_rows(xs, d), n


@pytest.mark.parametrize("stream, d", [("ni", d) for d in range(1, 15)]
                         + [("conjugation", d) for d in range(4, 8)])
def test_sampled_chunks_equal_the_per_draw_stream_packed(stream, d):
    # A wrong level offset, sample stride, draw order or draw width shows in
    # the batches, at every depth from one byte of batch per sample to 2 KiB
    # and with one, whole and cut chunks.
    level = {"ni": 0, "conjugation": d - 1}[stream]
    per_chunk = max(1, kernel.CHUNK_BITS >> d)
    for samples in sorted({1, max(1, per_chunk - 1), per_chunk, per_chunk + 1,
                           3 * per_chunk + 5}):
        for seed in range(3):
            got = list(kernel.sampled_chunks(random.Random(seed), samples, d, level))
            want = list(kernel.packed_chunks(sampled_pairs(d, samples, seed, level), d))
            assert got == want, (samples, seed)


@pytest.mark.parametrize("level", range(6))
def test_sampled_chunks_draw_from_level(level):
    # Every level a draw may start at, levels 1 and 2 included, which share
    # a byte of a row with level 0, at the shallowest depth that has it and
    # at d = 6; x holds no label above its level.
    for d in sorted({level + 1, 6}):
        per_chunk = max(1, kernel.CHUNK_BITS >> d)
        for samples in (1, per_chunk + 1):
            got = list(kernel.sampled_chunks(random.Random(level), samples, d, level))
            pairs = list(sampled_pairs(d, samples, level, level))
            assert got == list(kernel.packed_chunks(pairs, d)), (d, samples)
            assert all(not x & (1 << (1 << level) - 1) - 1 for x, _ in pairs)


def test_sampled_chunks_at_depth_16():
    # One pair is wider than a chunk: each chunk holds one.
    got = list(kernel.sampled_chunks(random.Random(5), 2, 16))
    want = list(kernel.packed_chunks(sampled_pairs(16, 2, 5), 16))
    assert got == want


@pytest.mark.parametrize("level", [-1, 6])
def test_sampled_chunks_reject_levels_they_cannot_draw(level):
    with pytest.raises(ValueError, match="level"):
        next(kernel.sampled_chunks(random.Random(0), 1, 6, level))


def test_translation_tables_equal_their_per_bit_definitions():
    assert kernel._hex_tables() == hex_tables_by_bits()
    assert kernel._fold_table() == fold_table_by_bits()
    assert kernel._digit_tables() == digit_tables_by_bits()


@pytest.mark.parametrize("d", range(1, 13))
def test_batch_ops_equal_single_ops(d):
    rng = random.Random(700 + d)
    for n in BATCH_SIZES:
        for xs, ys in zip(batches(rng, n, d), batches(rng, n, d)[::-1]):
            x, y = kernel.pack(xs, d), kernel.pack(ys, d)
            assert unpack(kernel.compose_batch(x, y, n, d), n, d) == [
                kernel.compose(a, b, d) for a, b in zip(xs, ys)]
            assert unpack(kernel.invert_batch(x, n, d), n, d) == [
                kernel.invert(a, d) for a in xs]
            assert unpack(kernel.conjugate_batch(x, y, n, d), n, d) == [
                kernel.conjugate(a, b, d) for a, b in zip(xs, ys)]
            assert unpack(kernel.commutator_batch(x, y, n, d), n, d) == [
                kernel.commutator(a, b, d) for a, b in zip(xs, ys)]


@pytest.mark.parametrize("d", range(1, 15))
def test_law_batches_equal_the_three_batch_ops(d):
    # Below d = 4 the masks widen past the portrait; one full chunk is the
    # batch the half-tree law check hands over.
    rng = random.Random(750 + d)
    for n in BATCH_SIZES + [kernel.CHUNK_BITS >> d]:
        for xs, ys in zip(batches(rng, n, d), batches(rng, n, d)[::-1]):
            x, y = kernel.pack(xs, d), kernel.pack(ys, d)
            assert kernel.law_batches(x, y, n, d) == (
                kernel.compose_batch(x, y, n, d), kernel.invert_batch(x, n, d),
                kernel.commutator_batch(x, y, n, d)), n


def level_sets(rng, d):
    """Every subset of levels 1..d-1 up to d = 5, a few random ones above."""
    levels = range(1, d)
    if d <= 5:
        return [[m for m in levels if bits >> m & 1] for bits in range(0, 1 << d, 2)]
    return [list(levels)] + [[m for m in levels if rng.random() < 0.4] for _ in range(4)]


@pytest.mark.parametrize("d", range(1, 15))
def test_level_half_parities_are_half_level_popcounts(d):
    # Five batches at once, as the half-tree law check hands them over, in
    # small batches, a full chunk and the last chunk of 5000 pairs (904 at
    # d = 6), on every level set up to d = 5 and random ones above.
    rng = random.Random(800 + d)
    per_chunk = kernel.CHUNK_BITS >> d
    for n in {1, 2, 3, 5, 64, per_chunk, 5000 % per_chunk or per_chunk}:
        xss = batches(rng, n, d) + [[rng.getrandbits((1 << d) - 1) for _ in range(n)]
                                    for _ in range(2)]
        xs = [kernel.pack(ys, d) for ys in xss]
        expected = {m: [sum(((a & half_level_mask(m, i)).bit_count() & 1) << (2 * j + i)
                            for j, a in enumerate(ys) for i in (0, 1)) for ys in xss]
                    for m in range(1, d)}
        for levels in level_sets(rng, d):
            assert kernel.half_parities(xs, n, levels) == {
                m: expected[m] for m in levels}, (n, levels)
        for x, ys in zip(xs, xss):
            assert kernel.root_swap_mask(x, n) == sum((a & 1) << 2 * j for j, a in enumerate(ys))


@pytest.mark.parametrize("d", range(1, 15))
def test_kernel_unpack_inverts_pack(d):
    rng = random.Random(950 + d)
    for n in (1, 2, 7, 64):
        for xs in batches(rng, n, d):
            assert kernel.unpack(kernel.pack(xs, d), n, d) == xs


def test_kernel_unpack_equals_the_digit_reading_at_a_full_chunk():
    # One full chunk of depth-4 portraits, the batch a failing half-tree
    # law chunk is unpacked from, read back against the binary digits.
    rng = random.Random(977)
    n = kernel.CHUNK_BITS >> 4
    for xs in batches(rng, n, 4):
        x = kernel.pack(xs, 4)
        assert kernel.unpack(x, n, 4) == batch_members(x, n, 4) == xs
