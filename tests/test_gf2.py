"""GF(2) linear algebra validated against exhaustive span enumeration."""

import random

import pytest

from treegrp import gf2, kernel
from treegrp.heap import level_mask, prefix_mask
from treegrp.subgroups import maximal_subgroup

from oracles import (
    linear_essential_reduction_by_rref,
    rref_by_full_reduction,
    span_by_lists,
)


def brute_span(rows):
    span = {0}
    for r in rows:
        span |= {v ^ r for v in span}
    return span


def random_system(rng):
    n = rng.randrange(1, 12)
    rows = [rng.getrandbits(n) for _ in range(rng.randrange(0, 8))]
    return n, rows


def test_rref_rank_and_span_against_bruteforce():
    rng = random.Random(211)
    for _ in range(200):
        n, rows = random_system(rng)
        basis = gf2.rref(rows)
        span = brute_span(rows)
        assert 1 << len(basis) == len(span)
        assert brute_span(basis) == span
        assert gf2.rank(rows) == len(basis)


def test_rref_is_fully_reduced():
    rng = random.Random(223)
    for _ in range(200):
        _, rows = random_system(rng)
        basis = gf2.rref(rows)
        pivots = [b.bit_length() - 1 for b in basis]
        assert pivots == sorted(pivots, reverse=True)
        for i, b in enumerate(basis):
            for j, p in enumerate(pivots):
                if i != j:
                    assert not (b >> p) & 1


def test_elimination_matches_the_full_reduction_oracle():
    # Seeded random row sets of 0..40 rows over 1..64 bits, and every row
    # set the reduction of a P_J at d = 2..7 eliminates.
    rng = random.Random(241)
    row_sets = []
    for _ in range(300):
        n = rng.randrange(1, 65)
        row_sets.append([rng.getrandbits(n) for _ in range(rng.randrange(0, 41))])
    for d in range(2, 8):
        for bits in range(1, 1 << d):
            J = {j for j in range(d) if bits >> j & 1}
            linear_essential_reduction_by_rref(maximal_subgroup(d, J), row_sets)
    for rows in row_sets:
        full = rref_by_full_reduction(rows)
        assert gf2.rank(rows) == len(full)
        assert gf2.rref(rows) == full
        basis = gf2.echelon(rows)
        pivots = [b.bit_length() - 1 for b in basis]
        assert all(basis) and pivots == sorted(set(pivots), reverse=True)
        assert rref_by_full_reduction(basis) == full


def test_in_span_matches_bruteforce():
    rng = random.Random(227)
    for _ in range(100):
        n, rows = random_system(rng)
        pivots = {b.bit_length() - 1: b for b in gf2.rref(rows)}
        span = brute_span(rows)
        for _ in range(20):
            v = rng.getrandbits(n)
            assert (gf2.reduce_vector(v, pivots) == 0) == (v in span)


def test_nullspace_is_exact_orthogonal_complement():
    rng = random.Random(229)
    for _ in range(200):
        n, rows = random_system(rng)
        ns = gf2.nullspace(rows, n)
        assert len(ns) == n - gf2.rank(rows)
        solutions = brute_span(ns)
        assert len(solutions) == 1 << len(ns)
        for v in solutions:
            assert all((v & r).bit_count() & 1 == 0 for r in rows)
        # every in-kernel vector is produced: count the kernel directly
        kernel_count = sum(
            1 for v in range(1 << n)
            if all((v & r).bit_count() & 1 == 0 for r in rows)
        ) if n <= 10 else None
        if kernel_count is not None:
            assert kernel_count == len(solutions)


def test_dual_of_dual_recovers_span():
    rng = random.Random(233)
    for _ in range(100):
        n, rows = random_system(rng)
        basis = gf2.rref(rows)
        checks = gf2.nullspace(basis, n)
        assert gf2.rref(gf2.nullspace(checks, n)) == basis


def test_linear_subgroup_order_and_membership():
    rng = random.Random(241)
    for _ in range(50):
        d = rng.randrange(2, 4)
        n = (1 << d) - 1
        checks = tuple(rng.getrandbits(n) for _ in range(rng.randrange(0, 4)))
        lin = gf2.LinearSubgroup(d, checks)
        members = [
            b for b in range(1 << n)
            if all((b & c).bit_count() & 1 == 0 for c in checks)
        ]
        assert lin.order() == len(members)
        assert sorted(lin.iter_bits()) == members
        for b in members:
            assert lin.contains_bits(b)


def test_listing_beyond_one_block_has_every_member_once():
    # 14 and 13 basis vectors: listings of 16,384 and 8,192 members.
    for checks in [(level_mask(2),), (level_mask(1), 0b101 << 7)]:
        lin = gf2.LinearSubgroup(4, checks)
        listed = list(lin.iter_bits())
        assert len(listed) == len(set(listed)) == lin.order()
        assert set(listed) == {b for b in range(1 << 15) if lin.contains_bits(b)}


def test_linear_subgroup_refuses_huge_listing():
    lin = gf2.LinearSubgroup(6, ())
    with pytest.raises(ValueError):
        list(lin.iter_bits())


def test_zero_mask_equals_explicit_unit_checks():
    rng = random.Random(251)
    for _ in range(300):
        d = rng.randrange(1, 5)
        n = (1 << d) - 1
        checks = tuple(rng.getrandbits(n) for _ in range(rng.randrange(0, 4)))
        zero = rng.getrandbits(n) & rng.getrandbits(n)
        lin = gf2.LinearSubgroup(d, checks, zero)
        units = gf2.LinearSubgroup(d, checks + tuple(1 << k for k in range(n) if zero >> k & 1))
        assert lin.log2_order() == units.log2_order()
        assert lin.basis() == units.basis()
        if d <= 3:
            assert list(lin.iter_bits()) == list(units.iter_bits())
            for b in range(1 << n):
                assert lin.contains_bits(b) == units.contains_bits(b)
        else:
            assert sorted(lin.iter_bits()) == sorted(units.iter_bits())
            for _ in range(200):
                b = rng.getrandbits(n) & ~(zero if rng.getrandbits(1) else 0)
                assert lin.contains_bits(b) == units.contains_bits(b)


def test_linear_subgroup_contains_checks_depth():
    from oracles import generator

    lin = gf2.LinearSubgroup(3, (1,))
    assert lin.contains_bits(generator(3, 1).bits) and generator(3, 1) in lin
    assert not lin.contains_bits(generator(3, 0).bits)
    with pytest.raises(ValueError):
        generator(2, 1) in lin


def test_span_equals_the_list_doubling():
    # Random vectors, not always independent, at every slot width up to d = 8
    # (32-byte slots, wider than a machine word).
    rng = random.Random(263)
    for d in range(1, 9):
        n = (1 << d) - 1
        for k in range(15):
            basis = [rng.getrandbits(n) for _ in range(k)]
            slots = kernel.slot_codec(1 << k, d)[1](gf2._span(basis, d))
            assert list(slots) == span_by_lists(basis), (d, k)


def listings_of_every_size(rng):
    """Parity-check subgroups at d = 1..8 of every dimension 0 .. min(14,
    2^d - 1): zero clears all but a few random bits, and random checks on
    those cut the dimension to the target."""
    for d in range(1, 9):
        n = (1 << d) - 1
        for k in range(min(n, 14) + 1):
            free = rng.sample(range(n), min(n, k + 2))
            kept = sum(1 << f for f in free)
            while True:
                checks = tuple(rng.getrandbits(n) & kept for _ in range(len(free) - k))
                lin = gf2.LinearSubgroup(d, checks, zero=prefix_mask(d) & ~kept)
                if lin.log2_order() == k:
                    yield lin
                    break


def test_packed_listing_is_the_doubled_span_of_the_basis():
    # Every dimension 0 .. 14 at d = 1 .. 8: the packed slots are the span
    # doubled over the basis, and iter_bits lists them slot for slot.
    rng = random.Random(269)
    sizes = set()
    for lin in listings_of_every_size(rng):
        basis = lin.basis()
        members = list(kernel.slot_codec(1 << len(basis), lin.depth)[1](lin.packed()))
        assert members == span_by_lists(basis), lin.depth
        for k in range(len(basis) + 1):
            assert set(members[:1 << k]) == set(span_by_lists(basis[:k]))
        listed = list(lin.iter_bits())
        assert len(set(members)) == len(members) and members == listed
        assert lin.packed(basis) == lin.packed()
        sizes.add(len(basis))
    assert sizes == set(range(15))
