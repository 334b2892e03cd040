"""Pattern groups: essentiality, reduction, dimension, truncations.

Brute-force oracles: the reduction is re-run here as a literal filter
iteration over element lists; truncation groups are compared against a
filter of the full deeper group by subpattern membership and against a scan
of every (root bit, section, section) candidate one level up, and the cap
refuses a truncation group exactly when its order |H(n)| exceeds it,
before any level is listed; the embedding index is read off the listed
truncation groups and held against the order bookkeeping identity.  The parity-check reduction is held against the
basis-space reference in tests/oracles.py.
"""

import itertools
import random
from fractions import Fraction

import pytest

from treegrp import gf2, kernel, patterns, subgroups
from treegrp.errors import EnumerationCapExceeded, VerificationError
from treegrp.heap import gather, level_mask, place, prefix_mask
from treegrp.patterns import (
    PatternGroup,
    _ensure_essential,
    _extend_one_level,
    essential_reduction,
    hausdorff_dimension,
    is_allowed_dimension,
    is_essential,
    linear_essential_reduction,
    linear_hausdorff_dimension,
    linear_truncation_group,
    psi_image_index,
    truncation_group,
    truncation_orbits,
)
from treegrp.portrait import FiniteAutomorphism, identity
from treegrp.subgroups import (
    EnumeratedSubgroup,
    all_subgroups_depth2,
    close,
    enumerate_PJ,
    full_group,
    is_transitive_on_level,
    level_stabilizer,
    maximal_subgroup,
    orbit,
)
from treegrp.verify import (
    PROBE_DEPTH_EXTRA,
    PROBE_ORDER_LIMIT,
    _reduced_pj,
    _top_level_sets,
    verify_new_relation,
)

from oracles import (
    generator,
    linear_essential_reduction_by_basis,
    linear_essential_reduction_by_rref,
    rref_by_full_reduction,
    truncation_orbits_by_members,
    verify_closed,
)


def nonempty_level_sets(d):
    return [
        frozenset(j for j in range(d) if (bits >> j) & 1)
        for bits in range(1, 1 << d)
    ]


def pj_pattern(d, J):
    return PatternGroup.from_subgroup(enumerate_PJ(d, J))


def path_vectors(s, n):
    """subgroups.orbit of 0^n under s, each image word as an int whose bit k
    is its symbol k: the form of TruncationLevel.orbit."""
    return frozenset(int(w[::-1], 2) for w in orbit(s, "0" * n))


def is_finite(p):
    """Whether the constrained group defined by P is finite (dimension zero).

    Test-only: no verdict reads finiteness off this order; the aux suite
    holds the dimension against orbits of the truncation groups instead.
    """
    p = _ensure_essential(p)
    return level_stabilizer(p.group, p.depth - 1).order == 1


def pattern_appears(pat, g, w):
    """Whether the size-k pattern `pat` appears at vertex w in g (test-only)."""
    return g.subpattern(w, pat.depth) == pat


def oracle_reduction_bits(group, d):
    """Literal fixpoint of the child-extension filter, on element objects."""
    current = {FiniteAutomorphism(d, b) for b in group.element_bits}
    while True:
        truncations = {g.subpattern("", d - 1) for g in current}
        kept = {
            g for g in current
            if g.subpattern("0", d - 1) in truncations
            and g.subpattern("1", d - 1) in truncations
        }
        if kept == current:
            return {g.bits for g in current}
        current = kept


def pinning_cases():
    """Every P_J at d = 2, 3, 4, the ten depth-2 subgroups and 15 seeded
    random depth-3 subgroups, as (J or None, subgroup)."""
    cases = [(None, s) for s in all_subgroups_depth2()]
    rng = random.Random(401)
    cases += [
        (None, close(3, [FiniteAutomorphism.random(3, rng).bits for _ in range(2)]))
        for _ in range(15)
    ]
    cases += [(J, enumerate_PJ(d, J)) for d in (2, 3, 4) for J in nonempty_level_sets(d)]
    return cases


def oracle_truncation_bits(pattern, n):
    """Filter the full depth-n group by all size-d subpattern tests."""
    d = pattern.depth
    member = pattern.group.element_bits
    out = set()
    vertices = [""]
    for _ in range(n - d):
        vertices += [v + x for v in vertices for x in "01" if len(v) == len(vertices[0])]
    vertices = {v for v in _words_up_to(n - d)}
    for b in full_group(n).element_bits:
        g = FiniteAutomorphism(n, b)
        if all(g.subpattern(v, d).bits in member for v in vertices):
            out.add(b)
    return out


def candidate_scan_bits(h_bits, m, d, member_bits):
    """Depth-(m+1) truncation group by testing every (root bit, section,
    section) assembly of depth-m elements for an allowed root pattern."""
    root_pattern = prefix_mask(d)
    rights = [place(b1, 2, m) for b1 in h_bits]
    out = set()
    for b0 in h_bits:
        left = place(b0, 1, m)
        for right in rights:
            for root in (0, 1):
                g = root | left | right
                if g & root_pattern in member_bits:
                    out.add(g)
    return out


def _words_up_to(max_len):
    words = [""]
    frontier = [""]
    for _ in range(max_len):
        frontier = [w + x for w in frontier for x in "01"]
        words += frontier
    return words


# -- essentiality ----------------------------------------------------------------


def test_full_group_is_essential():
    for d in (2, 3, 4):
        assert is_essential(PatternGroup.from_subgroup(full_group(d))).essential


def test_p0_at_depth2_not_essential_with_expected_witness():
    res = is_essential(pj_pattern(2, {0}))
    assert not res.essential
    bits, child = res.witness
    # the witness carries its nontrivial label at vertex "0" only: its
    # section there is a root swap, while every member truncates trivially
    assert bits == 1 << 1  # heap index 1 is vertex "0"
    assert child == 0


def test_pj_essential_iff_top_level_in_J():
    for d in (2, 3, 4):
        for J in nonempty_level_sets(d):
            assert is_essential(pj_pattern(d, J)).essential == (d - 1 in J)


def reference_is_essential(p, tested=None):
    """The per-member subtree walk over P, or over `tested` in its order:
    (verdict, (witness bits, child) or None)."""
    d = p.depth
    truncations = {b & prefix_mask(d - 1) for b in p.group.element_bits}
    for b in p.group.element_bits if tested is None else tested:
        for i in (0, 1):
            if gather(b, 1 + i, d - 1) not in truncations:
                return False, (b, i)
    return True, None


def essentiality_cases():
    """pinning_cases' subgroups, 15 seeded random generated groups at d = 4,
    and, listed with no generators, every P_J at d = 2, 3, 4 (essential
    exactly when d - 1 is in J) and the M_V at d = 3 over one or two
    vertices (none essential)."""
    rng = random.Random(433)
    cases = [s for _, s in pinning_cases()]
    cases += [close(4, [FiniteAutomorphism.random(4, rng).bits for _ in range(2)])
              for _ in range(15)]
    cases += [EnumeratedSubgroup.from_linear(maximal_subgroup(d, J))
              for d in (2, 3, 4) for J in nonempty_level_sets(d)]
    cases += [EnumeratedSubgroup.from_linear(subgroups.M_V(3, V))
              for V in ({"00"}, {"01"}, {"00", "11"}, {"01", "10"})]
    return cases


def test_is_essential_matches_subtree_walk_with_its_witness():
    # The verdict is the whole-member walk's.  The witness is the first
    # failing child of P's generators, child 0 first, or of every member in
    # sorted_bits() order when P was built with none.
    children = set()
    verdicts = {True: 0, False: 0}
    for s in essentiality_cases():
        p = PatternGroup.from_subgroup(s)
        res = is_essential(p)
        essential, _ = reference_is_essential(p)
        assert res.essential == essential
        verdicts[essential] += 1
        tested = s.generators or s.sorted_bits()
        assert res == reference_is_essential(p, tested)
        if not essential:
            children.add(res.witness[1])
    assert children == {0, 1}
    assert min(verdicts.values()) >= 20


def test_tested_members_match_subtree_walk_with_its_witness():
    # The members handed in are walked in their order, child 0 first.
    rng = random.Random(409)
    children = set()
    for _, s in pinning_cases():
        p = PatternGroup.from_subgroup(s)
        members = sorted(s.element_bits)
        for tested in (members[:64], rng.sample(members, min(len(members), 64))):
            res = is_essential(p, tested=tested)
            essential, witness = reference_is_essential(p, tested)
            assert res.essential == essential
            if essential:
                assert res.witness is None
            else:
                assert res.witness == witness
                children.add(witness[1])
    assert children == {0, 1}


def _counting_unpacks(monkeypatch):
    """A one-item list that counts the members every kernel.slot_codec
    unpack returns from here on: the members a read of a listing takes,
    whole or a kernel.slot_runs run at a time, since each run is an unpack
    of its own.  is_essential's slot-wise read of the children of the
    members it tests (patterns._tested_children) packs and unpacks those
    few members, not the listing, so it is not counted."""
    read = [0]
    real_codec = kernel.slot_codec
    real_children = patterns._tested_children

    def counted(members):
        read[0] += len(members)
        return members

    def codec(n, d):
        pack, unpack, broadcast = real_codec(n, d)
        return pack, lambda x: counted(unpack(x)), broadcast

    def uncounted_children(*args):
        before = read[0]
        children = real_children(*args)
        read[0] = before
        return children

    monkeypatch.setattr(kernel, "slot_codec", codec)
    monkeypatch.setattr(patterns, "_tested_children", uncounted_children)
    return read


def test_tested_essentiality_and_level_d_orbit_stop_within_the_first_run(monkeypatch):
    # from_linear doubles its listing over a basis ordered by heap column,
    # so at d = 4 the first 2^8 members already hold every truncation a
    # basis member's children need and every left-path label vector.
    read = _counting_unpacks(monkeypatch)
    for J in nonempty_level_sets(4):
        checks = linear_essential_reduction(maximal_subgroup(4, J))[0]
        basis = checks.basis()
        group = EnumeratedSubgroup.from_linear(checks, basis)
        p = PatternGroup(4, group, essential=True)
        read[0] = 0
        assert is_essential(p, tested=basis) == (True, None)
        assert read[0] <= 256
        read[0] = 0
        level = next(truncation_orbits(p))
        assert read[0] <= 256
        assert level.orbit == path_vectors(group, 4)
        assert is_essential(PatternGroup.from_subgroup(group)) == (True, None)


def test_stops_wait_for_members_past_the_first_run(monkeypatch):
    # G(4) packed with every member that has a label under `mask` last:
    # the first 2^(15 - popcount(mask)) slots show only the zero image.
    read = _counting_unpacks(monkeypatch)
    members = list(gf2.LinearSubgroup(4, ()).iter_bits())
    left_path = 1 | 1 << 1 | 1 << 3 | 1 << 7
    tested = [generator(4, i).bits for i in range(4)]
    for mask in (left_path, prefix_mask(3)):
        group = EnumeratedSubgroup.from_element_bits(4, members)
        ordered = sorted(members, key=lambda b: (b & mask != 0, b))
        group._packed = kernel.slot_codec(len(ordered), 4)[0](ordered)
        p = PatternGroup(4, group, essential=True)
        want = path_vectors(group, 4)
        read[0] = 0
        if mask == left_path:
            assert next(truncation_orbits(p)).orbit == want
        else:
            assert is_essential(p, tested=tested) == (True, None)
        assert 1 << 15 - mask.bit_count() < read[0] <= 1 << 15


def test_failing_tested_essentiality_stops_at_the_truncation_image(monkeypatch):
    # A listing of one run (d = 2, 3) is read whole; at d = 4 the first
    # 2^8 members already hold all 64 truncations, |P| / |St_P(3)|.
    read = _counting_unpacks(monkeypatch)
    for d in (2, 3, 4):
        for J in nonempty_level_sets(d):
            if d - 1 in J:
                continue  # P_J is essential exactly when d - 1 is in J
            lin = maximal_subgroup(d, J)
            basis = lin.basis()
            p = PatternGroup.from_subgroup(EnumeratedSubgroup.from_linear(lin, basis))
            read[0] = 0
            res = is_essential(p, tested=basis)
            assert read[0] == (p.order if d < 4 else 256)
            assert (res.essential, res.witness) == reference_is_essential(p, basis)


def test_failing_stop_waits_for_an_image_completed_in_a_later_run(monkeypatch):
    # P_{2} at d = 4 packed with the 256 members of one truncation class
    # from slot `start` on: the image is complete only in the run that
    # holds them (runs of 256, 256, 512, 1024, ... slots), and the witness
    # is the one a full read gives.
    read = _counting_unpacks(monkeypatch)
    lin = maximal_subgroup(4, {2})
    basis = lin.basis()
    members = sorted(lin.iter_bits())
    last = max(b & prefix_mask(3) for b in members)
    cls = [b for b in members if b & prefix_mask(3) == last]
    others = [b for b in members if b & prefix_mask(3) != last]
    group = EnumeratedSubgroup.from_element_bits(4, members)
    p = PatternGroup.from_subgroup(group)
    for start, expected in ((512, 1024), (len(others), p.order)):
        ordered = others[:start] + cls + others[start:]
        group._packed = kernel.slot_codec(len(ordered), 4)[0](ordered)
        for tested in (basis, basis[::-1]):
            read[0] = 0
            res = is_essential(p, tested=tested)
            assert read[0] == expected
            assert (res.essential, res.witness) == reference_is_essential(p, tested)


def test_failing_stop_checks_the_stabilizer_count(monkeypatch):
    # A stabilizer count off by a factor of two makes the image smaller
    # than the truncations read; one that is no power of two is refused.
    lin = maximal_subgroup(4, {2})
    basis = lin.basis()
    p = PatternGroup.from_subgroup(EnumeratedSubgroup.from_linear(lin, basis))
    real = EnumeratedSubgroup.count_clear
    for wrong, message in ((lambda n: 2 * n, "64 truncations read"),
                           (lambda n: n - 1, "stabilizer order 255 is not a power of two")):
        monkeypatch.setattr(EnumeratedSubgroup, "count_clear",
                            lambda self, mask, wrong=wrong: wrong(real(self, mask)))
        with pytest.raises(VerificationError, match=message):
            is_essential(p, tested=basis)


def test_tested_members_may_come_as_a_generator():
    for d in (2, 3, 4):
        for J in nonempty_level_sets(d):
            pj = maximal_subgroup(d, J)
            for lin in (pj, linear_essential_reduction(pj)[0]):
                basis = lin.basis()
                p = PatternGroup.from_subgroup(EnumeratedSubgroup.from_linear(lin, basis))
                assert is_essential(p, tested=iter(basis)) == is_essential(p, tested=basis)


def test_essentiality_needs_depth_at_least_two():
    with pytest.raises(ValueError):
        is_essential(PatternGroup.from_subgroup(close(1, [generator(1, 0).bits])))


# -- reduction --------------------------------------------------------------------


def test_reduction_fixes_essential_groups():
    for d in (2, 3):
        for J in nonempty_level_sets(d):
            if d - 1 not in J:
                continue
            p = pj_pattern(d, J)
            assert essential_reduction(p).group == p.group


def test_reduction_of_p0_at_depth2_is_trivial():
    red = essential_reduction(pj_pattern(2, {0}))
    assert red.group.order == 1
    assert red.essential


def test_reduction_matches_literal_filter_oracle():
    for J, s in pinning_cases():
        # at d = 4 the slow oracle runs only on P_J that reduce in four
        # passes, in two, and not at all (essential)
        if s.depth == 4 and J not in ({0}, {1, 2}, {3}):
            continue
        red = essential_reduction(PatternGroup.from_subgroup(s))
        assert red.group.element_bits == oracle_reduction_bits(s, s.depth)
        assert is_essential(red).essential


def test_reduction_output_is_a_subgroup():
    rng = random.Random(409)
    for _ in range(10):
        s = close(3, [FiniteAutomorphism.random(3, rng).bits for _ in range(2)])
        red = essential_reduction(PatternGroup.from_subgroup(s))
        assert verify_closed(red.group)


# -- dimension -----------------------------------------------------------------------


def test_dimension_of_full_groups_is_one():
    for d in (2, 3, 4):
        assert hausdorff_dimension(PatternGroup.from_subgroup(full_group(d))) == 1


def test_dimension_examples():
    assert hausdorff_dimension(pj_pattern(2, {1})) == Fraction(1, 2)
    assert hausdorff_dimension(pj_pattern(4, {3})) == Fraction(7, 8)


def test_dimension_of_maximal_pattern_groups():
    for d in (2, 3, 4):
        for J in nonempty_level_sets(d):
            if d - 1 in J:
                assert hausdorff_dimension(pj_pattern(d, J)) == 1 - Fraction(1, 1 << (d - 1))


def test_dimension_rejects_non_essential_input():
    with pytest.raises(ValueError):
        hausdorff_dimension(pj_pattern(2, {0}))


def test_stabilizer_order_not_a_power_of_two_is_a_verification_failure():
    # Three portraits that fix the root, marked essential: not a group, and
    # the stabilizer count reads all three.
    fake = EnumeratedSubgroup.from_element_bits(2, {0b000, 0b010, 0b100})
    with pytest.raises(VerificationError, match="stabilizer order 3 is not a power of two"):
        hausdorff_dimension(PatternGroup(2, fake, essential=True))


def test_stabilizer_count_equals_the_unpacked_count():
    # count_clear folds each packed slot onto its low bit; masked(...).count(0)
    # unpacks every member.  Every P_J at d <= 4 and its reduction, the
    # depth-2 sweep groups and theirs, and one-member groups, under every
    # prefix mask (the dimension reads level d-1's).
    sweep = all_subgroups_depth2()
    groups = sweep + [essential_reduction(PatternGroup.from_subgroup(s)).group for s in sweep]
    for d in (2, 3, 4):
        for J in nonempty_level_sets(d):
            pj = enumerate_PJ(d, J)
            groups += [pj, essential_reduction(PatternGroup.from_subgroup(pj)).group]
    groups += [EnumeratedSubgroup.from_element_bits(d, {b})
               for d in (1, 2, 4) for b in (0, 1, 1 << ((1 << d) - 2))]
    for group in groups:
        for n in range(group.depth + 1):
            mask = prefix_mask(n)
            assert group.count_clear(mask) == group.masked(mask).count(0), (group, n)
    trivial = EnumeratedSubgroup.from_element_bits(3, {0})
    assert hausdorff_dimension(PatternGroup.from_subgroup(trivial)) == 0


@pytest.mark.parametrize("d", range(1, 9))
def test_odd_count_equals_the_unpacked_parity_count(d):
    # count_odd XOR-folds each packed slot onto its low bit; the reference
    # counts each member's parity under the mask.  d = 1..8 spans slots of
    # 1 to 32 bytes.  Listings (P_J, over more than one block of 2^12 at
    # d = 4, and a random check with nine free bits above), closures,
    # from_element_bits groups (packed on first use) and one-member groups,
    # under every P_J check (so every level mask), no mask and every bit.
    rng = random.Random(463 + d)
    n = (1 << d) - 1
    if d <= 4:
        lins = [maximal_subgroup(d, {0}), maximal_subgroup(d, {d - 1})]
    else:
        free = sum(1 << k for k in rng.sample(range(n), 9))
        lins = [gf2.LinearSubgroup(d, (rng.getrandbits(n),), zero=prefix_mask(d) & ~free)]
    groups = [EnumeratedSubgroup.from_linear(lin) for lin in lins]
    groups += [EnumeratedSubgroup.from_element_bits(d, lin.iter_bits()) for lin in lins]
    closed = close(d, [generator(d, 0).bits, generator(d, d - 1).bits])
    groups += [closed, level_stabilizer(closed, d - 1)]
    if d <= 3:
        groups.append(close(d, [FiniteAutomorphism.random(d, rng).bits for _ in range(2)]))
    groups += [EnumeratedSubgroup.from_element_bits(d, {b})
               for b in (0, 1, 1 << n - 1, rng.getrandbits(n))]
    masks = [subgroups.level_set_mask(d, J) for J in nonempty_level_sets(d)] + [0, -1]
    for group in groups:
        for mask in masks:
            expected = sum((b & mask).bit_count() & 1 for b in group.element_bits)
            assert group.count_odd(mask) == expected, (group, mask)


def test_dimension_allowed_set_on_depth2_sweep():
    seen = set()
    for s in all_subgroups_depth2():
        red = essential_reduction(PatternGroup.from_subgroup(s))
        dim = hausdorff_dimension(red)
        assert is_allowed_dimension(red, dim)
        seen.add(dim)
        assert dim in {Fraction(0), Fraction(1, 2), Fraction(1)}
        assert (dim == 0) == is_finite(red)
        if dim == 1:
            assert red.group == full_group(2)
    assert seen == {Fraction(0), Fraction(1, 2), Fraction(1)}


def test_allowed_dimension_one_compares_the_order_with_the_full_group():
    # A trivial depth-5 group claimed at dimension 1 is refused by its
    # order, without listing the 2^31 elements of G(5).
    trivial5 = PatternGroup(5, EnumeratedSubgroup.from_element_bits(5, [0]))
    assert not is_allowed_dimension(trivial5, Fraction(1))
    assert is_allowed_dimension(PatternGroup.from_subgroup(full_group(2)), Fraction(1))
    assert not is_allowed_dimension(pj_pattern(2, {1}), Fraction(1))


def transitive_one_level_down(p):
    """Level transitivity read off orbits of the depth-(d+1) truncation group."""
    n = p.depth + 1
    return is_transitive_on_level(truncation_group(p, n).group, n)


def test_finiteness_and_transitivity():
    trivial = PatternGroup.from_subgroup(close(2, []))
    assert is_finite(trivial) and not transitive_one_level_down(trivial)
    for d in (2, 3):
        full = PatternGroup.from_subgroup(full_group(d))
        assert not is_finite(full) and transitive_one_level_down(full)
        p = pj_pattern(d, {d - 1})
        assert not is_finite(p) and transitive_one_level_down(p)


# -- truncation groups ------------------------------------------------------------------


def test_truncation_group_at_pattern_depth_is_p_itself():
    p = pj_pattern(2, {1})
    assert truncation_group(p, 2).group == p.group


def test_truncation_group_order_resolved_by_bruteforce():
    p = pj_pattern(2, {1})
    tg = truncation_group(p, 3)
    oracle = oracle_truncation_bits(p, 3)
    assert tg.group.element_bits == oracle
    assert tg.group.order == 16  # three independent parity constraints on 7 bits


def test_truncation_groups_match_bruteforce_filter():
    for d, J, n in [(2, {1}, 3), (2, {1}, 4), (2, {0, 1}, 3), (3, {2}, 4), (3, {1, 2}, 4)]:
        p = pj_pattern(d, J)
        assert truncation_group(p, n).group.element_bits == oracle_truncation_bits(p, n)


def test_truncation_groups_are_subgroups():
    for d, J, n in [(2, {1}, 3), (2, {1}, 4), (2, {0, 1}, 4), (3, {2}, 4)]:
        tg = truncation_group(pj_pattern(d, J), n)
        assert verify_closed(tg.group)


def test_truncation_projective_consistency_enumerated():
    for d, J in [(2, {1}), (2, {0, 1}), (3, {2}), (3, {0, 2})]:
        p = pj_pattern(d, J)
        upper = d + 2 if d == 2 else d + 1
        for n in range(d + 1, upper + 1):
            big = truncation_group(p, n).group
            small = truncation_group(p, n - 1).group
            mask = (1 << ((1 << (n - 1)) - 1)) - 1
            assert {b & mask for b in big.element_bits} == small.element_bits


def test_truncation_refuses_non_essential_patterns():
    with pytest.raises(ValueError):
        truncation_group(pj_pattern(2, {0}), 3)


def test_truncation_cap_guard():
    with pytest.raises(EnumerationCapExceeded):
        truncation_group(pj_pattern(3, {2}), 5, cap=1 << 20)


def test_truncation_groups_of_depth2_reductions_match_bruteforce_filter():
    # The essential reductions of all ten depth-2 subgroups, none of them a
    # P_J; equal reductions (four are trivial) are filtered once.
    reduced = {}
    for s in all_subgroups_depth2():
        p = essential_reduction(PatternGroup.from_subgroup(s))
        reduced.setdefault(p.group.element_bits, p)
    for p in reduced.values():
        for n in (3, 4):
            assert truncation_group(p, n).group.element_bits == oracle_truncation_bits(p, n)


def test_join_matches_candidate_scan():
    # Depth 5 for the reduced P_{1} and P_{0,1} at d = 4 (256 elements each)
    # and for the d = 3 reductions of order 1 and 16; the order-64 ones at
    # d = 3 stop at depth 4, since their depth-5 scan has 2^25 candidates.
    cases = [essential_reduction(pj_pattern(4, J)) for J in ({1}, {0, 1})]
    cases += [essential_reduction(pj_pattern(3, J)) for J in nonempty_level_sets(3)]
    for p in cases:
        d, member = p.depth, p.group.element_bits
        joins = list(p.group.child_classes())
        h = member
        for m in range(d, 5):
            if 2 * len(h) * len(h) > 1 << 17:
                break
            joined = _extend_one_level(h, m, d, joins)
            assert joined == candidate_scan_bits(h, m, d, member)
            h = joined


def test_join_with_child_subpatterns_in_no_section_class():
    # a_1 swaps at vertex "0", so its child-1 subpattern is the root swap;
    # the only section here is the identity, so a_1 joins nothing.
    g = generator(2, 1).bits
    joins = list(EnumeratedSubgroup.from_element_bits(2, {0, g}).child_classes())
    out = _extend_one_level(frozenset({0}), 2, 2, joins)
    assert out == candidate_scan_bits({0}, 2, 2, {0, g}) == {0}


@pytest.mark.parametrize("d, J, n, reached", [
    (2, {1}, 3, 16), (2, {1}, 4, 256), (3, {2}, 4, 4096)])
def test_truncation_cap_boundary(d, J, n, reached):
    # reached is |H(n)|, the order of the group the call lists.
    p = pj_pattern(d, J)
    assert truncation_group(p, n, cap=reached).group.order == reached
    with pytest.raises(EnumerationCapExceeded) as err:
        truncation_group(p, n, cap=reached - 1)
    assert err.value.reached == reached
    assert str(err.value) == (f"enumeration cap of {reached - 1} elements exceeded "
                              f"(reached {reached}); depth-{n} truncation group")


def test_truncation_cap_refusal_lists_no_level(monkeypatch):
    # |H(n)| is counted, not listed, so a refused call never joins a level;
    # at depth d the group is P itself, returned whatever the cap.
    def no_listing(*args):
        raise AssertionError("a level was listed")
    monkeypatch.setattr(patterns, "_extend_one_level", no_listing)
    p = pj_pattern(3, {2})
    for n, order in ((4, 4096), (5, 1 << 24)):
        with pytest.raises(EnumerationCapExceeded) as err:
            truncation_group(p, n, cap=order - 1)
        assert err.value.reached == order
    assert truncation_group(p, 3, cap=1).group == p.group


@pytest.mark.parametrize("d, J, n, reached", [
    (2, {1}, 3, 32), (2, {1}, 4, 512), (3, {2}, 4, 8192)])
def test_truncation_orbits_cap_boundary(monkeypatch, d, J, n, reached):
    # reached is the retired 2|H(n-1)|^2 candidate count, which used to
    # refuse level n; here it is twice |H(n)|.  The counted levels now meet
    # no cap, not even a default of 1, and truncation_group's cap bounds
    # |H(n)| only, so reached - 1 lets level n be listed.
    p = pj_pattern(d, J)
    monkeypatch.setenv("TREEGRP_CAP", "1")
    levels = truncation_orbits(p)
    counted = [next(levels) for _ in range(d, n + 1)]
    assert [level.depth for level in counted] == list(range(d, n + 1))
    assert counted[-1].order == reached // 2
    assert truncation_group(p, n, cap=reached - 1).group.order == reached // 2


@pytest.mark.parametrize("d, J, reached", [(2, {1}, 32), (3, {2}, 8192)])
def test_psi_index_cap_boundary(monkeypatch, d, J, reached):
    # The index stabilizes at n = d, so the deepest level counted is d + 1,
    # whose retired candidate count reached used to refuse under a smaller
    # cap.  The count meets no cap, not even a default of 1.
    p = pj_pattern(d, J)
    uncapped = psi_image_index(p)
    monkeypatch.setenv("TREEGRP_CAP", "1")
    index = psi_image_index(p)
    assert index.stabilized
    assert index.per_depth[-1][0] == d
    assert index == uncapped


def test_relation_suite_cap_bounds_only_its_listings():
    # The embedding index counts its truncation levels (up to |H(4)| = 2^12
    # at d = 3) without listing them, so only the listed groups meet the
    # cap; the largest is G(3), with 128 elements.
    assert verify_new_relation(3, cap=128).passed
    with pytest.raises(EnumerationCapExceeded) as err:
        verify_new_relation(3, cap=127)
    assert str(err.value) == ("enumeration cap of 127 elements exceeded; "
                              "the full depth-3 group has order 2^7")


def test_truncation_orbits_match_listed_truncation_groups():
    # Every group the aux suite probes, at every level its probe reaches:
    # the counted order and orbit of 0^n equal those of the listed H(n).
    cases = [essential_reduction(PatternGroup.from_subgroup(s))
             for s in all_subgroups_depth2()]
    cases += [_reduced_pj(d, J, None)[0]
              for d in (2, 3, 4) for J in nonempty_level_sets(d)]
    probed = 0
    for p in cases:
        d = p.depth
        for n, level in enumerate(truncation_orbits(p), start=d):
            h = truncation_group(p, n).group
            assert level.depth == n
            assert level.order == h.order
            assert level.orbit == path_vectors(h, n)
            probed += n > d
            if n == d + PROBE_DEPTH_EXTRA or level.order > PROBE_ORDER_LIMIT:
                break
    # 24 of these levels past d are the ones verify --suite aux --d 4 probes.
    assert probed == 40


def test_truncation_orbits_equal_the_per_member_join():
    # The 25 groups verify --suite aux --d 4 probes (the ten reduced depth-2
    # sweep groups and the 15 reduced P_J at d = 4) and the reductions of
    # random subgroups at d <= 4, each generated by three portraits with
    # labels on a random set of levels, and the uneven member sets below,
    # at n = d .. d + 3: the pair-wise join on slot-wise classes gives the
    # order and orbit of the join run member by member.
    cases = [PatternGroup(2, EnumeratedSubgroup.from_element_bits(2, members), essential=True)
             for members in ({0b000, 0b010, 0b100, 0b001}, {0b000, 0b010, 0b100})]
    cases += [essential_reduction(PatternGroup.from_subgroup(s)) for s in all_subgroups_depth2()]
    cases += [_reduced_pj(4, J, None)[0] for J in nonempty_level_sets(4)]
    rng = random.Random(37)
    for d in (2, 3, 4):
        for _ in range(6):
            gens = [rng.getrandbits((1 << d) - 1)
                    & sum(level_mask(j) for j in range(d) if rng.random() < 0.6)
                    for _ in range(3)]
            cases.append(essential_reduction(PatternGroup.from_subgroup(close(d, gens))))
    assert len({p.order for p in cases if p.depth == 4}) >= 4
    for p in cases:
        levels = itertools.islice(truncation_orbits(p), 4)
        assert [(level.depth, level.order, level.orbit) for level in levels] == \
            truncation_orbits_by_members(p, 4)


@pytest.mark.parametrize("members", [{0b000, 0b010, 0b100, 0b001}, {0b000, 0b010, 0b100}])
def test_truncation_orbits_join_on_uneven_classes(members):
    # In a group every class of top d - 1 levels that occurs has the same
    # size, so a count that read one child class twice would pass on every
    # group.  These member sets are no groups: classed by the root bit, the
    # first has three members with root 0 and one with root 1, the second
    # none with root 1, which the child-1 class of 0b010 and the child-2
    # class of 0b100 then name.  The join must still match truncation_group.
    p = PatternGroup(2, EnumeratedSubgroup.from_element_bits(2, members), essential=True)
    for n, level in zip(range(2, 5), truncation_orbits(p)):
        h = truncation_group(p, n).group
        assert (level.depth, level.order, level.orbit) == (n, h.order, path_vectors(h, n))


# -- embedding index ------------------------------------------------------------------------


def listed_psi_index(p, max_depth=None):
    """psi_image_index from listed truncation groups: |H(n)|^2 over the
    number of root-fixing elements of H(n+1), with H(d - 1) the truncations
    of P's members; each root-fixing element's two sections must lie in
    H(n)."""
    d = p.depth
    max_depth = d + 2 if max_depth is None else max_depth

    def listed(n):
        if n < d:
            return {b & prefix_mask(n) for b in p.group.element_bits}
        return truncation_group(p, n).group.element_bits

    per_depth = []
    for n in range(d - 1, max_depth + 1):
        h, stab = listed(n), [b for b in listed(n + 1) if not b & 1]
        assert all(gather(b, v, n) in h for b in stab for v in (1, 2))
        idx, rem = divmod(len(h) ** 2, len(stab))
        assert rem == 0
        per_depth.append((n, idx))
        if len(per_depth) > 1 and per_depth[-2][1] == idx:
            return True, idx, tuple(per_depth)
    return False, None, tuple(per_depth)


def test_psi_index_matches_listed_truncation_groups():
    # The relation suite's cases at d = 2 and 3, the ten depth-2 sweep
    # reductions and one max_depth cut: the counted index and its per-depth
    # values equal those read off the listed truncation groups.
    cases = [(pj_pattern(d, J), None) for d in (2, 3) for J in _top_level_sets(d)]
    cases += [(PatternGroup.from_subgroup(full_group(d)), None) for d in (2, 3)]
    cases += [(essential_reduction(PatternGroup.from_subgroup(s)), None)
              for s in all_subgroups_depth2()]
    cases.append((pj_pattern(3, {2}), 2))  # one index, unstabilized
    for p, max_depth in cases:
        assert tuple(psi_image_index(p, max_depth=max_depth)) == \
            listed_psi_index(p, max_depth)


def test_psi_index_is_two_for_maximal_cases():
    for d in (2, 3):
        for J in nonempty_level_sets(d):
            if d - 1 not in J:
                continue
            res = psi_image_index(pj_pattern(d, J))
            assert res.stabilized and res.value == 2
            assert len(res.per_depth) >= 2
            assert res.per_depth[-1][1] == res.per_depth[-2][1]


def test_psi_index_is_one_for_full_pattern_groups():
    for d in (2, 3):
        res = psi_image_index(PatternGroup.from_subgroup(full_group(d)))
        assert res.stabilized and res.value == 1


def test_psi_index_bookkeeping_identity():
    for d in (2, 3):
        for J in nonempty_level_sets(d):
            if d - 1 not in J:
                continue
            p = pj_pattern(d, J)
            res = psi_image_index(p)
            stab = level_stabilizer(p.group, d - 1)
            assert 2 * p.order == stab.order ** 2 * res.value


def test_psi_index_with_inconsistent_counts_is_a_verification_failure(monkeypatch):
    # Three times the true |H(2)| of G(2): the stabilizer order 12 does not
    # divide |H(1)|^2 = 4.
    real = patterns.truncation_orbits
    monkeypatch.setattr(patterns, "truncation_orbits", lambda p: (
        level._replace(order=3 * level.order) for level in real(p)))
    with pytest.raises(VerificationError, match=r"\|H\(2\)_1\| = 12 does not divide"):
        psi_image_index(PatternGroup.from_subgroup(full_group(2)))


def test_psi_index_unstabilized_budget_reports_depths():
    p = pj_pattern(2, {1})
    res = psi_image_index(p, max_depth=1)
    assert res.stabilized is False and res.value is None
    assert [n for n, _ in res.per_depth] == [1]


# -- pattern occurrence -------------------------------------------------------------------------


def test_identity_pattern_appears_everywhere_in_identity():
    e = identity(4)
    for v in _words_up_to(2):
        assert pattern_appears(identity(2), e, v)
        assert pattern_appears(identity(4 - len(v)), e, v)


def test_root_swap_pattern_in_a1():
    a1 = generator(2, 1)
    p = generator(1, 0)
    assert pattern_appears(p, a1, "0")
    assert not pattern_appears(p, a1, "1")
    assert not pattern_appears(p, a1, "")


def test_pattern_appears_matches_subpattern_on_random_inputs():
    rng = random.Random(419)
    for _ in range(10_000):
        d = rng.randrange(2, 7)
        g = FiniteAutomorphism.random(d, rng)
        wlen = rng.randrange(d)
        w = "".join(rng.choice("01") for _ in range(wlen))
        k = rng.randrange(1, d - wlen + 1)
        p = FiniteAutomorphism.random(k, rng)
        assert pattern_appears(p, g, w) == (g.subpattern(w, k) == p)


def test_pattern_appears_range_error():
    with pytest.raises(ValueError):
        pattern_appears(identity(3), identity(3), "0")


# -- GF(2) fast path vs enumeration ------------------------------------------------------------


def test_linear_pipeline_matches_enumeration_everywhere():
    for d in (2, 3, 4):
        for J in nonempty_level_sets(d):
            lin = maximal_subgroup(d, J)
            pj = enumerate_PJ(d, J)
            assert lin.order() == pj.order
            assert set(lin.iter_bits()) == set(pj.element_bits)
            red_lin, was_ess = linear_essential_reduction(lin)
            p = PatternGroup.from_subgroup(pj)
            assert was_ess == is_essential(p).essential
            red = essential_reduction(p)
            assert set(red_lin.iter_bits()) == set(red.group.element_bits)
            assert linear_hausdorff_dimension(red_lin) == hausdorff_dimension(red)


def test_essentiality_tested_on_a_basis_matches_every_member():
    # A parity-check solution set is closed under XOR, so the members that
    # pass the child-extension test do too: testing a basis decides it.
    for d in (2, 3, 4):
        for J in nonempty_level_sets(d):
            lin = maximal_subgroup(d, J)
            for group in (lin, linear_essential_reduction(lin)[0]):
                p = PatternGroup.from_subgroup(
                    EnumeratedSubgroup.from_element_bits(d, group.iter_bits()))
                essential = is_essential(p).essential
                assert is_essential(p, tested=group.basis()).essential == essential
                # P_J is essential exactly when d - 1 is in J; reductions always are.
                assert essential == (group is not lin or d - 1 in J)


def test_linear_truncation_groups_match_enumeration():
    for d, J, n in [(2, {1}, 3), (2, {1}, 4), (2, {0, 1}, 3), (3, {2}, 4), (3, {1, 2}, 4)]:
        lin = linear_truncation_group(d, J, n)
        tg = truncation_group(pj_pattern(d, J), n)
        assert lin.order() == tg.group.order
        assert set(lin.iter_bits()) == set(tg.group.element_bits)


def test_linear_projective_consistency_beyond_enumeration():
    # Depth-(d+2) truncation groups of depth-3 patterns have ~2^24 elements;
    # the parity-check representation settles projective consistency by rank.
    for d, J in [(3, {2}), (3, {0, 2}), (3, {1, 2}), (3, {0, 1, 2}), (4, {3})]:
        for n in (d + 1, d + 2):
            big = linear_truncation_group(d, J, n)
            small = linear_truncation_group(d, J, n - 1)
            mask = (1 << ((1 << (n - 1)) - 1)) - 1
            proj = gf2.rref([v & mask for v in big.basis()])
            assert proj == gf2.rref(small.basis())


def test_linear_stabilizer_order_equals_unit_check_form():
    # The level-(d-1) stabilizer linear_hausdorff_dimension counts, its zero
    # mask widened by levels 0..d-2, against one unit check per bit on those
    # levels, for P_J and its reduction.
    for d in range(2, 7):
        for J in nonempty_level_sets(d):
            lin = maximal_subgroup(d, J)
            for s in (lin, linear_essential_reduction(lin)[0]):
                units = gf2.LinearSubgroup(
                    d, s.checks + tuple(1 << k for k in range((1 << (d - 1)) - 1)), s.zero)
                assert linear_hausdorff_dimension(s) == Fraction(units.log2_order(),
                                                                 1 << (d - 1))


def same_solution_set(a, b):
    # Equal orders and a basis of a inside b: a and b are the same set.
    return (a.depth == b.depth and a.log2_order() == b.log2_order()
            and all(b.contains_bits(v) for v in a.basis()))


def random_zero_systems(seed, count):
    """Seeded parity-check systems at d = 2..6 whose `zero` is a random
    subset of a random prefix of levels, as level stabilizers have."""
    rng = random.Random(seed)
    for _ in range(count):
        d = rng.randrange(2, 7)
        n = (1 << d) - 1
        checks = tuple(rng.getrandbits(n) & rng.getrandbits(n)
                       for _ in range(rng.randrange(0, 2 * d)))
        zero = rng.getrandbits(n) & prefix_mask(rng.randrange(0, d + 1))
        yield gf2.LinearSubgroup(d, checks, zero)


def test_linear_reduction_matches_basis_reference_on_every_pj():
    for d in range(2, 8):
        for J in nonempty_level_sets(d):
            lin = maximal_subgroup(d, J)
            red, was_ess = linear_essential_reduction(lin)
            ref, ref_ess = linear_essential_reduction_by_basis(lin)
            assert was_ess == ref_ess, (d, sorted(J))
            assert same_solution_set(red, ref), (d, sorted(J))


def test_linear_reduction_matches_basis_reference_on_random_zero_systems():
    for lin in random_zero_systems(263, 600):
        red, was_ess = linear_essential_reduction(lin)
        ref, ref_ess = linear_essential_reduction_by_basis(lin)
        assert was_ess == ref_ess, lin
        assert same_solution_set(red, ref), lin
        if was_ess:
            assert red is lin


def test_linear_reduction_matches_a_fully_reduced_run():
    # Each round eliminates to an echelon basis only; a run that fully
    # reduces every round gives the same zero mask, row space and flag.
    for d in range(2, 9):
        for J in nonempty_level_sets(d):
            lin = maximal_subgroup(d, J)
            (red, was_ess), (ref, ref_ess) = (
                linear_essential_reduction(lin), linear_essential_reduction_by_rref(lin))
            assert (red.zero, was_ess) == (ref.zero, ref_ess), (d, J)
            assert rref_by_full_reduction(red.checks) == rref_by_full_reduction(ref.checks)


def test_linear_reduction_stays_in_check_space(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the reduction left check space")

    monkeypatch.setattr(gf2, "nullspace", refuse)
    monkeypatch.setattr(gf2.LinearSubgroup, "basis", refuse)
    for d in range(2, 8):
        for J in nonempty_level_sets(d):
            linear_essential_reduction(maximal_subgroup(d, J))
    for lin in random_zero_systems(269, 100):
        linear_essential_reduction(lin)


def test_depth5_linear_classification_counts():
    essential_count = 0
    for J in nonempty_level_sets(5):
        lin = maximal_subgroup(5, J)
        red, was_ess = linear_essential_reduction(lin)
        dim = linear_hausdorff_dimension(red)
        if was_ess:
            essential_count += 1
            assert dim == Fraction(15, 16)
        else:
            assert dim < Fraction(15, 16)
    assert essential_count == 16
