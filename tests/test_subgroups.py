"""Subgroup engine: closure, stabilizers, derived subgroups, P_J and M_V.

The derived-subgroup oracle is the all-pairs commutator closure; the
characterization of the full group's derived subgroup as the intersection
of the single-level P_{j} is held against enumeration exhaustively.
"""

import itertools
import json
import random
import re

import pytest

from treegrp import gf2, kernel, subgroups, verify
from treegrp.errors import EnumerationCapExceeded, VerificationError
from treegrp.heap import gather, heap_index, level_mask, prefix_mask
from treegrp.patterns import linear_essential_reduction
from treegrp.portrait import FiniteAutomorphism, identity
from treegrp.subgroups import (
    DEFAULT_CAP,
    M_V,
    EnumeratedSubgroup,
    all_subgroups_depth2,
    close,
    conjugation_law_counts,
    derived_subgroup,
    enumerate_MV,
    enumerate_PJ,
    full_group,
    generating_set,
    is_transitive_on_level,
    level_stabilizer,
    maximal_subgroup,
    orbit,
    resolve_cap,
    subgroup_from_json,
)

from oracles import (
    _last_level_images,
    beta_V,
    commutator,
    conjugate_label_check,
    conjugation_law_counts_by_pairs,
    derived_subgroup_allpairs,
    from_labels,
    generator,
    generators,
    state,
    stream_pairs,
    verify_closed,
)


def nonempty_level_sets(d):
    return [
        frozenset(j for j in range(d) if (bits >> j) & 1)
        for bits in range(1, 1 << d)
    ]


def random_small_subgroup(rng, d):
    k = rng.randrange(1, 4)
    gens = [FiniteAutomorphism.random(d, rng).bits for _ in range(k)]
    return close(d, gens)


# -- closure -------------------------------------------------------------------


def test_full_group_orders():
    assert full_group(2).order == 8
    assert full_group(3).order == 128
    assert full_group(4).order == 32768


def test_close_trivial_cases():
    assert close(3, []).order == 1
    assert close(2, [generator(2, 0).bits]).order == 2


def test_direct_construction_names_builders_that_exist():
    with pytest.raises(TypeError, match=r"from_element_bits\(\)") as info:
        EnumeratedSubgroup(2, frozenset({0}))
    names = re.findall(r"(\w+)\(\)", str(info.value))
    assert names
    for name in names:
        assert hasattr(subgroups, name) or hasattr(EnumeratedSubgroup, name), name


def test_close_is_idempotent_and_order_independent():
    rng = random.Random(301)
    for _ in range(20):
        d = rng.randrange(2, 4)
        gens = [FiniteAutomorphism.random(d, rng).bits for _ in range(3)]
        s = close(d, gens)
        shuffled = gens[:]
        rng.shuffle(shuffled)
        assert close(d, shuffled) == s
        assert close(d, list(s.generators) + gens) == s
        assert close(d, s.sorted_bits()[:6] + gens) == s


def test_close_cap_error_names_cap():
    with pytest.raises(EnumerationCapExceeded) as err:
        close(4, [a.bits for a in generators(4)], cap=1000)
    assert "1000" in str(err.value)


def test_resolve_cap_reads_and_checks_the_environment(monkeypatch):
    monkeypatch.delenv("TREEGRP_CAP", raising=False)
    assert resolve_cap() == DEFAULT_CAP
    monkeypatch.setenv("TREEGRP_CAP", "100")
    assert resolve_cap() == 100
    assert resolve_cap(7) == 7  # an explicit cap wins over the variable
    for bad in ("abc", "0", "-1", "1.5"):
        monkeypatch.setenv("TREEGRP_CAP", bad)
        with pytest.raises(ValueError, match="TREEGRP_CAP"):
            resolve_cap()


def test_close_rejects_mixed_depths():
    with pytest.raises(ValueError):
        close(2, [generator(2, 0).bits, generator(3, 2).bits])  # a_2 is wider than depth 2
    with pytest.raises(ValueError):
        close(2, [-1])


def test_canonical_ordering_matches_byte_encoding():
    s = full_group(2)
    encodings = [g.to_bytes() for g in s]
    assert encodings == sorted(encodings)


# -- order / index -----------------------------------------------------------------


def test_index_of_root_swap_subgroup():
    g2 = full_group(2)
    root_swap = close(2, [generator(2, 0).bits])
    assert root_swap.element_bits <= g2.element_bits
    assert g2.order // root_swap.order == 4


def test_index_of_pj_is_two():
    for d in (2, 3, 4):
        full, pj = full_group(d), enumerate_PJ(d, {d - 1})
        assert pj.element_bits <= full.element_bits
        assert full.order // pj.order == 2


def test_lagrange_consistency():
    rng = random.Random(307)
    g3 = full_group(3)
    for _ in range(20):
        s = random_small_subgroup(rng, 3)
        assert s.element_bits <= g3.element_bits
        assert g3.order % s.order == 0


# -- level stabilizers --------------------------------------------------------------


def test_level_stabilizer_boundary_cases():
    g3 = full_group(3)
    assert level_stabilizer(g3, 0) == g3
    assert level_stabilizer(g3, 3).order == 1


def test_top_stabilizer_order_of_maximal_pattern_groups():
    for d in (2, 3, 4):
        for J in nonempty_level_sets(d):
            if d - 1 not in J:
                continue
            stab = level_stabilizer(enumerate_PJ(d, J), d - 1)
            assert stab.order == 1 << ((1 << (d - 1)) - 1)


def test_stabilizer_is_kernel_of_truncation():
    rng = random.Random(311)
    for _ in range(10):
        s = random_small_subgroup(rng, 3)
        for n in range(4):
            stab = level_stabilizer(s, n)
            expected = {b for b in s.element_bits
                        if n == 0 or not FiniteAutomorphism(3, b).bits & ((1 << ((1 << n) - 1)) - 1)}
            assert stab.element_bits == expected


# -- derived subgroups ----------------------------------------------------------------


def test_derived_of_abelian_is_trivial():
    klein = close(2, [generator(2, 1).bits, from_labels(2, {"1": 1}).bits])
    assert klein.order == 4
    assert derived_subgroup(klein).order == 1


def test_derived_of_depth2_group():
    g2 = full_group(2)
    d2 = derived_subgroup(g2)
    assert d2.order == 2
    assert d2 == derived_subgroup_allpairs(g2)


def test_abelianization_rank_is_depth():
    for d in (2, 3):
        g = full_group(d)
        dg = derived_subgroup(g)
        assert dg.element_bits <= g.element_bits
        assert g.order // dg.order == 1 << d


def test_fast_derived_equals_allpairs_on_all_depth2_subgroups():
    for s in all_subgroups_depth2():
        assert derived_subgroup(s) == derived_subgroup_allpairs(s)


def test_fast_derived_equals_allpairs_on_random_depth3_subgroups():
    rng = random.Random(313)
    for _ in range(10):
        s = random_small_subgroup(rng, 3)
        assert derived_subgroup(s) == derived_subgroup_allpairs(s)


def test_derived_is_normal_and_quotient_abelian():
    for d in (2, 3):
        g = full_group(d)
        dg = derived_subgroup(g)
        for x_bits in g.element_bits:
            for y_bits in g.element_bits:
                assert kernel.commutator(x_bits, y_bits, d) in dg.element_bits
        for x_bits in g.element_bits:
            xi = kernel.invert(x_bits, d)
            for h_bits in dg.element_bits:
                assert kernel.compose(kernel.compose(xi, h_bits, d), x_bits, d) in dg.element_bits


def test_derived_normality_sampled_depth4(g4):
    dg = derived_subgroup(g4)
    rng = random.Random(317)
    bits = g4.sorted_bits()
    for _ in range(100_000):
        x = rng.choice(bits)
        y = rng.choice(bits)
        assert kernel.commutator(x, y, 4) in dg.element_bits


def test_generating_set_regenerates():
    rng = random.Random(331)
    for _ in range(10):
        s = random_small_subgroup(rng, 3)
        stripped = EnumeratedSubgroup.from_element_bits(3, s.element_bits)
        gens = generating_set(stripped)
        assert close(3, gens) == s
        assert len(gens) <= max(1, s.order.bit_length())


# -- orbits and transitivity -------------------------------------------------------------


def test_orbit_of_trivial_group():
    t = close(3, [])
    assert orbit(t, "01") == {"01"}


def test_full_group_transitive_on_all_levels():
    for d in (2, 3, 4):
        g = full_group(d)
        for n in range(d + 1):
            assert is_transitive_on_level(g, n)


def test_pj_transitive_on_last_level():
    assert is_transitive_on_level(enumerate_PJ(3, {2}), 2)


def test_depth2_sweep_closes_only_the_pairs_outside_a_cyclic_group(monkeypatch):
    # Of the 36 unordered pairs of the dihedral group of order 8, 18 lie in
    # one cyclic group (x = y, a pair with the identity, two powers of the
    # order-4 element): those read the cyclic group closed once per element.
    full_group(2)
    calls = []
    real = subgroups.close

    def counted(d, gens, cap=None):
        calls.append(len(gens))
        return real(d, gens, cap)

    monkeypatch.setattr(subgroups, "close", counted)
    subgroups.all_subgroups_depth2()
    assert sorted(calls) == [1] * 8 + [2] * 18


def test_depth2_sweep_equals_the_closures_of_all_ordered_pairs():
    # Closing each unordered pair once finds the groups the 64 ordered pairs
    # find, first generated by the same pair, in the same order.
    els = full_group(2).sorted_bits()
    seen = {}
    for x in els:
        for y in els:
            s = close(2, [x, y])
            seen.setdefault(s.element_bits, s)
    want = sorted(seen.values(), key=lambda s: (s.order, s.sorted_bits()))
    got = all_subgroups_depth2()
    assert len(got) == 10
    assert [(s.element_bits, s.generators) for s in got] == \
        [(s.element_bits, s.generators) for s in want]


def test_orbit_matches_word_action():
    rng = random.Random(339)
    groups = list(all_subgroups_depth2())
    groups += [random_small_subgroup(rng, 3) for _ in range(10)]
    for s in groups:
        for n in range(s.depth + 1):
            for off in range(1 << n):
                v = format(off, "b").zfill(n) if n else ""
                assert orbit(s, v) == {g.apply(v) for g in s}, (s, v)


def test_orbit_rejects_bad_words():
    s = full_group(2)
    with pytest.raises(ValueError):
        orbit(s, "000")
    with pytest.raises(ValueError):
        orbit(s, "0x")


def test_orbit_sizes_divide_group_order():
    rng = random.Random(337)
    groups = list(all_subgroups_depth2())
    groups += [random_small_subgroup(rng, 3) for _ in range(10)]
    groups += [enumerate_PJ(3, J) for J in nonempty_level_sets(3)]
    for s in groups:
        for n in range(s.depth + 1):
            size = len(orbit(s, "0" * n))
            assert s.order % size == 0


# -- maximal subgroups P_J ------------------------------------------------------------------


def test_maximal_subgroups_are_pairwise_distinct():
    for d in (2, 3):
        sets = {enumerate_PJ(d, J).element_bits for J in nonempty_level_sets(d)}
        assert len(sets) == (1 << d) - 1


def test_top_generator_membership_iff_top_level_absent():
    for d in (2, 3, 4):
        a_top = generator(d, d - 1)
        for J in nonempty_level_sets(d):
            assert maximal_subgroup(d, J).contains_bits(a_top.bits) == (d - 1 not in J)


def test_identity_in_every_pj():
    for d in (2, 3, 4):
        for J in nonempty_level_sets(d):
            assert maximal_subgroup(d, J).contains_bits(identity(d).bits)


def test_maximal_subgroup_rejects_bad_level_sets():
    with pytest.raises(ValueError):
        maximal_subgroup(3, set())
    with pytest.raises(ValueError):
        maximal_subgroup(3, {3})


def test_enumerate_pj_orders_and_predicate_agreement():
    for d in (2, 3, 4):
        grp = full_group(d)
        for J in nonempty_level_sets(d):
            pj = enumerate_PJ(d, J)
            assert pj.order == 1 << ((1 << d) - 2)
            pred = maximal_subgroup(d, J)
            for b in grp.element_bits:
                assert (b in pj.element_bits) == pred.contains_bits(b)


def test_enumerate_pj_schreier_generators_generate_pj():
    for d in (2, 3, 4):
        grp = full_group(d)
        for J in nonempty_level_sets(d):
            filtered = {b for b in grp.element_bits if FiniteAutomorphism(d, b).alpha(J) == 0}
            pj = enumerate_PJ(d, J)
            assert pj.element_bits == filtered
            assert len(pj.generators) <= 2 * (d - 1)
            assert close(d, pj.generators).element_bits == filtered


def test_derived_of_pj_from_schreier_generators_matches_allpairs():
    for d in (2, 3):
        for J in nonempty_level_sets(d):
            pj = enumerate_PJ(d, J)
            assert derived_subgroup(pj) == derived_subgroup_allpairs(pj), (d, sorted(J))


def test_enumerate_pj_depth5_resource_error_points_to_predicate():
    with pytest.raises(EnumerationCapExceeded) as err:
        enumerate_PJ(5, {4})
    assert "maximal_subgroup" in str(err.value)


# -- M_V ----------------------------------------------------------------------------------


def test_beta_of_identity_vanishes():
    assert beta_V(identity(3), {"00", "11"}) == 0


def test_mv_requires_last_level_vertices():
    with pytest.raises(ValueError):
        M_V(3, {"0"})
    with pytest.raises(ValueError):
        M_V(3, set())


def test_top_stabilizer_cut_is_the_full_vertex_set_case():
    for d in (2, 3):
        words = ["".join(f"{v:0{d-1}b}") for v in range(1 << (d - 1))] if d > 1 else [""]
        mv = M_V(d, words)
        pj_stab = level_stabilizer(enumerate_PJ(d, {d - 1}), d - 1)
        grp = full_group(d)
        mv_bits = {b for b in grp.element_bits if mv.contains_bits(b)}
        assert mv_bits == pj_stab.element_bits


def test_mv_conjugation_law_exhaustive_depth3(g3):
    # (M_V)^g = M_{g^{-1} V} over every nonempty V on level 2 and every g.
    words = [f"{v:02b}" for v in range(4)]
    stab_bits = level_stabilizer(g3, 2).element_bits
    for mask in range(1, 16):
        V = {words[i] for i in range(4) if (mask >> i) & 1}
        mv = M_V(3, V)
        members = [FiniteAutomorphism(3, b) for b in stab_bits
                   if mv.contains_bits(b)]
        for g_bits in g3.element_bits:
            g = FiniteAutomorphism(3, g_bits)
            g_inv_V = {(~g).apply(w) for w in V}
            target = M_V(3, g_inv_V)
            conjugated = {kernel.conjugate(h.bits, g_bits, 3) for h in members}
            expected = {b for b in stab_bits if target.contains_bits(b)}
            assert conjugated == expected


def level_words(n):
    return [format(v, "b").zfill(n) if n else "" for v in range(1 << n)]


def membership_samples(d, seed, count=60):
    """Random portraits, random level-(d-1) stabilizer members, and such
    members with one random bit above the last level set."""
    rng = random.Random(seed)
    first = (1 << (d - 1)) - 1
    out = []
    for _ in range(count):
        stab = rng.getrandbits(1 << (d - 1)) << first
        out += [FiniteAutomorphism.random(d, rng).bits, stab,
                stab | 1 << rng.randrange(first)]
    return [FiniteAutomorphism(d, b) for b in out]


def test_pj_membership_is_the_level_parity():
    for d in (1, 2, 3):
        for J in nonempty_level_sets(d):
            pj = maximal_subgroup(d, J)
            for b in full_group(d).element_bits:
                g = FiniteAutomorphism(d, b)
                assert pj.contains_bits(g.bits) == (g.alpha(J) == 0)
                assert (g in pj) == pj.contains_bits(g.bits)
    for d, seed in ((8, 1201), (16, 1202)):
        rng = random.Random(seed)
        samples = membership_samples(d, seed)
        for _ in range(12):
            J = {j for j in range(d) if rng.getrandbits(1)} or {d - 1}
            pj = maximal_subgroup(d, J)
            assert {pj.contains_bits(g.bits) for g in samples} == {True, False}
            for g in samples:
                assert pj.contains_bits(g.bits) == (g.alpha(J) == 0)


def test_mv_membership_is_the_stabilizer_and_beta_parity():
    def by_definition(g, V):
        return not g.bits & prefix_mask(g.depth - 1) and beta_V(g, V) == 0

    for d in (1, 2, 3):
        words = level_words(d - 1)
        for mask in range(1, 1 << len(words)):
            V = {words[i] for i in range(len(words)) if (mask >> i) & 1}
            mv = M_V(d, V)
            for b in full_group(d).element_bits:
                g = FiniteAutomorphism(d, b)
                assert mv.contains_bits(g.bits) == by_definition(g, V)
    for d, seed in ((8, 1203), (16, 1204)):
        rng = random.Random(seed)
        samples = membership_samples(d, seed)
        for size in (1, 2, 5, 64):
            V = {format(rng.getrandbits(d - 1), "b").zfill(d - 1) for _ in range(size)}
            mv = M_V(d, V)
            assert {mv.contains_bits(g.bits) for g in samples} == {True, False}
            for g in samples:
                assert mv.contains_bits(g.bits) == by_definition(g, V)


def test_mv_order_from_its_checks():
    for d in (2, 3, 8, 24):
        mv = M_V(d, {"0" * (d - 1)})
        assert mv.log2_order() == (1 << (d - 1)) - 1
    assert M_V(24, {"1" * 23}).contains_bits(identity(24).bits)


# -- conjugation label law ---------------------------------------------------------------


def test_conjugate_label_check_identity_conjugator():
    h = from_labels(4, {"000": 1, "110": 1})
    assert conjugate_label_check(h, identity(4))


def test_conjugate_label_check_exhaustive_depth3(g3):
    stab = level_stabilizer(g3, 2)
    for h in stab:
        for g in g3:
            assert conjugate_label_check(h, g)


def test_conjugate_label_check_random_deeper():
    rng = random.Random(347)
    for d in (5, 6):
        width = 1 << (d - 1)
        for _ in range(10_000):
            h = FiniteAutomorphism(d, rng.getrandbits(width) << (width - 1))
            g = FiniteAutomorphism.random(d, rng)
            assert conjugate_label_check(h, g)


def test_last_level_images_match_apply():
    rng = random.Random(353)
    for d in range(1, 9):
        words = [format(k, "b").zfill(d - 1) if d > 1 else "" for k in range(1 << (d - 1))]
        for _ in range(20):
            g = FiniteAutomorphism.random(d, rng)
            assert _last_level_images(g.bits, d) == [heap_index(g.apply(w)) for w in words]


def test_conjugate_label_check_fails_on_wrong_conjugate(monkeypatch):
    true_conjugate = kernel.conjugate
    rng = random.Random(359)
    wrong_results = {
        "last-level bit flipped": lambda x, s, d: true_conjugate(x, s, d) ^ (1 << ((1 << d) - 2)),
        "root label set": lambda x, s, d: true_conjugate(x, s, d) | 1,
        "not conjugated": lambda x, s, d: x,
    }
    for name, wrong in wrong_results.items():
        monkeypatch.setattr(kernel, "conjugate", wrong)
        for d in (2, 3, 4, 5):
            width = 1 << (d - 1)
            for _ in range(200):
                h = FiniteAutomorphism(d, rng.getrandbits(width) << (width - 1))
                g = FiniteAutomorphism.random(d, rng)
                hg = true_conjugate(h.bits, g.bits, d)
                if wrong(h.bits, g.bits, d) != hg:
                    assert not conjugate_label_check(h, g), (name, d, h, g)
                else:
                    assert conjugate_label_check(h, g), (name, d, h, g)


def test_conjugate_label_check_rejects_non_stabilizer():
    with pytest.raises(ValueError):
        conjugate_label_check(generator(3, 0), identity(3))


def per_pair_conjugation_failures(d, pairs):
    """The oracle's verdict on each (h, g) pair of the stream: 1 if it fails."""
    return [not conjugate_label_check(FiniteAutomorphism(d, h), FiniteAutomorphism(d, g))
            for h, g in pairs]


@pytest.mark.parametrize("d", [2, 3])
def test_conjugation_law_counts_equal_per_pair_oracle_exhaustive(d):
    pairs = stream_pairs(verify.conjugation_pairs(d, samples=10_000, seed=0), d)
    assert len(pairs) == len(level_stabilizer(full_group(d), d - 1)) * (1 << ((1 << d) - 1))
    failures = sum(per_pair_conjugation_failures(d, pairs))
    got = conjugation_law_counts(d, verify.conjugation_pairs(d, samples=10_000, seed=0))
    assert got == (len(pairs), failures)


@pytest.mark.parametrize("seed", range(4))
def test_conjugation_law_counts_equal_per_pair_oracle_sampled(seed):
    # The stream of `samples` pairs is the first `samples` of a longer one,
    # so one oracle run covers every count; 4096 pairs fill one chunk at d = 4.
    counts = [1, 4095, 4096, 4097, 10_000]
    pairs = stream_pairs(verify.conjugation_pairs(4, max(counts), seed), 4)
    rng = random.Random(seed)
    assert pairs == [(rng.getrandbits(8) << 7, FiniteAutomorphism.random(4, rng).bits)
                     for _ in range(max(counts))]
    bad = per_pair_conjugation_failures(4, pairs)
    for samples in counts:
        got = conjugation_law_counts(4, verify.conjugation_pairs(4, samples, seed))
        assert got == (samples, sum(bad[:samples])), samples


def check_law_against_oracles(d, samples, seed):
    pairs = stream_pairs(verify.conjugation_pairs(d, samples, seed), d)
    expected = (len(pairs), sum(per_pair_conjugation_failures(d, pairs)))
    assert conjugation_law_counts(d, verify.conjugation_pairs(d, samples, seed)) == expected
    assert conjugation_law_counts_by_pairs(d, iter(pairs)) == expected


def test_conjugation_law_counts_equal_per_pair_oracle_at_depth_5():
    # 3000 pairs span two chunks of 2048; each pair's last level fills two
    # bytes of the expected batch, so the columns go back in two groups.
    check_law_against_oracles(5, 3000, seed=2)


def test_conjugation_law_counts_equal_per_pair_oracle_at_depth_6():
    # 2500 pairs span three chunks of 1024, the last one cut short.
    check_law_against_oracles(6, 2500, seed=3)


@pytest.mark.parametrize("d", [4, 5])
def test_conjugation_law_counts_on_a_chunk_sharing_one_g(d):
    # One full chunk whose pairs all share g: every selector is all ones or
    # all zeros, so each swap moves a whole column or nothing.
    rng = random.Random(30 + d)
    width, n = 1 << (d - 1), kernel.CHUNK_BITS >> d
    g = rng.getrandbits((1 << d) - 1)
    pairs = [(rng.getrandbits(width) << (width - 1), g) for _ in range(n)]
    got = conjugation_law_counts(d, kernel.packed_chunks(pairs, d))
    assert got == conjugation_law_counts_by_pairs(d, iter(pairs)) == (n, 0)


def wrong_conjugate_batches(true_batch):
    """The wrong conjugates of test_conjugate_label_check_fails_on_wrong_conjugate
    on every sample of a batch; with n = 1 they are those functions."""
    def last_bit(n, d):  # each sample's last last-level vertex
        return sum(1 << ((n + j + 1 << (d - 1)) - 1) for j in range(n))

    return {
        "last-level bit flipped": lambda x, s, n, d: true_batch(x, s, n, d) ^ last_bit(n, d),
        "root label set": lambda x, s, n, d: true_batch(x, s, n, d) | ((1 << n) - 1) << n,
        "not conjugated": lambda x, s, n, d: x,
    }


@pytest.mark.parametrize("name", ["last-level bit flipped", "root label set", "not conjugated"])
def test_conjugation_law_counts_equal_per_pair_oracle_on_broken_kernel(monkeypatch, name):
    wrong = wrong_conjugate_batches(kernel.conjugate_batch)[name]
    # Patching the batch op also breaks kernel.conjugate, which the oracle uses.
    monkeypatch.setattr(kernel, "conjugate_batch", wrong)
    for d, samples in [(2, 0), (3, 0), (4, 4097), (5, 2049), (6, 1025)]:
        pairs = stream_pairs(verify.conjugation_pairs(d, samples, seed=1), d)
        failures = sum(per_pair_conjugation_failures(d, pairs))
        assert failures > 0, (name, d)
        got = conjugation_law_counts(d, verify.conjugation_pairs(d, samples, seed=1))
        assert got == (len(pairs), failures), (name, d)
        assert conjugation_law_counts_by_pairs(d, iter(pairs)) == (len(pairs), failures), (name, d)


def test_conjugation_law_counts_reject_non_stabilizer():
    h, g = generator(3, 0).bits, identity(3).bits
    with pytest.raises(ValueError, match="stabilize"):
        conjugation_law_counts(3, kernel.packed_chunks([(0, 0), (h, g)], 3))


# -- derived subgroup of the full group ------------------------------------------------------


def in_every_single_level_pj(g):
    """The abelianization of G(d) is elementary abelian of rank d, realized
    by the d level parities, so [G(d), G(d)] is the intersection of the
    P_{j}, j = 0..d-1."""
    return all(maximal_subgroup(g.depth, {j}).contains_bits(g.bits) for j in range(g.depth))


def test_generators_not_in_derived():
    for d in (2, 3, 4, 6):
        for i in range(d):
            assert not in_every_single_level_pj(generator(d, i))


def test_top_commutator_in_derived():
    for d in range(2, 9):
        assert in_every_single_level_pj(commutator(generator(d, 0), generator(d, d - 1)))


def test_in_derived_matches_enumeration_exhaustive_depth3(g3):
    dg = derived_subgroup(g3)
    for b in g3.element_bits:
        assert in_every_single_level_pj(FiniteAutomorphism(3, b)) == (b in dg.element_bits)


def test_every_pj_contains_derived_of_full():
    for d in (2, 3, 4):
        derived_bits = derived_subgroup(full_group(d)).element_bits
        for J in nonempty_level_sets(d):
            assert derived_bits <= enumerate_PJ(d, J).element_bits


# -- presentation ------------------------------------------------------------------------------


@pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
def test_presentation_relations_hold(d):
    # a_i^2 = 1 and [a_j^(a_i), a_k] = 1 for i < j and i < k.
    gens = [a.bits for a in generators(d)]
    for a in gens:
        assert kernel.compose(a, a, d) == 0
    for i in range(d):
        for j in range(i + 1, d):
            conj = kernel.conjugate(gens[j], gens[i], d)
            for k in range(i + 1, d):
                assert kernel.commutator(conj, gens[k], d) == 0, (i, j, k)
    if d <= 4:
        assert full_group(d).order == 1 << ((1 << d) - 1)


# -- depth-2 subgroup inventory ------------------------------------------------------------------


def test_verify_closed_rejects_non_closed_sets():
    missing_identity = EnumeratedSubgroup.from_element_bits(3, full_group(3).element_bits - {0})
    assert not verify_closed(missing_identity)
    pj = enumerate_PJ(3, {2})
    outside = generator(3, 2).bits
    assert not verify_closed(EnumeratedSubgroup.from_element_bits(3, pj.element_bits | {outside}))
    # Closes to all eight elements of the depth-2 group, far beyond the cap of 3.
    overshoot = EnumeratedSubgroup.from_element_bits(2, {0, generator(2, 0).bits, generator(2, 1).bits})
    assert not verify_closed(overshoot)
    assert verify_closed(pj)


def test_contains_rejects_depth_mismatch_in_both_representations():
    g = generator(3, 0)
    with pytest.raises(ValueError):
        g in enumerate_PJ(2, {1})
    with pytest.raises(ValueError):
        g in full_group(2)
    with pytest.raises(ValueError):
        g in maximal_subgroup(2, {1})


def test_generating_set_check_survives_optimize_flag(run_optimized):
    # A set that is not a subgroup outgrows the cap of |S| as it closes; the
    # refusal is kernel.close's cap check, not an assert, so -O keeps it.
    proc = run_optimized("""
        from treegrp.errors import EnumerationCapExceeded
        from treegrp.heap import spine
        from treegrp.subgroups import EnumeratedSubgroup, enumerate_PJ, generating_set

        for d, bits in [(2, {0, spine(0), spine(1)}),
                        (2, {spine(0)}),
                        (3, enumerate_PJ(3, {2}).element_bits | {spine(2)})]:
            try:
                generating_set(EnumeratedSubgroup.from_element_bits(d, bits))
            except EnumerationCapExceeded:
                print("raised")
    """)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["raised"] * 3


def test_depth2_has_exactly_ten_subgroups():
    subs = all_subgroups_depth2()
    assert len(subs) == 10
    assert sorted(s.order for s in subs) == [1, 2, 2, 2, 2, 2, 4, 4, 4, 8]
    for s in subs:
        assert verify_closed(s)


# -- JSON wire format -----------------------------------------------------------------------------


def test_generated_subgroup_json_roundtrip():
    for text, order in [
        ('{"d": 3, "kind": "generated", "generators": []}', 1),
        ('{"d": 2, "kind": "generated", "generators": ["02", "04"]}', 4),  # labels at "0", "1"
        ('{"d": 3, "kind": "generated", "generators": ["02", "08"]}', 8),  # G(2) below "0"
        ('{"d": 3, "kind": "generated", "generators": ["01", "02", "08"]}', 128),
    ]:
        doc = json.loads(text)
        s = subgroup_from_json(doc)
        gens = [FiniteAutomorphism.from_hex(h, doc["d"]).bits for h in doc["generators"]]
        assert s.generators == tuple(gens)
        assert s == close(doc["d"], gens)
        assert s.order == order


def test_pj_and_mv_json_roundtrip():
    pj = subgroup_from_json(json.loads('{"d": 4, "kind": "PJ", "J": [1, 3]}'))
    assert state(pj) == state(maximal_subgroup(4, {1, 3}))
    assert pj.checks == (level_mask(1) | level_mask(3),) and not pj.zero

    mv = subgroup_from_json(json.loads('{"d": 3, "kind": "MV", "V": ["01", "10"]}'))
    assert state(mv) == state(M_V(3, {"01", "10"}))
    assert mv.checks == (1 << heap_index("01") | 1 << heap_index("10"),)
    assert mv.zero == prefix_mask(2)


def test_subgroup_json_rejects_unknown_kind():
    with pytest.raises(ValueError):
        subgroup_from_json({"d": 2, "kind": "nonsense"})


@pytest.mark.parametrize("build", [
    lambda: enumerate_PJ(14, {2}),
    lambda: full_group(14),
    lambda: verify.derived_of_full(14),
    lambda: enumerate_MV(15, {"0" * 14}),
    lambda: enumerate_PJ(24, {23}),
])
def test_cap_checks_name_huge_orders_by_their_exponent(build):
    # These orders have thousands of decimal digits; the cap check compares
    # exponents and the message names the order as 2^k.
    with pytest.raises(EnumerationCapExceeded) as err:
        build()
    assert err.value.reached is None
    assert "has order 2^" in str(err.value)


def test_cap_check_compares_exponents_exactly():
    # 2^k > cap iff k >= cap.bit_length(): P_J at d=3 has 2^6 = 64 elements.
    assert enumerate_PJ(3, {2}, cap=64).order == 64
    with pytest.raises(EnumerationCapExceeded):
        enumerate_PJ(3, {2}, cap=63)
    assert enumerate_MV(3, {"00"}, cap=8).order == 8
    with pytest.raises(EnumerationCapExceeded):
        enumerate_MV(3, {"00"}, cap=7)


def test_pj_and_mv_json_roundtrip_everywhere():
    for d in (1, 2, 3, 4):
        for J in nonempty_level_sets(d):
            doc = {"d": d, "kind": "PJ", "J": sorted(J)}
            assert state(subgroup_from_json(doc)) == state(maximal_subgroup(d, J))
    for d in (2, 3):
        words = level_words(d - 1)
        for mask in range(1, 1 << len(words)):
            V = {words[i] for i in range(len(words)) if (mask >> i) & 1}
            doc = {"d": d, "kind": "MV", "V": sorted(V)}
            assert state(subgroup_from_json(doc)) == state(M_V(d, V))


def test_enumerate_mv_matches_predicate_filter():
    from treegrp.subgroups import enumerate_MV

    for d in (2, 3):
        words = [f"{v:0{d - 1}b}" for v in range(1 << (d - 1))]
        grp = full_group(d)
        for mask in range(1, 1 << len(words)):
            V = {words[i] for i in range(len(words)) if (mask >> i) & 1}
            mv = M_V(d, V)
            reference = {b for b in grp.element_bits if mv.contains_bits(b)}
            assert enumerate_MV(d, V).element_bits == reference


def test_enumerate_mv_refuses_orders_above_the_cap():
    from treegrp.subgroups import enumerate_MV

    with pytest.raises(EnumerationCapExceeded):
        enumerate_MV(4, {"000"}, cap=100)
    with pytest.raises(ValueError):
        enumerate_MV(3, {"0"})


@pytest.mark.parametrize("build", [
    lambda: enumerate_PJ(5, {4}, cap=1 << 40),
    lambda: enumerate_MV(6, {"00000"}, cap=1 << 40),
])
def test_listing_limit_is_a_cap_refusal_whatever_the_cap(build):
    # 2^30 and 2^31 members fit under the cap but not under the listing
    # limit; the refusal comes before a single member is listed.
    with pytest.raises(EnumerationCapExceeded) as err:
        build()
    assert err.value.cap == 1 << gf2.MAX_LIST_LOG2


# -- packed members -------------------------------------------------------------


def _masked_groups(d):
    """Groups at depth d from close and from gf2 listings, of one member and
    of several.  A listing keeps the slots it was built in; a closure packs
    its members on first use."""
    rng = random.Random(431 + d)
    groups = [close(d, []), close(d, [generator(d, 0).bits, generator(d, d - 1).bits])]
    if d <= 3:
        groups.append(close(d, [FiniteAutomorphism.random(d, rng).bits for _ in range(2)]))
    n = (1 << d) - 1
    # Up to 14 free bits, so at d >= 4 the listing spans more than one block
    # of 2^12 members.
    free = sum(1 << k for k in rng.sample(range(n), min(n, 14)))
    for lin in (gf2.LinearSubgroup(d, (), zero=prefix_mask(d)),
                gf2.LinearSubgroup(d, (rng.getrandbits(n),), zero=prefix_mask(d) & ~free)):
        groups.append(EnumeratedSubgroup.from_linear(lin))
        assert groups[-1].element_bits == frozenset(lin.iter_bits())
    return groups


@pytest.mark.parametrize("d", range(1, 9))
def test_masked_is_every_member_anded_with_the_mask(d):
    # d = 1..8 spans the 1-, 2-, 4- and 8-byte struct slots and the
    # byte-joined slots at d >= 7; a one-member group has the identity codec.
    left_path = sum(1 << (1 << k) - 1 for k in range(d))
    masks = [0, prefix_mask(d), prefix_mask(d - 1), left_path, -1]
    groups = _masked_groups(d)
    orders = sorted(g.order for g in groups)
    assert orders[0] == 1 < orders[-1]
    for group in groups:
        for mask in masks:
            assert sorted(group.masked(mask)) == sorted(b & mask for b in group.element_bits)


@pytest.mark.parametrize("d", range(1, 9))
def test_masked_runs_join_to_masked(d):
    # Listings, closures and from_element_bits groups, of one member and of
    # orders below, at and (from d = 4) above the first run of 2^8 slots;
    # the read prefix doubles with each run.
    left_path = sum(1 << (1 << k) - 1 for k in range(d))
    masks = [0, prefix_mask(d), prefix_mask(d - 1), left_path, -1]
    groups = _masked_groups(d)
    for k in range(7, 10):
        if k < 1 << d:
            lin = gf2.LinearSubgroup(d, (), zero=prefix_mask(d) & ~((1 << k) - 1))
            groups.append(EnumeratedSubgroup.from_element_bits(d, lin.iter_bits()))
    orders = {group.order for group in groups}
    assert 1 in orders and (d < 4 or {128, 256, 512} <= orders)
    for group in groups:
        for mask in masks:
            runs = list(group.masked_runs(mask))
            ends = [min(group.order, 256 << k) for k in range(len(runs))]
            assert list(itertools.accumulate(map(len, runs))) == ends
            assert ends[-1] == group.order
            assert list(itertools.chain(*runs)) == list(group.masked(mask))


@pytest.mark.parametrize("d", range(1, 9))
def test_child_classes_are_each_members_top_and_child_subpatterns(d):
    # In slot order, the order masked reads the members in.
    for group in _masked_groups(d):
        k = d - 1
        want = [(b & prefix_mask(k), gather(b, 1, k), gather(b, 2, k)) for b in group.masked(-1)]
        assert list(group.child_classes()) == want


def _set_built(group):
    return group._bits is not None


def test_listings_build_their_member_set_only_on_a_membership_read():
    lins = [lin for d in (1, 2, 3, 4) for J in nonempty_level_sets(d)
            for lin in (maximal_subgroup(d, J),
                        linear_essential_reduction(maximal_subgroup(d, J))[0])]
    for d in (2, 3):
        words = level_words(d - 1)
        lins += [M_V(d, {w for i, w in enumerate(words) if k >> i & 1})
                 for k in range(1, 1 << len(words))]
    for lin in lins:
        group = EnumeratedSubgroup.from_linear(lin)
        mask = prefix_mask(lin.depth - 1)
        assert (group.order, len(group)) == (lin.order(), lin.order())
        assert sorted(group.masked(mask)) == sorted(b & mask for b in lin.iter_bits())
        assert group.count_clear(mask) == sum(not b & mask for b in lin.iter_bits())
        assert not _set_built(group)
        assert group.element_bits == set(lin.iter_bits())
        assert len(group.element_bits) == group.order


def test_every_membership_read_builds_a_listing_set():
    lin = maximal_subgroup(3, {1})
    members = set(lin.iter_bits())
    g = FiniteAutomorphism(3, next(iter(members)))
    reads = [lambda s: s.element_bits, lambda s: s.contains_bits(g.bits), lambda s: g in s,
             lambda s: s.sorted_bits(), lambda s: list(s), hash,
             lambda s: s == EnumeratedSubgroup.from_element_bits(3, members)]
    for read in reads:
        group = EnumeratedSubgroup.from_linear(lin)
        read(group)
        assert _set_built(group)


def test_from_linear_refuses_a_dependent_basis():
    lin = maximal_subgroup(3, {2})
    basis = lin.basis()
    with pytest.raises(VerificationError, match="dependent"):
        EnumeratedSubgroup.from_linear(lin, basis[:-1] + [basis[0] ^ basis[1]])


def test_a_listing_with_a_repeated_slot_is_refused_when_its_set_is_built():
    lin = maximal_subgroup(3, {2})
    group = EnumeratedSubgroup.from_linear(lin)
    members = kernel.slot_codec(group.order, 3)[1](group._packed)
    group._packed = kernel.slot_codec(group.order, 3)[0]([members[0], *members[:-1]])
    assert group.order == 64 and group.count_clear(0) == 64
    with pytest.raises(VerificationError, match="63 distinct"):
        group.element_bits


def test_listing_checks_survive_optimize_flag(run_optimized):
    proc = run_optimized("""
        from treegrp import kernel
        from treegrp.errors import VerificationError
        from treegrp.subgroups import EnumeratedSubgroup, maximal_subgroup

        lin = maximal_subgroup(3, {2})
        basis = lin.basis()
        try:
            EnumeratedSubgroup.from_linear(lin, basis + basis[:1])
        except VerificationError:
            print("raised")
        group = EnumeratedSubgroup.from_linear(lin, basis)
        group._packed = kernel.slot_codec(64, 3)[0]([0] * 64)
        try:
            group.element_bits
        except VerificationError:
            print("raised")
    """)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["raised"] * 2


def test_aux_suite_never_builds_the_sets_of_its_largest_listings(monkeypatch):
    # The aux suite's P_J arm reads its listed reductions only through the
    # packed slots; the eight of order 2^14 are the bulk of what it lists.
    listed = []
    from_linear = EnumeratedSubgroup.from_linear

    def record(*args, **kwargs):
        listed.append(from_linear(*args, **kwargs))
        return listed[-1]

    monkeypatch.setattr(EnumeratedSubgroup, "from_linear", record)
    verify.verify_auxiliary(4, samples=64)
    largest = [group for group in listed if group.order == 1 << 14]
    assert len(largest) == 8
    assert not any(map(_set_built, largest))


def test_classify_never_builds_the_set_of_a_listing(monkeypatch):
    # classify's enumeration arm reads every listed P_J and rank reduction
    # only through the packed slots: [G(d), G(d)] is tested against the
    # checks a listing comes from, not against its member set.
    listed = []
    from_linear = EnumeratedSubgroup.from_linear

    def record(*args, **kwargs):
        listed.append(from_linear(*args, **kwargs))
        return listed[-1]

    monkeypatch.setattr(EnumeratedSubgroup, "from_linear", record)
    for d in (3, 4):
        del listed[:]
        verify.classify_maximal(d)
        # One listed reduction per row, and P_J itself on the rows it reduces.
        assert len(listed) == (1 << d) - 1 + (1 << d - 1) - 1
        assert not any(map(_set_built, listed)), d


def test_derived_seeds_are_the_scalar_commutators_of_generator_pairs(monkeypatch):
    # The seeds kernel.close gets, one per generator pair from one batch,
    # for the Schreier generators of every P_J and the generators of G(d),
    # d <= 5; the closure itself is skipped.  Fewer than two generators
    # seed the identity alone.
    got = []
    monkeypatch.setattr(kernel, "close",
                        lambda d, gens, cap, normalizer=(): got.append(gens) or {0})
    for d in range(1, 6):
        cases = [[a.bits for a in generators(d)]]
        for bits in range(1, 1 << d):
            J = frozenset(j for j in range(d) if bits >> j & 1)
            cases.append(list(subgroups._pj_schreier_generators(d, J)))
        for gens in cases:
            subgroups._derived_from_generators(d, gens)
            seeds = got.pop()
            pairs = [(x, y) for i, x in enumerate(gens) for y in gens[i + 1:]]
            assert sorted(seeds) == sorted(kernel.commutator(x, y, d) for x, y in pairs) \
                or not pairs and seeds == [0], (d, gens)
