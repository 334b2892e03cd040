"""Element arithmetic: every operation checked against the action formula.

The independent oracle throughout is the displayed action on words: symbol
k of the image is symbol k of the input XOR the label at the length-(k-1)
prefix.  Products, inverses, sections and truncations are validated by
comparing their action (or their labels, reconstructed from the action of a
functional composition) against that formula.
"""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from treegrp import kernel
from treegrp.heap import gather, place, prefix_mask
from treegrp.portrait import (
    MAX_DEPTH,
    FiniteAutomorphism,
    distance,
    heap_index,
    identity,
    level_of_index,
)

from oracles import commutator, from_labels, generator, generators, label, vertex_word


def all_words(max_len: int):
    for n in range(max_len + 1):
        for w in itertools.product("01", repeat=n):
            yield "".join(w)


def oracle_portrait_of_map(word_map, d: int) -> FiniteAutomorphism:
    """Reconstruct a portrait from a word action: the label at vertex v is
    read off the image of v+'0'."""
    labels = {}
    for n in range(d):
        for w in itertools.product("01", repeat=n):
            v = "".join(w)
            labels[v] = int(word_map(v + "0")[n])
    return from_labels(d, labels)


def random_element(rng: random.Random, d: int) -> FiniteAutomorphism:
    return FiniteAutomorphism.random(d, rng)


element_strategy = st.integers(2, 8).flatmap(
    lambda d: st.tuples(
        st.just(d), st.integers(0, (1 << ((1 << d) - 1)) - 1)
    )
)


# -- vertex indexing ----------------------------------------------------------


def test_heap_indexing_roundtrip():
    assert heap_index("") == 0
    assert heap_index("0") == 1
    assert heap_index("1") == 2
    assert heap_index("000") == 7
    for idx in range(127):
        assert heap_index(vertex_word(idx)) == idx
        assert level_of_index(idx) == len(vertex_word(idx))


def test_level_ranges_are_contiguous():
    for j in range(6):
        indices = [heap_index(w) for w in all_words(j) if len(w) == j]
        assert indices == list(range((1 << j) - 1, (1 << (j + 1)) - 1))


# -- identity and generators --------------------------------------------------


def test_identity_has_zero_portrait_and_fixes_words():
    e = identity(2)
    assert e.bits == 0
    for w in all_words(2):
        assert e.apply(w) == w
    assert identity(3).apply("101") == "101"


def test_identity_is_neutral_for_100_random_elements_each_depth():
    rng = random.Random(11)
    for d in range(2, 9):
        e = identity(d)
        for _ in range(100):
            g = random_element(rng, d)
            assert e * g == g
            assert g * e == g


def test_depth_zero_rejected():
    with pytest.raises(ValueError):
        identity(0)
    with pytest.raises(ValueError):
        identity(MAX_DEPTH + 1)


@pytest.mark.parametrize("d", [-1, 0, MAX_DEPTH + 1, 10**6])
def test_from_hex_checks_the_depth_first(d):
    # Checked before the portrait size 2^d - 1 is computed, which for a
    # huge d would build an int of d bits.
    with pytest.raises(ValueError, match=rf"^depth must be in 1\.\.{MAX_DEPTH}, got {d}$"):
        FiniteAutomorphism.from_hex("00", d)


def test_generator_single_label_at_leftmost_spine():
    assert generator(2, 0).bits == 1  # root only
    assert generator(4, 3).bits == 1 << 7  # vertex 000, heap index 7
    for d in range(2, 7):
        for i in range(d):
            assert generator(d, i).bits == 1 << heap_index("0" * i)


def test_generators_are_involutions():
    for d in range(2, 7):
        for i in range(d):
            a = generator(d, i)
            assert a * a == identity(d)


def test_generator_index_out_of_range():
    with pytest.raises(ValueError):
        generator(3, 3)
    with pytest.raises(ValueError):
        generator(3, -1)


# -- apply ---------------------------------------------------------------------


def test_apply_root_swap():
    assert generator(2, 0).apply("00") == "10"


def test_apply_a1_acts_only_below_zero():
    a1 = generator(3, 1)
    assert a1.apply("000") == "010"
    assert a1.apply("100") == "100"


def test_apply_rejects_long_and_malformed_words():
    g = identity(3)
    with pytest.raises(ValueError):
        g.apply("0000")
    with pytest.raises(ValueError):
        g.apply("02")


def label_walk(g: FiniteAutomorphism, w: str) -> str:
    """The action formula read bit by bit off the little-endian serialization."""
    data = g.to_bytes()
    out = []
    for k, c in enumerate(w):
        v = heap_index(w[:k])
        out.append(str(int(c) ^ (data[v >> 3] >> (v & 7) & 1)))
    return "".join(out)


def test_apply_matches_label_walk():
    rng = random.Random(41)
    for d in range(1, 13):
        g = random_element(rng, d)
        words = ["".join(rng.choice("01") for _ in range(rng.randrange(d + 1)))
                 for _ in range(200)] + ["", "0" * d, "1" * d]
        for w in words:
            assert g.apply(w) == label_walk(g, w), (d, w)


def test_apply_matches_label_walk_at_max_depth():
    rng = random.Random(43)
    g = random_element(rng, MAX_DEPTH)
    for _ in range(64):
        w = "".join(rng.choice("01") for _ in range(rng.randrange(MAX_DEPTH - 3, MAX_DEPTH + 1)))
        assert g.apply(w) == label_walk(g, w), w


def test_apply_of_product_is_composition_of_actions():
    rng = random.Random(5)
    for _ in range(10_000):
        d = rng.randrange(2, 9)
        h, g = random_element(rng, d), random_element(rng, d)
        w = "".join(rng.choice("01") for _ in range(rng.randrange(d + 1)))
        assert (h * g).apply(w) == h.apply(g.apply(w))


def test_action_compatibility_exhaustive_depth2():
    els = [FiniteAutomorphism(2, b) for b in range(8)]
    for h in els:
        for g in els:
            hg = h * g
            for w in all_words(2):
                assert hg.apply(w) == h.apply(g.apply(w))


# -- compose --------------------------------------------------------------------


def test_compose_depth2_example_against_action_oracle():
    a0, a1 = generator(2, 0), generator(2, 1)
    expected = oracle_portrait_of_map(lambda w: a0.apply(a1.apply(w)), 2)
    assert a0 * a1 == expected
    assert (a0 * a1).bits == 0b011  # labels: root 1, vertex "0" 1, vertex "1" 0
    expected_rev = oracle_portrait_of_map(lambda w: a1.apply(a0.apply(w)), 2)
    assert a1 * a0 == expected_rev
    assert (a1 * a0).bits == 0b101  # labels: root 1, vertex "0" 0, vertex "1" 1


def test_compose_matches_action_oracle_randomized():
    rng = random.Random(7)
    for _ in range(150):
        d = rng.randrange(2, 5)
        h, g = random_element(rng, d), random_element(rng, d)
        assert h * g == oracle_portrait_of_map(lambda w: h.apply(g.apply(w)), d)


def test_associativity_random_triples():
    rng = random.Random(13)
    for d in range(2, 9):
        for _ in range(1500):
            a, b, c = (random_element(rng, d) for _ in range(3))
            assert (a * b) * c == a * (b * c)


def test_compose_depth_mismatch():
    with pytest.raises(ValueError):
        identity(2) * identity(3)


# -- invert ---------------------------------------------------------------------


def test_invert_trivial_cases():
    assert ~identity(4) == identity(4)
    for d in range(2, 6):
        for i in range(d):
            assert ~generator(d, i) == generator(d, i)


def test_inverse_law_exhaustive_depth2():
    for b in range(8):
        g = FiniteAutomorphism(2, b)
        assert ~g * g == identity(2)
        assert g * ~g == identity(2)


def test_inverse_of_product_reverses_factors():
    rng = random.Random(17)
    for _ in range(1000):
        d = rng.randrange(2, 9)
        h, g = random_element(rng, d), random_element(rng, d)
        assert ~(h * g) == ~g * ~h


# -- sections, truncations, subpatterns -------------------------------------------


def test_section_of_a1_depth2():
    a1 = generator(2, 1)
    assert a1.section("0") == generator(1, 0)
    assert a1.section("1") == identity(1)


def test_section_of_identity():
    for d in range(2, 6):
        for w in all_words(d - 1):
            assert identity(d).section(w) == identity(d - len(w))


def test_section_action_matches_tail_of_action():
    rng = random.Random(23)
    for _ in range(500):
        d = rng.randrange(2, 8)
        g = random_element(rng, d)
        wlen = rng.randrange(d)
        w = "".join(rng.choice("01") for _ in range(wlen))
        v = "".join(rng.choice("01") for _ in range(d - wlen))
        assert g.apply(w + v) == g.apply(w) + g.section(w).apply(v)


def test_section_chain_rule_exhaustive_depth3():
    els = [FiniteAutomorphism(3, b) for b in range(128)]
    vertices = [w for w in all_words(2) if w]
    for h in els:
        for g in els:
            hg = h * g
            for u in vertices:
                assert hg.section(u) == h.section(g.apply(u)) * g.section(u)


def test_inversion_formula_all_sections_exhaustive_depth3():
    for b in range(128):
        g = FiniteAutomorphism(3, b)
        gi = ~g
        for u in [w for w in all_words(2) if w]:
            assert gi.section(g.apply(u)) == ~(g.section(u))


def test_truncate_examples_and_homomorphism():
    # Truncation to k levels is the mask prefix_mask(k), and it is a
    # homomorphism onto the depth-k group; essential_reduction relies on it.
    for d in range(2, 6):
        assert generator(d, d - 1).bits & prefix_mask(d - 1) == 0
    rng = random.Random(29)
    for _ in range(400):
        d = rng.randrange(2, 8)
        g, h = rng.getrandbits((1 << d) - 1), rng.getrandbits((1 << d) - 1)
        assert g & prefix_mask(d) == g
        k = rng.randrange(1, d + 1)
        pm = prefix_mask(k)
        assert kernel.compose(h, g, d) & pm == kernel.compose(h & pm, g & pm, k)


def test_subpattern_examples():
    rng = random.Random(31)
    g = random_element(rng, 4)
    assert g.subpattern("", 4) == g
    assert generator(3, 1).subpattern("0", 2) == generator(2, 0)
    with pytest.raises(ValueError):
        g.subpattern("00", 3)


def test_subpattern_equals_truncated_section():
    rng = random.Random(37)
    for _ in range(10_000):
        d = rng.randrange(2, 7)
        g = random_element(rng, d)
        vlen = rng.randrange(d)
        v = "".join(rng.choice("01") for _ in range(vlen))
        k = rng.randrange(1, d - vlen + 1)
        assert g.subpattern(v, k).bits == gather(g.section(v).bits, 0, k)


def test_from_sections_roundtrip():
    rng = random.Random(41)
    for _ in range(300):
        d = rng.randrange(2, 8)
        g = random_element(rng, d)
        m = d - 1
        assert g.alpha({0}) | place(g.section("0").bits, 1, m) | place(
            g.section("1").bits, 2, m) == g.bits


# -- activities -------------------------------------------------------------------


def test_root_activity_of_generators():
    for d in range(2, 7):
        assert generator(d, 0).alpha({0}) == 1
        for i in range(1, d):
            assert generator(d, i).alpha({0}) == 0


def test_root_activity_is_homomorphism():
    rng = random.Random(43)
    for _ in range(1000):
        d = rng.randrange(2, 9)
        g, h = random_element(rng, d), random_element(rng, d)
        assert (g * h).alpha({0}) == g.alpha({0}) ^ h.alpha({0})


def test_alpha_top_level_of_top_generator():
    for d in range(2, 9):
        assert generator(d, d - 1).alpha({d - 1}) == 1
        assert identity(d).alpha(set(range(d))) == 0


def test_alpha_is_homomorphism_exhaustive_depth3():
    els = [FiniteAutomorphism(3, b) for b in range(128)]
    for J in ({0}, {2}, {1, 2}, {0, 1, 2}):
        for g in els:
            for h in els:
                assert (g * h).alpha(J) == g.alpha(J) ^ h.alpha(J)


def test_alpha_is_homomorphism_random():
    rng = random.Random(47)
    for _ in range(1000):
        d = rng.randrange(2, 9)
        J = {j for j in range(d) if rng.random() < 0.5} or {d - 1}
        g, h = random_element(rng, d), random_element(rng, d)
        assert (g * h).alpha(J) == g.alpha(J) ^ h.alpha(J)


def test_alpha_rejects_levels_out_of_range():
    with pytest.raises(ValueError):
        identity(3).alpha({3})


# -- metric -----------------------------------------------------------------------


def test_distance_examples():
    d0 = distance(generator(2, 0), identity(2))
    assert d0.value == 1 and not d0.agree_to_full_depth
    d1 = distance(generator(2, 1), identity(2))
    assert d1.value == Fraction(1, 2)
    g = generator(3, 2)
    same = distance(g, g)
    assert same.value == 0 and same.agree_to_full_depth


def test_distance_values_follow_first_disagreement_level():
    rng = random.Random(53)
    for _ in range(500):
        d = rng.randrange(2, 8)
        g, h = random_element(rng, d), random_element(rng, d)
        res = distance(g, h)
        if g == h:
            assert res.agree_to_full_depth
            continue
        # first disagreement level, straight from the labels
        lvl = min(
            len(w)
            for w in all_words(d - 1)
            if label(g, w) != label(h, w)
        )
        assert res.value == Fraction(1, 1 << ((1 << lvl) - 1))


def test_distance_ultrametric_inequality():
    rng = random.Random(59)
    for _ in range(10_000):
        d = rng.randrange(2, 6)
        g, h, f = (random_element(rng, d) for _ in range(3))
        assert distance(g, h).value <= max(distance(g, f).value, distance(f, h).value)


# -- serialization -------------------------------------------------------------------


def test_encode_identity_and_generator_bytes():
    assert identity(4).to_bytes() == b"\x00\x00"
    assert generator(2, 1).to_bytes() == bytes([2])
    assert generator(2, 1).to_hex() == "02"


def test_encode_decode_roundtrip_random():
    rng = random.Random(61)
    for _ in range(1000):
        d = rng.randrange(1, 10)
        g = random_element(rng, d)
        assert FiniteAutomorphism.from_bytes(g.to_bytes(), d) == g
        assert FiniteAutomorphism.from_hex(g.to_hex(), d) == g


def test_decode_rejects_bad_input():
    with pytest.raises(ValueError):
        FiniteAutomorphism.from_bytes(b"\x00", 4)  # wrong length
    with pytest.raises(ValueError):
        FiniteAutomorphism.from_bytes(b"\x00\x80", 4)  # trailing bit set
    with pytest.raises(ValueError):
        FiniteAutomorphism(3, 1 << 7)  # bits beyond the portrait


# -- group axioms at depth 2, exhaustively ---------------------------------------------


def test_group_axioms_exhaustive_depth2():
    els = [FiniteAutomorphism(2, b) for b in range(8)]
    e = identity(2)
    for g in els:
        assert g * e == g and e * g == g
        assert g * ~g == e and ~g * g == e
    for a in els:
        for b in els:
            for c in els:
                assert (a * b) * c == a * (b * c)


def test_commutator_definition():
    rng = random.Random(67)
    for _ in range(300):
        d = rng.randrange(2, 7)
        g, h = random_element(rng, d), random_element(rng, d)
        assert commutator(g, h) == ~g * ~h * g * h


# -- property-based checks ---------------------------------------------------------------


@given(element_strategy)
def test_hypothesis_encode_roundtrip(spec):
    d, bits = spec
    g = FiniteAutomorphism(d, bits)
    assert FiniteAutomorphism.from_hex(g.to_hex(), d) == g


@given(element_strategy, st.integers(0, (1 << 255) - 1), st.integers(0, (1 << 255) - 1))
def test_hypothesis_group_laws(spec, braw, craw):
    d, bits = spec
    n = (1 << d) - 1
    a = FiniteAutomorphism(d, bits)
    b = FiniteAutomorphism(d, braw & ((1 << n) - 1))
    c = FiniteAutomorphism(d, craw & ((1 << n) - 1))
    assert (a * b) * c == a * (b * c)
    assert ~(a * b) == ~b * ~a
    assert a * ~a == identity(d)


@given(element_strategy, st.integers(0, (1 << 255) - 1), st.data())
def test_hypothesis_chain_rule(spec, braw, data):
    d, bits = spec
    n = (1 << d) - 1
    h = FiniteAutomorphism(d, bits)
    g = FiniteAutomorphism(d, braw & ((1 << n) - 1))
    ulen = data.draw(st.integers(1, d - 1))
    u = "".join(data.draw(st.sampled_from("01")) for _ in range(ulen))
    assert (h * g).section(u) == h.section(g.apply(u)) * g.section(u)
