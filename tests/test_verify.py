"""Verification suites: report structure, frozen values, and error paths."""

import functools
import operator
import sys
from fractions import Fraction
from random import Random

import pytest
from click.testing import CliRunner

from treegrp import gf2, kernel, patterns, subgroups, verify
from treegrp.errors import EnumerationCapExceeded, VerificationError
from treegrp.cli import main
from treegrp.heap import half_level_mask, prefix_mask, spine
from treegrp.patterns import linear_truncation_group
from treegrp.subgroups import derived_subgroup, full_group
from treegrp.verify import (
    VERDICT_NOT_TOP_FG,
    VERDICT_UNKNOWN,
    classify_maximal,
    derived_of_full,
    verify_auxiliary,
    verify_new_relation,
    verify_no_adad,
    verify_not_top_fg,
)

from oracles import LevelSumCharacters, derived_subgroup_allpairs, generator, state


@pytest.mark.parametrize("cap", [-5, 0])
def test_explicit_cap_below_one_is_refused(cap):
    with pytest.raises(ValueError, match="cap must be"):
        classify_maximal(3, cap=cap)
    with pytest.raises(ValueError, match="cap must be"):
        subgroups.resolve_cap(cap)


@pytest.mark.parametrize("cap", [2.5, 1e9, True, "5"])
def test_explicit_cap_that_is_not_an_int_is_refused(cap):
    # A float has no bit_length for the exponent check, True would pass as a
    # cap of 1, and "5" cannot be compared with 1; all are the ValueError.
    message = f"cap must be an integer of at least 1, got {cap!r}"
    with pytest.raises(ValueError) as err:
        classify_maximal(3, cap=cap)
    assert str(err.value) == message
    with pytest.raises(ValueError) as err:
        subgroups.resolve_cap(cap)
    assert str(err.value) == message


def test_top_level_sets_are_the_filtered_level_sets():
    for d in range(1, 10):
        assert verify._top_level_sets(d) == [
            J for J in verify._nonempty_level_sets(d) if d - 1 in J]


def test_classify_depth2_rows():
    report = classify_maximal(2)
    assert len(report.rows) == 3
    assert report.max_dimension_count == 2
    by_J = {row.J: row for row in report.rows}
    assert by_J[(0,)].essential is False
    assert by_J[(0,)].dimension == 0
    assert by_J[(0,)].top_fg_verdict == VERDICT_UNKNOWN
    for J in [(1,), (0, 1)]:
        row = by_J[J]
        assert row.essential and row.is_max_dimension
        assert row.dimension == Fraction(1, 2)
        assert not row.contains_a_dminus1
        assert row.contains_derived_of_Gd
        assert row.bs_premise_fails
        assert row.top_fg_verdict == VERDICT_NOT_TOP_FG


def test_classify_depth3_counts():
    report = classify_maximal(3)
    assert len(report.rows) == 7
    assert report.max_dimension_count == 4
    for row in report.rows:
        if row.is_max_dimension:
            assert row.dimension == Fraction(3, 4)
        else:
            assert row.dimension < Fraction(3, 4)


@pytest.mark.parametrize("d", range(2, 11))
def test_every_pj_by_rank_has_the_closed_form_row(d):
    # The rows in closed form (the verify docstring): P_J is essential iff
    # d - 1 is in J, and its dimension is 1 - 1/2^(max J), on every P_J.
    for J in verify._nonempty_level_sets(d):
        checks, essential = patterns.linear_essential_reduction(subgroups.maximal_subgroup(d, J))
        assert essential == (d - 1 in J), J
        assert patterns.linear_hausdorff_dimension(checks) == 1 - Fraction(1, 1 << max(J)), J


@pytest.mark.parametrize("d", [2, 3, 4])
def test_listed_rows_have_the_closed_form_dimension(d):
    for row in classify_maximal(d).rows:
        assert row.dimension == 1 - Fraction(1, 1 << max(row.J)), row.J
        assert row.essential == row.is_max_dimension == (d - 1 in row.J), row.J


def test_row_check_refuses_a_dimension_off_the_closed_form():
    # J = {0} at d = 3 has dimension 0; 1/2 is still below the maximal 3/4,
    # which is all that was checked of a non-maximal row before.
    row = next(r for r in classify_maximal(3).rows if r.J == (0,))
    verify._check_row_consistency(row)
    row.dimension = Fraction(1, 2)
    with pytest.raises(VerificationError, match="max J"):
        verify._check_row_consistency(row)


def test_classify_depth5_needs_gf2_flag():
    with pytest.raises(EnumerationCapExceeded):
        classify_maximal(5)
    report = classify_maximal(5, use_gf2=True)
    assert report.used_gf2
    assert len(report.rows) == 31
    assert report.max_dimension_count == 16
    for row in report.rows:
        if row.is_max_dimension:
            assert row.dimension == Fraction(15, 16)
            assert row.top_fg_verdict == VERDICT_NOT_TOP_FG


def test_classify_depth_out_of_range():
    with pytest.raises(ValueError):
        classify_maximal(1)
    with pytest.raises(EnumerationCapExceeded):
        classify_maximal(9)


def test_classify_report_roundtrips_to_dict():
    doc = classify_maximal(2).to_dict()
    assert doc["passed"] is True
    assert doc["expected_max_count"] == 2
    assert {tuple(r["J"]) for r in doc["rows"]} == {(0,), (1,), (0, 1)}
    assert all(set(r["dimension"]) == {"num", "den"} for r in doc["rows"])


@pytest.mark.parametrize("d", [3, 4])
def test_classify_cross_check_catches_an_unreduced_pj(monkeypatch, d):
    # Arm (a): the rank route keeps every P_J, and the listing of a P_J
    # without the top level fails is_essential.
    monkeypatch.setattr(patterns, "linear_essential_reduction", lambda lin: (lin, True))
    with pytest.raises(VerificationError, match="not essential"):
        classify_maximal(d)


@pytest.mark.parametrize("d", [3, 4])
@pytest.mark.parametrize("said_essential", [False, True])
def test_classify_cross_check_catches_an_over_reduced_pj(monkeypatch, d, said_essential):
    # Every P_J reduced to the trivial group, which is essential with
    # dimension 0 both by rank and listed, so arm (a) passes; arm (b) sees
    # that an essential P_J was reduced, or that the kept one is not P_J.
    def over_reduce(lin):
        return gf2.LinearSubgroup(lin.depth, (), zero=(1 << lin.num_bits) - 1), said_essential

    monkeypatch.setattr(patterns, "linear_essential_reduction", over_reduce)
    with pytest.raises(VerificationError,
                       match=f"essential={said_essential}, and its listing disagrees"):
        classify_maximal(d)


def test_listed_arm_reads_every_member(monkeypatch):
    # Each listing loses one member that fixes level d - 1 (the largest such
    # portrait), so the listed stabilizer count is no power of two or is
    # off the rank one; both must surface as verification failures.
    real = subgroups.EnumeratedSubgroup.from_linear.__func__

    def dropping(cls, lin, basis=None, gens=()):
        group = real(cls, lin, basis, gens)
        top = prefix_mask(lin.depth - 1)
        drop = max(b for b in group.element_bits if not b & top)
        return cls.from_element_bits(lin.depth, group.element_bits - {drop}, gens)

    monkeypatch.setattr(subgroups.EnumeratedSubgroup, "from_linear", classmethod(dropping))
    with pytest.raises(VerificationError, match="stabilizer order 127 is not a power of two"):
        verify._reduced_pj(4, frozenset({3}), None)
    with pytest.raises(VerificationError):
        classify_maximal(4)
    res = CliRunner().invoke(main, ["classify", "--d", "4"])
    assert res.exit_code == 1
    assert "verification failure: " in res.output


def test_classify_reduces_by_rank_only(monkeypatch):
    calls = []
    for module in (patterns, subgroups, verify):
        for name in ("essential_reduction", "derived_subgroup"):
            if hasattr(module, name):
                fn = getattr(module, name)
                monkeypatch.setattr(module, name, lambda *args, fn=fn, name=name, **kwargs:
                                    calls.append(name) or fn(*args, **kwargs))
    for d in (2, 3, 4):
        assert classify_maximal(d).passed
    assert calls == []


def test_no_adad_both_arms_small_depths():
    for d in (2, 3):
        report = verify_no_adad(d)
        assert report.passed
        assert len(report.cases) == 1 << (d - 1)
        for case in report.cases:
            assert case.certificate_verdict == "NOT_IN_DERIVED"
            assert case.enumerated_checked and case.enumerated_excluded


def test_no_adad_certificate_only_at_depth6():
    report = verify_no_adad(6)
    assert report.passed
    assert len(report.cases) == 32
    for case in report.cases:
        assert not case.enumerated_checked


def test_not_top_fg_small_depths():
    for d in (2, 3):
        report = verify_not_top_fg(d)
        assert report.passed
        assert len(report.cases) == 1 << (d - 1)
        for case in report.cases:
            assert case.in_top_stabilizer and case.enumerated_excluded
            assert case.verdict == VERDICT_NOT_TOP_FG
    with pytest.raises(ValueError):
        verify_not_top_fg(5)


def test_not_top_fg_reads_no_adad_cases(monkeypatch):
    def listed(*args, **kwargs):
        raise AssertionError("verify_not_top_fg listed P_J")

    monkeypatch.setattr(verify, "enumerate_PJ", listed)
    for d in (2, 3, 4):
        topfg = verify_not_top_fg(d).cases
        noadad = verify_no_adad(d).cases
        assert [(c.J, c.certificate, c.enumerated_excluded) for c in topfg] == [
            (c.J, c.certificate, c.enumerated_excluded) for c in noadad]


def test_not_top_fg_takes_a_no_adad_report():
    for d in (2, 3, 4):
        report = verify_no_adad(d)
        assert state(verify_not_top_fg(d, no_adad=report)) == state(verify_not_top_fg(d))
    with pytest.raises(ValueError, match="no_adad"):
        verify_not_top_fg(3, no_adad=verify_no_adad(2))
    failed = verify_no_adad(3)
    failed.cases[0].enumerated_excluded = False
    with pytest.raises(ValueError, match="no_adad"):
        verify_not_top_fg(3, no_adad=failed)


@pytest.mark.parametrize("d", [2, 3, 4])
def test_level_sum_characters_bound_the_generators_of_every_truncation(d):
    # verify_not_top_fg's argument, on every P_J with d - 1 in J (so P_J is
    # essential): chi is the coset map of the listed [P_J, P_J], u is
    # [a_0, a_(d-1)] in St_P(d-1), and H(m) is linear_truncation_group(d,
    # J, m).  Each chi_k is additive on H(m), and g_0 .. g_5 lie in
    # H(d + 5) with chi_k(g_n) = 0 for k < n, chi_n(g_n) = chi(u) and every
    # chi_k(g_n) of order at most 2, so their images span (Z/2)^6.
    # chi(u) is twice an element of the quotient exactly when 0 is in J.
    rng = Random(577 + d)
    u = kernel.commutator(spine(0), spine(d - 1), d)
    assert not u & prefix_mask(d - 1)
    for J in verify._top_level_sets(d):
        group = subgroups.enumerate_PJ(d, J)
        chars = LevelSumCharacters(d, group.element_bits, derived_subgroup(group).element_bits)
        unit, zero = chars.chi[u], chars.zero
        doubles = {chars.add[a][a] for a in range(len(chars.add))}
        assert unit != zero and chars.add[unit][unit] == zero
        assert (unit in doubles) == (0 in J), J
        for m in range(d, d + 6):
            basis = linear_truncation_group(d, J, m).basis()
            for _ in range(20):
                g, h = (functools.reduce(operator.xor, (b for b in basis if rng.getrandbits(1)), 0)
                        for _ in range(2))
                gh = kernel.compose(g, h, m)
                for k in range(m - d + 1):
                    assert chars.level_sum(gh, k) == \
                        chars.add[chars.level_sum(g, k)][chars.level_sum(h, k)], (J, m, k)
        h_top = linear_truncation_group(d, J, d + 5)
        family = chars.family(u, d + 5)
        assert all(h_top.contains_bits(g) for g in family), J
        rows = [[chars.level_sum(g, k) for k in range(6)] for g in family]
        assert [row[:n + 1] for n, row in enumerate(rows)] == [[zero] * n + [unit] for n in range(6)], J
        assert all(chars.add[x][x] == zero for row in rows for x in row), J


def test_contains_derived_of_full_by_generator_commutators():
    for d in range(2, 7):
        for J in verify._nonempty_level_sets(d):
            assert verify._contains_derived_of_full(subgroups.maximal_subgroup(d, J))
    for d in (3, 4, 5):
        half = gf2.LinearSubgroup(d, (half_level_mask(d - 1, 0),))
        assert not verify._contains_derived_of_full(half)


def _derived_with_a_non_member_last(d):
    """[G(d), G(d)] with a_{d-1}, which lies outside it, added in the last
    packed slot, where a read that stops early never looks."""
    members = [*derived_of_full(d).masked(-1), generator(d, d - 1).bits]
    group = subgroups.EnumeratedSubgroup.from_element_bits(d, members)
    group._packed = kernel.slot_codec(len(members), d)[0](members)
    return group


@pytest.mark.parametrize("d", [3, 4])
def test_classify_refuses_a_derived_subgroup_with_a_non_member(monkeypatch, d):
    # a_{d-1} lies outside every P_J with d - 1 in J, so arm (c) must read
    # the last slot and fail those rows.
    fake = _derived_with_a_non_member_last(d)
    monkeypatch.setattr(verify, "derived_of_full", lambda d, cap=None: fake)
    with pytest.raises(VerificationError,
                       match="index-2 kernel must contain the derived subgroup"):
        classify_maximal(d)


def test_slot_wise_containment_equals_the_member_by_member_test():
    # Every P_J, its rank reduction and every M_V at d <= 4, against groups
    # inside and outside them: [G(d), G(d)], the same with a non-member in
    # its last slot, G(d), the level-(d-1) stabilizer and one listed M_V.
    for d in (2, 3, 4):
        full = full_group(d)
        groups = [derived_of_full(d), _derived_with_a_non_member_last(d), full,
                  subgroups.level_stabilizer(full, d - 1),
                  subgroups.enumerate_MV(d, {"0" * (d - 1)})]
        lins = [lin for J in verify._nonempty_level_sets(d)
                for lin in (subgroups.maximal_subgroup(d, J),
                            patterns.linear_essential_reduction(
                                subgroups.maximal_subgroup(d, J))[0])]
        words = [format(i, f"0{d - 1}b") for i in range(1 << d - 1)]
        lins += [subgroups.M_V(d, {w for i, w in enumerate(words) if k >> i & 1})
                 for k in range(1, 1 << len(words))]
        seen = set()
        for lin in lins:
            for group in groups:
                expected = all(lin.contains_bits(b) for b in group.element_bits)
                assert verify._contains_members(lin, group) == expected, (d, lin.checks)
                seen.add(expected)
        assert seen == {True, False}, d


def _orbits_cut_at(depths):
    """truncation_orbits with the orbit at each level in `depths` cut to
    the vertex 0^n alone, a non-transitive orbit."""
    real = patterns.truncation_orbits

    def cut(p):
        for level in real(p):
            if level.depth in depths:
                level = level._replace(orbit=frozenset({"0" * level.depth}))
            yield level
    return cut


def test_three_way_equivalence_can_fail(monkeypatch):
    full = patterns.essential_reduction(patterns.PatternGroup.from_subgroup(full_group(2)))
    dim = patterns.hausdorff_dimension(full)
    assert verify._transitivity_matches(full, dim)
    assert not verify._transitivity_matches(full, Fraction(0))
    with monkeypatch.context() as m:
        m.setattr(patterns, "truncation_orbits", _orbits_cut_at({2, 3, 4}))
        assert not verify._transitivity_matches(full, dim)
    # Levels 3 and 4 of the full group are within the probe budget, so one
    # lost orbit past the pattern depth is read and decides the match.
    for n in (3, 4):
        with monkeypatch.context() as m:
            m.setattr(patterns, "truncation_orbits", _orbits_cut_at({n}))
            assert not verify._transitivity_matches(full, dim)


def test_new_relation_frozen_values():
    rep2 = verify_new_relation(2)
    assert rep2.passed
    by_label = {c.label: c for c in rep2.cases}
    c = by_label["P_J, J=[1]"]
    assert (c.order_p, c.order_stab, c.psi_index) == (4, 2, 2)
    full = by_label["full pattern group"]
    assert (full.order_p, full.order_stab, full.psi_index) == (8, 4, 1)

    rep3 = verify_new_relation(3)
    assert rep3.passed
    c3 = {c.label: c for c in rep3.cases}["P_J, J=[2]"]
    assert (c3.order_p, c3.order_stab, c3.psi_index) == (64, 8, 2)
    with pytest.raises(ValueError):
        verify_new_relation(4)


def test_new_relation_stabilization_evidence():
    for case in verify_new_relation(3).cases:
        assert case.stabilized
        assert len(case.psi_depths) >= 2
        assert case.psi_depths[-1][1] == case.psi_depths[-2][1]


def test_new_relation_records_an_unstabilized_index_as_incomplete(monkeypatch):
    # An index that never settles leaves every case unread, not failed:
    # the identity is not evaluated, and the report cannot pass.
    per_depth = ((1, 2), (2, 4))
    monkeypatch.setattr(patterns, "psi_image_index",
                        lambda p: patterns.PsiImageIndex(False, None, per_depth))
    report = verify_new_relation(2)
    assert report.incomplete and not report.passed
    assert report.cases
    for case in report.cases:
        assert (case.psi_index, case.stabilized, case.equality_holds) == (None, False, None)
        assert case.psi_depths == per_depth


def test_auxiliary_suite():
    for d in (2, 3):
        report = verify_auxiliary(d, samples=500)
        assert report.passed
        assert report.sweep_groups_processed == 10
        assert report.conjugation_failures == 0
        assert report.allowed_set_violations == 0
    report4 = verify_auxiliary(4, samples=500, seed=3)
    assert report4.passed
    assert report4.conjugation_pairs_checked == 500


def test_reports_serialize():
    import json

    for doc in (
        verify_no_adad(2).to_dict(),
        verify_not_top_fg(2).to_dict(),
        verify_new_relation(2).to_dict(),
        verify_auxiliary(2, samples=50).to_dict(),
    ):
        json.dumps(doc)
        assert doc["passed"] is True


def test_classification_deterministic():
    a = classify_maximal(3).to_dict()
    b = classify_maximal(3).to_dict()
    assert a == b


def test_auxiliary_sampling_needs_at_least_one_pair():
    for samples in (0, -5):
        with pytest.raises(ValueError, match="samples"):
            verify_auxiliary(4, samples=samples)
    assert verify_auxiliary(2, samples=0).passed


@pytest.mark.parametrize("d", [3, 4])
def test_conjugation_pairs_reject_a_negative_seed(d):
    with pytest.raises(ValueError, match="seed"):
        verify.conjugation_pairs(d, 10, -7)
    with pytest.raises(ValueError, match="seed"):
        verify_auxiliary(d, samples=10, seed=-7)


@pytest.mark.parametrize("d", [2, 3, 4])
def test_auxiliary_reduces_pj_by_rank_only(monkeypatch, d):
    # The set-filter reduction sees the 10 sweep groups and no P_J; each
    # P_J's rank reduction, listed, is its set-filter reduction.
    reduce_by_filter = patterns.essential_reduction
    filtered = []
    listed = {}

    def counting_reduction(p):
        filtered.append(p.group)
        return reduce_by_filter(p)

    reduce_by_rank = verify._reduced_pj

    def recording_reduced_pj(d, J, cap):
        listed[J] = reduce_by_rank(d, J, cap)
        return listed[J]

    monkeypatch.setattr(patterns, "essential_reduction", counting_reduction)
    monkeypatch.setattr(verify, "_reduced_pj", recording_reduced_pj)
    assert verify_auxiliary(d, samples=500).passed
    assert filtered == subgroups.all_subgroups_depth2()
    assert len(listed) == (1 << d) - 1
    for J, (reduced, dim) in listed.items():
        expected = reduce_by_filter(
            patterns.PatternGroup.from_subgroup(subgroups.enumerate_PJ(d, J)))
        assert reduced.essential is True
        assert reduced.group.element_bits == expected.group.element_bits, sorted(J)
        assert dim == patterns.hausdorff_dimension(expected)


@pytest.mark.parametrize("d", [3, 4])
def test_auxiliary_cross_check_catches_an_unreduced_pj(monkeypatch, d):
    monkeypatch.setattr(patterns, "linear_essential_reduction", lambda lin: (lin, True))
    with pytest.raises(VerificationError, match="not essential"):
        verify_auxiliary(d, samples=500)
    # P_J is essential exactly when d - 1 is in J; every other one is caught.
    for J in verify._nonempty_level_sets(d):
        if d - 1 in J:
            assert verify._reduced_pj(d, J, None)[0].order == 1 << ((1 << d) - 2)
        else:
            with pytest.raises(VerificationError, match="not essential"):
                verify._reduced_pj(d, J, None)


@pytest.mark.parametrize("d", [3, 4])
def test_auxiliary_cross_check_catches_a_wrong_rank_dimension(monkeypatch, d):
    rank_dimension = patterns.linear_hausdorff_dimension
    monkeypatch.setattr(patterns, "linear_hausdorff_dimension",
                        lambda lin: rank_dimension(lin) + Fraction(1, 1 << (d - 1)))
    with pytest.raises(VerificationError, match="by rank"):
        verify_auxiliary(d, samples=500)


def test_auxiliary_pj_arm_keeps_the_cap_check_of_enumerate_pj():
    # P_J at d=4 has order 2^14: the aux arm refuses a smaller cap with
    # enumerate_PJ's own message, though it lists only the reduction.
    hint = ("P_J for J=[0, 3] has order 2^14; use maximal_subgroup(d, J) "
            "for membership without enumeration")
    for refuse in (subgroups.listable_PJ, verify._reduced_pj, subgroups.enumerate_PJ):
        with pytest.raises(EnumerationCapExceeded) as err:
            refuse(4, frozenset({0, 3}), 16383)
        assert str(err.value) == f"enumeration cap of 16383 elements exceeded; {hint}"
    reduced, dim = verify._reduced_pj(4, frozenset({0, 3}), 16384)
    assert (reduced.order, dim) == (16384, Fraction(7, 8))


def test_derived_of_full_from_generators_matches_derived_subgroup():
    for d in (2, 3, 4):
        full = full_group(d)
        derived = derived_of_full(d)
        assert derived == derived_subgroup(full)
        assert derived.element_bits <= full.element_bits
        assert full.order // derived.order == 1 << d
    for d in (2, 3):
        assert derived_of_full(d) == derived_subgroup_allpairs(full_group(d))


def test_derived_of_full_checks_the_cap_ahead_of_its_cache():
    # [G(4), G(4)] has 2048 elements; once cached, a smaller cap must still fail.
    assert derived_of_full(4).order == 2048
    with pytest.raises(EnumerationCapExceeded):
        derived_of_full(4, cap=100)
    with pytest.raises(EnumerationCapExceeded):
        derived_of_full(4, cap=2047)
    assert derived_of_full(4, cap=2048).order == 2048


def test_classify_never_lists_the_full_group(monkeypatch):
    def refuse(d, cap=None):
        raise AssertionError("full_group called")

    # Every treegrp module that binds full_group, so a new import is caught.
    binders = [m for name, m in sorted(sys.modules.items())
               if name.startswith("treegrp") and getattr(m, "full_group", None) is full_group]
    assert subgroups in binders and verify in binders
    for module in binders:
        monkeypatch.setattr(module, "full_group", refuse)
    monkeypatch.setattr(verify, "_DERIVED_FULL_CACHE", {})
    report = classify_maximal(4)
    assert report.passed
    assert all(row.contains_derived_of_Gd for row in report.rows)


def test_no_adad_passes_with_a_cap_below_the_order_of_pj():
    # The enumerated arm folds [P_J, P_J] from generators and never lists
    # P_J (16384 elements at d=4); each [P_J, P_J] with 3 in J has 1024.
    report = verify_no_adad(4, cap=1024)
    assert report.passed
    assert all(case.enumerated_checked and case.enumerated_excluded for case in report.cases)
    with pytest.raises(EnumerationCapExceeded):
        verify_no_adad(4, cap=1023)


def test_classify_folds_pull_fewer_slot_batches(monkeypatch):
    # Every kernel._pull inside a normalized kernel.close over
    # classify_maximal(4), whose 8 [P_K, P_K] folds, one per level-set pair
    # {J, K = J | {0}}, and [G(4), G(4)] are its only such closures: one per
    # membership probe, per coset chunk and two per accepted generator's
    # conjugates.  With conjugates queued behind the seeds the count was
    # 2,518 (488 cosets, 1,850 probes); read before the next seed, 1,431;
    # with one fold per pair instead of one per J (15), it is 799.
    real_close, real_pull = kernel.close, kernel._pull
    normalized, pulls = [], [0]

    def close(d, gens, cap, normalizer=()):
        normalized.append(bool(normalizer))
        try:
            return real_close(d, gens, cap, normalizer)
        finally:
            normalized.pop()

    def pull(x, masks):
        pulls[0] += bool(normalized and normalized[-1])
        return real_pull(x, masks)

    monkeypatch.setattr(kernel, "close", close)
    monkeypatch.setattr(kernel, "_pull", pull)
    monkeypatch.setattr(verify, "_DERIVED_FULL_CACHE", {})
    verify.classify_maximal(4)
    assert 0 < pulls[0] <= 799


def _count_normalized_closes(monkeypatch) -> list[int]:
    """A one-item counter of the normalized kernel.close calls from here on:
    the derived-subgroup folds."""
    real_close, count = kernel.close, [0]

    def close(d, gens, cap, normalizer=()):
        count[0] += bool(normalizer)
        return real_close(d, gens, cap, normalizer)

    monkeypatch.setattr(kernel, "close", close)
    return count


@pytest.mark.parametrize("f,d,folds", [
    (classify_maximal, 4, 9), (classify_maximal, 3, 5), (verify_no_adad, 4, 4)])
def test_derived_folds_are_one_per_level_set_pair(monkeypatch, f, d, folds):
    # One [P_K, P_K] fold per pair {J, K = J | {0}} (2^(d-1) pairs over the
    # nonempty level sets, 2^(d-2) over the top ones), plus [G(d), G(d)]
    # for classify, whose cache is cleared; no fallback fold runs.
    monkeypatch.setattr(verify, "_DERIVED_FULL_CACHE", {})
    count = _count_normalized_closes(monkeypatch)
    assert f(d).passed
    assert count[0] == folds


def _pj_members(d, J, rng, n):
    """n seeded random members of P_J: XORs of random subsets of its basis."""
    basis = subgroups.maximal_subgroup(d, J).basis()
    return [functools.reduce(operator.xor, (b for b in basis if rng.getrandbits(1)), 0)
            for _ in range(n)]


@pytest.mark.parametrize("d", [2, 3, 4])
def test_outside_derived_pj_matches_the_direct_fold(d):
    # Probes: [a_0, a_{d-1}], the members of St_{P_J}(d-1), P_J's seeds and
    # seeded random members of P_J, as whole lists and one at a time, each
    # against [P_J, P_J] folded directly from P_J's Schreier generators.
    rng = Random(d)
    memo = {}
    for J in verify._nonempty_level_sets(d):
        gens = subgroups._pj_schreier_generators(d, J)
        direct = subgroups._derived_from_generators(d, gens)
        lin = subgroups.maximal_subgroup(d, J)
        stab = list(gf2.LinearSubgroup(d, lin.checks, lin.zero | prefix_mask(d - 1)).iter_bits())
        members = _pj_members(d, J, rng, 12)
        probes = [[verify._adad(d)], stab, subgroups._derived_seeds(d, gens), members,
                  *([x] for x in members)]
        for xs in probes:
            expected = not all(map(direct.contains_bits, xs))
            assert verify._outside_derived_pj(d, J, xs, None, memo) == expected, (d, J, xs)
            assert verify._outside_derived_pj(d, J, iter(xs), None, {}) == expected, (d, J)


@pytest.mark.parametrize("d", [2, 3, 4])
def test_outside_derived_pj_falls_back_when_every_x_is_inside(monkeypatch, d):
    # P_J's own seeds lie in [P_J, P_J], so the listed [P_K, P_K] cannot
    # decide: [P_J, P_J] is folded as well when K != J, and the answer is
    # that no seed lies outside.
    count = _count_normalized_closes(monkeypatch)
    for J in verify._nonempty_level_sets(d):
        seeds = subgroups._derived_seeds(d, subgroups._pj_schreier_generators(d, J))
        before = count[0]
        assert not verify._outside_derived_pj(d, J, seeds, None, {})
        assert count[0] - before == (1 if 0 in J else 2), (d, J)


@pytest.mark.parametrize("d", [2, 3, 4])
def test_outside_derived_pj_needs_p_js_seeds_inside_the_listing(monkeypatch, d):
    # Give J = {d-1} the generators a_0 .. a_{d-1} of G(d): its "[P_J, P_J]"
    # is then [G(d), G(d)], which holds c = [a_0, a_{d-1}].  The listed
    # [P_K, P_K], K = {0, d-1}, is still the true one and excludes c, but
    # not every seed [a_i, a_j] lies in it, so the helper must fall back
    # and find c inside; reading the listing alone would say outside.
    J, c = frozenset({d - 1}), verify._adad(d)
    K = J | {0}
    real = subgroups._pj_schreier_generators
    full_gens = tuple(spine(i) for i in range(d))
    monkeypatch.setattr(verify, "_pj_schreier_generators",
                        lambda d, S: full_gens if S == J else real(d, S))
    listed_k = subgroups._derived_from_generators(d, real(d, K))
    assert not listed_k.contains_bits(c)
    assert not all(map(listed_k.contains_bits, subgroups._derived_seeds(d, full_gens)))
    count = _count_normalized_closes(monkeypatch)
    assert not verify._outside_derived_pj(d, J, [c], None, {})
    assert count[0] == 2
