"""End-to-end verification suites with structured reports.

Each suite re-derives one of the package's headline structural facts from
scratch at desk scale:

* classify_maximal: for every nonempty level set J, decide essentiality of
  P_J, reduce, and compute the exact dimension, all by rank on P_J's
  parity check; assert that the maximal possible dimension 1 - 1/2^(d-1)
  occurs exactly for the 2^(d-1) sets J containing the top level,
  equivalently for the P_J omitting the top generator, all of which
  contain the derived subgroup of the full group.  At d <= 4 every row
  field is cross-checked by enumeration, and the listings are read only
  through their packed slots: every member of the listed [G(d), G(d)] is
  tested against the checks each listed P_J comes from, by a slot-wise
  count of members with a bit of the zero mask (count_clear) or odd
  parity under a check (count_odd), so no listed P_J builds its member
  set, and St_{P_J}(d-1) is tested against a listed derived subgroup
  (see below the list); d = 5 (use_gf2) reads the ranks alone.
* verify_no_adad: [a_0, a_{d-1}] lies outside [P_J, P_J]: parity
  certificate always, enumerated derived subgroup where feasible (see
  below the list), and the two arms must agree.
* verify_not_top_fg: the finite-generation obstruction: [a_0, a_{d-1}]
  stabilizes the top level yet avoids [P_J, P_J] (as verify_no_adad's cases
  find), so the constrained group of every maximal-dimension P_J is not
  topologically finitely generated (by the level-sum argument that
  verify_not_top_fg states: proved for J without 0, checked for the rest).
* verify_new_relation: the exact bookkeeping identity
  2|P| = |P_{d-1}|^2 * [HxH : H_1] with the embedding index read off the
  counted truncation levels (orders and orbits of 0^n, never a listing),
  still independently of |P| and |P_{d-1}|, and required to stabilize
  across two consecutive depths.
* verify_auxiliary: conjugation label law, the finite/transitive/positive-
  dimension equivalence on the exhaustive depth-2 subgroup sweep and on all
  P_J (the dimension from the stabilizer order against the orbits of 0^n
  under the truncation groups, which are counted class by class from the
  listed pattern group, never listed, so the enumeration cap does not
  apply to them), and the allowed-dimension-set law on everything
  encountered.  The sweep reduces by the enumerated set filter;
  each P_J is reduced by rank and only the reduction is listed, which must
  be essential and match the rank dimension, as in classify_maximal.

The enumerated arms of classify_maximal and verify_no_adad read one
listed derived subgroup per level-set pair {J, K = J | {0}}: P_K has
index 2, so it is normal in G(d), and so is [P_K, P_K], characteristic in
it; when [P_K, P_K] holds the commutators of P_J's Schreier generators,
whose normal closure in P_J is [P_J, P_J], it holds [P_J, P_J], and what
lies outside it lies outside [P_J, P_J].  Where that does not decide,
[P_J, P_J] is folded itself (_outside_derived_pj), so both arms stay
exact; at d = 2..4 the two derived subgroups coincide, and neither arm
falls back there.

The rows in closed form.  With m = max J, P_J is essential iff
m = d - 1, and the constrained group of P_J has dimension 1 - 1/2^m, at
every d; _check_row_consistency asserts both on every row.  P_J's check,
the J-parity, reads levels <= m only.  If m = d - 1, any depth-(d-1)
portrait extends to a member by one label on level d - 1, so
pi_{d-1}(P_J) = G(d-1), every child subpattern extends and P_J is
essential; St_{P_J}(d-1) is the even-weight last level, of log2 order
2^(d-1) - 1, so the dimension is 1 - 1/2^(d-1).  If m < d - 1, flip the
identity's label at one level-(m+1) vertex in half 0: the root's J-parity
keeps its value, as m + 1 is not in J, and child 0's flips, as m is in J;
pi_{d-1}(P_J) still checks the J-parity, so that child does not extend
and P_J is not essential.  A portrait's size-d patterns lie in P_J iff
its size-(m+1) patterns pass the J-parity, so the constrained group of
P_J is that of the size-(m+1) P_J, of dimension 1 - 1/2^m by the first
case.  So exactly the 2^(d-1) sets J holding d - 1 reach the maximal
dimension, and each P_J, of index 2, is maximal in G(d).

A genuine counterexample raises VerificationError; reports never bury one.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from random import Random
from typing import Iterable, Iterator

from . import gf2, kernel, patterns as pt
from .errors import EnumerationCapExceeded, VerificationError
from .halftree import (
    NOT_IN_DERIVED,
    JContext,
    derived_membership_certificate,
)
from .heap import prefix_mask, spine
from .report import Report
from .subgroups import (
    EnumeratedSubgroup,
    _derived_from_generators,
    _derived_seeds,
    _pj_schreier_generators,
    all_subgroups_depth2,
    check_order_cap,
    conjugation_law_counts,
    enumerate_PJ,
    full_group,
    level_stabilizer,
    listable_PJ,
    maximal_subgroup,
    resolve_cap,
)

VERDICT_NOT_TOP_FG = "not_topologically_finitely_generated"
VERDICT_UNKNOWN = "unknown"


def _level_sets(d: int, masks: range) -> list[frozenset[int]]:
    """The level sets whose bit masks are `masks`, in mask order."""
    return [frozenset(j for j in range(d) if (bits >> j) & 1) for bits in masks]


def _nonempty_level_sets(d: int) -> list[frozenset[int]]:
    return _level_sets(d, range(1, 1 << d))


def _top_level_sets(d: int) -> list[frozenset[int]]:
    # The masks with bit d - 1 set are the top half of the range.
    return _level_sets(d, range(1 << (d - 1), 1 << d))


_DERIVED_FULL_CACHE: dict[int, EnumeratedSubgroup] = {}


def derived_of_full(d: int, cap: int | None = None) -> EnumeratedSubgroup:
    """[G(d), G(d)], folded from the d generators a_i without listing G(d).

    The abelianization of G(d) has rank d, so the order is known up front;
    as in full_group, the cap check precedes the cache so behavior does not
    depend on what earlier calls happen to have enumerated.
    """
    cap = resolve_cap(cap)
    check_order_cap((1 << d) - 1 - d, cap, f"[G({d}), G({d})]")
    if d not in _DERIVED_FULL_CACHE:
        _DERIVED_FULL_CACHE[d] = _derived_from_generators(
            d, [spine(i) for i in range(d)], cap)
    return _DERIVED_FULL_CACHE[d]


class ClassificationRow(Report):
    def __init__(self, d: int, J: tuple[int, ...], essential: bool,
                 contains_a_dminus1: bool, contains_derived_of_Gd: bool,
                 dimension: Fraction, is_max_dimension: bool,
                 bs_premise_fails: bool | None, top_fg_verdict: str):
        self.d = d
        self.J = J
        self.essential = essential
        self.contains_a_dminus1 = contains_a_dminus1
        self.contains_derived_of_Gd = contains_derived_of_Gd
        self.dimension = dimension
        self.is_max_dimension = is_max_dimension
        self.bs_premise_fails = bs_premise_fails
        self.top_fg_verdict = top_fg_verdict


class ClassificationReport(Report):
    def __init__(self, d: int, rows: list[ClassificationRow], max_dimension_count: int,
                 expected_max_count: int, used_gf2: bool):
        self.d = d
        self.rows = rows
        self.max_dimension_count = max_dimension_count
        self.expected_max_count = expected_max_count
        self.used_gf2 = used_gf2

    @property
    def passed(self) -> bool:
        return self.max_dimension_count == self.expected_max_count


def _check_row_consistency(row: ClassificationRow) -> None:
    """The classification equivalences and the closed-form dimension
    1 - 1/2^(max J) of every row (see the rows in closed form above); a
    violating row aborts the run."""
    expect_max = not row.contains_a_dminus1
    problems = []
    if row.essential != expect_max:
        problems.append("essential <=> omits top generator")
    if row.is_max_dimension != expect_max:
        problems.append("max dimension <=> omits top generator")
    if not row.contains_derived_of_Gd:
        problems.append("index-2 kernel must contain the derived subgroup")
    if row.dimension != 1 - Fraction(1, 1 << max(row.J)):
        problems.append("dimension must be 1 - 1/2^(max J)")
    if problems:
        raise VerificationError(f"classification row {row.to_dict()}: " + "; ".join(problems))


@lru_cache(maxsize=None)
def _generator_commutators(d: int) -> tuple[int, ...]:
    """The d(d - 1)/2 portraits [a_i, a_j], i < j."""
    return tuple(kernel.commutator(spine(i), spine(j), d)
                 for i in range(d) for j in range(i + 1, d))


@lru_cache(maxsize=None)
def _adad(d: int) -> int:
    """The portrait of [a_0, a_{d-1}]."""
    return kernel.commutator(spine(0), spine(d - 1), d)


def _contains_derived_of_full(lin: gf2.LinearSubgroup) -> bool:
    """Whether a normal subgroup of G(d) cut out by parity checks contains
    [G(d), G(d)]: that is the normal closure of the commutators [a_i, a_j],
    so it is enough to test those."""
    return all(lin.contains_bits(c) for c in _generator_commutators(lin.depth))


def _contains_members(lin: gf2.LinearSubgroup, group: EnumeratedSubgroup) -> bool:
    """Whether every member of `group` lies in lin, read slot-wise off
    group's packed members: none has a bit of lin.zero set
    (EnumeratedSubgroup.count_clear) and none has odd parity under a check
    (EnumeratedSubgroup.count_odd).  group's member set is not built."""
    return (group.count_clear(lin.zero) == group.order
            and not any(map(group.count_odd, lin.checks)))


def _listed_reduction(checks: gf2.LinearSubgroup,
                      J: frozenset[int]) -> tuple[pt.PatternGroup, Fraction]:
    """The rank reduction `checks` of P_J, listed, and its dimension; the
    listing must pass is_essential (tested on the basis of `checks`, which
    spans it and is computed once for the listing and the test) and its
    stabilizer dimension must equal the rank dimension, or
    VerificationError."""
    d = checks.depth
    basis = checks.basis()
    group = EnumeratedSubgroup.from_linear(checks, basis)
    if not pt.is_essential(pt.PatternGroup.from_subgroup(group), tested=basis).essential:
        raise VerificationError(
            f"the rank reduction of P_J for d={d}, J={sorted(J)} is not essential")
    reduced = pt.PatternGroup(d, group, essential=True)
    dim = pt.hausdorff_dimension(reduced)
    by_rank = pt.linear_hausdorff_dimension(checks)
    if dim != by_rank:
        raise VerificationError(
            f"reduced P_J for d={d}, J={sorted(J)} has dimension {dim} from its "
            f"listing but {by_rank} by rank")
    return reduced, dim


def _outside_derived_pj(d: int, J: frozenset[int], xs: Iterable[int], cap: int | None,
                        memo: dict[frozenset[int], EnumeratedSubgroup]) -> bool:
    """Whether some x in xs lies outside [P_J, P_J], read off one listed
    derived subgroup per level-set pair {J, K}, K = J | {0}.

    P_K has index 2, so it is normal in G(d), and so is its characteristic
    subgroup [P_K, P_K].  [P_J, P_J] is the normal closure in P_J of the
    commutators of P_J's Schreier generators (_derived_seeds), so when
    [P_K, P_K] holds every one of them it holds [P_J, P_J], and an x
    outside it lies outside [P_J, P_J].  [P_K, P_K] is folded from P_K's
    Schreier generators, one fewer than P_J's when K != J.  When that does
    not decide (an x outside [P_K, P_K] with a seed outside it too, or
    every x inside it), [P_J, P_J] is folded itself, so the answer is
    exact whether or not the two coincide, as they do at d = 2..4.

    `memo` holds the last [P_K, P_K] folded: J and K are adjacent in mask
    order, so a caller walking the level sets in that order folds each K
    once and keeps one listing alive.
    """
    K = J | {0}
    if K not in memo:
        memo.clear()
        memo[K] = _derived_from_generators(d, _pj_schreier_generators(d, K), cap)
    derived = memo[K]
    xs = list(xs)
    if K != J:
        gens = _pj_schreier_generators(d, J)
        if (not all(map(derived.contains_bits, xs))
                and all(map(derived.contains_bits, _derived_seeds(d, gens)))):
            return True
        derived = _derived_from_generators(d, gens, cap)
    return not all(map(derived.contains_bits, xs))


def _classify_row(d: int, J: frozenset[int], cap: int | None,
                  derived_full: EnumeratedSubgroup | None,
                  memo: dict[frozenset[int], EnumeratedSubgroup]) -> ClassificationRow:
    """One row, read off P_J's parity check.  `derived_full`, the listed
    [G(d), G(d)], is given at d <= 4, where enumeration cross-checks every
    field and a disagreement raises VerificationError: (a) the listed
    reduction is essential with the rank dimension; (b) a P_J the ranks keep
    lists to P_J's order, one they reduce fails is_essential when listed;
    (c) every member of [G(d), G(d)] is tested slot-wise against the checks
    the listed P_J comes from (the rank reduction on essential rows, P_J's
    own check otherwise); (d) the listed St_{P_J}(d-1) against [P_J, P_J]
    by _outside_derived_pj: [P_K, P_K], K = J | {0}, folded from P_K's
    Schreier generators once for the pair {J, K} and kept in `memo`
    between the two rows, decides when it holds P_J's seeds and not all of
    St_{P_J}(d-1), else [P_J, P_J] is folded itself.  At d = 5 the
    generator commutators give contains_derived_of_Gd, and the certificate
    gives bs_premise_fails on essential rows with d - 1 in J.
    """
    enumerate_arm = derived_full is not None
    lin = listable_PJ(d, J, cap) if enumerate_arm else maximal_subgroup(d, J)
    checks, essential = pt.linear_essential_reduction(lin)
    dimension = pt.linear_hausdorff_dimension(checks)
    bs_fails: bool | None = None
    if enumerate_arm:
        reduced, _ = _listed_reduction(checks, J)
        if essential:
            listed_from = checks
            agrees = reduced.group.order == lin.order()
        else:
            listed_from, basis = lin, lin.basis()
            pj = EnumeratedSubgroup.from_linear(lin, basis)
            agrees = not pt.is_essential(pt.PatternGroup.from_subgroup(pj),
                                         tested=basis).essential
        if not agrees:
            raise VerificationError(
                f"the rank route says P_J for d={d}, J={sorted(J)} has "
                f"essential={essential}, and its listing disagrees")
        contains_derived = _contains_members(listed_from, derived_full)
        stab = gf2.LinearSubgroup(d, lin.checks, lin.zero | prefix_mask(d - 1)).iter_bits()
        bs_fails = _outside_derived_pj(d, J, stab, cap, memo)
    else:
        contains_derived = _contains_derived_of_full(lin)
        if essential and d - 1 in J:
            cert = derived_membership_certificate(JContext.for_top_level(d, J), _adad(d))
            bs_fails = cert.verdict == NOT_IN_DERIVED
    is_max = dimension == 1 - Fraction(1, 1 << (d - 1))
    return ClassificationRow(
        d=d,
        J=tuple(sorted(J)),
        essential=essential,
        contains_a_dminus1=lin.contains_bits(spine(d - 1)),
        contains_derived_of_Gd=contains_derived,
        dimension=dimension,
        is_max_dimension=is_max,
        bs_premise_fails=bs_fails,
        top_fg_verdict=(VERDICT_NOT_TOP_FG if essential and is_max and bs_fails
                        else VERDICT_UNKNOWN),
    )


def classify_maximal(d: int, *, use_gf2: bool = False,
                     cap: int | None = None) -> ClassificationReport:
    """One classification row per nonempty level set J (2^d - 1 rows)."""
    if d < 2:
        raise ValueError("classification needs depth >= 2")
    if d > 5 or (d == 5 and not use_gf2):
        hint = ("pass use_gf2 / --gf2 for the depth-5 parity fast path"
                if d == 5
                else f"the full depth-{d} group has order 2^{(1 << d) - 1}; "
                     "enumeration reaches depth 4 (depth 5 with use_gf2)")
        raise EnumerationCapExceeded(resolve_cap(cap), hint=hint)
    derived_full = derived_of_full(d, cap=cap) if d <= 4 else None
    memo: dict[frozenset[int], EnumeratedSubgroup] = {}
    rows = [_classify_row(d, J, cap, derived_full, memo)
            for J in _nonempty_level_sets(d)]
    for row in rows:
        _check_row_consistency(row)
    max_count = sum(r.is_max_dimension for r in rows)
    report = ClassificationReport(d, rows, max_count, 1 << (d - 1), d == 5)
    if not report.passed:
        raise VerificationError(
            f"expected {report.expected_max_count} maximal-dimension pattern groups "
            f"at depth {d}, found {max_count}"
        )
    return report


class NoAdadCase(Report):
    def __init__(self, J: tuple[int, ...], certificate_verdict: str,
                 certificate: str | None, enumerated_checked: bool,
                 enumerated_excluded: bool | None):
        self.J = J
        self.certificate_verdict = certificate_verdict
        self.certificate = certificate
        self.enumerated_checked = enumerated_checked
        self.enumerated_excluded = enumerated_excluded


class NoAdadReport(Report):
    def __init__(self, d: int):
        self.d = d
        self.cases: list[NoAdadCase] = []

    @property
    def passed(self) -> bool:
        return all(
            c.certificate_verdict == NOT_IN_DERIVED
            and (not c.enumerated_checked or c.enumerated_excluded)
            for c in self.cases
        )


def verify_no_adad(d: int, cap: int | None = None) -> NoAdadReport:
    """[a_0, a_{d-1}] is not a product of commutators of P_J members.

    The parity certificate runs at any supported depth; for d <= 4 the
    derived subgroup is also enumerated outright and must agree.  It is
    folded from Schreier generators, so P_J itself is never listed, and
    once per pair {J, K = J | {0}}: the listed [P_K, P_K], normal in G(d),
    excludes c from [P_J, P_J] when it excludes c and holds P_J's seeds;
    otherwise [P_J, P_J] is folded itself (_outside_derived_pj).
    """
    if d < 2:
        raise ValueError("needs depth >= 2")
    report = NoAdadReport(d)
    c = _adad(d)
    enumerate_arm = d <= 4
    memo: dict[frozenset[int], EnumeratedSubgroup] = {}
    for J in _top_level_sets(d):
        ctx = JContext.for_top_level(d, J)
        verdict = derived_membership_certificate(ctx, c)
        excluded: bool | None = None
        if enumerate_arm:
            excluded = _outside_derived_pj(d, J, [c], cap, memo)
            if (verdict.verdict == NOT_IN_DERIVED) != excluded:
                raise VerificationError(
                    f"certificate and enumeration disagree for d={d}, J={sorted(J)}"
                )
        report.cases.append(
            NoAdadCase(tuple(sorted(J)), verdict.verdict, verdict.certificate,
                       enumerate_arm, excluded)
        )
    if not report.passed:
        raise VerificationError(f"half-tree parity obstruction failed at depth {d}")
    return report


class TopFgCase(Report):
    def __init__(self, J: tuple[int, ...], in_top_stabilizer: bool,
                 certificate: str | None, enumerated_excluded: bool, verdict: str):
        self.J = J
        self.in_top_stabilizer = in_top_stabilizer
        self.certificate = certificate
        self.enumerated_excluded = enumerated_excluded
        self.verdict = verdict


class TopFgReport(Report):
    def __init__(self, d: int):
        self.d = d
        self.cases: list[TopFgCase] = []

    @property
    def passed(self) -> bool:
        return all(c.verdict == VERDICT_NOT_TOP_FG for c in self.cases)


def verify_not_top_fg(d: int, cap: int | None = None, *,
                      no_adad: NoAdadReport | None = None) -> TopFgReport:
    """Finite-generation obstruction for every maximal-dimension P_J.

    Reads verify_no_adad's cases, whose certificate and enumerated derived
    subgroup both exclude u = [a_0, a_{d-1}] from [P_J, P_J], and adds that
    u stabilizes the top level (the certificate has already checked that it
    lies in P_J).  The "not topologically finitely generated" verdict rests
    on that premise, u in P_{d-1} but not in [P, P], for the essential
    P = P_J (d - 1 in J), by level sums.  Let chi: P -> A = P/[P, P];
    chi_n(g), for g in G_P or a truncation H(m), sums chi over g's size-d
    patterns on level n.  The pattern of gh at v is g's at h(v) times h's
    at v, so chi_n is a homomorphism.  Let g_n be u placed under one
    level-n vertex and extended below (P essential makes that possible):
    chi_k(g_n) = 0 for k < n, and chi_n(g_n) = chi(u) != 0.  If every
    chi_k(g_n) has order at most 2, the images of g_0 .. g_n span
    (Z/2)^(n+1), so the image of G_P needs n + 1 generators for every n:
    G_P is not topologically finitely generated, and d(H(m)) >= m - d + 1.
    A character A -> Z/2 that is 1 at chi(u) gives that condition when
    chi(u) is not twice an element of A, as for every J without 0 at
    d <= 4.  For J holding 0 the condition is checked on g_0 .. g_5 in
    H(d + 5) at d = 2..4 (tests/test_verify.py), not proved.

    `no_adad` is a report verify_no_adad(d) has already returned, so a
    caller running both suites runs noadad once; without it,
    verify_no_adad(d, cap) runs here.
    """
    if not 2 <= d <= 4:
        raise ValueError("enumerated premise check needs 2 <= d <= 4")
    if no_adad is not None and (no_adad.d != d or not no_adad.passed):
        raise ValueError(f"no_adad must be a passed verify_no_adad report at depth {d}")
    in_stab = not _adad(d) & prefix_mask(d - 1)
    if not in_stab:
        raise VerificationError(
            f"finite-generation premise failed for d={d}: [a_0, a_{d - 1}] "
            f"moves a vertex above level {d - 1}"
        )
    report = TopFgReport(d)
    if no_adad is None:
        no_adad = verify_no_adad(d, cap)
    for case in no_adad.cases:
        report.cases.append(
            TopFgCase(case.J, in_stab, case.certificate, case.enumerated_excluded,
                      VERDICT_NOT_TOP_FG)
        )
    return report


class NewRelationCase(Report):
    KEYS = {"label": "case", "order_p": "order_P", "order_stab": "order_P_top_stabilizer"}

    def __init__(self, label: str, J: tuple[int, ...] | None, order_p: int,
                 order_stab: int, psi_index: int | None,
                 psi_depths: tuple[tuple[int, int], ...], stabilized: bool,
                 equality_holds: bool | None):
        self.label = label
        self.J = J
        self.order_p = order_p
        self.order_stab = order_stab
        self.psi_index = psi_index
        self.psi_depths = psi_depths
        self.stabilized = stabilized
        self.equality_holds = equality_holds


class NewRelationReport(Report):
    def __init__(self, d: int):
        self.d = d
        self.cases: list[NewRelationCase] = []
        self.incomplete = False

    @property
    def passed(self) -> bool:
        return not self.incomplete and all(c.equality_holds for c in self.cases)


def verify_new_relation(d: int, cap: int | None = None) -> NewRelationReport:
    """Exact identity 2|P| = |P_{d-1}|^2 * [HxH : H_1] for every top-level J,
    plus the full pattern group; maximal cases must have index exactly 2.
    |P_{d-1}|, the level-(d-1) stabilizer, is counted off P's packed
    members (count_clear), so no listed P_J builds its member set."""
    if not 2 <= d <= 3:
        raise ValueError("embedding-index enumeration needs 2 <= d <= 3")
    report = NewRelationReport(d)

    def run_case(label: str, J: frozenset[int] | None, group: EnumeratedSubgroup,
                 expect_index: int | None) -> None:
        pg = pt.PatternGroup.from_subgroup(group)
        stab_order = group.count_clear(prefix_mask(d - 1))
        psi = pt.psi_image_index(pg)
        holds = None  # an index that never stabilized leaves the identity unread
        if psi.stabilized:
            holds = 2 * group.order == stab_order ** 2 * psi.value
            if not holds:
                raise VerificationError(
                    f"bookkeeping identity failed for {label}: "
                    f"2*{group.order} != {stab_order}^2 * {psi.value}"
                )
            if expect_index is not None and psi.value != expect_index:
                raise VerificationError(
                    f"embedding index for {label} is {psi.value}, expected {expect_index}"
                )
        else:
            report.incomplete = True
        report.cases.append(
            NewRelationCase(label, tuple(sorted(J)) if J else None,
                            group.order, stab_order, psi.value, psi.per_depth,
                            psi.stabilized, holds)
        )

    for J in _top_level_sets(d):
        run_case(f"P_J, J={sorted(J)}", J, enumerate_PJ(d, J, cap=cap), expect_index=2)
    run_case("full pattern group", None, full_group(d, cap=cap), expect_index=1)
    return report


class AuxReport(Report):
    def __init__(self, d: int):
        self.d = d
        self.conjugation_pairs_checked = 0
        self.conjugation_failures = 0
        self.sweep_groups_processed = 0
        self.sweep_equivalences_hold = True
        self.pj_equivalences_hold = True
        self.allowed_set_violations = 0

    @property
    def passed(self) -> bool:
        return (
            self.conjugation_failures == 0
            and self.sweep_equivalences_hold
            and self.pj_equivalences_hold
            and self.allowed_set_violations == 0
        )


#: Transitivity probes stop (never silently wrong, just shallower) after
#: the first level H with |H| above this.  H is counted, not listed, so this
#: fixes which levels are probed, not what they cost in memory.
PROBE_ORDER_LIMIT = 1 << 10

#: Transitivity probes reach this many levels past the pattern depth.
PROBE_DEPTH_EXTRA = 2


def _transitivity_matches(reduced: pt.PatternGroup, dim: Fraction) -> bool:
    """Whether the constrained group of the essential `reduced`, whose
    dimension is `dim`, is level-transitive exactly when dim is nonzero.

    Probes levels d .. d+PROBE_DEPTH_EXTRA, stopping after the first level
    of order above PROBE_ORDER_LIMIT; level d (the pattern group itself) is
    always probed.  Each level's order and orbit of 0^n come from
    truncation_orbits, which counts the truncation groups instead of listing
    them and reads only the listed `reduced`, so this route shares nothing
    with the stabilizer count or the rank route that gave `dim`.  A finite
    constrained group must lose transitivity at a probed level.
    """
    d = reduced.depth
    probes = []
    for level in pt.truncation_orbits(reduced):
        probes.append(len(level.orbit) == 1 << level.depth)
        if level.depth == d + PROBE_DEPTH_EXTRA or level.order > PROBE_ORDER_LIMIT:
            break
    return all(probes) == (dim != 0)


def _reduced_pj(d: int, J: frozenset[int],
                cap: int | None) -> tuple[pt.PatternGroup, Fraction]:
    """The essential reduction of P_J and its dimension, reduced by rank and
    listed alone (_listed_reduction): P_J itself is never listed, though its
    order is checked against the cap as enumerate_PJ checks it."""
    checks, _ = pt.linear_essential_reduction(listable_PJ(d, J, cap))
    return _listed_reduction(checks, J)


def conjugation_pairs(d: int, samples: int, seed: int,
                      cap: int | None = None) -> Iterator[kernel.Chunk]:
    """The (h, g) portrait pairs of verify_auxiliary's conjugation law, h in
    the level-(d-1) stabilizer, as conjugation_law_counts' packed chunks:
    every pair through depth 3 (kernel.packed_chunks), `samples` seeded
    random pairs above (kernel.sampled_chunks at level d-1), from
    Random(seed), seed at least 0: per chunk one getrandbits call for the
    hs' last-level labels, then one for the gs.  The pairs depend on
    kernel.CHUNK_BITS and on where `samples` cuts the last chunk; the
    report counts them and prints none.
    """
    if seed < 0:
        raise ValueError(f"seed must be at least 0, got {seed}")
    if d <= 3:
        grp = full_group(d, cap=cap)
        stab = level_stabilizer(grp, d - 1).sorted_bits()
        return kernel.packed_chunks(((h, g) for h in stab for g in grp.sorted_bits()), d)
    return kernel.sampled_chunks(Random(seed), samples, d, level=d - 1)


def verify_auxiliary(d: int, samples: int = 10_000, seed: int = 0,
                     cap: int | None = None) -> AuxReport:
    """Conjugation label law, the depth-2 subgroup sweep, and the P_J
    equivalences at depth d.  `samples` (at least 1) is the number of
    sampled conjugation pairs at d = 4; below that every pair is checked.

    The ten sweep groups are reduced by the set filter (essential_reduction),
    each P_J by rank with only its reduction listed (_reduced_pj, which
    cross-checks the two routes).  Each group's dimension is computed once.
    """
    if not 2 <= d <= 4:
        raise ValueError("auxiliary suite needs 2 <= d <= 4")
    if d == 4 and samples < 1:
        raise ValueError(f"samples must be at least 1, got {samples}")
    report = AuxReport(d)

    # Conjugation label law: exhaustive through depth 3, sampled above.
    report.conjugation_pairs_checked, report.conjugation_failures = conjugation_law_counts(
        d, conjugation_pairs(d, samples, seed, cap))

    def check(reduced: pt.PatternGroup, dim: Fraction) -> bool:
        """The three-way equivalence; counts an allowed-set violation."""
        holds = _transitivity_matches(reduced, dim)
        if not pt.is_allowed_dimension(reduced, dim):
            report.allowed_set_violations += 1
        return holds

    # Exhaustive depth-2 sweep, reduced by the enumerated route.
    for s in all_subgroups_depth2(cap):
        reduced = pt.essential_reduction(pt.PatternGroup.from_subgroup(s))
        report.sweep_groups_processed += 1
        if not check(reduced, pt.hausdorff_dimension(reduced)):
            report.sweep_equivalences_hold = False

    # All maximal subgroups at depth d, reduced by rank.
    for J in _nonempty_level_sets(d):
        if not check(*_reduced_pj(d, J, cap)):
            report.pj_equivalences_hold = False
    return report
