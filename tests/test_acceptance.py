"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

The per-criterion lines bypass output capture, so a plain
`pytest tests/test_acceptance.py -v` shows them.  Time limits are the
stated ones; classification timings are taken on fresh subprocesses so
library caches cannot flatter them.
"""

import json
import os
import random
import subprocess
import sys
import time
from contextlib import contextmanager
from fractions import Fraction

import pytest

from treegrp import gf2, kernel
from treegrp.halftree import (
    NOT_IN_DERIVED,
    JContext,
    derived_membership_certificate,
    verify_ni_identities,
)
from treegrp.patterns import (
    PatternGroup,
    essential_reduction,
    hausdorff_dimension,
    is_allowed_dimension,
    psi_image_index,
)
from treegrp.heap import prefix_mask
from treegrp.portrait import FiniteAutomorphism
from treegrp.subgroups import (
    all_subgroups_depth2,
    close,
    derived_subgroup,
    enumerate_PJ,
    full_group,
    level_stabilizer,
    maximal_subgroup,
)
from treegrp.verify import _contains_derived_of_full, _transitivity_matches, derived_of_full

from oracles import commutator, derived_subgroup_allpairs, generator, generators
from test_patterns import is_finite


@pytest.fixture()
def criterion(capsys):
    """Context manager printing one PASS/FAIL line per criterion, past capture."""

    @contextmanager
    def _criterion(number: int, description: str):
        try:
            yield
        except BaseException:
            with capsys.disabled():
                print(f"\nACCEPTANCE {number} FAIL: {description}")
            raise
        with capsys.disabled():
            print(f"ACCEPTANCE {number} PASS: {description}")

    return _criterion


def top_level_sets(d):
    return [
        frozenset(j for j in range(d) if (bits >> j) & 1)
        for bits in range(1, 1 << d)
        if (bits >> (d - 1)) & 1
    ]


def run_cli(*args):
    env = dict(os.environ)
    env.pop("TREEGRP_CAP", None)
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "treegrp.cli", *args],
        capture_output=True,
        text=True,
        env=env,
    )
    elapsed = time.perf_counter() - start
    return proc, elapsed


def test_criterion_1_classification_at_desk_scale(criterion):
    with criterion(1, "classification of maximal-dimension pattern groups, d=2..4"):
        limits = {2: 5.0, 3: 10.0, 4: 120.0}
        for d, limit in limits.items():
            proc, elapsed = run_cli(
                "classify", "--d", str(d), "--format", "json", "--no-timestamp"
            )
            assert proc.returncode == 0, proc.stderr
            assert elapsed < limit, f"classify --d {d} took {elapsed:.1f}s (limit {limit}s)"
            report = json.loads(proc.stdout)["report"]
            max_rows = [r for r in report["rows"] if r["is_max_dimension"]]
            assert len(max_rows) == 1 << (d - 1)
            assert report["max_dimension_count"] == 1 << (d - 1)
            for row in max_rows:
                assert row["essential"] is True
                assert row["dimension"] == {"num": (1 << (d - 1)) - 1, "den": 1 << (d - 1)}
                assert row["contains_a_dminus1"] is False
                assert row["contains_derived_of_Gd"] is True


def test_criterion_2_top_commutator_avoids_derived_subgroup(criterion):
    with criterion(2, "[a_0,a_{d-1}] outside [P_J,P_J]: enumeration d=2..4, certificate to d=8"):
        start = time.perf_counter()
        cases = 0
        for d in (2, 3, 4):
            c = commutator(generator(d, 0), generator(d, d - 1))
            for J in top_level_sets(d):
                pj = enumerate_PJ(d, J)
                derived = derived_subgroup(pj)
                stab = level_stabilizer(pj, d - 1)
                assert stab.contains_bits(c.bits), (d, sorted(J))
                assert not derived.contains_bits(c.bits), (d, sorted(J))
                verdict = derived_membership_certificate(JContext.for_top_level(d, J), c.bits)
                assert verdict.verdict == NOT_IN_DERIVED, (d, sorted(J))
                cases += 1
        assert cases == 2 + 4 + 8
        for d in (5, 6, 7, 8):
            c = commutator(generator(d, 0), generator(d, d - 1))
            js = top_level_sets(d)
            assert len(js) == 1 << (d - 1)
            for J in js:
                verdict = derived_membership_certificate(JContext.for_top_level(d, J), c.bits)
                assert verdict.verdict == NOT_IN_DERIVED, (d, sorted(J))
        elapsed = time.perf_counter() - start
        assert elapsed < 60.0, f"took {elapsed:.1f}s (limit 60s)"


def test_criterion_3_top_stabilizer_orders(criterion):
    with criterion(3, "|P_{d-1}| = 2^(2^(d-1)-1) in every maximal-dimension case, d=2..4"):
        for d in (2, 3, 4):
            expected = 1 << ((1 << (d - 1)) - 1)
            for J in top_level_sets(d):
                stab = level_stabilizer(enumerate_PJ(d, J), d - 1)
                assert stab.order == expected, (d, sorted(J), stab.order)


def test_criterion_4_halftree_parity_transformation_laws(criterion):
    with criterion(4, "half-tree parity laws: exhaustive on depth 3, 10^4 random pairs d=2..8"):
        for J in ({1, 2}, {2}):
            report = verify_ni_identities(JContext.make(3, J), exhaustive=True)
            assert report.passed and report.pairs_checked == 16384, sorted(J)
        for d in range(2, 9):
            J = {d - 1} if d == 2 else {1, d - 1}
            report = verify_ni_identities(JContext.make(d, J), samples=10_000, seed=97 + d)
            assert report.passed and report.pairs_checked == 10_000, d


def test_criterion_5_order_bookkeeping_identity(criterion):
    with criterion(5, "2|P| = |P_{d-1}|^2 [HxH:H_1] exactly, with stabilized embedding index"):
        for d in (2, 3):
            for J in top_level_sets(d):
                pj = enumerate_PJ(d, J)
                pg = PatternGroup.from_subgroup(pj)
                psi = psi_image_index(pg)
                assert psi.stabilized, (d, sorted(J))
                assert len(psi.per_depth) >= 2
                assert psi.per_depth[-1][1] == psi.per_depth[-2][1]
                stab = level_stabilizer(pj, d - 1)
                assert 2 * pj.order == stab.order ** 2 * psi.value, (d, sorted(J))
                assert psi.value == 2, (d, sorted(J))
            full_pg = PatternGroup.from_subgroup(full_group(d))
            psi = psi_image_index(full_pg)
            assert psi.stabilized and psi.value == 1
            stab = level_stabilizer(full_group(d), d - 1)
            assert 2 * full_group(d).order == stab.order ** 2 * psi.value


def test_criterion_6_oracle_equivalences(criterion):
    with criterion(6, "derived-subgroup fast path vs all-pairs oracle; parity membership vs enumeration"):
        for s in all_subgroups_depth2():
            assert derived_subgroup(s) == derived_subgroup_allpairs(s)
        rng = random.Random(606)
        for _ in range(50):
            gens = [FiniteAutomorphism.random(3, rng) for _ in range(rng.randrange(1, 4))]
            s = close(3, [g.bits for g in gens])
            assert derived_subgroup(s) == derived_subgroup_allpairs(s)
        for d in (2, 3, 4):
            derived_bits = derived_of_full(d).element_bits
            for bits in range(1, 1 << d):
                J = frozenset(j for j in range(d) if (bits >> j) & 1)
                assert _contains_derived_of_full(maximal_subgroup(d, J)) == (
                    derived_bits <= enumerate_PJ(d, J).element_bits), (d, sorted(J))
            # Every P_J contains [G(d), G(d)]; of the level stabilizers
            # St(k), k = 1..d-1, only St(1) does, so a wrong True fails here.
            contains = []
            for k in range(1, d):
                stab = gf2.LinearSubgroup(d, (), zero=prefix_mask(k))
                listed = derived_bits <= frozenset(stab.iter_bits())
                assert _contains_derived_of_full(stab) == listed, (d, k)
                contains.append(listed)
            assert contains == [k == 1 for k in range(1, d)], d


def test_criterion_7_possible_dimension_values_and_equivalences(criterion):
    with criterion(7, "allowed dimension set on the depth-2 sweep; finite/transitive/dimension equivalence"):
        dims = set()
        for s in all_subgroups_depth2():
            pg = PatternGroup.from_subgroup(s)
            reduced = essential_reduction(pg)
            dim = hausdorff_dimension(reduced)
            dims.add(dim)
            assert dim in {Fraction(0), Fraction(1, 2), Fraction(1)}
            assert (dim == 0) == is_finite(reduced)
            if dim == 1:
                assert reduced.group == full_group(2)
            assert is_allowed_dimension(reduced, dim)
            assert _transitivity_matches(reduced, dim)
        assert dims == {Fraction(0), Fraction(1, 2), Fraction(1)}
        for d in (3, 4):
            for bits in range(1, 1 << d):
                J = frozenset(j for j in range(d) if (bits >> j) & 1)
                reduced = essential_reduction(PatternGroup.from_subgroup(enumerate_PJ(d, J)))
                assert _transitivity_matches(reduced, hausdorff_dimension(reduced)), \
                    (d, sorted(J))


def test_criterion_8_performance(criterion):
    with criterion(8, "G(4) closure < 1s; derived subgroup of a 16384-element P_J < 30s"):
        start = time.perf_counter()
        bits = kernel.close(4, [g.bits for g in generators(4)], 1 << 26)
        closure_time = time.perf_counter() - start
        assert len(bits) == 32768
        assert closure_time < 1.0, f"G(4) closure took {closure_time:.2f}s"

        pj = enumerate_PJ(4, {3})
        assert pj.order == 16384
        start = time.perf_counter()
        derived = derived_subgroup(pj)
        derived_time = time.perf_counter() - start
        assert derived.order >= 2
        assert derived_time < 30.0, f"derived subgroup took {derived_time:.2f}s"
