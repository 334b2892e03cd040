"""Half-tree parity functionals, their transformation laws, and the
derived-subgroup certificate.

Oracles: the transformation laws are evaluated on both sides from raw
portraits; the parity pair of a commutator is read off its portrait and
through the commutator law, the two held against each other; the
certificate is held against the enumerated derived subgroup, for soundness
and for silence on every member.
"""

import random
import tracemalloc

import pytest

from treegrp import kernel
from treegrp.halftree import (
    INCONCLUSIVE,
    NOT_IN_DERIVED,
    JContext,
    N,
    derived_membership_certificate,
    verify_ni_identities,
    verify_ni_identities_for,
)
from treegrp.portrait import FiniteAutomorphism, identity
from treegrp.subgroups import derived_subgroup, enumerate_PJ, maximal_subgroup

from oracles import commutator, from_labels, generator, state


def top_level_sets(d):
    return [
        frozenset(j for j in range(d) if (bits >> j) & 1)
        for bits in range(1, 1 << d)
        if (bits >> (d - 1)) & 1
    ]


def sample_pj_member(rng, d, J):
    pred = maximal_subgroup(d, J)
    while True:
        g = FiniteAutomorphism.random(d, rng)
        if pred.contains_bits(g.bits):
            return g


# -- JContext -------------------------------------------------------------------


def test_jcontext_validation():
    with pytest.raises(ValueError):
        JContext.make(3, set())
    with pytest.raises(ValueError):
        JContext.make(3, {3})
    with pytest.raises(ValueError):
        JContext.for_top_level(3, {0, 1})
    ctx = JContext.for_top_level(3, {0, 2})
    assert ctx.jprime == {2}
    assert ctx.i0 == 1
    assert JContext.make(3, {1}).i0 == 0


def test_jprime_nonempty_when_top_level_present():
    for d in range(2, 7):
        for J in top_level_sets(d):
            assert JContext.make(d, J).jprime


# -- N -------------------------------------------------------------------------


def test_n_of_identity_vanishes():
    ctx = JContext.make(3, {1, 2})
    assert N(identity(3).bits, ctx, 0) == 0
    assert N(identity(3).bits, ctx, 1) == 0


def test_n_counts_half_tree_labels():
    ctx = JContext.make(3, {0, 1, 2})
    g = from_labels(3, {"0": 1, "10": 1, "11": 1, "": 1})
    # level 0 is excluded (not in J'); halves split on the first symbol
    assert N(g.bits, ctx, 0) == 1  # vertex "0"
    assert N(g.bits, ctx, 1) == 0  # vertices "10", "11" cancel


def test_n_of_top_commutator():
    for d in range(2, 9):
        c = commutator(generator(d, 0), generator(d, d - 1))
        for J in top_level_sets(d) if d <= 5 else [frozenset({d - 1})]:
            ctx = JContext.make(d, J)
            assert N(c.bits, ctx, 0) == 1
            assert N(c.bits, ctx, 1) == 1


def test_right_multiplication_by_root_swap_exchanges_parities():
    rng = random.Random(501)
    for d in (2, 3, 5, 7):
        ctx = JContext.make(d, {d - 1})
        a0 = generator(d, 0)
        for _ in range(10_000 // 4):
            g = FiniteAutomorphism.random(d, rng)
            ga0 = g * a0
            assert N(ga0.bits, ctx, 0) == N(g.bits, ctx, 1)
            assert N(ga0.bits, ctx, 1) == N(g.bits, ctx, 0)


def test_n_depth_mismatch_and_bad_half():
    ctx = JContext.make(3, {2})
    with pytest.raises(ValueError):
        N(1 << 7, ctx, 0)  # a depth-3 portrait has 7 bits
    with pytest.raises(ValueError):
        N(identity(3).bits, ctx, 2)


# -- transformation laws -----------------------------------------------------------


def test_identities_on_identity_pair():
    ctx = JContext.make(2, {1})
    rep = verify_ni_identities(ctx, samples=1, seed=0)
    assert rep.passed


def test_identities_exhaustive_depth2():
    for J in ({1}, {0, 1}):
        rep = verify_ni_identities(JContext.make(2, J), exhaustive=True)
        assert rep.passed and rep.pairs_checked == 64


def test_identities_random_each_depth():
    for d in range(2, 9):
        J = {d - 1} if d == 2 else {1, d - 1}
        rep = verify_ni_identities(JContext.make(d, J), samples=2000, seed=7)
        assert rep.passed
        assert rep.pairs_checked == 2000


def reference_ni_failures(ctx, samples, seed, limit=10):
    """The three laws checked on FiniteAutomorphism objects, one pair at a time.

    Returns the first `limit` failing pairs (every one for limit=None).
    """
    rng = random.Random(seed)
    failures = []
    for _ in range(samples):
        g = FiniteAutomorphism.random(ctx.depth, rng)
        h = FiniteAutomorphism.random(ctx.depth, rng)
        ag, ah = g.bits & 1, h.bits & 1
        gh, ginv, c = g * h, ~g, commutator(g, h)
        law = None
        if any(N(gh.bits, ctx, i) != N(h.bits, ctx, i) ^ N(g.bits, ctx, i ^ ah) for i in (0, 1)):
            law = "product"
        elif any(N(ginv.bits, ctx, i) != N(g.bits, ctx, i ^ ag) for i in (0, 1)):
            law = "inverse"
        elif any(N(c.bits, ctx, i) != N(g.bits, ctx, i) ^ N(g.bits, ctx, i ^ ah) ^ N(h.bits, ctx, i)
                 ^ N(h.bits, ctx, i ^ ag) for i in (0, 1)):
            law = "commutator"
        if law is not None and (limit is None or len(failures) < limit):
            failures.append({"law": law, "g": g.to_hex(), "h": h.to_hex()})
    return failures


#: Where each batch op's result sits in kernel.law_batches' triple.
LAW_OUTPUT = {"compose": 0, "invert": 1, "commutator": 2}


def break_kernel(monkeypatch, broken, fault):
    """Put one of the three law products through fault, on both paths.

    The batch path takes g∘h, g^-1 and [g, h] of a chunk from one
    kernel.law_batches call, and only the `broken` entry of its triple goes
    through fault.  The single ops are the n = 1 case of the batch ops and
    call them through the kernel module, so patching `broken`_batch breaks
    its single op too, and the object path of reference_ni_failures sees
    the same fault.  A fault reads the first operand, g in both calls, as
    args[0], and n, d as args[-2], args[-1].
    """
    batch = f"{broken}_batch"
    monkeypatch.setattr(kernel, batch, fault(getattr(kernel, batch)))
    i, laws = LAW_OUTPUT[broken], kernel.law_batches

    def broken_laws(*args):
        out = list(laws(*args))
        out[i] = fault(lambda *_: out[i])(*args)
        return tuple(out)

    monkeypatch.setattr(kernel, "law_batches", broken_laws)


def flip_vertex_0(original):
    """A batch kernel op that flips the label at vertex "0" (level 1, half 0)
    of each sample whose first operand has it."""
    def flipped(*args):
        out = original(*args)
        n = args[-2]
        vertex_0 = ((1 << 2 * n) - 1) // 3 << 2 * n  # bit 2n + 2j of each sample j
        return out ^ (args[0] & vertex_0)
    return flipped


def out_of_range(original):
    """A batch kernel op that sets one bit above the batch: n * 2^d, for n
    samples of depth d."""
    return lambda *args: original(*args) | 1 << (args[-2] << args[-1])


@pytest.mark.parametrize("broken, law", [("compose", "product"), ("invert", "inverse"),
                                         ("commutator", "commutator")])
def test_identities_report_broken_kernel_like_object_path(monkeypatch, broken, law):
    break_kernel(monkeypatch, broken, flip_vertex_0)
    ctx = JContext.make(3, {1, 2})
    failures = reference_ni_failures(ctx, samples=200, seed=11)
    assert failures
    rep = verify_ni_identities(ctx, samples=200, seed=11)
    assert rep.pairs_checked == 200
    assert rep.failures == failures
    assert {f["law"] for f in rep.failures} == {law}


@pytest.mark.parametrize("d", [4, 8])
def test_reported_pairs_are_the_per_draw_stream_pairs(monkeypatch, d):
    # A reported pair is read off its chunk's two batches, level by level,
    # at d = 4, where levels 0-2 share a byte, and at d = 8.
    break_kernel(monkeypatch, "compose", flip_vertex_0)
    ctx = JContext.make(d, {1, d - 1})
    samples = (kernel.CHUNK_BITS >> d) + 3
    rep = verify_ni_identities(ctx, samples=samples, seed=13)
    assert len(rep.failures) == 10
    assert rep.failures == reference_ni_failures(ctx, samples=samples, seed=13)


def test_identities_reject_out_of_range_portraits(monkeypatch):
    break_kernel(monkeypatch, "compose", out_of_range)
    with pytest.raises(ValueError, match="out of range"):
        verify_ni_identities(JContext.make(3, {2}), samples=1)


@pytest.mark.parametrize("d", [2, 3, 4])
def test_shared_stream_reports_equal_single_context_reports(d):
    contexts = [JContext.make(d, J) for J in top_level_sets(d)]
    reports = verify_ni_identities_for(contexts, samples=300, seed=d)
    assert [r.levels for r in reports] == [tuple(sorted(c.levels)) for c in contexts]
    for ctx, rep in zip(contexts, reports):
        assert state(rep) == state(verify_ni_identities(ctx, samples=300, seed=d))
    if d <= 3:
        exhaustive = verify_ni_identities_for(contexts, exhaustive=True)
        for ctx, rep in zip(contexts, exhaustive):
            assert state(rep) == state(verify_ni_identities(ctx, exhaustive=True))
            assert rep.pairs_checked == 1 << 2 * ((1 << d) - 1)


@pytest.mark.parametrize("broken", ["compose", "invert", "commutator"])
def test_shared_stream_reports_broken_kernel_for_each_level_set(monkeypatch, broken):
    break_kernel(monkeypatch, broken, flip_vertex_0)
    contexts = [JContext.make(3, J) for J in top_level_sets(3)]
    reports = verify_ni_identities_for(contexts, samples=200, seed=11)
    for ctx, rep in zip(contexts, reports):
        assert rep.pairs_checked == 200
        assert rep.failures == reference_ni_failures(ctx, samples=200, seed=11)
    # The flipped label sits on level 1: level sets through it fail, the others pass.
    assert [bool(rep.failures) for rep in reports] == [1 in c.levels for c in contexts]


@pytest.mark.parametrize("broken", ["compose", "invert", "commutator"])
def test_shared_stream_rejects_out_of_range_portraits(monkeypatch, broken):
    break_kernel(monkeypatch, broken, out_of_range)
    with pytest.raises(ValueError, match="out of range"):
        verify_ni_identities_for([JContext.make(3, J) for J in top_level_sets(3)], samples=1)


def flip_vertex_0_rarely(original):
    """flip_vertex_0 limited to samples whose first operand also labels the
    first 7 vertices of level 5: about one depth-6 pair in 256 is broken."""
    def flipped(*args):
        out = original(*args)
        x, n = args[0], args[-2]
        for j in range(n):
            if (x >> ((n << 5) + (j << 5))) & 0x7f == 0x7f and (x >> (2 * n + 2 * j)) & 1:
                out ^= 1 << (2 * n + 2 * j)
        return out
    return flipped


CHUNK_CONTEXTS = [{1, 5}, {0, 1, 5}, {5}, {0, 2, 3, 5}]


def test_multi_chunk_run_equals_per_context_reports():
    per_chunk = kernel.CHUNK_BITS >> 6
    samples = 3 * per_chunk + 5  # four chunks, the last one short
    contexts = [JContext.make(6, J) for J in CHUNK_CONTEXTS]
    reports = verify_ni_identities_for(contexts, samples=samples, seed=41)
    for ctx, rep in zip(contexts, reports):
        assert rep.passed and rep.pairs_checked == samples
        assert state(rep) == state(verify_ni_identities(ctx, samples=samples, seed=41))


def test_multi_chunk_failures_stop_at_ten_across_chunks(monkeypatch):
    break_kernel(monkeypatch, "compose", flip_vertex_0_rarely)
    per_chunk = kernel.CHUNK_BITS >> 6
    samples, seed = 5 * per_chunk, 43
    contexts = [JContext.make(6, J) for J in CHUNK_CONTEXTS]
    reports = verify_ni_identities_for(contexts, samples=samples, seed=seed)
    for ctx, rep in zip(contexts, reports):
        assert rep.pairs_checked == samples
        assert rep.failures == reference_ni_failures(ctx, samples=samples, seed=seed)
    assert [len(rep.failures) for rep in reports] == [10, 10, 0, 0]
    # Where the reported pairs sit in the stream: the ten span several chunks,
    # and the stream holds more broken pairs than were reported.
    rng = random.Random(seed)
    stream = [FiniteAutomorphism.random(6, rng).to_hex() for _ in range(2 * samples)]
    position = {pair: i for i, pair in enumerate(zip(stream[::2], stream[1::2]))}
    chunks = [position[f["g"], f["h"]] // per_chunk for f in reports[0].failures]
    assert chunks == sorted(chunks) and chunks[0] < chunks[-1] < 4
    full = reference_ni_failures(contexts[0], samples=samples, seed=seed, limit=None)
    assert len(full) > 10


def per_pair_failures(ctx, samples, seed):
    """The three laws checked pair by pair with N on the chunks' batches,
    unpacked: the products come from kernel.law_batches, so a fault put
    into it shows here as in the check.  The first ten failing pairs."""
    d, failures = ctx.depth, []
    for n, g, h in kernel.sampled_chunks(random.Random(seed), samples, d):
        batches = (g, h, *kernel.law_batches(g, h, n, d))
        for gj, hj, ghj, ginvj, cj in zip(*(kernel.unpack(x, n, d) for x in batches)):
            ag, ah = gj & 1, hj & 1
            law = None
            if any(N(ghj, ctx, i) != N(hj, ctx, i) ^ N(gj, ctx, i ^ ah) for i in (0, 1)):
                law = "product"
            elif any(N(ginvj, ctx, i) != N(gj, ctx, i ^ ag) for i in (0, 1)):
                law = "inverse"
            elif any(N(cj, ctx, i) != N(gj, ctx, i) ^ N(gj, ctx, i ^ ah) ^ N(hj, ctx, i)
                     ^ N(hj, ctx, i ^ ag) for i in (0, 1)):
                law = "commutator"
            if law is not None and len(failures) < 10:
                failures.append({"law": law, "g": FiniteAutomorphism(d, gj).to_hex(),
                                 "h": FiniteAutomorphism(d, hj).to_hex()})
    return failures


def flip_level(m):
    """A fault that flips each sample's label at the first vertex of level m
    where the first operand has it."""
    def fault(original):
        def flipped(*args):
            out = original(*args)
            n = args[-2]
            firsts = ((1 << (n << m)) - 1) // ((1 << (1 << m)) - 1) << (n << m)
            return out ^ (args[0] & firsts)
        return flipped
    return fault


@pytest.mark.parametrize("d", range(5, 10))
@pytest.mark.parametrize("flipped", [None, 2, 3, "top"])
def test_shared_stream_reads_the_union_of_the_level_sets(monkeypatch, d, flipped):
    # J = {0} reads no level, level 3 lies outside every J' here, and level 2
    # only in the scattered set's; 300 pairs are two chunks from d = 8 on.
    level_sets = [{0}, {d - 1}, {1, d - 1}, {0, 2, d - 1}]
    m = d - 1 if flipped == "top" else flipped
    if m is not None:
        break_kernel(monkeypatch, "compose", flip_level(m))
    contexts = [JContext.make(d, J) for J in level_sets]
    reports = verify_ni_identities_for(contexts, samples=300, seed=60 + d)
    for ctx, rep in zip(contexts, reports):
        assert rep.pairs_checked == 300
        assert rep.failures == per_pair_failures(ctx, 300, 60 + d)
    assert [bool(rep.failures) for rep in reports] == [m in c.jprime for c in contexts]


def test_chunked_run_memory_does_not_grow_with_pairs():
    contexts = [JContext.make(6, {1, 5})]
    verify_ni_identities_for(contexts, samples=10)  # builds the kernel's tables
    peaks = []
    for samples in (4_000, 40_000):
        tracemalloc.start()
        try:
            verify_ni_identities_for(contexts, samples=samples, seed=47)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 1.5 * peaks[0]


@pytest.mark.parametrize("exhaustive", [False, True])
def test_identities_reject_a_negative_seed(exhaustive):
    with pytest.raises(ValueError, match="seed"):
        verify_ni_identities_for([JContext.make(3, {2})], samples=5, seed=-7,
                                 exhaustive=exhaustive)


def test_shared_stream_needs_one_depth():
    assert verify_ni_identities_for([], samples=5) == []
    with pytest.raises(ValueError, match="one depth"):
        verify_ni_identities_for([JContext.make(2, {1}), JContext.make(3, {2})], samples=5)


def test_identity_report_serialization():
    rep = verify_ni_identities(JContext.make(2, {1}), samples=10, seed=1)
    doc = rep.to_dict()
    assert doc["passed"] is True and doc["failures"] == []


def test_pj_member_parity_check_survives_optimize_flag(run_optimized):
    # A membership predicate that admits a non-member must be caught by the
    # parity identity even when asserts are stripped.
    proc = run_optimized("""
        from treegrp.errors import VerificationError
        from treegrp.halftree import JContext, derived_membership_certificate
        from treegrp.heap import spine
        from treegrp import gf2

        gf2.LinearSubgroup.contains_bits = lambda self, g: True
        try:
            derived_membership_certificate(JContext.make(3, {1, 2}), spine(1))
        except VerificationError:
            print("raised")
    """)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "raised"


# -- certificate -----------------------------------------------------------------------


def test_certificate_on_top_commutator_all_depths():
    for d in range(2, 9):
        c = commutator(generator(d, 0), generator(d, d - 1))
        for J in top_level_sets(d):
            verdict = derived_membership_certificate(JContext.for_top_level(d, J), c.bits)
            assert verdict.verdict == NOT_IN_DERIVED
            assert verdict.certificate == "N0"


def test_certificate_inconclusive_on_identity_and_commutators():
    # Every element of [P_J, P_J]: the identity, every commutator, and every
    # product of commutators.
    for d in (2, 3, 4):
        for J in top_level_sets(d):
            ctx = JContext.for_top_level(d, J)
            for x in derived_subgroup(enumerate_PJ(d, J)):
                v = derived_membership_certificate(ctx, x.bits)
                assert v.verdict == INCONCLUSIVE, (d, sorted(J), x)


# -- commutator parity ----------------------------------------------------------------


def commutator_parity(g, h, ctx):
    """(N_0, N_1) of [g, h], read off the commutator's portrait and through
    the commutator transformation law; the two routes must agree."""
    c = commutator(g, h)
    direct = (N(c.bits, ctx, 0), N(c.bits, ctx, 1))
    ag, ah = g.bits & 1, h.bits & 1
    via_law = tuple(
        N(g.bits, ctx, i) ^ N(g.bits, ctx, i ^ ah) ^ N(h.bits, ctx, i) ^ N(h.bits, ctx, i ^ ag)
        for i in (0, 1)
    )
    assert direct == via_law, (direct, via_law)
    assert derived_membership_certificate(ctx, c.bits).verdict == INCONCLUSIVE
    return direct


def test_commutator_parity_exhaustive_p1_depth2():
    ctx = JContext.for_top_level(2, {1})
    p1 = enumerate_PJ(2, {1})
    for g in p1:
        for h in p1:
            assert commutator_parity(g, h, ctx) == (0, 0)


def test_commutator_parity_sampled_depth3():
    rng = random.Random(502)
    ctx = JContext.for_top_level(3, {2})
    for _ in range(10_000):
        g = sample_pj_member(rng, 3, {2})
        h = sample_pj_member(rng, 3, {2})
        assert commutator_parity(g, h, ctx) == (0, 0)


def test_commutator_parity_sampled_depth4():
    rng = random.Random(503)
    ctx = JContext.for_top_level(4, {2, 3})
    for _ in range(100_000):
        g = sample_pj_member(rng, 4, {2, 3})
        h = sample_pj_member(rng, 4, {2, 3})
        assert commutator_parity(g, h, ctx) == (0, 0)


def test_certificate_soundness_against_enumerated_derived():
    rng = random.Random(521)
    for d in (2, 3):
        for J in top_level_sets(d):
            ctx = JContext.for_top_level(d, J)
            dp = derived_subgroup(enumerate_PJ(d, J))
            fired = 0
            for _ in range(500):
                x = sample_pj_member(rng, d, J)
                v = derived_membership_certificate(ctx, x.bits)
                if v.verdict == NOT_IN_DERIVED:
                    fired += 1
                    assert not dp.contains_bits(x.bits)
            assert fired > 0


def test_certificate_serialization():
    ctx = JContext.for_top_level(2, {1})
    c = commutator(generator(2, 0), generator(2, 1))
    assert derived_membership_certificate(ctx, c.bits).to_dict() == {
        "verdict": "NOT_IN_DERIVED",
        "certificate": "N0",
    }
    assert derived_membership_certificate(ctx, identity(2).bits).to_dict() == {
        "verdict": "INCONCLUSIVE",
        "certificate": None,
    }


def test_certificate_rejects_non_member():
    ctx = JContext.for_top_level(2, {1})
    with pytest.raises(ValueError):
        derived_membership_certificate(ctx, generator(2, 1).bits)
    with pytest.raises(ValueError):
        derived_membership_certificate(ctx, 1 << 3)  # a depth-2 portrait has 3 bits


def test_sampled_identities_need_at_least_one_pair():
    contexts = [JContext.make(3, {2})]
    for samples in (0, -5):
        with pytest.raises(ValueError, match="samples"):
            verify_ni_identities_for(contexts, samples=samples)
    assert verify_ni_identities_for(contexts, samples=0, exhaustive=True)[0].passed
