"""Half-tree parity functionals, their transformation laws, the derived-
subgroup certificate, and the word-reading rule.

Oracles: the transformation laws are evaluated on both sides from raw
portraits; word parities are held against composing the word and evaluating
the functionals on the product; certificate soundness is held against the
enumerated derived subgroup.
"""

import random
import tracemalloc

import pytest

from treegrp import kernel
from treegrp.halftree import (
    _CHUNK_BITS,
    INCONCLUSIVE,
    NOT_IN_DERIVED,
    JContext,
    N,
    commutator_parity,
    derived_membership_certificate,
    verify_ni_identities,
    verify_ni_identities_for,
    word_parities,
    word_to_element,
)
from treegrp.portrait import FiniteAutomorphism, commutator, generator, identity
from treegrp.subgroups import derived_subgroup, enumerate_PJ, maximal_subgroup


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
        if pred.contains(g):
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
    assert N(identity(3), ctx, 0) == 0
    assert N(identity(3), ctx, 1) == 0


def test_n_counts_half_tree_labels():
    ctx = JContext.make(3, {0, 1, 2})
    g = FiniteAutomorphism.from_labels(3, {"0": 1, "10": 1, "11": 1, "": 1})
    # level 0 is excluded (not in J'); halves split on the first symbol
    assert N(g, ctx, 0) == 1  # vertex "0"
    assert N(g, ctx, 1) == 0  # vertices "10", "11" cancel


def test_n_of_top_commutator():
    for d in range(2, 9):
        c = commutator(generator(d, 0), generator(d, d - 1))
        for J in top_level_sets(d) if d <= 5 else [frozenset({d - 1})]:
            ctx = JContext.make(d, J)
            assert N(c, ctx, 0) == 1
            assert N(c, ctx, 1) == 1


def test_right_multiplication_by_root_swap_exchanges_parities():
    rng = random.Random(501)
    for d in (2, 3, 5, 7):
        ctx = JContext.make(d, {d - 1})
        a0 = generator(d, 0)
        for _ in range(10_000 // 4):
            g = FiniteAutomorphism.random(d, rng)
            ga0 = g * a0
            assert N(ga0, ctx, 0) == N(g, ctx, 1)
            assert N(ga0, ctx, 1) == N(g, ctx, 0)


def test_n_depth_mismatch_and_bad_half():
    ctx = JContext.make(3, {2})
    with pytest.raises(ValueError):
        N(identity(2), ctx, 0)
    with pytest.raises(ValueError):
        N(identity(3), ctx, 2)


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
        ag, ah = g.root_activity, h.root_activity
        gh, ginv, c = g * h, ~g, commutator(g, h)
        law = None
        if any(N(gh, ctx, i) != N(h, ctx, i) ^ N(g, ctx, i ^ ah) for i in (0, 1)):
            law = "product"
        elif any(N(ginv, ctx, i) != N(g, ctx, i ^ ag) for i in (0, 1)):
            law = "inverse"
        elif any(N(c, ctx, i) != N(g, ctx, i) ^ N(g, ctx, i ^ ah) ^ N(h, ctx, i)
                 ^ N(h, ctx, i ^ ag) for i in (0, 1)):
            law = "commutator"
        if law is not None and (limit is None or len(failures) < limit):
            failures.append({"law": law, "g": g.to_hex(), "h": h.to_hex()})
    return failures


def flip_vertex_0(original):
    """A batch kernel op that flips the label at vertex "0" (level 1, half 0)
    of each sample whose first operand has it.

    The single ops are the n = 1 case of the batch ops and call them through
    the kernel module, so patching a batch op breaks its single op too, and
    the object path of reference_ni_failures sees the same fault.
    """
    def flipped(*args):
        out = original(*args)
        n = args[-2]
        vertex_0 = ((1 << 2 * n) - 1) // 3 << 2 * n  # bit 2n + 2j of each sample j
        return out ^ (args[0] & vertex_0)
    return flipped


@pytest.mark.parametrize("broken, law", [("compose", "product"), ("invert", "inverse"),
                                         ("commutator", "commutator")])
def test_identities_report_broken_kernel_like_object_path(monkeypatch, broken, law):
    batch = f"{broken}_batch"
    monkeypatch.setattr(kernel, batch, flip_vertex_0(getattr(kernel, batch)))
    ctx = JContext.make(3, {1, 2})
    failures = reference_ni_failures(ctx, samples=200, seed=11)
    assert failures
    rep = verify_ni_identities(ctx, samples=200, seed=11)
    assert rep.pairs_checked == 200
    assert rep.failures == failures
    assert {f["law"] for f in rep.failures} == {law}


def test_identities_reject_out_of_range_portraits(monkeypatch):
    original = kernel.compose_batch
    monkeypatch.setattr(kernel, "compose_batch",
                        lambda h, g, n, d: original(h, g, n, d) | 1 << (n << d))
    with pytest.raises(ValueError, match="out of range"):
        verify_ni_identities(JContext.make(3, {2}), samples=1)


@pytest.mark.parametrize("d", [2, 3, 4])
def test_shared_stream_reports_equal_single_context_reports(d):
    contexts = [JContext.make(d, J) for J in top_level_sets(d)]
    reports = verify_ni_identities_for(contexts, samples=300, seed=d)
    assert [r.levels for r in reports] == [tuple(sorted(c.levels)) for c in contexts]
    for ctx, rep in zip(contexts, reports):
        assert rep == verify_ni_identities(ctx, samples=300, seed=d)
    if d <= 3:
        exhaustive = verify_ni_identities_for(contexts, exhaustive=True)
        for ctx, rep in zip(contexts, exhaustive):
            assert rep == verify_ni_identities(ctx, exhaustive=True)
            assert rep.pairs_checked == 1 << 2 * ((1 << d) - 1)


@pytest.mark.parametrize("broken", ["compose", "invert", "commutator"])
def test_shared_stream_reports_broken_kernel_for_each_level_set(monkeypatch, broken):
    batch = f"{broken}_batch"
    monkeypatch.setattr(kernel, batch, flip_vertex_0(getattr(kernel, batch)))
    contexts = [JContext.make(3, J) for J in top_level_sets(3)]
    reports = verify_ni_identities_for(contexts, samples=200, seed=11)
    for ctx, rep in zip(contexts, reports):
        assert rep.pairs_checked == 200
        assert rep.failures == reference_ni_failures(ctx, samples=200, seed=11)
    # The flipped label sits on level 1: level sets through it fail, the others pass.
    assert [bool(rep.failures) for rep in reports] == [1 in c.levels for c in contexts]


@pytest.mark.parametrize("broken", ["compose", "invert", "commutator"])
def test_shared_stream_rejects_out_of_range_portraits(monkeypatch, broken):
    original = getattr(kernel, f"{broken}_batch")
    # One bit above the batch: n * 2^d, for n samples of depth d.
    monkeypatch.setattr(kernel, f"{broken}_batch",
                        lambda *args: original(*args) | 1 << (args[-2] << args[-1]))
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
    per_chunk = _CHUNK_BITS >> 6
    samples = 3 * per_chunk + 5  # four chunks, the last one short
    contexts = [JContext.make(6, J) for J in CHUNK_CONTEXTS]
    reports = verify_ni_identities_for(contexts, samples=samples, seed=41)
    for ctx, rep in zip(contexts, reports):
        assert rep.passed and rep.pairs_checked == samples
        assert rep == verify_ni_identities(ctx, samples=samples, seed=41)


def test_multi_chunk_failures_stop_at_ten_across_chunks(monkeypatch):
    monkeypatch.setattr(kernel, "compose_batch", flip_vertex_0_rarely(kernel.compose_batch))
    per_chunk = _CHUNK_BITS >> 6
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


def test_shared_stream_needs_one_depth():
    assert verify_ni_identities_for([], samples=5) == []
    with pytest.raises(ValueError, match="one depth"):
        verify_ni_identities_for([JContext.make(2, {1}), JContext.make(3, {2})], samples=5)


def test_identity_report_serialization():
    rep = verify_ni_identities(JContext.make(2, {1}), samples=10, seed=1)
    doc = rep.to_dict()
    assert doc["passed"] is True and doc["failures"] == []


# -- commutator parity ----------------------------------------------------------------


def test_commutator_parity_with_identity_factor():
    ctx = JContext.for_top_level(3, {2})
    member = FiniteAutomorphism.from_labels(3, {"": 1})
    assert commutator_parity(member, identity(3), ctx) == (0, 0)


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


def test_commutator_parity_rejects_non_members():
    ctx = JContext.for_top_level(2, {1})
    with pytest.raises(ValueError):
        commutator_parity(generator(2, 1), identity(2), ctx)


def test_pj_member_parity_check_survives_optimize_flag(run_optimized):
    # A membership predicate that admits a non-member must be caught by the
    # parity identity even when asserts are stripped.
    proc = run_optimized("""
        from treegrp.errors import VerificationError
        from treegrp.halftree import JContext, derived_membership_certificate
        from treegrp.portrait import generator
        from treegrp import gf2

        gf2.LinearSubgroup.contains = lambda self, g: True
        try:
            derived_membership_certificate(JContext.make(3, {1, 2}), generator(3, 1))
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
            verdict = derived_membership_certificate(JContext.for_top_level(d, J), c)
            assert verdict.verdict == NOT_IN_DERIVED
            assert verdict.certificate == "N0"


def test_certificate_inconclusive_on_identity_and_commutators():
    rng = random.Random(509)
    for d in (2, 3, 4):
        per_j = 10_000 // (3 * len(top_level_sets(d))) + 1
        for J in top_level_sets(d):
            ctx = JContext.for_top_level(d, J)
            assert derived_membership_certificate(ctx, identity(d)).verdict == INCONCLUSIVE
            for _ in range(per_j):
                g = sample_pj_member(rng, d, J)
                h = sample_pj_member(rng, d, J)
                v = derived_membership_certificate(ctx, commutator(g, h))
                assert v.verdict == INCONCLUSIVE


def test_certificate_soundness_against_enumerated_derived():
    rng = random.Random(521)
    for d in (2, 3):
        for J in top_level_sets(d):
            ctx = JContext.for_top_level(d, J)
            dp = derived_subgroup(enumerate_PJ(d, J))
            fired = 0
            for _ in range(500):
                x = sample_pj_member(rng, d, J)
                v = derived_membership_certificate(ctx, x)
                if v.verdict == NOT_IN_DERIVED:
                    fired += 1
                    assert not dp.contains(x)
            assert fired > 0


def test_certificate_serialization():
    ctx = JContext.for_top_level(2, {1})
    c = commutator(generator(2, 0), generator(2, 1))
    assert derived_membership_certificate(ctx, c).to_dict() == {
        "verdict": "NOT_IN_DERIVED",
        "certificate": "N0",
    }
    assert derived_membership_certificate(ctx, identity(2)).to_dict() == {
        "verdict": "INCONCLUSIVE",
        "certificate": None,
    }


def test_certificate_rejects_non_member():
    ctx = JContext.for_top_level(2, {1})
    with pytest.raises(ValueError):
        derived_membership_certificate(ctx, generator(2, 1))


# -- word parities -----------------------------------------------------------------------


def test_word_parities_empty_word():
    assert word_parities([], JContext.make(3, {2})) == (0, 0)


def test_word_parities_of_top_commutator_word():
    for d in (2, 3, 5, 8):
        ctx = JContext.make(d, {d - 1})
        word = [0, d - 1, 0, d - 1]
        assert word_parities(word, ctx) == (1, 1)
        el = word_to_element(word, d)
        assert el == commutator(generator(d, 0), generator(d, d - 1))
        assert (N(el, ctx, 0), N(el, ctx, 1)) == (1, 1)


def test_word_parities_match_portrait_evaluation():
    rng = random.Random(523)
    for d in (2, 3, 4, 5, 6):
        for _ in range(3):
            J = {d - 1} | {j for j in range(d) if rng.random() < 0.4}
            ctx = JContext.make(d, J)
            for _ in range(700):
                word = [rng.randrange(d) for _ in range(rng.randrange(31))]
                el = word_to_element(word, d)
                assert word_parities(word, ctx) == (N(el, ctx, 0), N(el, ctx, 1))


def test_word_parities_invariant_under_non_jprime_squares():
    rng = random.Random(541)
    for _ in range(300):
        d = rng.randrange(2, 6)
        J = {d - 1}
        ctx = JContext.make(d, J)
        non_jprime = [j for j in range(d) if j not in ctx.jprime]
        word = [rng.randrange(d) for _ in range(rng.randrange(20))]
        j = rng.choice(non_jprime)
        pos = rng.randrange(len(word) + 1)
        padded = word[:pos] + [j, j] + word[pos:]
        assert word_parities(padded, ctx) == word_parities(word, ctx)


def test_word_parities_flip_predictably_under_jprime_insertion():
    rng = random.Random(547)
    for _ in range(300):
        d = rng.randrange(3, 6)
        ctx = JContext.make(d, {d - 1})
        j = d - 1
        word = [rng.randrange(d) for _ in range(rng.randrange(20))]
        pos = rng.randrange(len(word) + 1)
        suffix_activity = sum(1 for idx in word[pos:] if idx == 0) & 1
        before = word_parities(word, ctx)
        after = word_parities(word[:pos] + [j] + word[pos:], ctx)
        if suffix_activity:
            assert after == (before[0], before[1] ^ 1)
        else:
            assert after == (before[0] ^ 1, before[1])


def test_word_parities_rejects_bad_indices():
    with pytest.raises(ValueError):
        word_parities([0, 3], JContext.make(3, {2}))


def test_sampled_identities_need_at_least_one_pair():
    contexts = [JContext.make(3, {2})]
    for samples in (0, -5):
        with pytest.raises(ValueError, match="samples"):
            verify_ni_identities_for(contexts, samples=samples)
    assert verify_ni_identities_for(contexts, samples=0, exhaustive=True)[0].passed
