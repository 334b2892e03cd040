"""The kernel against the word action, and its closures against plain and saturating references."""

import json
import os
import random
import subprocess
import sys
import textwrap
import tracemalloc
from itertools import chain, product
from pathlib import Path

import pytest

import treegrp
from treegrp import kernel
from treegrp.errors import EnumerationCapExceeded
from treegrp.heap import path_steps, prefix_mask, subtree_steps
from treegrp.portrait import MAX_DEPTH, FiniteAutomorphism, heap_index

from oracles import normal_closure_by_lists


def gens_bits(d):
    return [1 << ((1 << i) - 1) for i in range(d)]


@pytest.mark.parametrize("cap", [100, 200, 1000, 5000, 16384, 20000])
def test_pure_close_stops_one_element_past_the_cap(cap):
    # The cap is checked before each coset is built, and a refused closure
    # reports cap + 1 wherever inside that coset the cap falls.  <a_0, a_1,
    # a_2> has 128 elements, so cap 100 falls inside one of a_2's cosets,
    # cap 200 inside the first coset of a_3 and the other caps in later
    # ones, each of 128 elements.
    with pytest.raises(EnumerationCapExceeded) as err:
        kernel.close(4, gens_bits(4), cap)
    assert err.value.reached == cap + 1


@pytest.mark.parametrize("cap", [16384, 20000])
def test_cap_inside_a_coset_of_several_chunks(cap):
    # St(1) in G(4) is G(3) x G(3), generated by a_1, a_2, a_3 and their
    # conjugates by a_0; with a_0 last, its one new coset has 16384
    # elements, four chunks of 4096 two-byte slots.  The closure is all of
    # G(4), every 15-bit portrait.  A cap of 16384 or 20000 falls in that
    # coset, which is refused before it is built.
    a = gens_bits(4)
    gens = a[1:] + [kernel.conjugate(x, a[0], 4) for x in a[1:]] + [a[0]]
    assert kernel.close(4, gens, 1 << 15) == set(range(1 << 15))
    with pytest.raises(EnumerationCapExceeded) as err:
        kernel.close(4, gens, cap)
    assert err.value.reached == cap + 1


def saturate_then_close(d, seeds, normalizer):
    """Normal closure by saturation: conjugate the seeds by the normalizer and
    its inverses until no new element appears, then close the saturated set.

    The saturated set is conjugation-invariant, so its closure is normal.
    This was the derived-subgroup algorithm before the closure took a
    normalizer; it is the reference for that closure.
    """
    conjugators = set(normalizer) | {kernel.invert(s, d) for s in normalizer}
    saturated = set(seeds)
    queue = list(saturated)
    while queue:
        x = queue.pop()
        for c in conjugators:
            y = kernel.conjugate(x, c, d)
            if y not in saturated:
                saturated.add(y)
                queue.append(y)
    return kernel.close(d, sorted(saturated), 1 << 26)


def bfs_closure(d, gens):
    """Plain breadth-first closure under left multiplication by the generators."""
    els, frontier = {0}, [0]
    while frontier:
        nxt = []
        for x in frontier:
            for g in gens:
                y = kernel.compose(g, x, d)
                if y not in els:
                    els.add(y)
                    nxt.append(y)
        frontier = nxt
    return els


def test_normal_closure_matches_saturation_on_random_inputs():
    rng = random.Random(131)
    for d, cases in ((2, 20), (3, 20), (4, 12)):
        n = (1 << d) - 1
        for _ in range(cases):
            seeds = [rng.getrandbits(n) for _ in range(rng.randrange(1, 3))]
            normalizer = [rng.getrandbits(n) for _ in range(rng.randrange(0, 3))]
            got = kernel.close(d, seeds, 1 << 26, normalizer=normalizer)
            assert got == saturate_then_close(d, seeds, normalizer), (d, seeds, normalizer)


def test_normal_closure_matches_saturation_on_every_pj():
    # [P_J, P_J] as the normal closure of the Schreier generators' commutators.
    from treegrp.subgroups import _pj_schreier_generators

    for d in (2, 3, 4):
        for mask in range(1, 1 << d):
            J = frozenset(j for j in range(d) if mask >> j & 1)
            gens = list(_pj_schreier_generators(d, J))
            seeds = [kernel.commutator(x, y, d) for x in gens for y in gens]
            got = kernel.close(d, seeds, 1 << 26, normalizer=gens)
            assert got == saturate_then_close(d, seeds, gens), (d, sorted(J))


def test_empty_normalizer_is_the_plain_closure():
    rng = random.Random(137)
    for d in (2, 3, 4):
        n = (1 << d) - 1
        cases = [gens_bits(d)] + [[rng.getrandbits(n) for _ in range(rng.randrange(1, 3))]
                                  for _ in range(4)]
        for gens in cases:
            plain = kernel.close(d, gens, 1 << 26)
            assert plain == bfs_closure(d, gens)
            assert kernel.close(d, gens, 1 << 26, normalizer=()) == plain


@pytest.mark.parametrize("cap", [10, 100, 1000, 2047])
def test_normal_closure_stops_one_element_past_the_cap(cap):
    # The commutators of a_0..a_3 have normal closure [G(4), G(4)], 2048 elements.
    gens = gens_bits(4)
    seeds = [kernel.commutator(x, y, 4) for x in gens for y in gens]
    assert len(kernel.close(4, seeds, 2048, normalizer=gens)) == 2048
    with pytest.raises(EnumerationCapExceeded) as err:
        kernel.close(4, seeds, cap, normalizer=gens)
    assert err.value.reached == cap + 1


def stabilizer_elements(rng, d, count):
    """Random elements of St(d-2): labels on the last two levels only.

    St(d-2) is a direct power of the order-8 depth-2 group, so a few of its
    elements generate a small group at any depth."""
    low = (1 << ((1 << (d - 2)) - 1)) - 1
    return [rng.getrandbits((1 << d) - 1) & ~low for _ in range(count)]


def test_coset_closure_matches_bfs():
    # Bounded-order inputs at d = 5 and 6: every proper subset of a_0..a_3
    # (at most 128 elements) and random elements of St(d-2).
    rng = random.Random(139)
    for d in (5, 6):
        a = gens_bits(4)
        cases = [[a[i] for i in range(4) if mask >> i & 1] for mask in range(15)]
        cases += [stabilizer_elements(rng, d, k) for k in (1, 2, 2, 3, 3)]
        cases += [[a[1]] + stabilizer_elements(rng, d, 2)]
        for gens in cases:
            assert kernel.close(d, gens, 1 << 26) == bfs_closure(d, gens), (d, gens)


@pytest.mark.parametrize("d", [1, 2, 3, 7, 8])
def test_packed_slot_closure_matches_references(d):
    # One-byte slots (d <= 3) and slots wider than a machine word (d = 7, 8).
    rng = random.Random(163 + d)
    a = gens_bits(min(d, 4))
    if d <= 3:
        n = (1 << d) - 1
        cases = [a] + [[rng.getrandbits(n) for _ in range(rng.randrange(1, 4))]
                       for _ in range(8)]
        normal = [([rng.getrandbits(n) for _ in range(rng.randrange(1, 3))],
                   [rng.getrandbits(n) for _ in range(rng.randrange(1, 4))]) for _ in range(8)]
    else:  # bounded orders: proper subsets of a_0..a_3 and elements of St(d-2)
        cases = [[a[i] for i in range(4) if mask >> i & 1] for mask in (3, 6, 7, 11, 13, 14)]
        cases += [stabilizer_elements(rng, d, k) for k in (1, 2, 3)]
        cases += [[a[i]] + stabilizer_elements(rng, d, 1) for i in (1, 2, 3)]
        normal = [(stabilizer_elements(rng, d, 1), [a[0]]), ([a[2]], [a[0], a[1]]),
                  ([a[3]], [a[1]] + stabilizer_elements(rng, d, 1)),
                  (stabilizer_elements(rng, d, 2), [a[0], 0, a[0]])]
    for gens in cases:
        assert kernel.close(d, gens, 1 << 26) == bfs_closure(d, gens), (d, gens)
    for seeds, normalizer in normal:
        got = kernel.close(d, seeds, 1 << 26, normalizer=normalizer)
        assert got == saturate_then_close(d, seeds, normalizer), (d, seeds, normalizer)


@pytest.mark.parametrize("d", range(1, 10))
def test_slot_codec_round_trips(d):
    # Every slot width from one byte to 32 bytes, with slot counts that are
    # and are not powers of two (a normalizer has any length).
    rng = random.Random(167 + d)
    full = (1 << ((1 << d) - 1)) - 1
    for n in (1, 2, 3, 5, 16):
        pack, unpack, broadcast = kernel.slot_codec(n, d)
        xs = [rng.getrandbits((1 << d) - 1) for _ in range(n - 1)] + [full]
        assert list(unpack(pack(xs))) == xs
        assert list(unpack(broadcast(full))) == [full] * n


#: Run lengths of slot_runs over n slots: 256, then as long as all before
#: them, the last cut short; no slot is still one run.
SLOT_RUN_LENGTHS = {0: [0], 1: [1], 255: [255], 256: [256], 257: [256, 1],
                    1000: [256, 256, 488]}


@pytest.mark.parametrize("d", range(1, 9))
def test_slot_runs_cut_one_gather_into_doubling_runs(d):
    # d = 1..8 spans the 1-, 2-, 4- and 8-byte struct slots and the 16- and
    # 32-byte slots read through bytes.
    rng = random.Random(211 + d)
    steps = {"mask": ((0, prefix_mask(d - 1) | 1 << (1 << d) - 2),),
             "subtree": subtree_steps(1, d - 1),
             "left path": path_steps("0" * d)}
    assert kernel.FIRST_RUN == 256
    for n, lengths in SLOT_RUN_LENGTHS.items():
        xs = [rng.getrandbits((1 << d) - 1) for _ in range(n)]
        pack, unpack, _ = kernel.slot_codec(n, d)
        for name, read in steps.items():
            runs = list(kernel.slot_runs(pack(xs), n, d, read))
            assert [len(run) for run in runs] == lengths, (n, name)
            joined = list(chain(*runs))
            assert joined == list(unpack(kernel.slot_gather(pack(xs), n, d, read)))
            # Each step's mask is disjoint from the others'.
            assert joined == [sum(x >> shift & mask for shift, mask in read) for x in xs]


def test_coset_closure_skips_generated_elements():
    # Repeats, the identity and an element already generated are skipped:
    # the closure equals that of the distinct non-trivial generators.
    rng = random.Random(149)
    for d in (5, 6):
        a = gens_bits(4)
        x, y = stabilizer_elements(rng, d, 2)
        a01 = kernel.compose(a[0], a[1], d)
        xy = kernel.compose(x, y, d)
        for gens, plain in (([a[0], a[0], a[1], a[1]], [a[0], a[1]]),
                            ([0, a[2], 0], [a[2]]),
                            ([a[0], a[1], a01, a[2]], [a[0], a[1], a[2]]),
                            ([x, y, xy, x, 0], [x, y]),
                            ([0], [])):
            got = kernel.close(d, gens, 1 << 26)
            assert got == kernel.close(d, plain, 1 << 26) == bfs_closure(d, plain), (d, gens)


def test_normalizer_with_conjugates_inside_adds_nothing():
    # Conjugating by the group's own generators, or by a_0 when a_0 is one of
    # them, never leaves the closure: the normal closure is the plain one.
    rng = random.Random(151)
    for d in (5, 6):
        a = gens_bits(4)
        for gens in ([a[0], a[1]], [a[1], a[2], a[3]], stabilizer_elements(rng, d, 2)):
            plain = bfs_closure(d, gens)
            for normalizer in (gens, gens[:1], [0], [kernel.compose(gens[0], gens[-1], d)]):
                got = kernel.close(d, gens, 1 << 26, normalizer=normalizer)
                assert got == plain == saturate_then_close(d, gens, normalizer), (d, gens)


@pytest.mark.parametrize("d, gens, normal", [(5, gens_bits(3), False), (4, gens_bits(3), False),
                                             (4, gens_bits(4), True)])
def test_cap_of_the_order_succeeds_and_one_less_fails_at_a_coset_boundary(d, gens, normal):
    # The order's last element completes the last coset, so a cap one below
    # the order raises there, with reached equal to the order.
    if normal:  # [G(4), G(4)] as the normal closure of the commutators
        seeds, normalizer = [kernel.commutator(x, y, d) for x in gens for y in gens], gens
    else:
        seeds, normalizer = gens, ()
    order = len(kernel.close(d, seeds, 1 << 26, normalizer=normalizer))
    assert order == (2048 if normal else 128)
    assert len(kernel.close(d, seeds, order, normalizer=normalizer)) == order
    with pytest.raises(EnumerationCapExceeded) as err:
        kernel.close(d, seeds, order - 1, normalizer=normalizer)
    assert err.value.reached == order


def label_at(j, v):
    """The portrait with one label, at vertex v of level j."""
    return 1 << ((1 << j) - 1 + v)


def test_closure_packs_a_deep_coset_a_chunk_at_a_time():
    # At d = 12 a slot is 512 B and a chunk 16 slots.  Labels on four level-10
    # vertices and on four level-11 vertices outside their subtrees commute:
    # 256 elements, mostly 512 B, whose last cosets (128 each) span eight
    # chunks.  The packed products then hold a few chunks beside the result;
    # packing a whole coset at once would hold about twice the result.
    d = 12
    gens = [label_at(10, v) for v in range(4)] + [label_at(11, 2047 - v) for v in range(4)]
    tracemalloc.start()
    try:
        got = kernel.close(d, gens, 1 << 26)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(got) == 256
    held = sys.getsizeof(got) + sum(map(sys.getsizeof, got))
    assert peak < 1.6 * held, (peak, held)


def test_closure_of_a_deep_involution_stays_small():
    # <a_13> at d = 14 is two elements and occupies all 14 levels; the
    # closure keeps two portraits and a_13's 13 swap masks, each one
    # portrait wide (2 KiB).
    d = 14
    a = 1 << ((1 << 13) - 1)
    tracemalloc.start()
    try:
        got = kernel.close(d, [a], 10)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got == {0, a}
    assert peak < 8 << 20, peak


@pytest.mark.parametrize("d", [8, 12])
def test_closure_runs_at_the_depth_its_inputs_occupy(d):
    # a_0..a_3 have labels only on the top four levels, so at depth 8 or 12
    # they generate the same 32,768 ints as at depth 4, and a refused
    # closure reports the same count.  The normal closure of [G(4), G(4)]
    # by a_0..a_3 is the same set at every depth too.
    a = gens_bits(4)
    assert kernel.close(d, a, 1 << 26) == kernel.close(4, a, 1 << 26)
    seeds = [kernel.commutator(x, y, 4) for x in a for y in a]
    assert (kernel.close(d, seeds, 1 << 26, normalizer=a)
            == kernel.close(4, seeds, 1 << 26, normalizer=a))
    for cap in (100, 20000):
        reached = []
        for depth in (4, d):
            with pytest.raises(EnumerationCapExceeded) as err:
                kernel.close(depth, a, cap)
            reached.append(err.value.reached)
        assert reached == [cap + 1, cap + 1]
    # The normalizer counts too: conjugating a_0 by a_1 puts labels on level
    # 1, so the normal closure of a_0 under a_1 needs two levels, not one.
    normal = kernel.close(d, [1], 1 << 26, normalizer=[2])
    assert normal == saturate_then_close(2, [1], [2]) == kernel.close(2, [1], 1 << 26, [2])
    assert len(normal) > 2


def words_below(d):
    """Every vertex that carries a label at depth d, root first."""
    return ["".join(w) for n in range(d) for w in product("01", repeat=n)]


def label(bits, u):
    return (bits >> heap_index(u)) & 1


def action_portrait(act, d):
    """Portrait of the automorphism with word action act: its label at u is act(u0)'s last symbol."""
    return sum(1 << heap_index(u) for u in words_below(d) if act(u + "0")[-1] == "1")


def inverse_action(g, w):
    """g^-1(w), read symbol by symbol off g's labels without the kernel."""
    pre = ""
    for c in w:
        pre += "1" if (c == "1") ^ label(g.bits, pre) else "0"
    return pre


def assert_product_laws(h, g, hg, ginv, vertices):
    """label_(h∘g)(u) = label_h(g(u)) ^ label_g(u) and label_(g^-1)(g(v)) = label_g(v)."""
    for u in vertices:
        gu = g.apply(u)
        assert label(hg, u) == label(h.bits, gu) ^ label(g.bits, u), u
        assert label(ginv, gu) == label(g.bits, u), u


def test_pure_kernel_matches_word_action():
    # The word action FiniteAutomorphism.apply is an independent reference for
    # every element-wise operation of the pure kernel.
    rng = random.Random(109)
    depths = list(range(1, 13)) + [rng.randrange(1, 13) for _ in range(4)]
    for d in depths:
        n = (1 << d) - 1
        for _ in range(2):
            x = FiniteAutomorphism(d, rng.getrandbits(n))
            y = FiniteAutomorphism(d, rng.getrandbits(n))
            assert_product_laws(x, y, kernel.compose(x.bits, y.bits, d),
                                kernel.invert(y.bits, d), words_below(d))
            # s^-1 x s applies s first, then x, then s^-1; likewise x^-1 y^-1 x y.
            assert kernel.conjugate(x.bits, y.bits, d) == action_portrait(
                lambda w: inverse_action(y, x.apply(y.apply(w))), d)
            assert kernel.commutator(x.bits, y.bits, d) == action_portrait(
                lambda w: inverse_action(x, inverse_action(y, x.apply(y.apply(w)))), d)


def test_right_masks_fit_the_portrait():
    # Below d = 4 the t-coordinate masks widen the last level's labels past
    # the portrait; broadcast to packed slots those bits would reach the
    # next slot.  The all-ones portrait has every label set.
    rng = random.Random(157)
    for d in range(1, 11):
        n = (1 << d) - 1
        for s in [(1 << n) - 1] + [rng.getrandbits(n) for _ in range(20)]:
            masks = kernel._right_masks(s, d)
            assert all(m >> n == 0 for m in masks), (d, s)
            x = rng.getrandbits(n)
            assert s ^ kernel._pull(x, masks) == kernel.compose(x, s, d), (d, s, x)


def test_closure_step_matches_word_action():
    # close multiplies on the right through g's delta swaps in heap coordinates:
    # g ^ _pull(x, _right_masks(g)) = x∘g.
    rng = random.Random(113)
    for d in range(1, 6):
        n = (1 << d) - 1
        for _ in range(20):
            x = FiniteAutomorphism(d, rng.getrandbits(n))
            g = FiniteAutomorphism(d, rng.getrandbits(n))
            xg = g.bits ^ kernel._pull(x.bits, kernel._right_masks(g.bits, d))
            for u in words_below(d):
                assert label(xg, u) == label(x.bits, g.apply(u)) ^ label(g.bits, u), (d, u)


def sampled_vertices(rng, d, count):
    return ["".join(rng.choice("01") for _ in range(rng.randrange(d))) for _ in range(count)]


def test_pure_kernel_deep_elements():
    # Deep portraits span many machine words; the delta swaps act on them whole.
    rng = random.Random(107)
    for d, pairs in ((8, 50), (12, 10), (16, 4), (20, 2)):
        n = (1 << d) - 1
        for _ in range(pairs):
            g, h = rng.getrandbits(n), rng.getrandbits(n)
            gh = kernel.compose(g, h, d)
            assert kernel.compose(kernel.invert(g, d), gh, d) == h
            hg = kernel.compose(h, g, d)
            ginv = kernel.invert(g, d)
            assert kernel.compose(hg, ginv, d) == h
            assert_product_laws(FiniteAutomorphism(d, h), FiniteAutomorphism(d, g), hg, ginv,
                                sampled_vertices(rng, d, 64))


def test_pure_kernel_at_max_depth():
    # MAX_DEPTH is a tested depth: one product and one inverse there.
    rng = random.Random(127)
    d = MAX_DEPTH
    n = (1 << d) - 1
    h = FiniteAutomorphism(d, rng.getrandbits(n))
    g = FiniteAutomorphism(d, rng.getrandbits(n))
    assert_product_laws(h, g, kernel.compose(h.bits, g.bits, d), kernel.invert(g.bits, d),
                        sampled_vertices(rng, d, 64))



def test_benchmark_env_record_names_the_pure_kernel():
    # perfbench/worker.py records backend_name() and has_c_kernel() before each op.
    root = Path(__file__).resolve().parents[1]
    src = str(Path(treegrp.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    env.pop("TREEGRP_CAP", None)
    proc = subprocess.run([sys.executable, str(root / "perfbench" / "worker.py"),
                           '{"kind": "probe"}'],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    ready = json.loads(proc.stdout.splitlines()[0])
    assert ready["ready"] is True
    assert ready["backend"] == "pure"
    assert ready["has_c_kernel"] is False


def test_benchmark_tracer_installs_and_the_worker_names_resolve():
    # perfbench/tracing.py looks up every traced name with a plain getattr, and
    # perfbench/worker.py calls the names below; tier-1 does not collect perfbench.
    root = Path(__file__).resolve().parents[1]
    src = str(Path(treegrp.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, str(root / "perfbench"), os.environ.get("PYTHONPATH")) if p)}
    script = textwrap.dedent("""
        import tracing
        tracer = tracing.Tracer()
        tracer.install()
        import treegrp
        from treegrp import halftree
        for fn in (treegrp.backend_name, treegrp.has_c_kernel,
                   halftree.verify_ni_identities, halftree.JContext.make):
            assert callable(fn), fn
        assert "treegrp.halftree.verify_ni_identities" in tracer.bindings
        print("installed")
    """)
    proc = subprocess.run([sys.executable, "-c", script],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "installed"


def test_close_equals_the_list_based_normal_closure():
    # Random seeds and normalizers at d = 2 and 3, half of them with seeds
    # outside <normalizer>, so a seed may not normalize the group closed so
    # far and its walk leaves the powers of the seed; the rest take their
    # seeds inside, as a derived-subgroup fold does.  Every closure of more
    # than one element is refused again under a smaller cap.
    rng = random.Random(271)
    outside = 0
    for d in (2, 3):
        n = (1 << d) - 1
        for case in range(60):
            normalizer = [rng.getrandbits(n) for _ in range(rng.randrange(0, 4))]
            seeds = [rng.getrandbits(n) for _ in range(rng.randrange(0, 4))]
            if case % 2 and normalizer:
                seeds = [kernel.commutator(x, y, d) for x in normalizer for y in normalizer]
            group = bfs_closure(d, normalizer)
            outside += any(g not in group for g in seeds)
            expected = normal_closure_by_lists(d, seeds, normalizer)
            assert kernel.close(d, seeds, len(expected), normalizer) == expected
            if len(expected) == 1:
                continue
            cap = rng.randrange(1, len(expected))
            with pytest.raises(EnumerationCapExceeded) as err:
                kernel.close(d, seeds, cap, normalizer)
            assert err.value.reached == cap + 1
            tb = err.tb
            while tb.tb_next:
                tb = tb.tb_next
            assert tb.tb_frame.f_code is kernel.close.__code__
            assert len(tb.tb_frame.f_locals["seen"]) <= cap
    assert outside >= 30
