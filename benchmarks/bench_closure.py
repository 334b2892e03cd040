#!/usr/bin/env python3
"""Time the kernel and the layers above it on their hot paths.

Covers the coset closure of the full depth-4 group and of <a_13> at depth
14 (two elements, each a 2 KiB portrait; a closure runs at the depth its
inputs occupy, so a generator must reach level 13 to be measured there),
derived subgroups of a 16384-element index-2 subgroup and of the full
depth-4 group (a normal closure folded from its four generators), raw
compose and invert throughput at depths 4, 8, 12 and 16, where each
product is d - 1 whole-portrait delta swaps, kernel.pack of one full
chunk of portraits at depths 4, 6 and 12, and the sampled pair streams
drawn and packed, with nothing checked on them (`kernel.sampled_chunks`):
the half-tree law stream at d = 4 (10,000 pairs), 6 (5,000), 8 (1,500),
12 (50) and 14 (7), and the conjugation law stream at d = 4 (10,000).  It also times FiniteAutomorphism.apply, the
kernel-free word action, on full-length words at depths 4 and 24, and fourteen
kernel-free pattern-layer calls.  Eleven are at d=4: the essentiality test of
P_{3} (a full pass over an essential group), the listing of P_{3} by
`EnumeratedSubgroup.from_linear` read only through `masked` and
`count_clear` (its member set is never built), the classify cross-check of
the listed, rank-reduced P_{3} (`is_essential` on its basis and
`hausdorff_dimension`: the stabilizer count reads all 16,384 members off
`EnumeratedSubgroup.count_clear`, while the essentiality test stops within
the first 256 off `masked_runs`), the failing path of that test on the
listed P_{2}, which is not essential (its truncations are read until all
|P| / |St_P(3)| = 64 are seen, within the first 256 members, before the
basis is walked for a witness), the set-filter essential
reductions of P_{3} (one pass) and P_{0} (several passes), the aux suite's
P_J arm (all 15 P_J reduced by rank, only the reductions listed, each
cross-checked by its essentiality and dimension), the depth-5 truncation
group of the reduced P_{1}, and the aux suite's transitivity probes
(`_transitivity_matches`: `truncation_orbits` to at most two levels past
d, which perfbench's tracer does not wrap) on its 25 groups, the ten
reduced depth-2 sweep groups and the 15 reduced P_J, then on the two of
order 2^8 alone (the reductions of P_{1} and P_{0,1}, whose joins are the
widest), and `is_essential` on the basis of each of the 15 listed P_J and
their 15 listed rank reductions (the tested children read slot-wise, the
truncations a run at a time).  The twelfth is the embedding index
of the full depth-3 pattern group, the relation suite's heaviest case: it
counts the 32,768 elements of the depth-4 truncation group class by class
(`truncation_orbits`) instead of listing them.  The last two reduce every
P_J on its parity checks (`linear_essential_reduction`, one forward
elimination per round), the 31 at d=5, as `classify --d 5 --gf2` does, and
the 255 at d=8.  The half-tree law check
`verify_ni_identities_for` is timed on the level sets `verify --suite ni`
checks: every J containing the top level at d=4 (10,000 pairs), and J =
{d-1} at d=8 (1,500 pairs), d=12 (50 pairs) and d=14 (7 pairs), the depths
and pair counts of the `ni-depth` benchmark's library ops above d=8.  Two
rows time whole verify suites at d=4:
`verify_not_top_fg` (which reads `verify_no_adad`'s cases) and
`verify_auxiliary` (10,000 sampled conjugation pairs, the depth-2 sweep and
the 15 P_J), and three time that suite's conjugation law alone
(`conjugation_law_counts` on the same 10,000 pairs, drawn and packed
beforehand, and on 4,000 pairs at d=5 and 2,000 at d=6, where no workload
goes).  One row times classify's containment arm alone: every member of
[G(4), G(4)] (packed on the first of 20 runs, as classify packs it once
per process) tested slot-wise against the checks each of the 15 listed
P_J comes from (the rank reduction where P_J is essential, P_J's own
check otherwise).  Two rows time classify's other d=4 enumeration work:
`gf2.LinearSubgroup.packed` of its 22 listings (the 15 rank reductions
and the 7 non-essential P_J, bases computed beforehand), and the 15
[P_J, P_J] folds from each P_J's Schreier generators (seeded by one
commutator batch, closed under the generators).  A last row times
`classify_maximal(4)` (15 rows read off the parity checks, each
cross-checked by enumeration) with the cache of [G(4), G(4)] cleared
before each run.  The start-up row is the median, over 15 fresh
`python -X importtime -c "import treegrp.cli"` processes, of the summed
self times of the treegrp modules: what importing the CLI's own code
adds to every command, without the interpreter's start-up or the
third-party imports, whose wall-clock noise would swamp it.  Run after
`pip install -e .`:

    python benchmarks/bench_closure.py
"""

import os
import random
import statistics
import subprocess
import sys
import time

from treegrp import kernel
from treegrp.halftree import JContext, verify_ni_identities_for
from treegrp.heap import prefix_mask, spine
from treegrp.patterns import (
    PatternGroup,
    essential_reduction,
    hausdorff_dimension,
    is_essential,
    linear_essential_reduction,
    psi_image_index,
    truncation_group,
)
from treegrp.portrait import FiniteAutomorphism
from treegrp.subgroups import (
    _FULL_GROUP_CACHE,
    EnumeratedSubgroup,
    _derived_from_generators,
    _pj_schreier_generators,
    all_subgroups_depth2,
    conjugation_law_counts,
    derived_subgroup,
    enumerate_PJ,
    full_group,
    maximal_subgroup,
)
from treegrp.verify import (
    _DERIVED_FULL_CACHE,
    _contains_members,
    _nonempty_level_sets,
    _reduced_pj,
    _transitivity_matches,
    classify_maximal,
    conjugation_pairs,
    derived_of_full,
    verify_auxiliary,
    verify_not_top_fg,
)

# (depth, products timed) for the compose and invert rows.
KERNEL_DEPTHS = [(4, 20_000), (8, 5_000), (12, 500), (16, 50)]

# Depths of the pack rows; each packs one full chunk of portraits.
PACK_DEPTHS = [4, 6, 12]

# (stream, depth, pairs drawn) for the sampled stream rows: the pair counts
# of the verify-all and ni-depth benchmark ops at each depth.
SAMPLED_STREAMS = [("ni", 4, 10_000), ("conjugation", 4, 10_000), ("ni", 6, 5_000),
                   ("ni", 8, 1_500), ("ni", 12, 50), ("ni", 14, 7)]

# (depth, pairs checked) for the half-tree law rows.
NI_DEPTHS = [(4, 10_000), (8, 1_500), (12, 50), (14, 7)]

# (depth, calls timed) for the apply rows.
APPLY_DEPTHS = [(4, 20_000), (24, 16)]

# Fresh processes of the start-up row.
START_UP_RUNS = 15


def timeit(fn, repeats=3):
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return min(times)


def bench_kernel():
    """Best seconds of the closure, compose, invert and derived-subgroup rows."""
    results = {}

    gens4 = [spine(i) for i in range(4)]
    results["close G(4) [32768 els]"] = timeit(
        lambda: kernel.close(4, gens4, 1 << 26)
    )
    a13 = spine(13)
    results["close <a_13> (d=14) [2 els]"] = timeit(
        lambda: kernel.close(14, [a13], 10)
    )

    rng = random.Random(0)
    for d, count in KERNEL_DEPTHS:
        n = (1 << d) - 1
        pairs = [(rng.getrandbits(n), rng.getrandbits(n)) for _ in range(count)]

        def compose_burst(pairs=pairs, d=d):
            for h, g in pairs:
                kernel.compose(h, g, d)

        def invert_burst(pairs=pairs, d=d):
            for _, g in pairs:
                kernel.invert(g, d)

        results[f"compose x{count} (d={d})"] = timeit(compose_burst)
        results[f"invert x{count} (d={d})"] = timeit(invert_burst)

    for d in PACK_DEPTHS:
        n = kernel.CHUNK_BITS >> d
        xs = [rng.getrandbits((1 << d) - 1) for _ in range(n)]
        results[f"pack x{n} (d={d})"] = timeit(lambda xs=xs, d=d: kernel.pack(xs, d))

    for stream, d, samples in SAMPLED_STREAMS:
        level = d - 1 if stream == "conjugation" else 0

        def draw(d=d, samples=samples, level=level):
            for _ in kernel.sampled_chunks(random.Random(0), samples, d, level):
                pass

        results[f"draw {stream} stream x{samples} (d={d})"] = timeit(draw)

    _FULL_GROUP_CACHE.clear()
    pj = enumerate_PJ(4, {3})
    results["derived of P_{3} in G(4)"] = timeit(
        lambda: derived_subgroup(pj), repeats=1
    )
    results["[G(4), G(4)] from generators"] = timeit(
        lambda: _derived_from_generators(4, gens4), repeats=1
    )
    return results


def bench_apply():
    """Best-of-3 seconds per apply call on random words of length d."""
    rng = random.Random(0)
    results = {}
    for d, count in APPLY_DEPTHS:
        g = FiniteAutomorphism.random(d, rng)
        words = ["".join(rng.choice("01") for _ in range(d)) for _ in range(count)]

        def apply_burst(g=g, words=words):
            for w in words:
                g.apply(w)

        results[f"apply, |w| = d = {d}"] = timeit(apply_burst) / count
    return results


def bench_patterns():
    """Best-of-3 seconds of the pattern-layer rows."""
    p0 = PatternGroup.from_subgroup(enumerate_PJ(4, {0}))
    p3 = PatternGroup.from_subgroup(enumerate_PJ(4, {3}))
    reduced_p1 = essential_reduction(PatternGroup.from_subgroup(enumerate_PJ(4, {1})))
    full3 = PatternGroup.from_subgroup(full_group(3))
    sweep = [essential_reduction(PatternGroup.from_subgroup(s))
             for s in all_subgroups_depth2()]
    probed = [(p, hausdorff_dimension(p)) for p in sweep]
    probed += [_reduced_pj(4, J, None) for J in _nonempty_level_sets(4)]
    listed_p3, _ = _reduced_pj(4, frozenset({3}), None)
    p3_basis = linear_essential_reduction(maximal_subgroup(4, {3}))[0].basis()
    pjs = {d: [maximal_subgroup(d, J) for J in _nonempty_level_sets(d)] for d in (5, 8)}
    lin3 = maximal_subgroup(4, {3})
    lin3_basis = lin3.basis()
    lin2_basis = maximal_subgroup(4, {2}).basis()
    listed_p2 = PatternGroup.from_subgroup(
        EnumeratedSubgroup.from_linear(maximal_subgroup(4, {2}), lin2_basis))
    order_256 = [(p, dim) for p, dim in probed if p.order == 256]
    tested = []
    for J in _nonempty_level_sets(4):
        for lin in (maximal_subgroup(4, J), linear_essential_reduction(maximal_subgroup(4, J))[0]):
            basis = lin.basis()
            tested.append((PatternGroup.from_subgroup(
                EnumeratedSubgroup.from_linear(lin, basis)), basis))

    def list_p3_read_packed():
        group = EnumeratedSubgroup.from_linear(lin3, lin3_basis)
        return group.masked(prefix_mask(3)), group.count_clear(prefix_mask(3))

    return {
        "is_essential(P_{3}), d=4": timeit(lambda: is_essential(p3)),
        "from_linear(P_{3}) read by masked + count_clear, d=4":
            timeit(list_p3_read_packed, repeats=20),
        "is_essential + hausdorff_dimension(listed reduced P_{3}), d=4":
            timeit(lambda: (is_essential(listed_p3, tested=p3_basis),
                            hausdorff_dimension(listed_p3)), repeats=20),
        "is_essential(listed P_{2}, tested=basis), d=4":
            timeit(lambda: is_essential(listed_p2, tested=lin2_basis), repeats=20),
        "essential_reduction(P_{3}), d=4": timeit(lambda: essential_reduction(p3)),
        "essential_reduction(P_{0}), d=4": timeit(lambda: essential_reduction(p0)),
        "reduce by rank, list 15 reduced P_J, d=4":
            timeit(lambda: [_reduced_pj(4, J, None) for J in _nonempty_level_sets(4)]),
        "truncation_group(reduced P_{1}, 5), d=4":
            timeit(lambda: truncation_group(reduced_p1, 5)),
        "aux transitivity probes, 25 groups, d=4":
            timeit(lambda: [_transitivity_matches(p, dim) for p, dim in probed]),
        f"aux probes of the {len(order_256)} order-2^8 reductions (J = {{1}}, {{0, 1}}), d=4":
            timeit(lambda: [_transitivity_matches(p, dim) for p, dim in order_256], repeats=20),
        f"is_essential on the bases of {len(tested)} listed P_J and reductions, d=4":
            timeit(lambda: [is_essential(p, tested=basis) for p, basis in tested], repeats=20),
        "psi_image_index(full pattern group), d=3":
            timeit(lambda: psi_image_index(full3)),
    } | {
        f"linear_essential_reduction of the {len(lins)} P_J, d={d}":
            timeit(lambda lins=lins: [linear_essential_reduction(lin) for lin in lins])
        for d, lins in pjs.items()
    }


def bench_halftree():
    """Best-of-3 seconds of the half-tree law rows."""
    results = {}
    for d, samples in NI_DEPTHS:
        # The level sets `verify --suite ni` checks at this depth.
        tops = [{d - 1} | {j for j in range(d - 1) if bits >> j & 1}
                for bits in range(1 << (d - 1))]
        contexts = [JContext.make(d, J) for J in (tops if d <= 4 else [{d - 1}])]
        results[f"ni laws, {len(contexts)} J x {samples} pairs (d={d})"] = timeit(
            lambda contexts=contexts, samples=samples:
                verify_ni_identities_for(contexts, samples=samples))
    return results


def bench_verify():
    """Best-of-3 seconds of the verify-suite and classify rows."""

    def classify_uncached():
        _DERIVED_FULL_CACHE.clear()
        classify_maximal(4)

    rows = {
        "verify_not_top_fg(4)": timeit(lambda: verify_not_top_fg(4)),
        "verify_auxiliary(4)": timeit(lambda: verify_auxiliary(4)),
    }
    for d, samples in [(4, 10_000), (5, 4_000), (6, 2_000)]:
        chunks = list(conjugation_pairs(d, samples, 0))
        rows[f"conjugation_law_counts({d}), {samples:,} pairs"] = timeit(
            lambda d=d, chunks=chunks: conjugation_law_counts(d, chunks))
    derived = derived_of_full(4)
    listed_from = []
    for J in _nonempty_level_sets(4):
        lin = maximal_subgroup(4, J)
        checks, essential = linear_essential_reduction(lin)
        listed_from.append(checks if essential else lin)
    rows["[G(4), G(4)] slot-wise in the checks of 15 listed P_J"] = timeit(
        lambda: [_contains_members(lin, derived) for lin in listed_from], repeats=20)
    listings = []
    for J in _nonempty_level_sets(4):
        lin = maximal_subgroup(4, J)
        checks, essential = linear_essential_reduction(lin)
        listings += [(x, x.basis()) for x in ((checks,) if essential else (checks, lin))]
    rows[f"packed() of classify's {len(listings)} d=4 listings"] = timeit(
        lambda: [lin.packed(basis) for lin, basis in listings], repeats=20)
    schreier = [_pj_schreier_generators(4, J) for J in _nonempty_level_sets(4)]
    rows["[P_J, P_J] folds of all 15 J, d=4"] = timeit(
        lambda: [_derived_from_generators(4, gens) for gens in schreier], repeats=20)
    rows["classify_maximal(4), caches cleared"] = timeit(classify_uncached)
    return rows


def bench_start_up():
    """Median seconds of treegrp's own modules in `import treegrp.cli`, each
    fresh process's -X importtime self times summed over them."""
    src = os.path.dirname(os.path.dirname(kernel.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    totals = []
    for _ in range(START_UP_RUNS):
        # Each line is "import time: <self us> | <cumulative us> | <module>".
        report = subprocess.run([sys.executable, "-X", "importtime", "-c", "import treegrp.cli"],
                                env=env, check=True, capture_output=True, text=True).stderr
        rows = [line.split("|") for line in report.splitlines()]
        totals.append(sum(int(row[0].split(":")[1]) for row in rows
                          if row[-1].strip().startswith("treegrp")) / 1e6)
    return {f"treegrp self import time, median of {START_UP_RUNS}": statistics.median(totals)}


def main():
    kernel_rows = bench_kernel()
    width = max(len(s) for s in kernel_rows) + 2
    header = f"{'benchmark':<{width}}{'best s':>16}"
    print(header)
    print("-" * len(header))
    for label, best in kernel_rows.items():
        print(f"{label:<{width}}{best:>16.6f}")

    print()
    for label, per_call in bench_apply().items():
        print(f"{label:<{width}}{per_call * 1e6:>13.2f} us per call")

    print()
    patterns = bench_patterns() | bench_halftree() | bench_verify()
    width = max(len(s) for s in patterns) + 2
    for label, seconds in patterns.items():
        print(f"{label:<{width}}{seconds:>10.4f} s (best)")
    for label, seconds in bench_start_up().items():
        print(f"{label:<{width}}{seconds:>10.4f} s (median)")


if __name__ == "__main__":
    main()
