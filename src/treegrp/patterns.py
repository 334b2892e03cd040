"""Pattern groups: the defining data of finitely constrained tree groups.

A subgroup P of the depth-d group, read as the set of allowed size-d
patterns, defines the group of all infinite-tree automorphisms whose every
size-d subpattern lies in P.  This module decides essentiality, reduces a
pattern group to an essential one defining the same constrained group,
computes the exact Hausdorff dimension, builds finite-depth truncations of
the constrained group, and computes the first-level-stabilizer embedding
index used by the dimension bookkeeping identity.

All dimension arithmetic is exact (fractions.Fraction); no floats anywhere.
Patterns are assembled from portrait ints with the subtree helpers of
treegrp.heap, which owns the layout.

Essentiality is decided on a generating set.  The child subpattern of h∘g
at a first-level vertex v is h's at g(v) composed with g's at v, and the
truncations Q = π_{d-1}(P) form a group, so the members whose two child
subpatterns both lie in Q are closed under products: they form a subgroup,
which holds all of P once it holds every generator.  is_essential reads
the children of the few members it tests slot-wise: packed once, with both
children read off every slot by kernel.slot_gather.  essential_reduction
must filter every member, so it places the truncations once under each
first-level child instead and tests a member by masking it with that
child's placed prefix mask and looking the result up in the placed set.
That test is exact because place(t, v, k) is injective and lands exactly
on the bits of place(prefix_mask(k), v, k), so the k-level subtree of b at
v is t iff b & place(prefix_mask(k), v, k) == place(t, v, k).

Every image of P's members (the truncations, the stabilizer count, the
left-path vectors, and the classes and child classes of the truncation
join) is read off P's packed slots at once, by a mask or by heap's
(shift, mask) steps (EnumeratedSubgroup.masked, gathered and
child_classes), not member by member.  Two reads stop early, off
masked_runs and gathered_runs: is_essential stops once every tested child
is among the truncations read, and truncation_orbits' level d stops once
all 2^d left-path vectors are seen.  Both stops are exact, since reading
more members can only add truncations or vectors.  A failing is_essential
stops at |P| / |St_P(d-1)| truncations, all of them, as truncation is a
homomorphism with kernel St_P(d-1); every other read takes every member.  A failed internal consistency check (a stabilizer order
that is no power of two dividing |P|, more truncations than that quotient,
an embedding index that is no integer) raises VerificationError.

Truncation groups are built one level at a time as a join: the shallower
group's elements are classed by their top d - 1 levels, and each allowed
root pattern picks its two sections from the classes of its two child
subpatterns, so each step does work in proportion to the elements it
outputs.  The same join, run on per-class counts and per-class orbits of
the left path instead of on elements, gives |H(n)| and the orbit of 0^n
under H(n) without listing H(n) (truncation_orbits, which takes no cap:
it joins once per (class, child-1 class) pair of P's members, summing the
counts of the pair's child-2 classes, so its work per level is bounded by
|P| times the orbit size, whatever |H(n)| is); truncation_group checks the
cap against that count before it lists any level.  The embedding index
reads its orders off those counted levels too: |H(n+1)_1| is |H(n+1)|
over the number of first symbols in the orbit of 0^(n+1), so no
truncation group is listed for it.
"""

from __future__ import annotations

import itertools
from collections import Counter
from fractions import Fraction
from typing import Iterable, Iterator, NamedTuple

from . import gf2, kernel
from .errors import EnumerationCapExceeded, VerificationError
from .heap import path_steps, place, prefix_mask, subtree_steps
from .subgroups import (
    EnumeratedSubgroup,
    level_set_mask,
    resolve_cap,
)


class PatternGroup:
    """A subgroup of the depth-d group regarded as an allowed-pattern set.

    `essential` is tri-state: True/False once decided, None while unknown.
    """

    def __init__(self, depth: int, group: EnumeratedSubgroup,
                 essential: bool | None = None):
        self.depth = depth
        self.group = group
        self.essential = essential

    @classmethod
    def from_subgroup(cls, s: EnumeratedSubgroup) -> "PatternGroup":
        return cls(s.depth, s, None)

    @property
    def order(self) -> int:
        return self.group.order


class EssentialityResult(NamedTuple):
    essential: bool
    witness: tuple[int, int] | None


def _tested_children(tested: list[int], d: int) -> list[tuple[int, int, int]]:
    """(b, i, the size-(d-1) subpattern of b at first-level vertex i) for
    each b in tested and i = 0, 1, in that order: the tested members packed
    once and both children read off every slot (kernel.slot_gather)."""
    pack, unpack, _ = kernel.slot_codec(len(tested), d)
    x = pack(tested)
    left, right = (unpack(kernel.slot_gather(x, len(tested), d, subtree_steps(v, d - 1)))
                   for v in (1, 2))
    return [(b, i, c) for b, l, r in zip(tested, left, right) for i, c in ((0, l), (1, r))]


def is_essential(p: PatternGroup, *, tested: Iterable[int] | None = None
                 ) -> EssentialityResult:
    """Whether every child subpattern of every allowed pattern extends in P.

    Decided on a generating set.  Let v be a first-level vertex: the child
    subpattern of h∘g at v is h's at g(v) composed with g's at v, and the
    truncations Q = π_{d-1}(P) form a group.  So the members whose two
    child subpatterns both lie in Q are closed under products, and as P is
    finite they form a subgroup: if every generator passes, all of P
    passes, and a generator that fails is a true witness.  With no
    `tested`, the generators tested are p.group.generators, and a group
    built with none tests every member, in sorted_bits() order, through
    the same read.

    On failure the witness is a pair (bits, i): the size-(d-1) pattern of
    the member portrait bits at first-level vertex i matches no truncation
    of a member of P.  It is the first failing child in the tested order,
    child 0 before child 1.

    `tested`, if given, are the members tested in place of the generators.
    When P is closed under XOR, as a parity-check solution set is, a basis
    is enough, though it need not generate P as a group: truncation and the
    child masks are then linear, so the members that pass form an
    XOR-closed set.

    The tested children are read slot-wise (_tested_children), and the
    truncations a run at a time (masked_runs) until every child is among
    them, which settles essential: the set only grows, so that stop is
    exact.  A read of more than one run also stops at |P| / |St_P(d-1)|
    truncations: truncation to depth d - 1 is a homomorphism with kernel
    St_P(d-1), so they are all of them, and the witness is a full read's.
    """
    d = p.depth
    if d < 2:
        raise ValueError("essentiality needs pattern size >= 2")
    if tested is None:
        tested = p.group.generators or p.group.sorted_bits()
    children = _tested_children(list(tested), d)
    wanted = {c for _, _, c in children}
    truncations: set[int] = set()
    image = None  # |P| / |St_P(d-1)|, counted once more runs follow
    for run in p.group.masked_runs(prefix_mask(d - 1)):
        truncations.update(run)
        if wanted <= truncations:
            return EssentialityResult(True, None)
        if image is None and len(run) < p.order:
            image = p.order // _stabilizer_order(p.group, d)
        if image is not None and len(truncations) >= image:
            if len(truncations) > image:
                raise VerificationError(
                    f"{len(truncations)} truncations read, but |P| / |St_P(d-1)| = "
                    f"{image}; subgroup data is corrupted")
            break
    # Not settled by the runs: with every truncation read, the first
    # child, in the tested order, that matches none is the witness.
    for b, i, c in children:
        if c not in truncations:
            return EssentialityResult(False, (b, i))
    return EssentialityResult(True, None)


def essential_reduction(p: PatternGroup) -> PatternGroup:
    """Greatest subset of P whose child subpatterns all extend within it.

    Iterates the filter to a fixpoint.  Each step preserves closure under
    the group operation (truncation is a homomorphism and sections of
    products factor through sections of the factors), so the result is again
    a pattern group; it is essential by construction and defines the same
    constrained group as P.  A group already marked essential is returned
    as it is.  Each step places the truncations once under each first-level
    child and keeps a member when both of its children, masked, are among
    them.
    """
    d = p.depth
    if d < 2:
        raise ValueError("reduction needs pattern size >= 2")
    if p.essential is True:
        return p
    k = d - 1
    top = prefix_mask(k)
    lm, rm = place(top, 1, k), place(top, 2, k)
    current = set(p.group.element_bits)
    while True:
        truncations = {b & top for b in current}
        left = {place(t, 1, k) for t in truncations}
        right = {place(t, 2, k) for t in truncations}
        kept = {b for b in current if b & lm in left and b & rm in right}
        if kept == current:
            break
        current = kept
    group = EnumeratedSubgroup.from_element_bits(d, current)
    return PatternGroup(d, group, essential=True)


def _ensure_essential(p: PatternGroup) -> PatternGroup:
    if p.essential is False:
        raise ValueError("operation requires an essential pattern group; reduce first")
    if p.essential is None:
        result = is_essential(p)
        if not result.essential:
            raise ValueError(
                "operation requires an essential pattern group; reduce first "
                f"(witness: {result.witness})"
            )
        return PatternGroup(p.depth, p.group, essential=True)
    return p


def hausdorff_dimension(p: PatternGroup) -> Fraction:
    """Exact Hausdorff dimension of the constrained group defined by P.

    Equals log2 of the order of P's level-(d-1) stabilizer divided by
    2^(d-1); the stabilizer order is always a power of two for a 2-group.
    The stabilizer is counted off the packed members (_stabilizer_order).
    """
    p = _ensure_essential(p)
    d = p.depth
    return Fraction(_stabilizer_order(p.group, d).bit_length() - 1, 1 << (d - 1))


def _stabilizer_order(group: EnumeratedSubgroup, d: int) -> int:
    """|St_P(d-1)|, counted off the packed members (count_clear): a power
    of two dividing |P|, as for any subgroup of a 2-group, or
    VerificationError."""
    stab_order = group.count_clear(prefix_mask(d - 1))
    if stab_order.bit_count() != 1 or group.order % stab_order:
        raise VerificationError(
            f"stabilizer order {stab_order} is not a power of two dividing "
            f"|P| = {group.order}; subgroup data is corrupted")
    return stab_order


def is_allowed_dimension(p: PatternGroup, dim: Fraction) -> bool:
    """Whether `dim`, the dimension of the essential P, lies in
    {0, 1/2^(d-1), ..., 1}, and is 1 only for the full pattern group."""
    d = p.depth
    denom = 1 << (d - 1)
    if not (0 <= dim <= 1 and (dim * denom).denominator == 1):
        return False
    # A subgroup of G(d) is G(d) exactly when its order is 2^(2^d - 1).
    if dim == 1 and p.order != 1 << ((1 << d) - 1):
        return False
    return True


class TruncationGroup(NamedTuple):
    """Depth-n truncation of the constrained group defined by a size-d P."""

    pattern_depth: int
    truncation_depth: int
    group: EnumeratedSubgroup


def _extend_one_level(h_bits: frozenset[int], m: int, d: int,
                      joins: list[tuple[int, int, int]]) -> frozenset[int]:
    """Depth-(m+1) truncation group from the depth-m one, m >= d.

    An element belongs iff both its sections lie in the depth-m group and
    its root size-d pattern p is allowed.  p is the root bit and the top
    d - 1 levels of the two sections, so the group is a join: the depth-m
    elements are classed by their top d - 1 levels, placed once under each
    child, and each allowed p contributes its root bit with every section in
    the class of its child-1 subpattern beside every section in the class of
    its child-2 subpattern: joins holds P's child_classes, p's top d - 1
    levels (its class, whose bit 0 is its root bit) and its two child
    subpatterns.  Distinct p give disjoint outputs (an output's root
    pattern is its p), so nothing is built twice or thrown away and the
    work is proportional to the output.
    """
    top = prefix_mask(d - 1)
    lefts: dict[int, list[int]] = {}
    rights: dict[int, list[int]] = {}
    for b in h_bits:
        lefts.setdefault(b & top, []).append(place(b, 1, m))
        rights.setdefault(b & top, []).append(place(b, 2, m))
    out: list[int] = []
    for cls, c1, c2 in joins:
        rs = rights.get(c2, ())
        for left in lefts.get(c1, ()):
            left |= cls & 1
            out.extend([left | right for right in rs])
    return frozenset(out)


def truncation_group(p: PatternGroup, n: int, cap: int | None = None) -> TruncationGroup:
    """Depth-n slice of the constrained group: all depth-n elements whose
    every size-d subpattern is allowed.

    Built level by level from P (sections of members must be members one
    level down), which relies on essentiality for downward extendability;
    non-essential input is refused rather than risking a wrong set.  For
    n > d, |H(n)| is counted first (truncation_orbits) and checked against
    the cap before any level is listed; as |H(m)| does not decrease with m
    for essential P, that one check bounds every level the listing builds.
    """
    p = _ensure_essential(p)
    d = p.depth
    if n < d:
        raise ValueError(f"truncation depth must be >= pattern size {d}, got {n}")
    cap = resolve_cap(cap)
    if n > d:
        order = next(itertools.islice(truncation_orbits(p), n - d, None)).order
        if order > cap:
            raise EnumerationCapExceeded(cap, order, hint=f"depth-{n} truncation group")
    h = p.group.element_bits
    joins = list(p.group.child_classes()) if n > d else []
    for m in range(d, n):
        h = _extend_one_level(h, m, d, joins)
    return TruncationGroup(d, n, EnumeratedSubgroup.from_element_bits(n, h))


class TruncationLevel(NamedTuple):
    """|H(n)| and the orbit of the vertex 0^n under H(n), the depth-n
    truncation group.  The orbit holds each image as an int whose bit k
    is the word's symbol k."""

    depth: int
    order: int
    orbit: frozenset[int]


def truncation_orbits(p: PatternGroup) -> Iterator[TruncationLevel]:
    """TruncationLevel for n = d, d + 1, ..., without listing H(n).

    g sends 0^n to the word whose symbol k is g's label at 0^k, so the orbit
    is the set of left-path label vectors.  Level d reads them off P's
    listing slot-wise (heap.path_steps of 0^d, in gathered_runs), and the
    read stops once all 2^d vectors are seen.  Each deeper level runs
    truncation_group's join on the classes of top d - 1 levels, keeping
    each class's element count N and its left-path vectors: an allowed
    root pattern p of class c adds N[c1] * N[c2] elements to c and, when
    N[c2] > 0, the vectors p's root bit followed by a vector of class c1.
    Members of one class with one child-1 class c1 differ only in c2, so
    the join runs once per (class, child-1 class) pair, adding
    N[c1] * (the sum of N[c2] over the pair's child-2 classes): the
    per-member join's sum.  The classes and child classes
    (child_classes) and the per-class vectors (the path read beside the
    classes) are read off the packed slots.  Nothing is listed past P, so
    no cap applies.
    """
    p = _ensure_essential(p)
    d = p.depth
    group = p.group
    order = group.order
    left_path = path_steps("0" * d)
    # Left-path vectors a run at a time, until all 2^d are seen: more
    # members can only add vectors, so that stop is exact.
    orbit: set[int] = set()
    for run in group.gathered_runs(left_path):
        orbit.update(run)
        if len(orbit) == 1 << d:
            break
    pairs = None
    for n in itertools.count(d):
        yield TruncationLevel(n, order, frozenset(orbit))
        if pairs is None:
            # Per-class state only once a deeper level is wanted: a caller
            # that stops at level d reads P's listing at most once.
            pairs = {}  # (class, child-1 class) -> its child-2 classes
            classes = []
            for cls, c1, c2 in group.child_classes():
                pairs.setdefault((cls, c1), []).append(c2)
                classes.append(cls)
            counts = Counter(classes)
            vectors: dict[int, set[int]] = {}
            for cls, q in set(zip(classes, group.gathered(left_path))):
                vectors.setdefault(cls, set()).add(q)
        # Each class's vectors shifted past a root bit of 0 and of 1.
        shifted = {c: ({q << 1 for q in qs}, {q << 1 | 1 for q in qs})
                   for c, qs in vectors.items()}
        next_counts: Counter[int] = Counter()
        next_vectors: dict[int, set[int]] = {}
        for (cls, c1), c2s in pairs.items():
            joined = counts[c1] * sum(map(counts.__getitem__, c2s))
            if joined:
                next_counts[cls] += joined
                next_vectors.setdefault(cls, set()).update(shifted[c1][cls & 1])
        counts, vectors = next_counts, next_vectors
        order = sum(counts.values())
        orbit = set().union(*vectors.values())


class PsiImageIndex(NamedTuple):
    """Index of the first-level stabilizer, embedded by its section pair,
    inside the square of the one-level-shallower truncation group."""

    stabilized: bool
    value: int | None
    per_depth: tuple[tuple[int, int], ...]


def psi_image_index(p: PatternGroup, *, max_depth: int | None = None) -> PsiImageIndex:
    """Stabilized value of [H(n) x H(n) : psi(H(n+1)_1)] over successive n.

    psi sends a first-level-stabilizing element to its pair of sections and
    is injective, so the index is |H(n)|^2 / |H(n+1)_1|.  Both orders are
    counted, not listed: |H(d - 1)| is the number of truncations of P's
    members, the deeper |H(n)| come from truncation_orbits, and H(n+1)_1 is
    the stabilizer of the vertex 0, so by orbit-stabilizer its order is
    |H(n+1)| over the number of first symbols in the orbit of 0^(n+1).
    Stops as soon as two consecutive depths agree; if max_depth is reached
    first, returns an explicit unstabilized result instead of a guess.
    """
    p = _ensure_essential(p)
    d = p.depth
    if max_depth is None:
        max_depth = d + 2
    order = len(set(p.group.masked(prefix_mask(d - 1))))
    levels = truncation_orbits(p)
    indices: list[tuple[int, int]] = []
    prev_idx: int | None = None
    for n in range(d - 1, max_depth + 1):
        level = next(levels)
        stab_order = level.order // len({f & 1 for f in level.orbit})
        idx, rem = divmod(order * order, stab_order)
        if rem:
            raise VerificationError(
                f"|H({n + 1})_1| = {stab_order} does not divide |H({n})|^2 = "
                f"{order * order}; subgroup data is corrupted")
        indices.append((n, idx))
        if prev_idx == idx:
            return PsiImageIndex(True, idx, tuple(indices))
        prev_idx = idx
        order = level.order
    return PsiImageIndex(False, None, tuple(indices))


# -- GF(2) fast path for level-parity pattern groups -------------------------
#
# P_J and what the reduction derives from it are parity-check solution sets,
# so essentiality and dimension are ranks.  classify and the aux suite list
# each rank-reduced P_J at run time at d <= 4 and cross-check its
# essentiality and dimension; classify's d = 5 rows rest on the ranks alone.


def linear_essential_reduction(lin: gf2.LinearSubgroup
                               ) -> tuple[gf2.LinearSubgroup, bool]:
    """Reduction fixpoint computed on parity checks; returns (reduced,
    was_already_essential).

    A round eliminates the checks modulo `zero` (gf2.echelon, with no
    back-substitution).  As the pivots are distinct highest bits, the checks
    of the depth-(d - 1) truncation are the rows with no bit on level d - 1
    plus the `zero` bits above it; placed under both children, they join
    the checks and `zero`.
    Each round's set lies inside the last, so the fixpoint is reached when
    popcount(zero) + rank stops growing.
    """
    d = lin.depth
    top = prefix_mask(d - 1)
    checks, zero = lin.checks, lin.zero
    codim, rounds = -1, 0
    while True:
        rows = gf2.echelon(c & ~zero for c in checks)
        if zero.bit_count() + len(rows) == codim:
            break
        codim, rounds = zero.bit_count() + len(rows), rounds + 1
        zero |= place(zero & top, 1, d - 1) | place(zero & top, 2, d - 1)
        checks = rows + [place(c, v, d - 1) for c in rows if c <= top for v in (1, 2)]
    if rounds == 1:
        return lin, True
    return gf2.LinearSubgroup(d, tuple(rows), zero), False


def linear_truncation_group(d: int, J: Iterable[int], n: int) -> gf2.LinearSubgroup:
    """Depth-n truncation group of the constrained group of P_J, as parity
    checks: the level-parity mask of J scattered to every subtree with at
    least d levels below it."""
    j_mask = level_set_mask(d, J)
    if n < d:
        raise ValueError(f"truncation depth must be >= pattern size {d}, got {n}")
    checks = [place(j_mask, v, d) for v in range((1 << (n - d + 1)) - 1)]
    return gf2.LinearSubgroup(n, tuple(checks))


def linear_hausdorff_dimension(lin: gf2.LinearSubgroup) -> Fraction:
    """Dimension of the constrained group of an essential parity-cut P:
    log2 |St_P(d-1)| over 2^(d-1), St_P(d-1) being P with the bits of
    levels 0..d-2 added to its zero mask."""
    d = lin.depth
    stab = gf2.LinearSubgroup(d, lin.checks, lin.zero | prefix_mask(d - 1))
    return Fraction(stab.log2_order(), 1 << (d - 1))
