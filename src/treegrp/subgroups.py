"""Subgroups of the depth-d tree group: enumeration and structure.

Subgroups take and hold depth-d portrait ints, and contains_bits is the
membership test of both representations.  A FiniteAutomorphism is built
only from hex (subgroup_from_json) and by elements and iteration.

Two representations, one per question:

* EnumeratedSubgroup: an explicit element set, built by kernel.close's
  coset closure or listed directly when the structure is known, canonically
  ordered by the portrait byte encoding.  It also keeps its members packed
  in kernel.slot_codec slots (from the listing, or packed on first use), so
  masked(mask), every member ANDed with one mask, is one AND and one unpack
  instead of a pass member by member.  gathered(steps) reads every member
  through heap's (shift, mask) steps the same way (kernel.slot_gather): a
  subtree or the labels on a vertex's path, so child_classes, each
  member's top depth - 1 levels and its two child subpatterns, and orbit
  are three reads and one.  masked_runs(mask) and gathered_runs(steps)
  give the same lists in runs that double, each read only when reached
  and as a listing of its own (kernel.slot_runs: one gather and one
  slot_codec unpack per run), for readers whose answer can only grow as
  they read: they stop once it is fixed.  count_clear(mask) and
  count_odd(mask), the members with no bit of mask and with an odd number
  of its bits, fold every masked slot onto its low bit (by OR and by XOR,
  only as far as mask's bits reach) for one bit_count, so whether a
  parity-check subgroup holds every member is one count for its zero mask
  and one per check.  A listing builds its member set only when a
  membership is read; order, the reads and the counts never build it.
* gf2.LinearSubgroup: a subgroup cut out by parity checks, with membership
  and order read off the checks without enumeration.  The parity-defined
  families are built here in that form: the level-parity kernels P_J
  (maximal_subgroup) and the maximal subgroups M_V of the level-(d-1)
  stabilizer.

Structure known from the definitions is never recomputed by closure:

* P_J and M_V are the solution sets of their parity checks, so
  enumerate_PJ and enumerate_MV list them as the span of the checks'
  nullspace, doubled in packed slots by gf2.LinearSubgroup.packed
  (EnumeratedSubgroup.from_linear, which keeps them packed until a
  membership is read).
  enumerate_PJ attaches the Schreier generators of the index-2 kernel for
  the transversal {1, a_j0}, j0 = min J, so derived_subgroup starts from
  at most 2(d-1) generators instead of a greedy generating set.
* [S, S] is the normal closure in S of the commutators of S's generators,
  so derived_subgroup folds it from generators inside kernel.close, which
  conjugates each generator it accepts by S's generators before it reads
  the next seed.  The seeds, one kernel.commutator_batch over the
  generator pairs, lie in S, so each finds the subgroup so far normal in
  S and adds only the cosets of its own powers.  It never lists S itself,
  and the derived subgroup of the full group is built the same way from
  the d generators a_i (verify.derived_of_full).
* orbit reads each element's image of a vertex off its portrait (the
  labels at the vertex's proper prefixes), with no generating set.

Enumeration-backed operations respect a hard element cap (default 2^26,
overridable per call or via the TREEGRP_CAP environment variable) and fail
loudly when it is exceeded.  Orders known up front are checked against the
cap by their exponent, so the check works at every depth.
"""

from __future__ import annotations

import operator
import os
from typing import Callable, Iterable, Iterator, Sequence

from . import gf2, kernel
from .errors import EnumerationCapExceeded, VerificationError
from .heap import (
    check_word,
    heap_index,
    in_range,
    level_mask,
    path_steps,
    prefix_mask,
    spine,
    subtree_steps,
)
from .portrait import MAX_DEPTH, FiniteAutomorphism

DEFAULT_CAP = 1 << 26


def resolve_cap(cap: int | None = None) -> int:
    """cap if given, else TREEGRP_CAP if set, else DEFAULT_CAP.

    Raises ValueError when cap, or TREEGRP_CAP if it is read, is not an
    integer of at least 1.
    """
    if cap is not None:
        if not isinstance(cap, int) or isinstance(cap, bool) or cap < 1:
            raise ValueError(f"cap must be an integer of at least 1, got {cap!r}")
        return cap
    env = os.environ.get("TREEGRP_CAP")
    if not env:
        return DEFAULT_CAP
    message = f"TREEGRP_CAP must be an integer of at least 1, got {env!r}"
    try:
        value = int(env)
    except ValueError:
        raise ValueError(message) from None
    if value < 1:
        raise ValueError(message)
    return value


def check_order_cap(log2_order: int, cap: int, what: str, advice: str = "") -> None:
    """Raise EnumerationCapExceeded when an order 2^log2_order exceeds cap.

    Compares exponents (2^k > cap iff k >= cap.bit_length()) and names the
    order as 2^k, so the order is never built or printed in decimal.
    """
    if log2_order >= cap.bit_length():
        hint = f"{what} has order 2^{log2_order}" + (f"; {advice}" if advice else "")
        raise EnumerationCapExceeded(cap, hint=hint)


class EnumeratedSubgroup:
    """An explicitly enumerated subgroup of the depth-d tree group."""

    __slots__ = ("depth", "generators", "order", "_bits", "_sorted", "_genset", "_packed")

    def __init__(self, depth: int, bits: frozenset[int],
                 gens: tuple[int, ...] = (), _trusted: bool = False):
        if not _trusted:
            raise TypeError(
                "use close() / from_element_bits() / from_linear() to build subgroups")
        self.depth = depth
        self.generators = gens
        self.order = len(bits)
        self._bits: frozenset[int] | None = bits
        self._sorted: list[int] | None = None
        self._genset: tuple[int, ...] | None = gens or None
        self._packed: int | None = None

    # -- constructors --------------------------------------------------------

    @classmethod
    def from_element_bits(cls, depth: int, bits: Iterable[int],
                          gens: tuple[int, ...] = ()) -> "EnumeratedSubgroup":
        """Wrap an element set already known to be closed (kernels, filters).

        Closure is the caller's responsibility.
        """
        return cls(depth, frozenset(bits), gens, _trusted=True)

    @classmethod
    def from_linear(cls, lin: gf2.LinearSubgroup, basis: list[int] | None = None,
                    gens: tuple[int, ...] = ()) -> "EnumeratedSubgroup":
        """List a parity-check subgroup: the group holds only its members
        packed in slots (lin.packed), and unpacks them into the member set
        on the first membership read (element_bits, contains_bits, sorted_bits,
        ==, hash, iteration); order, len, the masked and gathered reads,
        count_clear and count_odd never do.
        `basis`, if given, is lin.basis(); it must be independent, so its
        2^len(basis) combinations are the distinct members, or
        VerificationError.  The caller checks the order against the cap."""
        if basis is None:
            basis = lin.basis()
        if gf2.rank(basis) < len(basis):
            raise VerificationError(f"a listing basis of {len(basis)} vectors is dependent")
        group = cls(lin.depth, frozenset(), gens, _trusted=True)
        group.order, group._bits, group._packed = 1 << len(basis), None, lin.packed(basis)
        return group

    # -- basic queries --------------------------------------------------------

    @property
    def element_bits(self) -> frozenset[int]:
        if self._bits is None:  # a listing, unpacked on this first read
            bits = frozenset(kernel.slot_codec(self.order, self.depth)[1](self._packed))
            if len(bits) != self.order:
                raise VerificationError(
                    f"a listing of {self.order} members holds {len(bits)} distinct ones")
            self._bits = bits
        return self._bits

    def __len__(self) -> int:
        return self.order

    def contains_bits(self, bits: int) -> bool:
        return bits in self.element_bits

    def __contains__(self, g: FiniteAutomorphism) -> bool:
        if g.depth != self.depth:
            raise ValueError(f"depth mismatch: {g.depth} vs {self.depth}")
        return self.contains_bits(g.bits)

    def sorted_bits(self) -> list[int]:
        """Element portraits in canonical order (by the byte encoding)."""
        if self._sorted is None:
            nb = kernel.slot_bytes(self.depth)
            self._sorted = sorted(self.element_bits, key=lambda b: b.to_bytes(nb, "little"))
        return self._sorted

    def _packed_slots(self) -> int:
        """The members in kernel.slot_codec slots, packed on first use and kept."""
        if self._packed is None:
            self._packed = kernel.slot_codec(self.order, self.depth)[0]([*self._bits])
        return self._packed

    def gathered(self, steps: Sequence[tuple[int, int]]) -> Sequence[int]:
        """Every member read through the (shift, mask) steps, one entry per
        member in slot order: one kernel.slot_gather of the packed members
        and one unpack.  The steps read within a depth-`depth` portrait
        (heap.subtree_steps of a subtree that fits, heap.path_steps of a
        word no longer than depth).  The result is not kept."""
        x = kernel.slot_gather(self._packed_slots(), self.order, self.depth, steps)
        return kernel.slot_codec(self.order, self.depth)[1](x)

    def masked(self, mask: int) -> Sequence[int]:
        """Every member ANDed with mask, one entry per member in slot order:
        gathered with the one step (0, mask), the mask cut to the portrait."""
        return self.gathered(((0, mask & prefix_mask(self.depth)),))

    def child_classes(self) -> Iterator[tuple[int, int, int]]:
        """(class, child-1 class, child-2 class) of each member, in slot
        order: its top depth - 1 levels and its (depth - 1)-level subtrees
        at heap indices 1 and 2, each read off the packed slots at once
        (gathered).  These are the triples every truncation join reads."""
        k = self.depth - 1
        return zip(self.masked(prefix_mask(k)), self.gathered(subtree_steps(1, k)),
                   self.gathered(subtree_steps(2, k)))

    def gathered_runs(self, steps: Sequence[tuple[int, int]]) -> Iterator[Sequence[int]]:
        """gathered(steps) in slot order, in the runs of kernel.slot_runs:
        kernel.FIRST_RUN slots, then runs as long as all before them, each
        read as gathered reads the whole listing, only when reached.  For a
        from_linear listing each prefix of 2^k slots is the span of the
        first k basis vectors.  A reader whose answer can only grow as it
        reads stops here once that answer is fixed; if it stops after the
        first run, no slot past that run is read or unpacked."""
        return kernel.slot_runs(self._packed_slots(), self.order, self.depth, steps)

    def masked_runs(self, mask: int) -> Iterator[Sequence[int]]:
        """masked(mask) in the runs of gathered_runs."""
        return self.gathered_runs(((0, mask & prefix_mask(self.depth)),))

    def _fold_count(self, mask: int, fold: Callable[[int, int], int]) -> int:
        """How many slots of the packed members ANDed with mask fold to 1:
        each slot's bits folded onto its low bit by `fold` (OR or XOR), and
        one bit_count of those low bits.  The folds reach only as far as
        the mask's bits, not the whole slot."""
        mask &= prefix_mask(self.depth)
        broadcast = kernel.slot_codec(self.order, self.depth)[2]
        x = self._packed_slots() & broadcast(mask)
        shift = 1
        while shift < mask.bit_length():
            x = fold(x, x >> shift)  # each slot's low bit gathers only its own slot's bits
            shift <<= 1
        return (x & broadcast(1)).bit_count()

    def count_clear(self, mask: int) -> int:
        """How many members have no bit of mask set: the members whose
        masked slot OR-folds to 0."""
        return self.order - self._fold_count(mask, operator.or_)

    def count_odd(self, mask: int) -> int:
        """How many members have an odd number of mask's bits set: the
        members whose masked slot XOR-folds to 1, so a member lies outside
        the parity check mask exactly when it is counted here."""
        return self._fold_count(mask, operator.xor)

    def elements(self) -> Iterator[FiniteAutomorphism]:
        for b in self.sorted_bits():
            yield FiniteAutomorphism(self.depth, b)

    def __iter__(self) -> Iterator[FiniteAutomorphism]:
        return self.elements()

    def __eq__(self, other) -> bool:
        if not isinstance(other, EnumeratedSubgroup):
            return NotImplemented
        return self.depth == other.depth and self.element_bits == other.element_bits

    def __hash__(self) -> int:
        return hash((self.depth, self.element_bits))

    def __repr__(self):
        return f"EnumeratedSubgroup(depth={self.depth}, order={self.order})"


def close(d: int, gens: Sequence[int], cap: int | None = None) -> EnumeratedSubgroup:
    """Least subgroup containing the depth-d portrait ints gens
    (kernel.close's coset closure); an int that is not a depth-d portrait
    raises ValueError."""
    gens = tuple(gens)
    if not all(in_range(g, d) for g in gens):
        raise ValueError(f"a generator is not a depth-{d} portrait")
    bits = kernel.close(d, list(gens), resolve_cap(cap))
    return EnumeratedSubgroup.from_element_bits(d, bits, gens)


_FULL_GROUP_CACHE: dict[int, EnumeratedSubgroup] = {}


def full_group(d: int, cap: int | None = None) -> EnumeratedSubgroup:
    """The whole depth-d group, order 2^(2^d - 1)."""
    cap = resolve_cap(cap)
    # Cap check precedes the cache so behavior does not depend on what
    # earlier calls happen to have enumerated.
    check_order_cap((1 << d) - 1, cap, f"the full depth-{d} group")
    if d not in _FULL_GROUP_CACHE:
        _FULL_GROUP_CACHE[d] = close(d, [spine(i) for i in range(d)], cap)
    return _FULL_GROUP_CACHE[d]


def level_stabilizer(s: EnumeratedSubgroup, n: int) -> EnumeratedSubgroup:
    """Elements of S acting trivially on all words of length <= n."""
    if not 0 <= n <= s.depth:
        raise ValueError(f"stabilizer level must be in 0..{s.depth}, got {n}")
    mask = prefix_mask(n)
    return EnumeratedSubgroup.from_element_bits(
        s.depth, (b for b in s.element_bits if not b & mask)
    )


def generating_set(s: EnumeratedSubgroup) -> tuple[int, ...]:
    """A small generating set, extracted greedily in canonical element order.

    When the loop ends, the closure of the chosen elements holds all of S:
    each member is either already in it or chosen and closed into it.  So
    a set that is not a subgroup, whose closure outgrows it, is refused by
    kernel.close's cap of |S| with EnumerationCapExceeded.
    """
    if s._genset is not None:
        return s._genset
    d = s.depth
    current: set[int] = {0}
    chosen: list[int] = []
    for b in s.sorted_bits():
        if b in current:
            continue
        chosen.append(b)
        current = kernel.close(d, chosen, len(s))
    s._genset = tuple(chosen)
    return s._genset


def _derived_from_generators(d: int, gens: Sequence[int],
                             cap: int | None = None) -> EnumeratedSubgroup:
    """[S, S] for S generated by the portrait ints gens.

    [S, S] is the normal closure in S of the commutators of generator
    pairs, and kernel.close builds that closure directly with gens as the
    normalizer.  Only pairs x < y are seeded, [y, x] = [x, y]^-1 and
    [x, x] = 1, all by one kernel.commutator_batch.
    """
    # One identity pair keeps the batch nonempty; close skips its commutator.
    pairs = [(x, y) for i, x in enumerate(gens) for y in gens[i + 1:]] or [(0, 0)]
    x, y = (kernel.pack(side, d) for side in zip(*pairs))
    seeds = kernel.unpack(kernel.commutator_batch(x, y, len(pairs), d), len(pairs), d)
    bits = kernel.close(d, sorted(seeds), resolve_cap(cap), normalizer=gens)
    return EnumeratedSubgroup.from_element_bits(d, bits)


def derived_subgroup(s: EnumeratedSubgroup, cap: int | None = None) -> EnumeratedSubgroup:
    """Commutator subgroup [S, S], folded from S's generators (the ones it
    was built from, else a greedy generating set) by _derived_from_generators."""
    return _derived_from_generators(s.depth, generating_set(s), cap)


def orbit(s: EnumeratedSubgroup, v: str) -> set[str]:
    """Orbit of the vertex word v under S, read off the element portraits.

    g flips symbol k of v exactly when its label at the length-k prefix of
    v is 1, so g(v) is v XOR g's labels at the proper prefixes of v.  Only
    those labels matter: they are read off S's packed slots at once
    (heap.path_steps), and the orbit is one image per distinct vector.
    """
    check_word(v)
    if len(v) > s.depth:
        raise ValueError(f"vertex {v!r} too deep for depth {s.depth}")
    flips = set(s.gathered(path_steps(v)))
    return {
        "".join("1" if (c == "1") ^ ((f >> k) & 1) else "0" for k, c in enumerate(v))
        for f in flips
    }


def is_transitive_on_level(s: EnumeratedSubgroup, n: int) -> bool:
    if not 0 <= n <= s.depth:
        raise ValueError(f"level must be in 0..{s.depth}, got {n}")
    return len(orbit(s, "0" * n)) == 1 << n


# -- parity-defined subgroups ------------------------------------------------


def level_set_mask(d: int, J: Iterable[int]) -> int:
    """The parity check of P_J: the mask of every portrait bit on a level in J."""
    J = frozenset(J)
    if not J:
        raise ValueError("J must be a nonempty set of levels")
    if not J <= set(range(d)):
        raise ValueError(f"J must be contained in 0..{d - 1}, got {sorted(J)}")
    mask = 0
    for j in J:
        mask |= level_mask(j)
    return mask


def maximal_subgroup(d: int, J: Iterable[int]) -> gf2.LinearSubgroup:
    """The index-2 subgroup P_J = kernel of the parity functional over levels J."""
    return gf2.LinearSubgroup(d, (level_set_mask(d, J),))


def _pj_schreier_generators(d: int, J: frozenset[int]) -> tuple[int, ...]:
    """Schreier generators of P_J for the transversal {1, t}, t = a_j0, j0 = min J.

    The standard generator a_i lies in P_J exactly when i is not in J, so
    Schreier's lemma gives a_i and t a_i t for i outside J, and a_i t and
    t a_i for i in J other than j0 (those for j0 itself are trivial).  All
    a_i are involutions, so t a_i is the inverse of a_i t and is left out.
    """
    t = spine(min(J))
    gens: list[int] = []
    for i in range(d):
        a = spine(i)
        if i not in J:
            gens += [a, kernel.conjugate(a, t, d)]
        elif a != t:
            gens.append(kernel.compose(a, t, d))
    return tuple(gens)


def _listable(lin: gf2.LinearSubgroup, cap: int | None, what: str,
              builder: str) -> gf2.LinearSubgroup:
    """lin, once its order is known to fit under the cap and under the
    listing limit 2^gf2.MAX_LIST_LOG2, which holds whatever the cap; it is
    then listed by EnumeratedSubgroup.from_linear, as the span of its
    checks' nullspace in packed slots."""
    check_order_cap(lin.log2_order(), min(resolve_cap(cap), 1 << gf2.MAX_LIST_LOG2),
                    what, f"use {builder} for membership without enumeration")
    return lin


def listable_PJ(d: int, J: Iterable[int], cap: int | None = None) -> gf2.LinearSubgroup:
    """maximal_subgroup(d, J) after the cap check enumerate_PJ makes before
    listing it, so a caller that lists only a subgroup of P_J keeps that
    contract."""
    J = frozenset(J)
    return _listable(maximal_subgroup(d, J), cap, f"P_J for J={sorted(J)}",
                     "maximal_subgroup(d, J)")


def enumerate_PJ(d: int, J: Iterable[int], cap: int | None = None) -> EnumeratedSubgroup:
    """Explicit element set of P_J; order 2^(2^d - 2).  Needs d <= 4.

    The result carries the Schreier generators of P_J (at most 2(d-1)).
    """
    J = frozenset(J)
    return EnumeratedSubgroup.from_linear(
        listable_PJ(d, J, cap), gens=_pj_schreier_generators(d, J))


def M_V(d: int, V: Iterable[str]) -> gf2.LinearSubgroup:
    """Maximal subgroup of the level-(d-1) stabilizer cut out by the parity over V."""
    V = frozenset(V)
    if not V:
        raise ValueError("V must be a nonempty set of level-(d-1) vertices")
    for w in V:
        if len(w) != d - 1:
            raise ValueError(f"vertex {w!r} is not on level {d - 1}")
    mask = sum(1 << heap_index(w) for w in V)
    return gf2.LinearSubgroup(d, (mask,), zero=prefix_mask(d - 1))


def enumerate_MV(d: int, V: Iterable[str], cap: int | None = None) -> EnumeratedSubgroup:
    """Explicit element set of M_V, order 2^(2^(d-1) - 1)."""
    return EnumeratedSubgroup.from_linear(
        _listable(M_V(d, V), cap, f"M_V at depth {d}", "M_V(d, V)"))


#: Translates a byte holding a value below 16 to its ASCII hex digit.
_DIGITS = b"0123456789abcdef".ljust(256, b"\0")


def conjugation_law_counts(d: int, chunks: Iterable[kernel.Chunk]) -> tuple[int, int]:
    """(checked, failures) of the conjugation law over a stream of (h, g)
    portrait pairs, each h stabilizing level d-1: h^g stabilizes level d-1
    and carries, at each last-level vertex v, the label of h at g(v).

    The stream comes as packed chunks (n, pack(hs), pack(gs)), from
    kernel.packed_chunks or kernel.sampled_chunks.  Each chunk is
    conjugated by one conjugate_batch call and compared, as one int, with
    the expected portraits, which are built off the two batches' bits by
    the definition of g's action, with no kernel arithmetic: symbol i of
    g(v) is v's symbol i XOR g's label at v's length-i prefix.  In one byte
    per pair, column q holds h's label at last-level offset q, and the
    selector of a vertex u above the last level holds g's label at u; both
    are read off the batches' binary digits, one strided slice each.
    Walking down from the root, each vertex's two child blocks of columns
    are swapped where its selector is 1, after which column q holds h's
    label at g(q): (d-1) 2^(d-2) swaps, each a few operations on the whole
    chunk.  The columns then go back into the last level of a batch.  The
    delta swaps of conjugate_batch read g's labels through masks widened
    from them, so this route shares no step with the one it checks.  A
    chunk whose ints differ is recounted pair by pair with kernel.conjugate.
    """
    half = 1 << (d - 1)  # last-level vertices
    first, full = half - 1, (1 << half) - 1
    checked = failures = 0
    for n, h, g in chunks:
        low = n << (d - 1)  # batch bits below the last level's block
        if h & ((1 << low) - 1):
            raise ValueError("h must stabilize level d-1")
        ones = int.from_bytes(b"\1" * n, "little")
        # Bit i of each int at index i: '0' and '1' differ in their low bit.
        h_digits = format(h >> low, f"0{low}b").encode()[::-1]
        g_digits = format(g & ((1 << low) - 1), f"0{low}b").encode()[::-1]
        cols = [int.from_bytes(h_digits[q:low:half], "little") & ones for q in range(half)]
        for m in range(d - 1):
            span = half >> m  # last-level vertices under a level-m vertex
            k = span >> 1
            for p in range(1 << m):
                sel = int.from_bytes(g_digits[(n << m) + p:n << (m + 1):1 << m], "little") & ones
                for q in range(p * span, p * span + k):
                    t = (cols[q] ^ cols[q + k]) & sel
                    cols[q] ^= t
                    cols[q + k] ^= t
        rows = [sum(c << i for i, c in enumerate(cols[b:b + 8])) for b in range(0, half, 8)]
        if half < 8:  # pairs share a byte: each pair's byte is one base-2^half digit
            e = int(rows[0].to_bytes(n, "big").translate(_DIGITS), 1 << half)
        else:
            out = bytearray(low >> 3)
            for b, row in enumerate(rows):
                out[b::half >> 3] = row.to_bytes(n, "little")
            e = int.from_bytes(out, "little")
        checked += n
        if kernel.conjugate_batch(h, g, n, d) != e << low:
            pairs = zip(kernel.unpack(h, n, d), kernel.unpack(g, n, d))
            failures += sum(kernel.conjugate(hj, gj, d) != (e >> j * half & full) << first
                            for j, (hj, gj) in enumerate(pairs))
    return checked, failures


def all_subgroups_depth2(cap: int | None = None) -> list[EnumeratedSubgroup]:
    """Every subgroup of the depth-2 group (ten of them).

    The depth-2 group has order 8, so all its subgroups are generated by at
    most two elements; taking every unordered pair {x, y} once (36 of them)
    is exhaustive, since <x, y> = <y, x>.  A pair with y in <x> or x in <y>
    generates that cyclic group, so only the 18 other pairs are closed, and
    each element's cyclic group once: 26 closures.  Every group keeps the
    pair that generates it as its generators, and the first pair, in
    canonical order, that generates a group is the one kept.
    """
    els = full_group(2, cap=cap).sorted_bits()
    cyclic = {x: close(2, [x], cap).element_bits for x in els}
    seen: dict[frozenset[int], EnumeratedSubgroup] = {}
    for i, x in enumerate(els):
        for y in els[i:]:
            if y in cyclic[x]:
                s = EnumeratedSubgroup.from_element_bits(2, cyclic[x], (x, y))
            elif x in cyclic[y]:
                s = EnumeratedSubgroup.from_element_bits(2, cyclic[y], (x, y))
            else:
                s = close(2, [x, y], cap)
            seen.setdefault(s.element_bits, s)
    return sorted(seen.values(), key=lambda s: (s.order, s.sorted_bits()))


# -- JSON wire format ---------------------------------------------------------


def _require_list_of(doc: dict, key: str, kind: type) -> list:
    value = doc[key]
    if not isinstance(value, list) or not all(
            isinstance(x, kind) and not isinstance(x, bool) for x in value):
        noun = "integers" if kind is int else "strings"
        raise ValueError(f"{key!r} must be a list of {noun}, got {value!r}")
    return value


def subgroup_from_json(doc: dict, cap: int | None = None
                       ) -> EnumeratedSubgroup | gf2.LinearSubgroup:
    """Parse the subgroup JSON schema; a malformed document raises ValueError
    (or KeyError for a missing field)."""
    if not isinstance(doc, dict):
        raise ValueError(f"a subgroup file holds a JSON object, got {type(doc).__name__}")
    d = doc["d"]
    if not isinstance(d, int) or isinstance(d, bool) or not 1 <= d <= MAX_DEPTH:
        raise ValueError(f"'d' must be an integer in 1..{MAX_DEPTH}, got {d!r}")
    kind = doc["kind"]
    if kind == "generated":
        gens = [FiniteAutomorphism.from_hex(h, d).bits
                for h in _require_list_of(doc, "generators", str)]
        return close(d, gens, cap)
    if kind == "PJ":
        return maximal_subgroup(d, _require_list_of(doc, "J", int))
    if kind == "MV":
        return M_V(d, _require_list_of(doc, "V", str))
    raise ValueError(f"unknown subgroup kind {kind!r}")
