"""Reference implementations that tests hold production code against.

Each one computes its answer the slow, direct way, independently of the
route the library takes: the derived subgroup from all |S|^2 commutators,
the conjugation law one pair at a time off g's last-level images (walked
vertex by vertex down g's portrait, where subgroups.conjugation_law_counts
swaps whole columns of a packed chunk), gather_bits and its inverse, one
bit at a time where heap.path_steps reads a whole packed int at once,
the per-member truncation join that patterns.truncation_orbits runs once
per (class, child-1 class) pair on classes read slot-wise,
and the parity-check essential reduction by way of a basis of the group.
One is the library's earlier body of kernel.pack, which wrote one
portrait's row at a time where kernel.slot_codec now packs every row at
once.  Two more are earlier bodies that fully reduced every row on
insertion, where the library now eliminates forward and back-substitutes
only for gf2.rref: gf2.rref itself and the parity-check reduction that ran
it each round.  span_by_lists doubles a span as a list, the listing
gf2.LinearSubgroup.packed and iter_bits build by whole-int doubling, and
normal_closure_by_lists closes under conjugation and products
element by element.  sampled_pairs reads the sampled pair stream one
pair at a time off each chunk's getrandbits results, where
kernel.sampled_chunks shifts each result into a batch whole, and three
more are the kernel's byte translation tables built bit by bit.  batch_members reads a packed batch back sample by sample.
LevelSumCharacters computes the level sums of a pattern group's
abelianization member by member, the argument verify_not_top_fg's verdict
rests on, which no library route computes.

The vertex-word helpers (vertex_word, from_labels, label, beta_V), the
object spellings of the standard generators and their commutator
(generator, generators, commutator; the library reads a_i's portrait off
heap.spine), the closure check verify_closed and state, the value a report
or parity-check subgroup is compared by, serve only tests, so they live
here rather than in the library.
"""

from itertools import islice
from random import Random
from typing import Iterable, Iterator, Sequence

from treegrp import gf2, kernel
from treegrp.errors import EnumerationCapExceeded
from treegrp.heap import gather, heap_index, place, prefix_mask, spine
from treegrp.portrait import FiniteAutomorphism
from treegrp.report import Report
from treegrp.subgroups import EnumeratedSubgroup, resolve_cap


def state(value):
    """(type, attributes) of a report or gf2.LinearSubgroup, with nested
    reports in lists read the same way: two of them are equal exactly when
    their states are, as a dataclass's generated == compared them."""
    if isinstance(value, list):
        return [state(v) for v in value]
    if isinstance(value, (Report, gf2.LinearSubgroup)):
        return type(value), {k: state(v) for k, v in vars(value).items()}
    return value


def vertex_word(index: int) -> str:
    """Inverse of heap.heap_index."""
    level = (index + 1).bit_length() - 1
    return format(index + 1 - (1 << level), "b").zfill(level) if level else ""


def from_labels(d: int, labels: dict[str, int]) -> FiniteAutomorphism:
    """The depth-d element whose label at each vertex word is labels[word] & 1."""
    if any(len(w) >= d for w in labels):
        raise ValueError(f"a vertex of {sorted(labels)} is too deep for depth {d}")
    return FiniteAutomorphism(d, sum(1 << heap_index(w) for w, b in labels.items() if b & 1))


def generator(d: int, i: int) -> FiniteAutomorphism:
    """The standard generator a_i: single nontrivial label at vertex 0^i."""
    if not 0 <= i <= d - 1:
        raise ValueError(f"generator index must be in 0..{d - 1}, got {i}")
    return FiniteAutomorphism(d, spine(i))


def generators(d: int) -> list[FiniteAutomorphism]:
    """The standard generating set a_0, ..., a_{d-1}."""
    return [generator(d, i) for i in range(d)]


def commutator(g: FiniteAutomorphism, h: FiniteAutomorphism) -> FiniteAutomorphism:
    """g^-1 h^-1 g h."""
    if g.depth != h.depth:
        raise ValueError(f"depth mismatch: {g.depth} vs {h.depth}")
    return FiniteAutomorphism(g.depth, kernel.commutator(g.bits, h.bits, g.depth))


def label(g: FiniteAutomorphism, v: str) -> int:
    """The portrait bit of g at vertex v (the activity of g at v)."""
    if len(v) >= g.depth:
        raise ValueError(f"vertex {v!r} too deep for depth {g.depth}")
    return g.bits >> heap_index(v) & 1


def beta_V(g: FiniteAutomorphism, V: Iterable[str]) -> int:
    """Total activity of g over the vertex set V, mod 2."""
    return sum(label(g, w) for w in V) & 1


def verify_closed(s: EnumeratedSubgroup) -> bool:
    """Whether the element set is a subgroup: kernel.close of S itself under
    the cap |S| equals S exactly when S is closed, and outgrows it otherwise."""
    try:
        return kernel.close(s.depth, s.sorted_bits(), len(s)) == s.element_bits
    except EnumerationCapExceeded:
        return False


def derived_subgroup_allpairs(s: EnumeratedSubgroup, cap: int | None = None) -> EnumeratedSubgroup:
    """Oracle form of the derived subgroup: close all |S|^2 commutators.

    Quadratic in the group order; used to validate derived_subgroup on
    small groups, never as the production path.
    """
    d = s.depth
    bits = list(s.element_bits)
    comms = {kernel.commutator(x, y, d) for x in bits for y in bits}
    closed = kernel.close(d, sorted(comms), resolve_cap(cap))
    return EnumeratedSubgroup.from_element_bits(d, closed)


class LevelSumCharacters:
    """The level-sum characters of a pattern group P of size d, element by
    element: the argument that verify_not_top_fg's verdict rests on.

    chi is the coset map of P onto P / D for a normal subgroup D that holds
    [P, P], so the quotient A is abelian: chi[x] indexes x's coset and
    add[a][b] is the coset of a product, A's table.  chi_k(g), for g in a
    truncation group H(m), sums chi over g's size-d patterns at the
    vertices of level k; pattern of g∘h at v = (pattern of g at h(v))∘
    (pattern of h at v), and h permutes level k, so chi_k is a
    homomorphism.  family(u, m) places u, a member of St_P(d-1), under the
    leftmost vertex of each level n <= m - d and extends it below (extend
    maps each truncation of P to its least member, which exists for every
    child subpattern when P is essential): chi_k of the n-th is 0 for
    k < n and chi(u) for k = n.
    """

    def __init__(self, d: int, group: Iterable[int], normal: Iterable[int]):
        self.d = d
        members = sorted(group)
        normal = list(normal)
        self.chi: dict[int, int] = {}
        reps = []
        for x in members:
            if x not in self.chi:
                for y in normal:  # the coset D∘x, which is x∘D
                    self.chi[kernel.compose(y, x, d)] = len(reps)
                reps.append(x)
        self.add = [[self.chi[kernel.compose(a, b, d)] for b in reps] for a in reps]
        self.zero = self.chi[0]
        top = prefix_mask(d - 1)
        self.extend: dict[int, int] = {}
        for x in members:
            self.extend.setdefault(x & top, x)

    def level_sum(self, g: int, k: int) -> int:
        """chi_k(g): chi summed over g's size-d patterns on level k."""
        total = self.zero
        for v in range((1 << k) - 1, (2 << k) - 1):
            total = self.add[total][self.chi[gather(g, v, self.d)]]
        return total

    def family(self, u: int, m: int) -> list[int]:
        """g_0 .. g_(m-d) in depth-m portraits: g_n is u placed at the
        vertex 0^n, then each vertex below, level by level, given the
        last level that completes its pattern to a member of P."""
        d = self.d
        top = prefix_mask(d - 1)
        out = []
        for n in range(m - d + 1):
            g = place(u, (1 << n) - 1, d)
            for w in range((2 << n) - 1, (2 << m - d) - 1):
                g |= place(self.extend[gather(g, w, d) & top] & ~top, w, d)
            out.append(g)
        return out


def _last_level_images(g_bits: int, d: int) -> list[int]:
    """Heap indices of g's images of the level-(d-1) vertices, in heap order.

    Walks g's labels level by level: g sends the children 2i+1, 2i+2 of a
    vertex i to the children of g(i), swapped when g's label at i is 1.
    """
    images = [0]
    for lvl in range(d - 1):
        first = (1 << lvl) - 1
        nxt = []
        for u, img in enumerate(images):
            flip = g_bits >> (first + u) & 1
            nxt += (2 * img + 1 + flip, 2 * img + 2 - flip)
        images = nxt
    return images


def conjugate_label_check(h: FiniteAutomorphism, g: FiniteAutomorphism) -> bool:
    """Check the conjugation law on last-level labels.

    For h stabilizing level d-1, the conjugate h^g must also stabilize
    level d-1 and carry, at each last-level vertex v, the label of h at
    g(v).  Returns whether that holds (it always should).  The expected
    portrait is built from g's images of the last level, so a conjugate
    with any label above the last level fails the comparison too.
    """
    d = h.depth
    if g.depth != d:
        raise ValueError(f"depth mismatch: {h.depth} vs {g.depth}")
    if h.bits & prefix_mask(d - 1):
        raise ValueError("h must stabilize level d-1")
    first = (1 << (d - 1)) - 1
    expected = 0
    for k, img in enumerate(_last_level_images(g.bits, d)):
        expected |= (h.bits >> img & 1) << (first + k)
    return kernel.conjugate(h.bits, g.bits, d) == expected


def gather_bits(v: int, positions: Sequence[int]) -> int:
    """Bit k of the result is bit positions[k] of v, one bit at a time."""
    out = 0
    for k, p in enumerate(positions):
        out |= ((v >> p) & 1) << k
    return out


def scatter_bits(v: int, positions: Sequence[int]) -> int:
    """Inverse of gather_bits: bit k of v goes to bit positions[k]."""
    out = 0
    for k, p in enumerate(positions):
        out |= ((v >> k) & 1) << p
    return out


def truncation_orbits_by_members(p, levels: int) -> list[tuple[int, int, frozenset[int]]]:
    """(n, |H(n)|, orbit of 0^n under H(n), each image an int whose bit k is
    the word's symbol k) for n = d .. d + levels - 1,
    by the per-member join that patterns.truncation_orbits ran before it
    read its classes slot-wise: each member's class, root bit and child
    classes gathered one member at a time, its left-path vector gathered
    bit by bit, and every member joined on its own."""
    d = p.depth
    top = prefix_mask(d - 1)
    path = [(1 << k) - 1 for k in range(d)]
    members = p.group.element_bits
    joins = [(b & top, b & 1, gather(b, 1, d - 1), gather(b, 2, d - 1)) for b in members]
    counts: dict[int, int] = {}
    vectors: dict[int, set[int]] = {}
    for b in members:
        counts[b & top] = counts.get(b & top, 0) + 1
        vectors.setdefault(b & top, set()).add(gather_bits(b, path))
    out = []
    for n in range(d, d + levels):
        orbit = set().union(*vectors.values())
        out.append((n, sum(counts.values()), frozenset(orbit)))
        next_counts: dict[int, int] = {}
        next_vectors: dict[int, set[int]] = {}
        for cls, root, c1, c2 in joins:
            joined = counts.get(c1, 0) * counts.get(c2, 0)
            if joined:
                next_counts[cls] = next_counts.get(cls, 0) + joined
                next_vectors.setdefault(cls, set()).update(root | q << 1 for q in vectors[c1])
        counts, vectors = next_counts, next_vectors
    return out


def rref_by_full_reduction(rows: Iterable[int]) -> list[int]:
    """Oracle form of gf2.rref: each new row is fully reduced on insertion,
    its interior cleared of the established pivots and its pivot cleared
    from every established row.  Highest pivot first."""
    basis: dict[int, int] = {}
    for r in rows:
        r = gf2.reduce_vector(r, basis)
        if not r:
            continue
        p = r.bit_length() - 1
        for q, b in basis.items():
            if (r >> q) & 1:
                r ^= b
        for q, b in basis.items():
            if (b >> p) & 1:
                basis[q] = b ^ r
        basis[p] = r
    return [basis[p] for p in sorted(basis, reverse=True)]


def linear_essential_reduction_by_rref(lin: gf2.LinearSubgroup, eliminated: list | None = None
                                       ) -> tuple[gf2.LinearSubgroup, bool]:
    """Oracle form of patterns.linear_essential_reduction, each round fully
    reduced by rref_by_full_reduction.  Each round's input rows are
    appended to `eliminated`, if given."""
    d = lin.depth
    top = prefix_mask(d - 1)
    checks, zero = lin.checks, lin.zero
    codim, rounds = -1, 0
    while True:
        round_rows = [c & ~zero for c in checks]
        if eliminated is not None:
            eliminated.append(round_rows)
        rows = rref_by_full_reduction(round_rows)
        if zero.bit_count() + len(rows) == codim:
            break
        codim, rounds = zero.bit_count() + len(rows), rounds + 1
        zero |= place(zero & top, 1, d - 1) | place(zero & top, 2, d - 1)
        checks = rows + [place(c, v, d - 1) for c in rows if c <= top for v in (1, 2)]
    if rounds == 1:
        return lin, True
    return gf2.LinearSubgroup(d, tuple(rows), zero), False


def linear_essential_reduction_by_basis(lin: gf2.LinearSubgroup
                                        ) -> tuple[gf2.LinearSubgroup, bool]:
    """Oracle form of patterns.linear_essential_reduction, by basis space.

    Each round lists a basis of the group, row-reduces its truncations to
    the top d - 1 levels, takes their nullspace as the truncation's checks
    and places those under both children, until the order stops falling.
    """
    d = lin.depth
    top_mask = prefix_mask(d - 1)
    was_essential: bool | None = None
    current = lin
    while True:
        trunc_basis = gf2.rref([v & top_mask for v in current.basis()])
        trunc_checks = gf2.nullspace(trunc_basis, top_mask.bit_length())
        new_checks = [place(c, v, d - 1) for c in trunc_checks for v in (1, 2)]
        extended = gf2.LinearSubgroup(d, current.checks + tuple(new_checks), current.zero)
        if extended.log2_order() == current.log2_order():
            if was_essential is None:
                was_essential = True
            return current, was_essential
        was_essential = False
        current = gf2.LinearSubgroup(d, tuple(gf2.rref(extended.checks)), current.zero)


def pack_by_rows(xs: Sequence[int], d: int) -> int:
    """Oracle form of kernel.pack: each portrait's t-coordinate row is
    written by its own to_bytes, last sample first."""
    n = len(xs)
    row = max(1, (1 << d) >> 3)
    rows = b"".join((x << 1).to_bytes(row, "big") for x in reversed(xs))
    blocks = []
    for m in range(d - 1, 2, -1):
        w = 1 << (m - 3)
        lo = row - 2 * w
        if w <= n:
            block = bytearray(n * w)
            for i in range(w):
                block[i::w] = rows[lo + i::row]
        else:
            block = b"".join(rows[r:r + w] for r in range(lo, n * row, row))
        blocks.append(block)
    out = int.from_bytes(b"".join(blocks), "big") << (n << 3)
    low = rows[row - 1::row]
    for m, table in enumerate(kernel._digit_tables()[:d]):
        out |= int(low.translate(table), 1 << (1 << m)) << (n << m)
    return out


def span_by_lists(basis: Sequence[int]) -> list[int]:
    """Oracle form of gf2._span: the span as a list, doubled by one list
    concatenation per vector, so member i is the XOR of basis[k] over the
    bits k of i."""
    members = [0]
    for b in basis:
        members += [x ^ b for x in members]
    return members


def normal_closure_by_lists(d: int, gens: Sequence[int], normalizer: Sequence[int]) -> set[int]:
    """Oracle form of kernel.close: every conjugate of gens under the group
    the normalizer generates, by repeated conjugation with kernel.conjugate,
    then every product of them, breadth first with kernel.compose, one
    element at a time."""
    conjugates, queue = set(gens), list(gens)
    while queue:
        x = queue.pop()
        for s in normalizer:
            y = kernel.conjugate(x, s, d)
            if y not in conjugates:
                conjugates.add(y)
                queue.append(y)
    els, frontier = {0}, [0]
    while frontier:
        frontier = [y for y in {kernel.compose(x, g, d) for x in frontier for g in conjugates}
                    if y not in els]
        els.update(frontier)
    return els


def conjugation_law_counts_by_pairs(d: int, pairs: Iterable[tuple[int, int]]
                                    ) -> tuple[int, int]:
    """Oracle form of subgroups.conjugation_law_counts: each pair's expected
    portrait gathered bit by bit off g's last-level images, then compared
    with the conjugates chunk by chunk, in kernel.packed_chunks' chunks."""
    top = prefix_mask(d - 1)
    first = (1 << (d - 1)) - 1
    images_of: dict[int, list[int]] = {}
    checked = failures = 0
    pairs = iter(pairs)
    while chunk := list(islice(pairs, max(1, kernel.CHUNK_BITS >> d))):
        hs, gs = zip(*chunk)
        n = len(chunk)
        expected = []
        for hb, gb in zip(hs, gs):
            if hb & top:
                raise ValueError("h must stabilize level d-1")
            key = gb & top
            images = images_of.get(key)
            if images is None:
                images = images_of[key] = _last_level_images(key, d)
            e = 0
            for k, img in enumerate(images):
                e |= (hb >> img & 1) << k
            expected.append(e << first)
        checked += n
        if kernel.conjugate_batch(kernel.pack(hs, d), kernel.pack(gs, d), n, d) \
                != kernel.pack(expected, d):
            failures += sum(kernel.conjugate(hb, gb, d) != e
                            for hb, gb, e in zip(hs, gs, expected))
    return checked, failures


def sampled_pairs(d: int, samples: int, seed: int, level: int = 0) -> Iterator[tuple[int, int]]:
    """The (x, y) pairs of kernel.sampled_chunks(Random(seed), samples, d,
    level), read one at a time off each chunk's two getrandbits results.

    A chunk of n pairs draws n (2^d - 2^level) bits for x, then n (2^d - 1)
    for y; sample j's level-m labels are the 2^m bits of x's draw from
    (2^m - 2^level) n + j 2^m (levels level..d-1 only) and of y's from
    (2^m - 1) n + j 2^m.
    """
    rng = Random(seed)
    per_chunk = max(1, kernel.CHUNK_BITS >> d)
    for start in range(0, samples, per_chunk):
        n = min(per_chunk, samples - start)
        xs = _labels_off_draw(rng.getrandbits(n * ((1 << d) - (1 << level))), n, d, level)
        yield from zip(xs, _labels_off_draw(rng.getrandbits(n * ((1 << d) - 1)), n, d, 0))


def _labels_off_draw(r: int, n: int, d: int, level: int) -> list[int]:
    """The n heap-indexed portraits whose level-m labels (m >= level) are
    the 2^m bits of r from (2^m - 2^level) n + j 2^m, for sample j."""
    bits = format(r, f"0{n * ((1 << d) - (1 << level))}b")[::-1]  # bit i at index i
    out = []
    for j in range(n):
        x = 0
        for m in range(level, d):
            lo = ((1 << m) - (1 << level)) * n + (j << m)
            x |= int(bits[lo:lo + (1 << m)][::-1], 2) << (1 << m) - 1
        out.append(x)
    return out


def batch_members(x: int, n: int, d: int) -> list[int]:
    """The n depth-d portraits of the batch x, read off its binary digits:
    sample j's labels on level m are the 2^m bits from (n + j) 2^m on."""
    bits = format(x, f"0{n << d}b")[::-1]  # bit i at index i
    return [int("".join(bits[n + j << m:n + j + 1 << m] for m in range(d))[::-1], 2)
            for j in range(n)]


def stream_pairs(chunks, d: int) -> list[tuple[int, int]]:
    """The pairs of a stream of depth-d packed chunks, in stream order."""
    return [pair for n, x, y in chunks
            for pair in zip(batch_members(x, n, d), batch_members(y, n, d))]


HEX_DIGITS = b"0123456789abcdef"


def widen_nibble(v: int, copies: int) -> int:
    """Nibble v with each bit widened to two: copies 1 gives (bit, 0), 3 gives (bit, bit)."""
    return sum(copies << 2 * i for i in range(4) if v >> i & 1)


def hex_tables_by_bits() -> tuple[bytes, ...]:
    """kernel._hex_tables: an ASCII hex digit to its nibble zero-interleaved, and doubled."""
    tables = []
    for copies in (1, 3):
        table = bytearray(256)
        for v, c in enumerate(HEX_DIGITS):
            table[c] = widen_nibble(v, copies)
        tables.append(bytes(table))
    return tuple(tables)


def fold_table_by_bits() -> bytes:
    """kernel._fold_table: a byte to the ASCII hex digit of its four XOR-ed bit pairs."""
    return bytes(HEX_DIGITS[sum(((v >> 2 * i ^ v >> 2 * i + 1) & 1) << i for i in range(4))]
                 for v in range(256))


def digit_tables_by_bits() -> tuple[bytes, ...]:
    """kernel._digit_tables: a byte to its bits [2^m, 2^(m+1)) as one
    digit in base 2^(2^m), for m = 0, 1, 2."""
    return tuple(bytes(HEX_DIGITS[v >> w & (1 << w) - 1] for v in range(256))
                 for w in (1, 2, 4))
