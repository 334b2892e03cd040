"""Bit-packed linear algebra over GF(2) and parity-defined subgroups.

Vectors are Python ints (bit k = coordinate k).  rank is the length of
one forward elimination (echelon); rref back-substitutes it for nullspace,
which reads solutions off a fully reduced basis.  LinearSubgroup is the
one representation of a subgroup cut out by parity functionals of the
portrait bits (P_J, M_V and what the pattern pipeline derives from them):
as a set it is the solution space of its parity checks, so membership is
a few popcounts and orders are ranks.  A listing is one int: the span of
the basis doubled in kernel.slot_codec slots (_span), which packed keeps
and iter_bits unpacks whole, so both list the members in one order.

At d <= 4, classify and the aux suite list every rank-reduced P_J at run
time and cross-check it before a verdict reads it; the test suite holds
membership against the label definitions.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from . import kernel

#: log2 of the most members LinearSubgroup.iter_bits and packed list,
#: whatever the enumeration cap.
MAX_LIST_LOG2 = 26


def echelon(rows: Iterable[int]) -> list[int]:
    """Echelon basis of the span of rows, highest pivot first: one forward
    elimination (reduce_vector), so the pivots are distinct highest bits
    but a pivot column may appear in the rows above it."""
    basis: dict[int, int] = {}
    for r in rows:
        r = reduce_vector(r, basis)
        if r:
            basis[r.bit_length() - 1] = r
    return [basis[p] for p in sorted(basis, reverse=True)]


def rref(rows: Iterable[int]) -> list[int]:
    """Fully reduced row echelon basis, highest pivot first: echelon, then
    back-substitution, each row cleared of the pivots below it.

    Full reduction (no pivot column appears in any other row) is load-bearing:
    nullspace() reads solution bits straight off the pivot rows.
    """
    basis = echelon(rows)
    for i in range(len(basis) - 2, -1, -1):
        # The rows below are already reduced, so each clears only its pivot.
        for b in basis[i + 1:]:
            if basis[i] >> (b.bit_length() - 1) & 1:
                basis[i] ^= b
    return basis


def reduce_vector(v: int, basis: dict[int, int]) -> int:
    """Residual of v after elimination against an echelon basis keyed by pivot."""
    while v:
        p = v.bit_length() - 1
        b = basis.get(p)
        if b is None:
            break
        v ^= b
    return v


def rank(rows: Iterable[int]) -> int:
    return len(echelon(rows))


def nullspace(rows: Iterable[int], n: int) -> list[int]:
    """Basis of { x in GF(2)^n : <row, x> = 0 for every row }."""
    basis = rref(rows)
    pivots = [b.bit_length() - 1 for b in basis]
    pivot_set = set(pivots)
    out = []
    for f in range(n):
        if f in pivot_set:
            continue
        v = 1 << f
        for b, p in zip(basis, pivots):
            if (b >> f) & 1:
                v |= 1 << p
        out.append(v)
    return out


class LinearSubgroup:
    """A subgroup of the depth-d tree group whose element set is linear.

    Members are the portraits with every bit of `zero` clear and even
    parity under each check mask.  `zero` stands for one unit check per bit
    it holds: a level stabilizer is one mask, not one check per vertex
    (2^23 of them for M_V at depth 24).  Only families known to be closed
    under the group operation (kernels of parity homomorphisms and what the
    reduction pipeline derives from them) are represented this way; closure
    is asserted by sampling in tests, not enforced here.
    """

    def __init__(self, depth: int, checks: tuple[int, ...], zero: int = 0):
        self.depth = depth
        self.checks = checks
        self.zero = zero

    @property
    def num_bits(self) -> int:
        return (1 << self.depth) - 1

    def log2_order(self) -> int:
        return self.num_bits - self.zero.bit_count() - rank(c & ~self.zero for c in self.checks)

    def order(self) -> int:
        return 1 << self.log2_order()

    def contains_bits(self, bits: int) -> bool:
        return not bits & self.zero and all(
            (bits & m).bit_count() & 1 == 0 for m in self.checks)

    def __contains__(self, g) -> bool:
        """Membership of a FiniteAutomorphism of the same depth."""
        if g.depth != self.depth:
            raise ValueError(f"depth mismatch: {g.depth} vs {self.depth}")
        return self.contains_bits(g.bits)

    def basis(self) -> list[int]:
        # With zero's bits cleared from the checks, those bits are free
        # columns, and their unit vectors are the only ones touching zero.
        free = nullspace((c & ~self.zero for c in self.checks), self.num_bits)
        return [v for v in free if not v & self.zero]

    def iter_bits(self) -> Sequence[int]:
        """All member portraits, in packed() order (meant for small solution
        spaces only): the slots of packed(), unpacked at once."""
        basis = self._listing_basis(None)
        return kernel.slot_codec(1 << len(basis), self.depth)[1](_span(basis, self.depth))

    def packed(self, basis: list[int] | None = None) -> int:
        """All members in the kernel.slot_codec(order, depth) slots of one
        int, spanned by _span: slot i is the XOR of the basis vectors at
        the bits of i, so the first 2^k slots are the span of the first k
        vectors.  EnumeratedSubgroup.from_linear keeps this int, unpacked
        only on a membership read.  `basis`, if given, is self.basis(), so
        a caller that needs it too computes it once."""
        return _span(self._listing_basis(basis), self.depth)

    def _listing_basis(self, basis: list[int] | None) -> list[int]:
        basis = self.basis() if basis is None else basis
        if len(basis) > MAX_LIST_LOG2:
            raise ValueError(f"solution space of dimension {len(basis)} too large to list")
        return basis


def _span(basis: Sequence[int], d: int) -> int:
    """The span of basis in the kernel.slot_codec(2^len(basis), d) slots of
    one int, slot i holding the XOR of basis[k] over the bits k of i.

    Each vector doubles the span by whole-int operations: the copy of the
    block XOR-ed with the vector in every slot (the vector times the slot
    repunit) goes above the block.  The repunit doubles alongside, so no
    codec of up to 2^MAX_LIST_LOG2 slots is built or cached for it.
    """
    width, block, ones = 8 * kernel.slot_bytes(d), 0, 1  # bits of a slot
    for b in basis:
        block |= (block ^ b * ones) << width
        ones |= ones << width
        width <<= 1
    return block
