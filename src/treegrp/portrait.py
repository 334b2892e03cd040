"""Automorphisms of the depth-d binary rooted tree, stored as portraits.

The library computes on portrait ints; FiniteAutomorphism is the value
type of the CLI and the JSON, built where hex is read or written.

An automorphism of the finite binary tree with d+1 levels is determined by
its portrait: one parity bit per vertex of the first d levels, where bit 1
means "swap the two subtrees below this vertex".  Every assignment of bits
is a valid automorphism, so a depth-d element is exactly an integer with
2^d - 1 meaningful bits.

Vertices are words over {0, 1}; treegrp.heap owns the heap-style layout of
their labels in the portrait int (root at bit 0, the children of index i at
2i+1 and 2i+2) and the raw-int helpers that read and build portraits.

Composition order: ``h * g`` applies g first, i.e. (h*g)(w) = h(g(w)).
The label of h*g at vertex u is label_h(g(u)) XOR label_g(u).  Getting this
orientation wrong is the classic bug in this domain; all code in this
package sticks to "right factor acts first".
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, NamedTuple

from . import kernel
from .heap import (
    check_word,
    gather,
    heap_index,
    in_range,
    level_mask,
    level_of_index,
)

#: Largest supported element depth; the portrait of a depth-24 element
#: occupies 2^24 - 1 bits (~2 MB).
MAX_DEPTH = 24


class DistanceResult(NamedTuple):
    """Metric value plus an explicit flag for full-depth agreement.

    The profinite metric is defined on infinite automorphisms; for stored
    finite-depth elements an equal pair yields value 0 together with
    agree_to_full_depth=True rather than a claim of genuine equality.
    """

    value: Fraction
    agree_to_full_depth: bool


@dataclass(frozen=True)
class FiniteAutomorphism:
    """A depth-d binary tree automorphism as an immutable bit-packed portrait."""

    depth: int
    bits: int

    def __post_init__(self):
        if not 1 <= self.depth <= MAX_DEPTH:
            raise ValueError(f"depth must be in 1..{MAX_DEPTH}, got {self.depth}")
        if not in_range(self.bits, self.depth):
            raise ValueError("portrait bits out of range for depth")

    # -- constructors ------------------------------------------------------

    @classmethod
    def random(cls, d: int, rng: random.Random) -> "FiniteAutomorphism":
        """Uniformly random element (independent fair portrait bits)."""
        return cls(d, rng.getrandbits((1 << d) - 1))

    # -- serialization -----------------------------------------------------

    @classmethod
    def from_bytes(cls, data: bytes, d: int) -> "FiniteAutomorphism":
        if not 1 <= d <= MAX_DEPTH:
            raise ValueError(f"depth must be in 1..{MAX_DEPTH}, got {d}")
        expected = kernel.slot_bytes(d)
        if len(data) != expected:
            raise ValueError(f"need {expected} bytes for depth {d}, got {len(data)}")
        bits = int.from_bytes(data, "little")
        if not in_range(bits, d):
            raise ValueError("trailing bits beyond the portrait must be zero")
        return cls(d, bits)

    @classmethod
    def from_hex(cls, s: str, d: int) -> "FiniteAutomorphism":
        return cls.from_bytes(bytes.fromhex(s), d)

    def to_bytes(self) -> bytes:
        """Little-endian packing: bit k of the stream is the heap-index-k label."""
        return self.bits.to_bytes(kernel.slot_bytes(self.depth), "little")

    def to_hex(self) -> str:
        return self.to_bytes().hex()

    # -- group operations --------------------------------------------------

    def __mul__(self, other: "FiniteAutomorphism") -> "FiniteAutomorphism":
        if not isinstance(other, FiniteAutomorphism):
            return NotImplemented
        if other.depth != self.depth:
            raise ValueError(f"depth mismatch: {self.depth} vs {other.depth}")
        return FiniteAutomorphism(self.depth, kernel.compose(self.bits, other.bits, self.depth))

    def __invert__(self) -> "FiniteAutomorphism":
        return FiniteAutomorphism(self.depth, kernel.invert(self.bits, self.depth))

    # -- action on words ---------------------------------------------------

    def apply(self, w: str) -> str:
        """Image of the word w; symbol k is flipped by the label at the length-(k-1) prefix.

        Each label is tested with bits & 1 << node, which touches only the
        portrait's bits below node (bits >> node would copy everything above
        it).  Heap indices double per level, so a call costs O(2^len(w)) bit
        operations, not a full-portrait shift per symbol.
        """
        check_word(w)
        if len(w) > self.depth:
            raise ValueError(f"word of length {len(w)} too long for depth {self.depth}")
        bits = self.bits
        image = ""
        node = 0
        for c in w:
            x = c == "1"
            image += "10"[x] if bits & 1 << node else c
            node = 2 * node + 1 + x
        return image

    # -- sections and subpatterns ------------------------------------------

    def section(self, w: str) -> "FiniteAutomorphism":
        """The depth-(d-|w|) automorphism describing the action below vertex w."""
        if not len(check_word(w)) < self.depth:
            raise ValueError(f"section vertex {w!r} too deep for depth {self.depth}")
        return self.subpattern(w, self.depth - len(w))

    def subpattern(self, v: str, k: int) -> "FiniteAutomorphism":
        """The size-k pattern appearing at vertex v (section then truncate, in one gather)."""
        check_word(v)
        if len(v) + k > self.depth:
            raise ValueError(
                f"pattern of size {k} at vertex {v!r} exceeds depth {self.depth}"
            )
        return FiniteAutomorphism(k, gather(self.bits, heap_index(v), k))

    # -- parity functionals --------------------------------------------------

    def alpha(self, J: Iterable[int]) -> int:
        """Total activity within the level set J, mod 2; a homomorphism to C_2."""
        bits = self.bits
        acc = 0
        for j in set(J):
            if not 0 <= j < self.depth:
                raise ValueError(f"level {j} out of range for depth {self.depth}")
            acc ^= (bits & level_mask(j)).bit_count() & 1
        return acc

    def __repr__(self):
        return f"FiniteAutomorphism(depth={self.depth}, hex={self.to_hex()!r})"


# -- module-level operation spellings ---------------------------------------


def identity(d: int) -> FiniteAutomorphism:
    return FiniteAutomorphism(d, 0)


def distance(g: FiniteAutomorphism, h: FiniteAutomorphism) -> DistanceResult:
    """Profinite metric value 1 / 2^(2^n - 1), n the first disagreement level."""
    if g.depth != h.depth:
        raise ValueError(f"depth mismatch: {g.depth} vs {h.depth}")
    diff = g.bits ^ h.bits
    if diff == 0:
        return DistanceResult(Fraction(0), True)
    n = level_of_index((diff & -diff).bit_length() - 1)
    return DistanceResult(Fraction(1, 1 << ((1 << n) - 1)), False)
