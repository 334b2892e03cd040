"""Half-tree parity functionals and the derived-subgroup obstruction.

Fix a depth d and a nonempty level set J.  With J' = J minus level 0, the
functional N_i(g) is the parity of g's nontrivial labels in the i-th half
of the tree (vertices starting with symbol i) over the levels in J'.  The
pair (N_0, N_1) is not a homomorphism, but it transforms predictably under
products and inverses, and both components vanish on every commutator of
two members of P_J.  That yields a one-sided certificate: a P_J member with
a nonzero half-tree parity is provably outside [P_J, P_J]; a zero pair
certifies nothing.
"""

from __future__ import annotations

from functools import lru_cache, reduce
from itertools import product
from operator import xor
from random import Random
from typing import Iterable, Sequence

from . import kernel
from .errors import VerificationError
from .heap import half_level_mask, in_range
from .portrait import FiniteAutomorphism
from .report import Report
from .subgroups import level_set_mask, maximal_subgroup


@lru_cache(maxsize=None)
def _half_mask(jprime: frozenset[int], i: int) -> int:
    mask = 0
    for j in jprime:
        mask |= half_level_mask(j, i)
    return mask


class JContext:
    """Depth plus level set J, with the derived data the parity functionals use.

    J' = J minus {0} (level 0 has no half split) and i0 indicates whether
    level 0 belongs to J; both are computed once, and P_J is built on the
    first subgroup() and kept.  The finite-generation pipeline requires the
    top level d-1 to lie in J; exploratory use may relax that, so the check
    is a separate method rather than a construction invariant.
    """

    def __init__(self, depth: int, levels: frozenset[int]):
        level_set_mask(depth, levels)  # validates J
        self.depth = depth
        self.levels = levels
        self.jprime = levels - {0}
        self.i0 = 1 if 0 in levels else 0
        self._subgroup = None

    @classmethod
    def make(cls, d: int, J: Iterable[int]) -> "JContext":
        return cls(d, frozenset(J))

    @classmethod
    def for_top_level(cls, d: int, J: Iterable[int]) -> "JContext":
        ctx = cls(d, frozenset(J))
        ctx.require_top_level()
        return ctx

    def require_top_level(self) -> None:
        if self.depth - 1 not in self.levels:
            raise ValueError(
                f"this operation requires level {self.depth - 1} in J, got {sorted(self.levels)}"
            )

    def subgroup(self):
        """P_J at this context's depth, as its parity check."""
        if self._subgroup is None:
            self._subgroup = maximal_subgroup(self.depth, self.levels)
        return self._subgroup

    def half_mask(self, i: int) -> int:
        return _half_mask(self.jprime, i)


def _parity(bits: int, mask: int) -> int:
    return (bits & mask).bit_count() & 1


def N(g: int, ctx: JContext, i: int) -> int:
    """Parity of the depth-d portrait g's labels in half-tree i over the levels in J'."""
    if not in_range(g, ctx.depth):
        raise ValueError(f"portrait bits out of range for depth {ctx.depth}")
    if i not in (0, 1):
        raise ValueError(f"half index must be 0 or 1, got {i}")
    return _parity(g, ctx.half_mask(i))


def _check_pj_member(ctx: JContext, g: int, name: str) -> None:
    """Membership precondition plus the internal parity identity.

    A P_J member satisfies alpha_{J'}(g) + i0 * alpha_0(g) = 0; checking it
    on every processed member catches membership-predicate bugs early.
    alpha_{J'} is read through the half masks, not through the parity check.
    """
    if not ctx.subgroup().contains_bits(g):
        raise ValueError(f"{name} is not a member of P_J for J={sorted(ctx.levels)}")
    if _parity(g, ctx.half_mask(0) | ctx.half_mask(1)) ^ (ctx.i0 & g):
        raise VerificationError(
            f"{name} passed the P_J membership test for J={sorted(ctx.levels)} "
            "but violates its parity identity"
        )


class IdentityCheckReport(Report):
    """Result of exercising the product/inverse/commutator transformation laws."""

    KEYS = {"depth": "d", "levels": "J"}

    def __init__(self, depth: int, levels: tuple[int, ...], pairs_checked: int,
                 failures: list[dict]):
        self.depth = depth
        self.levels = levels
        self.pairs_checked = pairs_checked
        self.failures = failures

    @property
    def passed(self) -> bool:
        return not self.failures


def _batch(x: int, n: int, d: int) -> int:
    """x itself, after checking it is a batch of n depth-d portraits."""
    if x < 0 or x >> (n << d) or x & ((1 << n) - 1):
        raise ValueError("portrait bits out of range for depth")
    return x


def _swap_halves(v: int, a: int) -> int:
    """v with the bit pair 2j, 2j + 1 exchanged wherever a has bit 2j."""
    t = (v ^ (v >> 1)) & a
    return v ^ t ^ (t << 1)


def verify_ni_identities_for(contexts: Sequence[JContext], samples: int = 10_000,
                             seed: int = 0,
                             exhaustive: bool = False) -> list[IdentityCheckReport]:
    """Exercise the three transformation laws for several level sets at once.

    All contexts share one depth and one stream of element pairs (g, h):
    every ordered pair with exhaustive=True (meant for d <= 3), otherwise
    `samples` seeded random pairs, at least one, drawn by
    kernel.sampled_chunks from Random(seed) (seed at least 0): one
    getrandbits call per chunk for the g batch, then one for the h batch,
    so the pairs depend on kernel.CHUNK_BITS and on where `samples` cuts
    the last chunk, and only a failing pair is ever reported.  The stream
    comes in packed chunks, and each chunk's products, inverses and
    commutators come from one kernel.law_batches call, which builds each
    operand's delta-swap masks once.  The laws are then checked for every
    sample at once on 2n-bit vectors whose bit 2j + i is N_i of sample j:
    one kernel.half_parities call folds the five batches g, h, gh, g^-1
    and [g, h] on the union of the contexts' J' only, the levels the laws
    read; per level set, N is the XOR of those level half parities over
    J', and N_(i + alpha) is N with each sample's pair swapped where its
    root is active.  Each failing pair is reported with the first law it
    breaks, in stream order, at most 10 per report; a reported pair is read
    off the chunk's batches.  The reports come back in the order of
    `contexts`.
    """
    if not exhaustive and samples < 1:
        raise ValueError(f"samples must be at least 1, got {samples}")
    if seed < 0:
        raise ValueError(f"seed must be at least 0, got {seed}")
    if not contexts:
        return []
    d = contexts[0].depth
    if any(ctx.depth != d for ctx in contexts):
        raise ValueError(f"contexts must share one depth, got {[c.depth for c in contexts]}")
    # The laws read J only through J', which J and J ∪ {0} share.
    found: dict[frozenset[int], list[dict]] = {ctx.jprime: [] for ctx in contexts}
    levels = frozenset().union(*found)  # the only levels whose parities the laws read
    if exhaustive:
        chunks = kernel.packed_chunks(product(range(1 << ((1 << d) - 1)), repeat=2), d)
    else:
        chunks = kernel.sampled_chunks(Random(seed), samples, d)
    checked = 0
    for n, g, h in chunks:
        checked += n
        gh, ginv, c = (_batch(x, n, d) for x in kernel.law_batches(g, h, n, d))
        parities = kernel.half_parities((g, h, gh, ginv, c), n, levels)
        ag, ah = kernel.root_swap_mask(g, n), kernel.root_swap_mask(h, n)
        evens = ((1 << 2 * n) - 1) // 3  # bit 2j of every sample
        pairs = None  # the chunk's (g, h) pairs, unpacked only to report one
        for jprime, failures in found.items():
            if len(failures) >= 10:
                continue
            ng, nh, ngh, nginv, nc = (reduce(xor, (parities[m][k] for m in jprime), 0)
                                      for k in range(5))
            # Each law holds where its vector of both sides' XOR vanishes.
            laws = [
                # product law: N_i(g*h) = N_i(h) + N_{i + alpha(h)}(g)
                ("product", ngh ^ nh ^ _swap_halves(ng, ah)),
                # inverse law: N_i(g^-1) = N_{i + alpha(g)}(g)
                ("inverse", nginv ^ _swap_halves(ng, ag)),
                # commutator law
                ("commutator", nc ^ ng ^ _swap_halves(ng, ah) ^ nh ^ _swap_halves(nh, ag)),
            ]
            laws = [(law, (v | (v >> 1)) & evens) for law, v in laws]
            bad = laws[0][1] | laws[1][1] | laws[2][1]
            while bad and len(failures) < 10:
                low = bad & -bad
                bad ^= low
                j = (low.bit_length() - 1) >> 1
                if pairs is None:
                    pairs = list(zip(kernel.unpack(g, n, d), kernel.unpack(h, n, d)))
                g_j, h_j = pairs[j]
                failures.append({
                    "law": next(law for law, v in laws if v & low),
                    "g": FiniteAutomorphism(d, g_j).to_hex(),
                    "h": FiniteAutomorphism(d, h_j).to_hex(),
                })
    return [IdentityCheckReport(d, tuple(sorted(ctx.levels)), checked,
                                [dict(f) for f in found[ctx.jprime]])
            for ctx in contexts]


def verify_ni_identities(ctx: JContext, samples: int = 10_000,
                         seed: int = 0, exhaustive: bool = False) -> IdentityCheckReport:
    """verify_ni_identities_for with the single context ctx."""
    return verify_ni_identities_for([ctx], samples, seed, exhaustive)[0]


NOT_IN_DERIVED = "NOT_IN_DERIVED"
INCONCLUSIVE = "INCONCLUSIVE"


class CertificateVerdict(Report):
    """One-sided membership verdict for [P_J, P_J].

    verdict NOT_IN_DERIVED carries the nonzero functional ("N0" or "N1") as
    the certificate; INCONCLUSIVE means the parity obstruction is silent,
    which is expected for genuine members and possible for non-members.
    """

    def __init__(self, verdict: str, certificate: str | None):
        self.verdict = verdict
        self.certificate = certificate


def derived_membership_certificate(ctx: JContext, x: int) -> CertificateVerdict:
    """Parity obstruction to the depth-d portrait x lying in [P_J, P_J].

    Sound because both half-tree parities vanish on the derived subgroup;
    not complete, so a zero pair yields INCONCLUSIVE rather than a
    membership claim.
    """
    _check_pj_member(ctx, x, "x")
    if N(x, ctx, 0):
        return CertificateVerdict(NOT_IN_DERIVED, "N0")
    if N(x, ctx, 1):
        return CertificateVerdict(NOT_IN_DERIVED, "N1")
    return CertificateVerdict(INCONCLUSIVE, None)
