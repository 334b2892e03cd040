"""Heap geometry of portraits: the raw-int helpers every layer above the
kernel uses to read and build them (the kernel keeps its own swap masks).

Vertices are words over {0, 1} and are indexed heap-style: the root (empty
word) is index 0 and the children of index i are 2i+1 and 2i+2.  Level j
then occupies the contiguous index range [2^j - 1, 2^(j+1) - 2], which makes
level and half-tree parity functionals single-mask popcounts.  Level j of
the subtree at index v is the 2^j indices from (v + 1) * 2^j - 1 on, so a
subtree is read or written one level slice at a time.  A read is a list of
(shift, mask) steps (subtree_steps, path_steps), each keeping the bits
(bits >> shift) & mask; kernel.slot_gather applies the same steps to every
slot of a packed int, so one formula serves one portrait and n of them.
place writes a subtree by the inverse of each step, (bits & mask) << shift.
"""

from __future__ import annotations

from functools import lru_cache


def check_word(w: str) -> str:
    if w.strip("01"):
        raise ValueError(f"vertex word must consist of '0'/'1' symbols, got {w!r}")
    return w


def heap_index(word: str) -> int:
    """Heap index of a vertex word: 2^|w| - 1 + (w read as a binary number)."""
    check_word(word)
    idx = 0
    for c in word:
        idx = 2 * idx + 1 + (c == "1")
    return idx


def level_of_index(index: int) -> int:
    return (index + 1).bit_length() - 1


@lru_cache(maxsize=None)
def level_mask(j: int) -> int:
    """Mask of the bits of level j (indices 2^j - 1 .. 2^(j+1) - 2)."""
    return ((1 << (1 << j)) - 1) << ((1 << j) - 1)


@lru_cache(maxsize=None)
def half_level_mask(j: int, i: int) -> int:
    """Mask of the level-j vertices whose word starts with symbol i (j >= 1)."""
    if j < 1:
        raise ValueError("level 0 has no half split")
    width = 1 << (j - 1)
    return ((1 << width) - 1) << ((1 << j) - 1 + i * width)


@lru_cache(maxsize=None)
def prefix_mask(k: int) -> int:
    """Mask of the bits of levels 0..k-1: a whole depth-k portrait."""
    return (1 << ((1 << k) - 1)) - 1


def spine(i: int) -> int:
    """The portrait of a_i: one label, at the vertex 0^i (heap index 2^i - 1)."""
    return 1 << ((1 << i) - 1)


def in_range(bits: int, d: int) -> bool:
    """Whether bits is a depth-d portrait, i.e. 0 <= bits < 2^(2^d - 1)."""
    return bits >= 0 and bits.bit_length() < 1 << d


@lru_cache(maxsize=None)
def subtree_steps(v: int, k: int) -> tuple[tuple[int, int], ...]:
    """The (shift, mask) steps that read the k-level subtree at heap index v
    as a depth-k portrait: level l of it is (bits >> (v << l)) & level_mask(l).

    Level l of the subtree starts at heap bit ((v + 1) << l) - 1 and level
    l of a portrait at 2^l - 1, v << l below it, so each kept bit comes
    from a higher bit of the same portrait.  kernel.slot_gather takes the
    same steps to read the subtree out of every slot of a packed int.
    """
    return tuple((v << lvl, level_mask(lvl)) for lvl in range(k))


@lru_cache(maxsize=None)
def path_steps(word: str) -> tuple[tuple[int, int], ...]:
    """The (shift, mask) steps that move the label at the length-j prefix of
    word to bit j, for j < len(word): the labels a portrait flips word's
    symbols by.  The prefix's heap index is at least 2^j - 1 >= j, so each
    label moves down; for word = 0^k the label at 2^j - 1 moves to bit j."""
    return tuple((heap_index(word[:j]) - j, 1 << j) for j in range(len(word)))


def gather(bits: int, v: int, k: int) -> int:
    """The k-level subtree of bits rooted at heap index v, as a depth-k
    portrait, read by subtree_steps."""
    out = 0
    for shift, mask in subtree_steps(v, k):
        out |= bits >> shift & mask
    return out


def place(bits: int, v: int, k: int) -> int:
    """Inverse of gather: the depth-k portrait bits as the subtree at v,
    written by subtree_steps, each kept bit (bits & mask) moved up by shift."""
    out = 0
    for shift, mask in subtree_steps(v, k):
        out |= (bits & mask) << shift
    return out
