"""Kernel dispatch: compiled fast path with a pure-Python fallback.

The compiled kernel covers depths whose portrait fits in 64 bits (d <= 6);
deeper portraits always take the pure path.  Both backends are bit-exact
mirrors of each other.  Only the pure kernel takes a normalizer in close
(a normal closure), so those calls take the pure path at every depth.  Set
TREEGRP_PURE=1 (or call set_backend) to force the pure kernel, e.g. for
benchmarking.
"""

from __future__ import annotations

import os
from typing import Sequence

from . import _pykernel

try:
    from . import _ckernel
except ImportError:
    _ckernel = None

_C_MAX_DEPTH = _ckernel.MAX_DEPTH if _ckernel is not None else 0

_use_c = _ckernel is not None and os.environ.get("TREEGRP_PURE") != "1"


def backend_name() -> str:
    return "c" if _use_c else "pure"


def has_c_kernel() -> bool:
    return _ckernel is not None


def set_backend(name: str) -> None:
    """Select "c", "pure", or "auto" (prefer compiled when available)."""
    global _use_c
    if name == "pure":
        _use_c = False
    elif name == "c":
        if _ckernel is None:
            raise RuntimeError("compiled kernel is not available")
        _use_c = True
    elif name == "auto":
        _use_c = _ckernel is not None and os.environ.get("TREEGRP_PURE") != "1"
    else:
        raise ValueError(f"unknown backend {name!r}")


def compose(h: int, g: int, d: int) -> int:
    if _use_c and d <= _C_MAX_DEPTH:
        return _ckernel.compose(h, g, d)
    return _pykernel.compose(h, g, d)


def invert(g: int, d: int) -> int:
    if _use_c and d <= _C_MAX_DEPTH:
        return _ckernel.invert(g, d)
    return _pykernel.invert(g, d)


def conjugate(x: int, s: int, d: int) -> int:
    if _use_c and d <= _C_MAX_DEPTH:
        return _ckernel.conjugate(x, s, d)
    return _pykernel.conjugate(x, s, d)


def commutator(x: int, y: int, d: int) -> int:
    if _use_c and d <= _C_MAX_DEPTH:
        return _ckernel.commutator(x, y, d)
    return _pykernel.commutator(x, y, d)


def close(d: int, gens: list[int], cap: int, normalizer: Sequence[int] = ()) -> set[int]:
    if _use_c and d <= _C_MAX_DEPTH and not normalizer:
        return _ckernel.close(d, gens, cap)
    return _pykernel.close(d, gens, cap, normalizer)
