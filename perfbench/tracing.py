"""Span tracer that wraps public treegrp functions inside a benchmark worker.

Wrappers are installed at run time, from the benchmark's own files, in every
``treegrp`` module namespace that binds the wrapped function object, so calls
through re-bound names (``from .subgroups import enumerate_PJ``) and
module-internal calls (``halftree.N`` inside ``halftree``) are both seen.

Two kinds of wrapper keep the cost bounded:

* span functions record one span each: name, parent span, start and end;
* hot leaf functions (kernel arithmetic, ``alpha``, ``apply``, ``N``) run
  millions of times per op, so their calls are folded into one aggregate per
  (parent span, name): call count, summed duration, first start, last end.

Spans stay in memory; ``Tracer.dump`` writes them out when the worker exits.
``aggregate`` turns a dump into per-layer metrics and checks that children nest
inside their parents and that self times add up to the op's wall time.
"""

from __future__ import annotations

import inspect
import sys
from time import perf_counter

# (span name, module, attribute).  A span name is the metric prefix
# ``<layer>.<function>``; the verify suites share the single name "verify".
SPAN_TARGETS = [
    ("kernel.close", "treegrp.kernel", "close"),
    ("subgroups.full_group", "treegrp.subgroups", "full_group"),
    ("subgroups.enumerate_PJ", "treegrp.subgroups", "enumerate_PJ"),
    ("subgroups.derived_subgroup", "treegrp.subgroups", "derived_subgroup"),
    ("subgroups.generating_set", "treegrp.subgroups", "generating_set"),
    ("subgroups.level_stabilizer", "treegrp.subgroups", "level_stabilizer"),
    ("subgroups.is_transitive_on_level", "treegrp.subgroups", "is_transitive_on_level"),
    ("patterns.is_essential", "treegrp.patterns", "is_essential"),
    ("patterns.essential_reduction", "treegrp.patterns", "essential_reduction"),
    ("patterns.hausdorff_dimension", "treegrp.patterns", "hausdorff_dimension"),
    ("patterns.truncation_group", "treegrp.patterns", "truncation_group"),
    ("patterns.linear_essential_reduction", "treegrp.patterns", "linear_essential_reduction"),
    ("halftree.derived_membership_certificate", "treegrp.halftree",
     "derived_membership_certificate"),
    ("halftree.verify_ni_identities", "treegrp.halftree", "verify_ni_identities"),
    ("gf2.rref", "treegrp.gf2", "rref"),
    ("gf2.nullspace", "treegrp.gf2", "nullspace"),
    ("verify", "treegrp.verify", "classify_maximal"),
    ("verify", "treegrp.verify", "verify_no_adad"),
    ("verify", "treegrp.verify", "verify_not_top_fg"),
    ("verify", "treegrp.verify", "verify_new_relation"),
    ("verify", "treegrp.verify", "verify_auxiliary"),
    ("verify", "treegrp.verify", "derived_of_full"),
]

# (leaf name, module, attribute, split by depth).  Depth is the last
# positional argument of the kernel's compose and invert.
LEAF_TARGETS = [
    ("kernel.compose", "treegrp.kernel", "compose", True),
    ("kernel.invert", "treegrp.kernel", "invert", True),
    ("kernel.commutator", "treegrp.kernel", "commutator", False),
    ("kernel.conjugate", "treegrp.kernel", "conjugate", False),
    ("halftree.N", "treegrp.halftree", "N", False),
]

# (leaf name, attribute) on treegrp.portrait.FiniteAutomorphism.
METHOD_TARGETS = [
    ("portrait.alpha", "alpha"),
    ("portrait.apply", "apply"),
]

ROOT = "cli"


def _arg(fn, args, kwargs, name):
    return inspect.signature(fn).bind(*args, **kwargs).arguments[name]


def _observe_close(tr, fn, args, kwargs, result):
    n = len(result)
    tr.counts["kernel.close.elements"] += n
    tr.maxima["kernel.close.max_elements"] = max(tr.maxima["kernel.close.max_elements"], n)


def _observe_pj(tr, fn, args, kwargs, result):
    d = _arg(fn, args, kwargs, "d")
    tr.distinct("subgroups.enumerate_PJ", (d, frozenset(_arg(fn, args, kwargs, "J"))))
    tr.counts["subgroups.enumerate_PJ.kept"] += result.order
    tr.counts["subgroups.enumerate_PJ.examined"] += 1 << ((1 << d) - 1)


def _observe_derived(tr, fn, args, kwargs, result):
    s = _arg(fn, args, kwargs, "s")
    tr.distinct("subgroups.derived_subgroup", (s.depth, s.element_bits))


def _observe_reduction(tr, fn, args, kwargs, result):
    p = _arg(fn, args, kwargs, "p")
    tr.distinct("patterns.essential_reduction", (p.depth, p.group.element_bits))


def _observe_truncation(tr, fn, args, kwargs, result):
    tr.counts["patterns.truncation_group.elements"] += result.group.order


def _observe_ni(tr, fn, args, kwargs, result):
    tr.counts["halftree.verify_ni_identities.pairs"] += result.pairs_checked


OBSERVERS = {
    "kernel.close": _observe_close,
    "subgroups.enumerate_PJ": _observe_pj,
    "subgroups.derived_subgroup": _observe_derived,
    "patterns.essential_reduction": _observe_reduction,
    "patterns.truncation_group": _observe_truncation,
    "halftree.verify_ni_identities": _observe_ni,
}

# Functions whose share of distinct inputs is reported as <name>.distinct_ratio.
DISTINCT_NAMES = ["subgroups.enumerate_PJ", "subgroups.derived_subgroup",
                  "patterns.essential_reduction"]


class Tracer:
    """Records spans and counters for one worker process."""

    def __init__(self):
        self.spans: list[list] = []        # [name, parent id, start, end]
        self.stack: list[int] = []          # ids of open spans
        self.leaves: dict[tuple, list] = {}  # (parent, name, depth) -> [calls, total, first, last]
        self.counts: dict[str, int] = dict.fromkeys([
            "portrait.constructions",
            "kernel.close.elements",
            "subgroups.enumerate_PJ.kept",
            "subgroups.enumerate_PJ.examined",
            "patterns.truncation_group.elements",
            "halftree.verify_ni_identities.pairs",
        ], 0)
        self.maxima: dict[str, int] = {"kernel.close.max_elements": 0}
        self.inputs: dict[str, list] = {}   # name -> [calls, set of distinct inputs]
        self.bindings: list[str] = []       # "module.attr" names that were replaced

    def distinct(self, name: str, key) -> None:
        entry = self.inputs.setdefault(name, [0, set()])
        entry[0] += 1
        entry[1].add(key)

    # -- wrappers -------------------------------------------------------------

    def span(self, name: str, fn, observe=None):
        spans, stack = self.spans, self.stack

        def wrapper(*args, **kwargs):
            rec = [name, stack[-1] if stack else -1, 0.0, 0.0]
            stack.append(len(spans))
            spans.append(rec)
            rec[2] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[3] = perf_counter()
                stack.pop()
            if observe is not None:
                observe(self, fn, args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def leaf(self, name: str, fn, by_depth: bool):
        leaves, stack = self.leaves, self.stack

        def wrapper(*args, **kwargs):
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                key = (stack[-1] if stack else -1, name, args[-1] if by_depth else None)
                agg = leaves.get(key)
                if agg is None:
                    leaves[key] = [1, t1 - t0, t0, t1]
                else:
                    agg[0] += 1
                    agg[1] += t1 - t0
                    agg[3] = t1

        wrapper.__wrapped__ = fn
        return wrapper

    # -- installation ---------------------------------------------------------

    def _rebind(self, original, wrapper) -> None:
        """Replace `original` wherever a treegrp module namespace binds it."""
        for modname, mod in sorted(sys.modules.items()):
            if mod is None or not (modname == "treegrp" or modname.startswith("treegrp.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapper)
                    self.bindings.append(f"{modname}.{attr}")

    def install(self) -> None:
        import treegrp.cli  # noqa: F401  (loads every module that re-binds names)
        from treegrp.portrait import FiniteAutomorphism

        for name, modname, attr in SPAN_TARGETS:
            original = getattr(sys.modules[modname], attr)
            self._rebind(original, self.span(name, original, OBSERVERS.get(name)))
        for name, modname, attr, by_depth in LEAF_TARGETS:
            original = getattr(sys.modules[modname], attr)
            self._rebind(original, self.leaf(name, original, by_depth))
        for name, attr in METHOD_TARGETS:
            setattr(FiniteAutomorphism, attr,
                    self.leaf(name, getattr(FiniteAutomorphism, attr), False))
            self.bindings.append(f"treegrp.portrait.FiniteAutomorphism.{attr}")

        counts = self.counts
        post_init = FiniteAutomorphism.__post_init__

        def counting_post_init(obj):
            counts["portrait.constructions"] += 1
            post_init(obj)

        FiniteAutomorphism.__post_init__ = counting_post_init
        self.bindings.append("treegrp.portrait.FiniteAutomorphism.__post_init__")

    def root(self, call):
        """Run `call` as the op's root span (its self time is the CLI layer's)."""
        return self.span(ROOT, call)()

    def dump(self) -> dict:
        return {
            "spans": self.spans,
            "leaves": [[p, n, d, *agg] for (p, n, d), agg in self.leaves.items()],
            "counts": self.counts,
            "maxima": self.maxima,
            "distinct": {k: [calls, len(keys)] for k, (calls, keys) in self.inputs.items()},
            "bindings": self.bindings,
        }


# -- analysis (runs in run.py) ----------------------------------------------------

#: Self times must add up to the op's wall time within this much.
ACCOUNTING_ABS_S = 0.002
ACCOUNTING_REL = 0.002


def _leaf_name(name: str, depth) -> str:
    return name if depth is None else f"{name}.d{depth}"


def aggregate(dump: dict, wall_s: float) -> tuple[dict, list[str]]:
    """Per-name calls and self time for one op, plus accounting problems.

    Returns ({"<name>": [calls, self_s]}, problems).  A problem is a child
    outside its parent's interval, an orphaned child, a negative self time,
    or self times that do not add up to `wall_s`.
    """
    spans = dump["spans"]
    problems: list[str] = []
    child_s = [0.0] * len(spans)

    def nest(parent: int, start: float, end: float, what: str) -> bool:
        """Check [start, end] against span `parent`; False if it was never recorded."""
        if not 0 <= parent < len(spans):
            problems.append(f"{what} has no recorded enclosing span")
            return False
        p_name, _grandparent, p_start, p_end = spans[parent]
        if start < p_start or end > p_end:
            problems.append(f"{what} is not inside {p_name}")
        return True

    per_name: dict[str, list] = {}
    for i, (name, parent, start, end) in enumerate(spans):
        if i == 0:
            if parent != -1 or name != ROOT:
                problems.append("the first span is not the op's root")
        elif nest(parent, start, end, name):
            child_s[parent] += end - start
    for parent, name, depth, calls, total, first, last in dump["leaves"]:
        leaf = _leaf_name(name, depth)
        if nest(parent, first, last, leaf):
            child_s[parent] += total
        entry = per_name.setdefault(leaf, [0, 0.0])
        entry[0] += calls
        entry[1] += total
    for i, (name, _parent, start, end) in enumerate(spans):
        self_s = (end - start) - child_s[i]
        if self_s < -1e-9:
            problems.append(f"{name} has negative self time {self_s:.3g} s")
        entry = per_name.setdefault(name, [0, 0.0])
        entry[0] += 1
        entry[1] += self_s
    total_self = sum(s for _calls, s in per_name.values())
    if abs(total_self - wall_s) > ACCOUNTING_ABS_S + ACCOUNTING_REL * wall_s:
        problems.append(f"self times add up to {total_self:.6f} s, op wall time {wall_s:.6f} s")
    return per_name, problems
