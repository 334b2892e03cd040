"""Command-line front end.

Subcommands: element arithmetic (`elem ...`), the maximal-dimension
classification (`classify`), the verification suites (`verify`), and
subgroup/pattern-group file analysis (`analyze`).

Exit codes: 0 success; 1 a verification check failed (a counterexample to
something the library asserts, which a correct build never produces);
2 usage error; 3 a resource limit: enumeration cap exceeded, or an index
too long to print in decimal.

JSON reports are versioned ("schema": 1) and byte-deterministic for a fixed
configuration when --no-timestamp is passed.  The enumeration cap can be
overridden per call with --cap or globally with the TREEGRP_CAP variable;
either must be an integer of at least 1, or the run is a usage error.
"""

from __future__ import annotations

import functools
import json
import sys
from datetime import datetime, timezone

import click

from . import verify as vf
from .errors import EnumerationCapExceeded, VerificationError
from .halftree import JContext, verify_ni_identities_for
from .patterns import PatternGroup, essential_reduction, hausdorff_dimension, is_essential
from .portrait import MAX_DEPTH, FiniteAutomorphism, distance as metric_distance
from .report import dumps
from .subgroups import enumerate_MV, enumerate_PJ, resolve_cap, subgroup_from_json

SCHEMA_VERSION = 1


def _emit(command: str, config: dict, payload: dict, fmt: str,
          no_timestamp: bool, text_lines: list[str]) -> None:
    if fmt == "json":
        doc = {"schema": SCHEMA_VERSION, "command": command, "config": config}
        if not no_timestamp:
            doc["generated_at"] = datetime.now(timezone.utc).isoformat()
        doc.update(payload)
        text = dumps(doc)
    else:
        text = "\n".join(text_lines)
    # One plain write: click.echo's first call costs a codec lookup and an
    # ANSI-strip pass over the whole document, which is plain text.
    sys.stdout.write(text + "\n")


def _parse_element(hexstr: str, d: int, field: str) -> FiniteAutomorphism:
    try:
        return FiniteAutomorphism.from_hex(hexstr, d)
    except ValueError as e:
        raise click.UsageError(f"{field}: {e}")


def _parse_levels(raw: str, field: str) -> frozenset[int]:
    try:
        return frozenset(int(part) for part in raw.split(",") if part.strip() != "")
    except ValueError as e:
        raise click.UsageError(f"{field}: {e}")


def _run(fn):
    """Map library errors to the exit-code contract."""
    try:
        return fn()
    except EnumerationCapExceeded as e:
        click.echo(f"resource limit: {e}", err=True)
        sys.exit(3)
    except VerificationError as e:
        click.echo(f"verification failure: {e}", err=True)
        sys.exit(1)


def _check_cap(ctx: click.Context, param: click.Parameter, cap: int | None) -> int | None:
    """Refuse a malformed TREEGRP_CAP as a usage error; --cap itself is range-checked."""
    try:
        resolve_cap(cap)
    except ValueError as e:
        raise click.UsageError(str(e), ctx)
    return cap


_cap_option = click.option("--cap", type=click.IntRange(min=1), default=None,
                           callback=_check_cap, help="enumeration cap override")


@click.group()
def main():
    """Exact computation in binary rooted-tree automorphism groups."""


# -- element arithmetic -------------------------------------------------------


@main.group()
def elem():
    """Arithmetic on single elements (portraits given as lowercase hex)."""


# Range-checked before any hex is parsed, so a bad depth is reported as --d's.
_common_d = click.option("--d", "d", type=click.IntRange(1, MAX_DEPTH), required=True,
                         help="element depth")


@elem.command("compose")
@_common_d
@click.option("--lhs", required=True, help="left factor (applied second), hex")
@click.option("--rhs", required=True, help="right factor (applied first), hex")
def elem_compose(d: int, lhs: str, rhs: str):
    """Product lhs*rhs; the right factor acts first."""
    h = _parse_element(lhs, d, "--lhs")
    g = _parse_element(rhs, d, "--rhs")
    click.echo((h * g).to_hex())


@elem.command("invert")
@_common_d
@click.option("--g", "g_hex", required=True, help="element, hex")
def elem_invert(d: int, g_hex: str):
    click.echo((~_parse_element(g_hex, d, "--g")).to_hex())


@elem.command("apply")
@_common_d
@click.option("--g", "g_hex", required=True, help="element, hex")
@click.option("--w", required=True, help="vertex word over {0,1}")
def elem_apply(d: int, g_hex: str, w: str):
    g = _parse_element(g_hex, d, "--g")
    try:
        click.echo(g.apply(w))
    except ValueError as e:
        raise click.UsageError(f"--w: {e}")


@elem.command("section")
@_common_d
@click.option("--g", "g_hex", required=True, help="element, hex")
@click.option("--w", required=True, help="vertex word over {0,1}")
def elem_section(d: int, g_hex: str, w: str):
    g = _parse_element(g_hex, d, "--g")
    try:
        click.echo(g.section(w).to_hex())
    except ValueError as e:
        raise click.UsageError(f"--w: {e}")


@elem.command("alpha")
@_common_d
@click.option("--g", "g_hex", required=True, help="element, hex")
@click.option("--J", "j_spec", required=True, help="comma-separated level set")
def elem_alpha(d: int, g_hex: str, j_spec: str):
    g = _parse_element(g_hex, d, "--g")
    levels = _parse_levels(j_spec, "--J")
    try:
        click.echo(str(g.alpha(levels)))
    except ValueError as e:
        raise click.UsageError(f"--J: {e}")


@elem.command("distance")
@_common_d
@click.option("--lhs", required=True, help="first element, hex")
@click.option("--rhs", required=True, help="second element, hex")
def elem_distance(d: int, lhs: str, rhs: str):
    g = _parse_element(lhs, d, "--lhs")
    h = _parse_element(rhs, d, "--rhs")
    result = metric_distance(g, h)
    suffix = "  (portraits agree to full stored depth)" if result.agree_to_full_depth else ""
    click.echo(f"{result.value}{suffix}")


# -- classification ------------------------------------------------------------


@main.command("classify")
@click.option("--d", "d", type=int, required=True)
@click.option("--gf2", "use_gf2", is_flag=True,
              help="read the rows off parity ranks alone, as depth 5 requires; "
                   "ignored at depth <= 4, where enumeration cross-checks the ranks")
@click.option("--format", "fmt", type=click.Choice(["text", "json"]), default="text")
@click.option("--no-timestamp", is_flag=True)
@_cap_option
def classify_cmd(d: int, use_gf2: bool, fmt: str, no_timestamp: bool, cap: int | None):
    """Classify all P_J as pattern groups and check the dimension equivalences."""
    if d < 2:
        raise click.UsageError("--d must be at least 2")

    def body():
        report = vf.classify_maximal(d, use_gf2=use_gf2, cap=cap)
        lines = [
            f"depth {d}: {len(report.rows)} maximal subgroups P_J"
            + (" [gf2 fast path]" if report.used_gf2 else "")
        ]
        for row in report.rows:
            dim = row.dimension
            lines.append(
                f"  J={list(row.J)}: essential={row.essential} "
                f"dim={dim.numerator}/{dim.denominator} "
                f"max={row.is_max_dimension} verdict={row.top_fg_verdict}"
            )
        lines.append(
            f"maximal-dimension count: {report.max_dimension_count} "
            f"(expected {report.expected_max_count}) -> "
            + ("PASS" if report.passed else "FAIL")
        )
        config = {"d": d, "gf2": use_gf2, "cap": cap}
        _emit("classify", config, {"report": report.to_dict()}, fmt, no_timestamp, lines)
        if not report.passed:
            sys.exit(1)

    _run(body)


# -- verification suites --------------------------------------------------------


def _ni_suite(d: int, samples: int, seed: int) -> dict:
    top_sets = [J for J in vf._top_level_sets(d)] if d <= 4 else [frozenset({d - 1})]
    contexts = [JContext.make(d, J) for J in top_sets]
    randomized = verify_ni_identities_for(contexts, samples=samples, seed=seed)
    exhaustive = verify_ni_identities_for(contexts, exhaustive=True) if d <= 3 else []
    suites = []
    for i, rep in enumerate(randomized):
        suites.append({**rep.to_dict(), "mode": "random"})
        if exhaustive:
            suites.append({**exhaustive[i].to_dict(), "mode": "exhaustive"})
    return {"name": "ni", "suites": suites,
            "passed": all(s["passed"] for s in suites)}


def _suite_runners(d: int, samples: int, seed: int, cap: int | None):
    # noadad and topfg read the same report, so `--suite all` builds it once.
    no_adad = functools.cache(lambda: vf.verify_no_adad(d, cap=cap))
    return {
        "ni": lambda: _ni_suite(d, samples, seed),
        "noadad": lambda: {"name": "noadad", **no_adad().to_dict()},
        "topfg": lambda: {"name": "topfg",
                          **vf.verify_not_top_fg(d, cap=cap, no_adad=no_adad()).to_dict()},
        "relation": lambda: {"name": "relation", **vf.verify_new_relation(d, cap=cap).to_dict()},
        "aux": lambda: {"name": "aux", **vf.verify_auxiliary(d, samples=samples, seed=seed, cap=cap).to_dict()},
    }


_SUITE_DEPTH_LIMITS = {
    "ni": (2, 8),
    "noadad": (2, 8),
    "topfg": (2, 4),
    "relation": (2, 3),
    "aux": (2, 4),
}


@main.command("verify")
@click.option("--suite", type=click.Choice(["ni", "noadad", "topfg", "relation", "aux", "all"]),
              required=True)
@click.option("--d", "d", type=int, required=True)
@click.option("--samples", type=click.IntRange(min=1), default=10_000, show_default=True)
@click.option("--seed", type=click.IntRange(min=0), default=0, show_default=True)
@click.option("--format", "fmt", type=click.Choice(["text", "json"]), default="text")
@click.option("--no-timestamp", is_flag=True)
@_cap_option
def verify_cmd(suite: str, d: int, samples: int, seed: int, fmt: str,
               no_timestamp: bool, cap: int | None):
    """Run a verification suite; exit 0 only if every check passes."""
    runners = _suite_runners(d, samples, seed, cap)
    if suite == "all":
        selected = [name for name, (lo, hi) in _SUITE_DEPTH_LIMITS.items() if lo <= d <= hi]
        skipped = [name for name in runners if name not in selected]
        if not selected:
            raise click.UsageError(f"no suite supports depth {d}")
    else:
        lo, hi = _SUITE_DEPTH_LIMITS[suite]
        if not lo <= d <= hi:
            raise click.UsageError(f"suite {suite} supports depths {lo}..{hi}, got {d}")
        selected = [suite]
        skipped = []

    def body():
        results = [runners[name]() for name in selected]
        all_passed = all(r["passed"] for r in results)
        lines = []
        for r in results:
            lines.append(f"{r['name']}: " + ("PASS" if r["passed"] else "FAIL"))
        for name in skipped:
            lines.append(f"{name}: skipped (depth {d} out of range)")
        lines.append("overall: " + ("PASS" if all_passed else "FAIL"))
        config = {"d": d, "suite": suite, "samples": samples, "seed": seed, "cap": cap}
        payload = {"results": results, "skipped": skipped, "passed": all_passed}
        _emit("verify", config, payload, fmt, no_timestamp, lines)
        if not all_passed:
            sys.exit(1)

    _run(body)


# -- subgroup / pattern-group files ---------------------------------------------


@main.command("analyze")
@click.option("--file", "path", type=click.Path(exists=True, dir_okay=False), required=True,
              help="subgroup or pattern-group JSON file")
@click.option("--format", "fmt", type=click.Choice(["text", "json"]), default="text")
@click.option("--no-timestamp", is_flag=True)
@_cap_option
def analyze_cmd(path: str, fmt: str, no_timestamp: bool, cap: int | None):
    """Report order, essentiality and dimension for a subgroup JSON file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as e:
        raise click.UsageError(f"--file: {e}")

    def body():
        try:
            obj = subgroup_from_json(doc, cap=cap)
        except (KeyError, ValueError) as e:
            raise click.UsageError(f"--file: {e}")
        d, kind = doc["d"], doc["kind"]
        if doc.get("role") == "pattern_group" and d < 2:
            raise click.UsageError(f"--file: a pattern group needs depth >= 2, got d={d}")
        result: dict = {"d": d, "kind": kind}
        lines = [f"depth {d} subgroup ({kind})"]
        if kind == "PJ":
            result["J"] = sorted(set(doc["J"]))
            obj_enum = enumerate_PJ(d, result["J"], cap=cap)
        elif kind == "MV":
            result["V"] = sorted(set(doc["V"]))
            obj_enum = enumerate_MV(d, result["V"], cap=cap)
        else:
            obj_enum = obj
        result["order"] = obj_enum.order
        # |G(d)| = 2^(2^d - 1) and |S| is a power of two, so the index is
        # 2^k without listing G(d); from d = 14 its decimal form passes the
        # interpreter's default limit on the digits of an int.
        log2_index = (1 << d) - 1 - (obj_enum.order.bit_length() - 1)
        try:
            str(1 << log2_index)
        except ValueError:
            click.echo(f"resource limit: the index 2^{log2_index} of the subgroup "
                       "has too many digits to print", err=True)
            sys.exit(3)
        result["index_in_full_group"] = 1 << log2_index
        lines.append(f"  order {result['order']}, index {result['index_in_full_group']}")
        if doc.get("role") == "pattern_group":
            pg = PatternGroup.from_subgroup(obj_enum)
            ess = is_essential(pg)
            reduced = essential_reduction(pg)
            dim = hausdorff_dimension(reduced)
            result["role"] = "pattern_group"
            result["essential"] = ess.essential
            result["reduced_order"] = reduced.order
            result["dimension"] = {"num": dim.numerator, "den": dim.denominator}
            lines.append(
                f"  pattern group: essential={ess.essential} "
                f"dim={dim.numerator}/{dim.denominator}"
            )
        _emit("analyze", {"file": path, "cap": cap}, {"result": result}, fmt,
              no_timestamp, lines)

    _run(body)


if __name__ == "__main__":
    main()
