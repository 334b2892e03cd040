"""CLI contract: outputs, exit codes, JSON determinism, file inputs."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from click.testing import CliRunner

import treegrp
from treegrp import verify
from treegrp.cli import main
from treegrp.portrait import FiniteAutomorphism

from oracles import from_labels, generator


@pytest.fixture()
def runner():
    return CliRunner()


def hexes(d, *indices):
    return [generator(d, i).to_hex() for i in indices]


# -- elem ------------------------------------------------------------------------


def test_elem_compose_matches_library(runner):
    a0, a1 = hexes(2, 0, 1)
    res = runner.invoke(main, ["elem", "compose", "--d", "2", "--lhs", a0, "--rhs", a1])
    assert res.exit_code == 0
    assert res.output.strip() == (generator(2, 0) * generator(2, 1)).to_hex()


def test_elem_apply_example(runner):
    res = runner.invoke(
        main, ["elem", "apply", "--d", "3", "--g", generator(3, 1).to_hex(), "--w", "000"]
    )
    assert res.exit_code == 0
    assert res.output.strip() == "010"


def test_elem_alpha_top_generator(runner):
    res = runner.invoke(
        main, ["elem", "alpha", "--d", "4", "--g", generator(4, 3).to_hex(), "--J", "3"]
    )
    assert res.exit_code == 0
    assert res.output.strip() == "1"


def test_elem_invert_and_section(runner):
    g = from_labels(3, {"": 1, "0": 1, "10": 1})
    res = runner.invoke(main, ["elem", "invert", "--d", "3", "--g", g.to_hex()])
    assert res.exit_code == 0
    assert res.output.strip() == (~g).to_hex()
    res = runner.invoke(main, ["elem", "section", "--d", "3", "--g", g.to_hex(), "--w", "0"])
    assert res.exit_code == 0
    assert res.output.strip() == g.section("0").to_hex()


def test_elem_distance_output(runner):
    res = runner.invoke(
        main,
        ["elem", "distance", "--d", "2", "--lhs", generator(2, 1).to_hex(), "--rhs", "00"],
    )
    assert res.exit_code == 0
    assert res.output.strip() == "1/2"


def test_elem_malformed_hex_exits_2_with_field_name(runner):
    res = runner.invoke(
        main, ["elem", "compose", "--d", "2", "--lhs", "zz", "--rhs", "00"]
    )
    assert res.exit_code == 2
    assert "--lhs" in res.output


def test_elem_depth_out_of_range_exits_2_before_building_a_portrait(runner):
    res = runner.invoke(main, ["elem", "invert", "--d", "400000000", "--g", "00"])
    assert res.exit_code == 2
    assert "Invalid value for '--d': 400000000 is not in the range 1<=x<=24" in res.output


def test_elem_depth_is_checked_before_the_hex_is_parsed(runner):
    # An odd-length hex would fail fromhex(); the depth error comes first.
    res = runner.invoke(main, ["elem", "compose", "--d", "0", "--lhs", "0", "--rhs", "0"])
    assert res.exit_code == 2
    assert "Invalid value for '--d': 0 is not in the range 1<=x<=24" in res.output
    assert "fromhex" not in res.output


def test_elem_word_too_long_exits_2(runner):
    res = runner.invoke(
        main, ["elem", "apply", "--d", "2", "--g", "00", "--w", "000"]
    )
    assert res.exit_code == 2
    assert "--w" in res.output


# -- classify ---------------------------------------------------------------------


def test_classify_depth2_text(runner):
    res = runner.invoke(main, ["classify", "--d", "2"])
    assert res.exit_code == 0
    assert "maximal-dimension count: 2 (expected 2) -> PASS" in res.output


def test_classify_depth9_exits_3(runner):
    res = runner.invoke(main, ["classify", "--d", "9"])
    assert res.exit_code == 3


def test_classify_depth5_requires_gf2(runner):
    res = runner.invoke(main, ["classify", "--d", "5"])
    assert res.exit_code == 3
    res = runner.invoke(main, ["classify", "--d", "5", "--gf2", "--format", "json",
                               "--no-timestamp"])
    assert res.exit_code == 0
    doc = json.loads(res.output)
    assert doc["report"]["used_gf2"] is True
    assert doc["report"]["max_dimension_count"] == 16


def test_classify_json_is_deterministic(runner):
    args = ["classify", "--d", "3", "--format", "json", "--no-timestamp"]
    out1 = runner.invoke(main, args).output
    out2 = runner.invoke(main, args).output
    assert out1 == out2
    doc = json.loads(out1)
    assert doc["schema"] == 1
    assert doc["command"] == "classify"
    assert len(doc["report"]["rows"]) == 7


def test_classify_json_has_timestamp_by_default(runner):
    res = runner.invoke(main, ["classify", "--d", "2", "--format", "json"])
    assert "generated_at" in json.loads(res.output)


_CLASSIFY_D4_REFUSALS = {
    "derived": "[G(4), G(4)] has order 2^11",
    "pj": ("P_J for J=[0] has order 2^14; use maximal_subgroup(d, J) "
           "for membership without enumeration"),
}


@pytest.mark.parametrize("cap,refusal", [
    (1, "derived"), (2047, "derived"), (2048, "pj"), (16383, "pj"), (16384, None)])
def test_classify_depth4_cap_refusals_are_pinned(runner, monkeypatch, cap, refusal):
    # [G(4), G(4)] is listed before the first row, then each row checks P_J.
    monkeypatch.delenv("TREEGRP_CAP", raising=False)
    res = runner.invoke(main, ["classify", "--d", "4", "--cap", str(cap),
                               "--format", "json", "--no-timestamp"])
    if refusal is None:
        assert res.exit_code == 0 and res.stderr == ""
        pinned = (Path(__file__).parent / "data" / "classify_d4.json").read_text()
        assert json.loads(res.stdout)["report"] == json.loads(pinned)["report"]
    else:
        assert res.exit_code == 3 and res.stdout == ""
        assert res.stderr == (f"resource limit: enumeration cap of {cap} elements "
                              f"exceeded; {_CLASSIFY_D4_REFUSALS[refusal]}\n")


def test_cap_env_var_is_honored(runner, monkeypatch):
    monkeypatch.setenv("TREEGRP_CAP", "100")
    res = runner.invoke(main, ["classify", "--d", "4"])
    assert res.exit_code == 3


def test_cli_cap_flag_overrides(runner):
    res = runner.invoke(main, ["classify", "--d", "4", "--cap", "100"])
    assert res.exit_code == 3


# -- verify ------------------------------------------------------------------------


def test_verify_all_depth2(runner):
    res = runner.invoke(
        main,
        ["verify", "--suite", "all", "--d", "2", "--samples", "500", "--seed", "7"],
    )
    assert res.exit_code == 0
    assert "overall: PASS" in res.output


def test_verify_single_suites(runner):
    for suite in ("ni", "noadad", "topfg", "relation", "aux"):
        res = runner.invoke(
            main,
            ["verify", "--suite", suite, "--d", "2", "--samples", "200", "--seed", "1"],
        )
        assert res.exit_code == 0, (suite, res.output)


def test_verify_json_counterexample_fields_empty(runner):
    res = runner.invoke(
        main,
        ["verify", "--suite", "ni", "--d", "3", "--samples", "300", "--seed", "7",
         "--format", "json", "--no-timestamp"],
    )
    assert res.exit_code == 0
    doc = json.loads(res.output)
    assert doc["passed"] is True
    for suite in doc["results"][0]["suites"]:
        assert suite["failures"] == []


def test_verify_ni_json_keeps_suite_order(runner):
    # One entry per top-level J in increasing bitmask order, random then exhaustive.
    res = runner.invoke(
        main,
        ["verify", "--suite", "ni", "--d", "3", "--samples", "50", "--seed", "2",
         "--format", "json", "--no-timestamp"],
    )
    assert res.exit_code == 0
    suites = json.loads(res.output)["results"][0]["suites"]
    top_sets = [[2], [0, 2], [1, 2], [0, 1, 2]]
    assert [(s["J"], s["mode"]) for s in suites] == [
        (J, mode) for J in top_sets for mode in ("random", "exhaustive")
    ]
    assert [s["pairs_checked"] for s in suites] == [50, 16384] * 4


def test_verify_json_deterministic(runner):
    args = ["verify", "--suite", "noadad", "--d", "3", "--format", "json", "--no-timestamp"]
    assert runner.invoke(main, args).output == runner.invoke(main, args).output
    # seeded randomness: the sampling suite must also be byte-stable
    args = ["verify", "--suite", "ni", "--d", "4", "--samples", "400", "--seed", "11",
            "--format", "json", "--no-timestamp"]
    assert runner.invoke(main, args).output == runner.invoke(main, args).output


def test_verify_depth_limits(runner):
    res = runner.invoke(main, ["verify", "--suite", "relation", "--d", "4"])
    assert res.exit_code == 2
    res = runner.invoke(main, ["verify", "--suite", "all", "--d", "6",
                               "--samples", "100"])
    assert res.exit_code == 0
    assert "topfg: skipped" in res.output


def test_verify_failure_exits_1(runner, monkeypatch):
    from treegrp import verify as vf

    def broken(d, cap=None):
        report = vf.NoAdadReport(d)
        report.cases.append(
            vf.NoAdadCase((1,), "INCONCLUSIVE", None, False, None)
        )
        return report

    monkeypatch.setattr(vf, "verify_no_adad", broken)
    res = runner.invoke(main, ["verify", "--suite", "noadad", "--d", "2"])
    assert res.exit_code == 1
    assert "FAIL" in res.output


@pytest.mark.parametrize("cap,code", [(1024, 0), (1023, 3)])
def test_topfg_needs_only_what_noadad_enumerates(runner, cap, code):
    for suite in ("topfg", "noadad"):
        res = runner.invoke(main, ["verify", "--suite", suite, "--d", "4", "--cap", str(cap)])
        assert res.exit_code == code, (suite, res.output)


@pytest.mark.parametrize("d,cap", [(3, 300), (3, 2000), (3, 20000), (2, 1000)])
def test_aux_cap_flag_reaches_the_truncation_probes(runner, monkeypatch, d, cap):
    # These caps sit below the truncation levels the probes count (up to
    # 2^12 at d = 3) but above every aux listing, so they pass, by flag and
    # by variable, with the results of the uncapped run.
    args = ["verify", "--suite", "aux", "--d", str(d), "--format", "json", "--no-timestamp"]
    monkeypatch.delenv("TREEGRP_CAP", raising=False)
    default = runner.invoke(main, args)
    by_flag = runner.invoke(main, [*args, "--cap", str(cap)])
    monkeypatch.setenv("TREEGRP_CAP", str(cap))
    by_env = runner.invoke(main, args)
    assert default.exit_code == by_flag.exit_code == by_env.exit_code == 0, (
        by_flag.output, by_env.output)
    results = json.loads(default.stdout)["results"]
    assert json.loads(by_flag.stdout)["results"] == results
    assert json.loads(by_env.stdout)["results"] == results


@pytest.mark.parametrize("d,cap", [(2, 7), (3, 127), (4, 16383)])
def test_aux_cap_flag_reaches_the_aux_listings(runner, monkeypatch, d, cap):
    # One below the largest listing: G(d) for the exhaustive conjugation
    # pairs at d <= 3, a P_J (order 2^14) at d = 4.
    args = ["verify", "--suite", "aux", "--d", str(d)]
    monkeypatch.delenv("TREEGRP_CAP", raising=False)
    by_flag = runner.invoke(main, [*args, "--cap", str(cap)])
    monkeypatch.setenv("TREEGRP_CAP", str(cap))
    by_env = runner.invoke(main, args)
    assert by_flag.exit_code == by_env.exit_code == 3, (by_flag.output, by_env.output)


@pytest.mark.parametrize("suite", ["aux", "all"])
def test_aux_at_depth4_refuses_a_cap_below_the_sweep_probes(runner, monkeypatch, suite):
    # The depth-2 sweep probes levels up to the 32768 elements of H(4) for
    # the full group, but counts them without listing them, so the P_J arm
    # (order 2^14) is the first to refuse.
    monkeypatch.delenv("TREEGRP_CAP", raising=False)
    res = runner.invoke(main, ["verify", "--suite", suite, "--d", "4", "--cap", "16383",
                               "--format", "json", "--no-timestamp"])
    assert res.exit_code == 3
    assert res.stdout == ""
    assert res.stderr == ("resource limit: enumeration cap of 16383 elements exceeded; "
                          "P_J for J=[0] has order 2^14; use maximal_subgroup(d, J) "
                          "for membership without enumeration\n")


def test_aux_cap_reaches_the_depth2_sweep(runner, monkeypatch):
    # At d = 4 the conjugation pairs are sampled, so the first listing is
    # the sweep's G(2), with 8 elements.
    monkeypatch.delenv("TREEGRP_CAP", raising=False)
    res = runner.invoke(main, ["verify", "--suite", "aux", "--d", "4", "--cap", "7"])
    assert res.exit_code == 3
    assert res.stderr == ("resource limit: enumeration cap of 7 elements exceeded; "
                          "the full depth-2 group has order 2^3\n")


# -- analyze ------------------------------------------------------------------------


def test_analyze_generated_pattern_group(runner, tmp_path):
    doc = {
        "d": 2,
        "kind": "generated",
        "generators": [generator(2, 0).to_hex(), generator(2, 1).to_hex()],
        "role": "pattern_group",
    }
    path = tmp_path / "subgroup.json"
    path.write_text(json.dumps(doc))
    res = runner.invoke(main, ["analyze", "--file", str(path), "--format", "json",
                               "--no-timestamp"])
    assert res.exit_code == 0
    result = json.loads(res.output)["result"]
    assert result["order"] == 8
    assert result["essential"] is True
    assert result["dimension"] == {"num": 1, "den": 1}


def test_analyze_pj_file(runner, tmp_path):
    path = tmp_path / "pj.json"
    path.write_text(json.dumps({"d": 3, "kind": "PJ", "J": [2], "role": "pattern_group"}))
    res = runner.invoke(main, ["analyze", "--file", str(path), "--format", "json",
                               "--no-timestamp"])
    assert res.exit_code == 0
    result = json.loads(res.output)["result"]
    assert result["order"] == 64
    assert result["index_in_full_group"] == 2
    assert result["dimension"] == {"num": 3, "den": 4}


def test_analyze_mv_file(runner, tmp_path):
    path = tmp_path / "mv.json"
    path.write_text(json.dumps({"d": 3, "kind": "MV", "V": ["00", "01", "10", "11"]}))
    res = runner.invoke(main, ["analyze", "--file", str(path), "--format", "json",
                               "--no-timestamp"])
    assert res.exit_code == 0
    result = json.loads(res.output)["result"]
    assert result["order"] == 8  # index-2 inside the order-16 top stabilizer


def test_analyze_malformed_file_exits_2(runner, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    res = runner.invoke(main, ["analyze", "--file", str(path)])
    assert res.exit_code == 2


# Results recorded before P_J and M_V moved onto gf2.LinearSubgroup; the
# first three files are the README's examples.
_PINNED_ANALYZE = [
    ({"d": 3, "kind": "PJ", "J": [2], "role": "pattern_group"},
     {"J": [2], "d": 3, "dimension": {"den": 4, "num": 3}, "essential": True,
      "index_in_full_group": 2, "kind": "PJ", "order": 64, "reduced_order": 64,
      "role": "pattern_group"}),
    ({"d": 2, "kind": "generated", "generators": ["01", "02"]},
     {"d": 2, "index_in_full_group": 1, "kind": "generated", "order": 8}),
    ({"d": 3, "kind": "MV", "V": ["00", "01", "10", "11"]},
     {"V": ["00", "01", "10", "11"], "d": 3, "index_in_full_group": 16, "kind": "MV",
      "order": 8}),
    ({"d": 4, "kind": "MV", "V": ["101", "000", "011", "000"], "role": "pattern_group"},
     {"V": ["000", "011", "101"], "d": 4, "dimension": {"den": 1, "num": 0},
      "essential": False, "index_in_full_group": 256, "kind": "MV", "order": 128,
      "reduced_order": 1, "role": "pattern_group"}),
]


@pytest.mark.parametrize("doc,expected", _PINNED_ANALYZE)
def test_analyze_json_matches_pinned_output(runner, tmp_path, doc, expected):
    path = tmp_path / "subgroup.json"
    path.write_text(json.dumps(doc))
    res = runner.invoke(main, ["analyze", "--file", str(path), "--format", "json",
                               "--no-timestamp"])
    assert res.exit_code == 0, res.output
    assert json.loads(res.output) == {
        "command": "analyze", "config": {"cap": None, "file": str(path)},
        "result": expected, "schema": 1,
    }


@pytest.mark.parametrize("doc", [
    {"d": "3", "kind": "PJ", "J": [2]},
    {"d": True, "kind": "PJ", "J": [0]},
    {"d": 0, "kind": "PJ", "J": [0]},
    {"d": 25, "kind": "PJ", "J": [0]},
    {"d": 3, "kind": "PJ", "J": 5},
    {"d": 3, "kind": "PJ", "J": [True]},
    {"d": 2, "kind": "MV", "V": "01"},
    {"d": 3, "kind": "MV", "V": [0]},
    {"d": 3, "kind": "generated", "generators": "01"},
    {"d": 3, "kind": "PJ"},
    [1, 2],
    "PJ",
])
def test_analyze_malformed_subgroup_document_exits_2(runner, tmp_path, doc):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    res = runner.invoke(main, ["analyze", "--file", str(path)])
    assert res.exit_code == 2, res.output
    assert "--file" in res.output


@pytest.mark.parametrize("doc", [
    {"d": 1, "kind": "generated", "generators": ["01"]},
    {"d": 1, "kind": "PJ", "J": [0]},
])
def test_analyze_depth1_pattern_group_exits_2(runner, tmp_path, monkeypatch, doc):
    # The same files without the pattern-group role are valid subgroups.
    path = tmp_path / "depth1.json"
    path.write_text(json.dumps(doc))
    assert runner.invoke(main, ["analyze", "--file", str(path)]).exit_code == 0

    def refuse(*args, **kwargs):
        raise AssertionError("pattern-group call on a depth-1 file")

    for name in ("is_essential", "essential_reduction", "hausdorff_dimension"):
        monkeypatch.setattr(f"treegrp.cli.{name}", refuse)
    path.write_text(json.dumps(doc | {"role": "pattern_group"}))
    res = runner.invoke(main, ["analyze", "--file", str(path)])
    assert res.exit_code == 2, res.output
    assert "--file" in res.output and "d=1" in res.output


def test_analyze_pj_beyond_the_cap_exits_3(runner, tmp_path):
    # P_J at d=14 has order 2^16382, far too many digits to print in decimal.
    path = tmp_path / "pj14.json"
    path.write_text(json.dumps({"d": 14, "kind": "PJ", "J": [2]}))
    res = runner.invoke(main, ["analyze", "--file", str(path)])
    assert res.exit_code == 3, res.output
    assert "2^16382" in res.output


@pytest.mark.parametrize("suite,samples", [("ni", "-5"), ("aux", "0")])
def test_verify_rejects_samples_below_one(runner, suite, samples):
    res = runner.invoke(main, ["verify", "--suite", suite, "--d", "4", "--samples", samples])
    assert res.exit_code == 2
    assert "--samples" in res.output


@pytest.mark.parametrize("suite", ["ni", "aux", "all"])
def test_verify_rejects_a_negative_seed(runner, suite):
    # Random(-7) seeds as Random(7) does, so a negative seed would repeat
    # another seed's pairs under its own name.
    res = runner.invoke(main, ["verify", "--suite", suite, "--d", "4", "--seed", "-7"])
    assert res.exit_code == 2
    assert "--seed" in res.output


@pytest.mark.parametrize("command", [["classify"], ["verify", "--suite", "noadad"]])
@pytest.mark.parametrize("cap_args,env_cap", [
    (["--cap", "0"], None),
    (["--cap", "-5"], None),
    ([], "abc"),
    ([], "-1"),
])
def test_cap_below_one_or_malformed_is_a_usage_error(runner, monkeypatch, command,
                                                     cap_args, env_cap):
    if env_cap is None:
        monkeypatch.delenv("TREEGRP_CAP", raising=False)
    else:
        monkeypatch.setenv("TREEGRP_CAP", env_cap)
    res = runner.invoke(main, [*command, "--d", "3", *cap_args])
    assert res.exit_code == 2
    assert ("--cap" if cap_args else "TREEGRP_CAP") in res.output


@pytest.mark.parametrize("doc,cap,order,log2_index", [
    # The cap fits the subgroup but not the 2^15 elements of G(4).
    ({"d": 4, "kind": "PJ", "J": [3]}, 16384, 16384, 1),
    ({"d": 4, "kind": "MV", "V": ["000"], "role": "pattern_group"}, 200, 128, 8),
    # <a_0> at d = 13: the index 2^8190 still prints.
    ({"d": 13, "kind": "generated", "generators": [generator(13, 0).to_hex()]}, None, 2,
     8190),
])
def test_analyze_index_does_not_list_the_full_group(runner, tmp_path, doc, cap, order,
                                                    log2_index):
    path = tmp_path / "subgroup.json"
    path.write_text(json.dumps(doc))
    cap_args = [] if cap is None else ["--cap", str(cap)]
    res = runner.invoke(main, ["analyze", "--file", str(path), "--format", "json",
                               "--no-timestamp", *cap_args])
    assert res.exit_code == 0, res.output
    result = json.loads(res.output)["result"]
    assert (result["order"], result["index_in_full_group"]) == (order, 1 << log2_index)


def test_analyze_index_too_long_to_print_exits_3(runner, tmp_path):
    path = tmp_path / "gen14.json"
    path.write_text(json.dumps({"d": 14, "kind": "generated",
                                "generators": [generator(14, 0).to_hex()]}))
    res = runner.invoke(main, ["analyze", "--file", str(path)])
    assert res.exit_code == 3, res.output
    assert isinstance(res.exception, SystemExit)
    assert "2^16382" in res.output


@pytest.mark.parametrize("cap_args,env_cap", [
    (["--cap", "2000000000"], None),
    ([], "2000000000"),
])
def test_analyze_beyond_the_listing_limit_exits_3_whatever_the_cap(runner, tmp_path,
                                                                   monkeypatch, cap_args,
                                                                   env_cap):
    # P_J at d=5 has 2^30 members: under the cap, over the listing limit.
    if env_cap is None:
        monkeypatch.delenv("TREEGRP_CAP", raising=False)
    else:
        monkeypatch.setenv("TREEGRP_CAP", env_cap)
    path = tmp_path / "pj5.json"
    path.write_text(json.dumps({"d": 5, "kind": "PJ", "J": [4]}))
    res = runner.invoke(main, ["analyze", "--file", str(path), *cap_args])
    assert res.exit_code == 3, res.output
    assert isinstance(res.exception, SystemExit)
    assert "2^30" in res.output


@pytest.mark.parametrize("suite", ["all", "topfg", "noadad"])
def test_verify_runs_noadad_once(runner, monkeypatch, suite):
    calls = []
    real = verify.verify_no_adad

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(verify, "verify_no_adad", counted)
    res = runner.invoke(main, ["verify", "--suite", suite, "--d", "3", "--samples", "10"])
    assert res.exit_code == 0, res.output
    assert len(calls) == 1


def test_verdict_paths_build_no_portrait_objects(runner, monkeypatch):
    # The verdicts are computed on portrait ints: FiniteAutomorphism is the
    # value type of hex input and output, which these runs have none of.
    # Constructions are counted as perfbench/tracing.py counts them.
    built = []
    post_init = FiniteAutomorphism.__post_init__

    def counting_post_init(obj):
        built.append(obj)
        post_init(obj)

    monkeypatch.setattr(FiniteAutomorphism, "__post_init__", counting_post_init)
    runs = [["classify", "--d", "4"], ["classify", "--d", "5", "--gf2"],
            ["verify", "--suite", "all", "--d", "4", "--samples", "200"],
            ["verify", "--suite", "noadad", "--d", "8"]]
    counts = {}
    for argv in runs:
        built.clear()
        res = runner.invoke(main, [*argv, "--format", "json", "--no-timestamp"])
        assert res.exit_code == 0, res.output
        counts[" ".join(argv)] = len(built)
    assert counts == dict.fromkeys(counts, 0)


# -- start-up --------------------------------------------------------------------

DATACLASSES = """
import dataclasses, inspect, json, pkgutil, sys

import treegrp, treegrp.cli

names = {info.name for info in pkgutil.iter_modules(treegrp.__path__)}
assert {m for m in sys.modules if m.startswith("treegrp.")} == {f"treegrp.{n}" for n in names}
print(json.dumps(sorted(
    f"{name}.{attr}" for name in names
    for attr, obj in vars(sys.modules[f"treegrp.{name}"]).items()
    if inspect.isclass(obj) and obj.__module__ == f"treegrp.{name}"
    and dataclasses.is_dataclass(obj))))
"""


def test_start_up_builds_only_the_two_value_dataclasses():
    # @dataclass compiles its generated methods from source in every fresh
    # process; the reports and contexts are plain classes and a truncation
    # group is a named tuple, so the CLI's import skips that, and a new
    # dataclass has to be added here on purpose.
    src = str(Path(treegrp.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    proc = subprocess.run([sys.executable, "-c", DATACLASSES], capture_output=True,
                          text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == ["portrait.FiniteAutomorphism"]
