"""Self-tests of the benchmark.  Run from the repository root:

    python3 -m pytest perfbench -q
"""

import hashlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def checkout():
    return run.Checkout(ROOT)


@pytest.fixture(scope="module")
def digests():
    return json.loads(run.DIGESTS.read_text(encoding="utf-8"))


def _output(passed=True, payload=1):
    return json.dumps({"passed": passed, "payload": payload}, indent=2) + "\n"


def test_gate_counts_exit_codes_reports_and_digests():
    op = {"id": "op"}
    good = _output()
    digests = {"op": hashlib.sha256(good.encode()).hexdigest()}
    assert run.judge(op, {"exit": 0, "output": good}, digests) is None
    assert "digest" in run.judge(op, {"exit": 0, "output": _output(payload=2)}, digests)
    assert "digest" in run.judge(op, {"exit": 0, "output": good}, {"op": "0" * 64})
    assert "passed" in run.judge(op, {"exit": 0, "output": _output(passed=False)}, digests)
    for code in (1, 3):
        assert run.judge(op, {"exit": code, "output": good}, digests) == f"exit code {code}"


def test_failed_ops_count_toward_fail_ratio(checkout, digests):
    good = workloads.cli("classify", "--d", "3")
    cap = workloads.cli("classify", "--d", "4", "--cap", "100")  # exits 3
    bad_levels = dict(workloads.ni_lib(5, 1, 0), J=[9])  # raises, exits 1
    spec = run.load_spec(ROOT)
    result, record = run.run_workload(checkout, [good, cap, bad_levels], 0, False, digests, spec)
    assert (result["attempted"], result["failed"], result["correct"]) == (3, 2, False)
    assert [why for _id, why in record["failures"]] == ["exit code 3", "exit code 1"]

    tampered = dict(digests, **{good["id"]: "0" * 64})
    result, record = run.run_workload(checkout, [good], 0, False, tampered, spec)
    assert (result["failed"], record["fail_ratio"]) == (1, 1.0)


def test_wrappers_catch_rebound_names_and_internal_calls(checkout, tmp_path):
    op = dict(workloads.cli("verify", "--suite", "noadad", "--d", "3"),
              trace_path=str(tmp_path / "spans.json"))
    result = run.run_op(checkout, op)
    assert result["exit"] == 0
    dump = json.loads((tmp_path / "spans.json").read_text(encoding="utf-8"))
    for binding in ("treegrp.subgroups.enumerate_PJ", "treegrp.verify.enumerate_PJ",
                    "treegrp.cli.enumerate_PJ", "treegrp.enumerate_PJ",
                    "treegrp.halftree.N", "treegrp.N"):
        assert binding in dump["bindings"]
    spans = dump["spans"]
    # verify_no_adad reaches enumerate_PJ through its own re-bound name ...
    assert any(name == "subgroups.enumerate_PJ" and spans[parent][0] == "verify"
               for name, parent, _start, _end in spans)
    # ... and the certificate calls N inside halftree.
    assert any(name == "halftree.N" and spans[parent][0] == "halftree.derived_membership_certificate"
               for parent, name, *_rest in dump["leaves"])
    _layers, problems = tracing.aggregate(dump, result["op_s"])
    assert problems == []


def test_accounting_flags_children_outside_their_parent():
    dump = {"spans": [["cli", -1, 0.0, 1.0], ["verify", 0, 0.5, 1.5]], "leaves": []}
    _layers, problems = tracing.aggregate(dump, 1.0)
    assert any("not inside cli" in p for p in problems)
    dump = {"spans": [["cli", -1, 0.0, 1.0]], "leaves": [[0, "halftree.N", None, 3, 0.2, 0.1, 0.9]]}
    layers, problems = tracing.aggregate(dump, 1.0)
    assert problems == [] and layers["halftree.N"] == [3, 0.2]
    assert layers["cli"][1] == pytest.approx(0.8)
    _layers, problems = tracing.aggregate(dump, 1.5)
    assert any("add up" in p for p in problems)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tiny_smoke_run(checkout, digests, workload):
    spec = run.load_spec(ROOT)
    ops = workloads.ops(workload, 0, tiny=True)
    assert ops == workloads.ops(workload, workloads.SHIPPED_SEEDS, tiny=True)
    for trace, names in ((False, spec["end_to_end"]), (True, spec["per_layer"])):
        result, record = run.run_workload(checkout, ops, 0, trace, digests, spec)
        assert record["failures"] == [] and record["problems"] == []
        assert result["correct"] and result["failed"] == 0
        assert result["attempted"] == len(ops) * (2 if trace else 1)
        assert list(result["metrics"]) == list(names)
        assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
    assert result["metrics"]["cli.self_s"]["value"] > 0
    assert result["metrics"]["trace.overhead_ratio"]["value"] > 0


def test_refuses_a_directory_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    res = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "classify",
                          "--seed", "1", "--seconds", "1", "--trace", "0"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert res.returncode != 0 and res.stdout == ""
