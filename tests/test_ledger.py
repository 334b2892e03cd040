"""benchmarks/ledger.py on fake perfbench runs: the ledger's per-seed values
and summaries, no ledger when any run is not correct or has a failed op,
and no commit named while src has uncommitted changes."""

import importlib.util
import json
import subprocess
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "benchmarks" / "ledger.py"


@pytest.fixture
def ledger(monkeypatch, tmp_path):
    spec = importlib.util.spec_from_file_location("ledger", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    monkeypatch.setattr(module, "ROOT", tmp_path)
    monkeypatch.setattr(module, "tier1", lambda: {"wall_s": 1.0, "summary": "1 passed"})
    return module


def fake_bench(bad=None, **checkout):
    """A stand-in for one perfbench run: verdict_s is the seed, the run
    (workload, seed) == bad fails one op, and `checkout` joins the env."""
    def bench(workload, seed, seconds):
        env = {"backend": "pure", "python": "3", "seed": seed, "workload": workload,
               "program_seed": seed, "seconds": seconds, "trace": 0, **checkout}
        failed = int((workload, seed) == bad)
        metrics = {"verdict_s": {"value": float(seed), "unit": "s"},
                   "setup_s": {"value": 0.06, "unit": "s"},
                   "peak_rss_mb": {"value": 21.5, "unit": "MB"}}
        return env, {"correct": True, "attempted": 3, "failed": failed, "metrics": metrics}
    return bench


def test_ledger_holds_every_run_and_its_quartiles(ledger, monkeypatch, tmp_path):
    monkeypatch.setattr(ledger, "bench", fake_bench())
    assert ledger.main(["--label", "t"]) == 0
    doc = json.loads((tmp_path / "BENCH_t.json").read_text())
    assert doc["env"] == {"backend": "pure", "python": "3"}
    assert doc["seeds"] == list(range(10)) and doc["tier1"]["summary"] == "1 passed"
    for workload in ledger.WORKLOADS:
        entry = doc["workloads"][workload]
        assert [r["verdict_s"] for r in entry["runs"]] == list(range(10))
        assert entry["metrics"]["verdict_s"] == {
            "unit": "s", "median": 4.5, "q1": 1.75, "q3": 7.25}
        assert entry["metrics"]["peak_rss_mb"]["median"] == 21.5


def test_ledger_refuses_a_failed_op(ledger, monkeypatch, tmp_path):
    monkeypatch.setattr(ledger, "bench", fake_bench(bad=("ni-depth", 9)))
    with pytest.raises(SystemExit, match="no ledger written"):
        ledger.main(["--label", "t"])
    assert not list(tmp_path.iterdir())


def git(root, *args):
    subprocess.run(["git", "-c", "user.name=t", "-c", "user.email=t@t", *args], cwd=root,
                   check=True, capture_output=True)


def test_ledger_names_the_commit_only_while_src_is_committed(ledger, monkeypatch, tmp_path):
    monkeypatch.setattr(ledger, "bench", fake_bench(commit="c0ffee"))
    (tmp_path / "src").mkdir()
    (tmp_path / "src" / "a.py").write_text("x = 1\n")
    (tmp_path / "README").write_text("r\n")
    git(tmp_path, "init", "-q")
    git(tmp_path, "add", "-A")
    git(tmp_path, "commit", "-q", "-m", "c")

    def commit_of_a_ledger():
        assert ledger.main(["--label", "t"]) == 0
        return json.loads((tmp_path / "BENCH_t.json").read_text())["env"]["commit"]

    # The ledger itself, and a change outside src, leave the commit named.
    (tmp_path / "README").write_text("changed\n")
    assert commit_of_a_ledger() == "c0ffee"
    (tmp_path / "src" / "a.py").write_text("x = 2\n")
    assert commit_of_a_ledger() is None
    git(tmp_path, "checkout", "-q", "--", "src")
    (tmp_path / "src" / "b.py").write_text("")
    assert commit_of_a_ledger() is None
    (tmp_path / "src" / "b.py").unlink()
    assert commit_of_a_ledger() == "c0ffee"
