#!/usr/bin/env python3
"""Cold-start verdict benchmark for treegrp.

Run from the root of a treegrp checkout:

    python3 perfbench/run.py --workload classify --seed 1 --seconds 20 --trace 0

A closed loop with one client: each op (workloads.py) runs in a fresh worker
process (worker.py), one worker at a time, so module caches start cold as they
do for every CLI user.  Passes over the workload's ops repeat until --seconds
have elapsed; a pass that has started always finishes.

--trace 0 prints the end-to-end metrics, with both times in seconds at the
reference speed (see REF_NOMINAL_S and worker.Metronome): verdict_s (median
over passes of the summed op times, each scaled by the reference loop's mean
time while that op ran), setup_s (median worker start-to-ready time, scaled by
the run's median reference time), peak_rss_mb (largest worker peak RSS).
--trace 1 alternates untraced and traced passes and prints the per-layer
metrics of BENCHMARK.json (medians over traced passes) and
trace.overhead_ratio.

Every op is gated: it must exit 0, its report must say passed, and its output
must match the digest stored in digests.json.  The last stdout line is the
result object; the full record, with the environment, goes to
.bench_build/perfbench/.
"""

from __future__ import annotations

import sys

sys.dont_write_bytecode = True  # keep the benchmark's own directory free of caches

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import threading  # noqa: E402
import time  # noqa: E402
from collections import defaultdict  # noqa: E402
from pathlib import Path  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
WORKER = HERE / "worker.py"
DIGESTS = HERE / "digests.json"

#: Worker start-ups measured per untraced run; probe workers top up the count.
SETUP_SAMPLES = 11
#: Time of one reference loop (worker.reference_s) on a quiet, shared 2-core
#: x86 VM.  verdict_s and setup_s are seconds at that reference speed.
REF_NOMINAL_S = 0.012
#: A worker that runs longer than this is killed and its op counts as failed.
OP_TIMEOUT_S = 150


class Checkout:
    """A treegrp source checkout the benchmark runs against."""

    def __init__(self, root: Path):
        if not (root / "src" / "treegrp" / "__init__.py").is_file():
            raise SystemExit(f"perfbench: {root} holds no src/treegrp; "
                             "run from the root of a treegrp checkout")
        self.root = root
        self.out = root / ".bench_build" / "perfbench"
        self.out.mkdir(parents=True, exist_ok=True)
        # Workers import the checkout's package and may cache its bytecode, as
        # an installed package has, so set-up does not include compiling it.
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))
        self.env.pop("PYTHONDONTWRITEBYTECODE", None)

    def commit(self) -> str | None:
        env = dict(self.env, GIT_CEILING_DIRECTORIES=str(self.root.parent))
        try:
            res = subprocess.run(["git", "rev-parse", "HEAD"], cwd=self.root, env=env,
                                 capture_output=True, text=True, timeout=30)
        except (OSError, subprocess.TimeoutExpired):
            return None
        return res.stdout.strip() if res.returncode == 0 else None

    def source_sha256(self) -> str:
        h = hashlib.sha256()
        pkg = self.root / "src" / "treegrp"
        for path in sorted(pkg.glob("*.py")) + sorted(pkg.glob("*.pyx")):
            h.update(path.name.encode() + b"\0" + path.read_bytes())
        return h.hexdigest()


def run_op(checkout: Checkout, op: dict) -> dict:
    """Run one op in a fresh worker; returns its result plus setup_s."""
    cmd = [sys.executable, str(WORKER), json.dumps(op)]
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=checkout.root,
                          env=checkout.env) as proc:
        watchdog = threading.Timer(OP_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            ready_line = proc.stdout.readline()
            setup_s = time.perf_counter() - t0
            out = proc.stdout.read()
        finally:
            watchdog.cancel()
    if proc.returncode == -signal.SIGKILL:
        return {"exit": None, "setup_s": setup_s, "error": "killed after the op timeout"}
    try:
        ready = json.loads(ready_line)
    except ValueError:
        raise SystemExit(f"perfbench: worker failed to import treegrp (exit {proc.returncode})")
    if Path(ready["module"]).parent != checkout.root / "src" / "treegrp":
        raise SystemExit(f"perfbench: worker imported treegrp from {ready['module']}")
    if proc.returncode or not out.strip():
        return {"exit": None, "setup_s": setup_s, "ready": ready,
                "error": f"worker exited with {proc.returncode}"}
    result = json.loads(out.strip().splitlines()[-1])
    result.update(setup_s=setup_s, ready=ready)
    return result


def judge(op: dict, result: dict, digests: dict) -> str | None:
    """None when the op passes the correctness gate, else the reason it failed."""
    if result.get("exit") != 0:
        return result.get("error") or f"exit code {result.get('exit')}"
    try:
        doc = json.loads(result["output"])
    except (KeyError, ValueError):
        return "output is not JSON"
    passed = doc["report"].get("passed") if "report" in doc else doc.get("passed")
    if passed is not True:
        return "report does not say passed"
    want = digests.get(op["id"])
    if want is None:
        return "no stored digest for this op"
    if hashlib.sha256(result["output"].encode()).hexdigest() != want:
        return "output differs from the stored digest"
    return None


def run_pass(checkout: Checkout, ops: list[dict], digests: dict, traced: bool) -> list[dict]:
    results = []
    for i, op in enumerate(ops):
        spec = dict(op)
        if traced:
            spec["trace_path"] = str(checkout.out / f"trace-op{i}.json")
        r = run_op(checkout, spec)
        r["id"] = op["id"]
        r["failure"] = judge(op, r, digests)
        if traced and r.get("exit") is not None:
            with open(spec["trace_path"], encoding="utf-8") as fh:
                r["trace"] = json.load(fh)
            r["layers"], r["problems"] = tracing.aggregate(r["trace"], r["op_s"])
        results.append(r)
    return results


def pass_seconds(results: list[dict]) -> float:
    return sum(r.get("op_s", 0.0) for r in results)


def pass_scaled(results: list[dict]) -> float:
    """A pass's time at the reference speed: each op's time is scaled by
    REF_NOMINAL_S over the mean reference time sampled while that op ran."""
    return sum(r["op_s"] * REF_NOMINAL_S / statistics.fmean(r["ref_s"])
               for r in results if r.get("ref_s"))


def layer_metrics(results: list[dict]) -> dict[str, float]:
    """Per-layer metrics of one traced pass, summed over its ops."""
    m: dict[str, float] = defaultdict(int)
    distinct = defaultdict(lambda: [0, 0])
    for r in results:
        if "trace" not in r:
            continue
        for name, (calls, self_s) in r["layers"].items():
            m[f"{name}.calls"] += calls
            m[f"{name}.self_s"] += self_s
        for name, value in r["trace"]["counts"].items():
            m[name] += value
        for name, value in r["trace"]["maxima"].items():
            m[name] = max(m[name], value)
        # Memoisation can only reuse work inside one process, so distinct
        # inputs are counted per op.
        for name, (calls, keys) in r["trace"]["distinct"].items():
            distinct[name][0] += calls
            distinct[name][1] += keys
        m["cli.output_bytes"] += len(r["output"].encode())
    for name in tracing.DISTINCT_NAMES:
        calls, keys = distinct[name]
        m[f"{name}.distinct_ratio"] = keys / calls if calls else 0.0
    examined = m.pop("subgroups.enumerate_PJ.examined", 0)
    kept = m.pop("subgroups.enumerate_PJ.kept", 0)
    m["subgroups.enumerate_PJ.kept_ratio"] = kept / examined if examined else 0.0
    return m


def run_workload(checkout: Checkout, ops: list[dict], seconds: float, trace: bool,
                 digests: dict, spec: dict) -> tuple[dict, dict]:
    """Run passes for `seconds`; returns (result object, full record)."""
    deadline = time.perf_counter() + seconds
    plain: list[list[dict]] = []
    traced: list[list[dict]] = []
    while True:
        plain.append(run_pass(checkout, ops, digests, traced=False))
        if trace:
            traced.append(run_pass(checkout, ops, digests, traced=True))
        if time.perf_counter() >= deadline:
            break
    workers = [r for p in plain for r in p]
    probes = [run_op(checkout, {"kind": "probe"})
              for _ in range(max(0, SETUP_SAMPLES - len(workers))) if not trace]

    runs = plain + traced
    attempted = sum(len(p) for p in runs)
    failures = [(r["id"], r["failure"]) for p in runs for r in p if r["failure"]]
    problems = [f"{r['id']}: {msg}" for p in traced for r in p for msg in r.get("problems", [])]
    for p in traced:
        for r, base in zip(p, plain[0]):
            if r.get("output") != base.get("output"):
                problems.append(f"{r['id']}: traced output differs from the untraced output")

    if trace:
        per_pass = [layer_metrics(p) for p in traced]
        values = {name: statistics.median(m.get(name, 0.0) for m in per_pass)
                  for name in spec["per_layer"] if name != "trace.overhead_ratio"}
        values["trace.overhead_ratio"] = (statistics.median(map(pass_seconds, traced))
                                          / statistics.median(map(pass_seconds, plain)))
    else:
        verdict_s = statistics.median(map(pass_seconds, plain))
        setup_s = statistics.median(r["setup_s"] for r in workers + probes)
        ref_s = statistics.median(x for r in workers for x in r.get("ref_s", ()))
        values = {
            "verdict_s": statistics.median(map(pass_scaled, plain)),
            "setup_s": setup_s * REF_NOMINAL_S / ref_s,
            "peak_rss_mb": max(r.get("rss_kb", 0) for r in workers) / 1024,
        }
    units = spec["per_layer"] if trace else spec["end_to_end"]
    result = {
        "correct": not failures and not problems,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }
    record = {
        "failures": failures,
        "problems": problems,
        "passes": [[{k: r.get(k) for k in ("id", "exit", "op_s", "ref_s", "setup_s", "rss_kb",
                                                "failure")}
                    for r in p] for p in plain],
        "traced_passes": [[{"id": r["id"], "op_s": r.get("op_s"), "layers": r.get("layers")}
                           for r in p] for p in traced],
        "fail_ratio": len(failures) / attempted,
    }
    if not trace:
        record.update(raw_verdict_s=verdict_s, raw_setup_s=setup_s, ref_s=ref_s)
    return result, record


def load_spec(root: Path) -> dict:
    """Metric names and units from BENCHMARK.json."""
    with open(root / "BENCHMARK.json", encoding="utf-8") as fh:
        bench = json.load(fh)
    return {
        "end_to_end": {m["name"]: m["unit"] for m in bench["end_to_end"]},
        "per_layer": {m["name"]: m["unit"] for m in bench["per_layer"]},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    checkout = Checkout(Path.cwd())
    spec = load_spec(checkout.root)
    with open(DIGESTS, encoding="utf-8") as fh:
        digests = json.load(fh)
    ops = workloads.ops(args.workload, args.seed)
    result, record = run_workload(checkout, ops, args.seconds, bool(args.trace), digests, spec)

    first = run_op(checkout, {"kind": "probe"})["ready"]
    record_env = {
        "backend": first["backend"], "has_c_kernel": first["has_c_kernel"],
        "python": first["python"], "commit": checkout.commit(),
        "source_sha256": checkout.source_sha256(), "nproc": len(os.sched_getaffinity(0)),
        "cap": first["cap"], "seed": args.seed, "program_seed": workloads.program_seed(args.seed),
        "workload": args.workload, "seconds": args.seconds, "trace": args.trace,
    }
    record = {"env": record_env, "result": result, **record}
    path = checkout.out / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    for why in record["failures"] + record["problems"]:
        print(f"perfbench: {why}", file=sys.stderr)
    print(json.dumps({"env": record_env}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
