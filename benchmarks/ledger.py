#!/usr/bin/env python3
"""Write a benchmark ledger, BENCH_<label>.json, at the root of this checkout.

    python3 benchmarks/ledger.py --label after-change

Runs perfbench/run.py (untraced) for each workload on the seeds 0 .. 9,
SECONDS each, and reads the env and result lines each run prints last.
Ten seeds, because setup_s has two modes.  The ledger holds every run's
metrics, the median and quartiles of each metric per workload, the
environment of the runs and the wall time of the tier-1 tests.  A run that
is not correct or has a failed op, or a failing tier-1 run, writes no
ledger.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = ("classify", "verify-all", "ni-depth")
#: Env fields that differ from run to run; the rest describe the checkout.
PER_RUN = {"seed", "program_seed", "workload", "seconds", "trace"}
SEEDS = range(10)
SECONDS = 10.0


def bench(workload: str, seed: int, seconds: float) -> tuple[dict, dict]:
    """The env and result objects of one untraced perfbench run."""
    out = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                          "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                         cwd=ROOT, capture_output=True, text=True, check=True).stdout
    env_line, result_line = out.splitlines()[-2:]
    return json.loads(env_line)["env"], json.loads(result_line)


def tier1() -> dict:
    """Wall time and summary line of the tier-1 tests."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    start = time.perf_counter()
    res = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                          "--continue-on-collection-errors"],
                         cwd=ROOT, env=env, capture_output=True, text=True)
    wall = time.perf_counter() - start
    summary = res.stdout.strip().splitlines()[-1] if res.stdout.strip() else ""
    if res.returncode:
        raise SystemExit(f"ledger: tier-1 failed ({summary}); no ledger written")
    return {"wall_s": round(wall, 2), "summary": summary}


def summarize(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--label", required=True)
    args = parser.parse_args(argv)
    env, workloads = None, {}
    for workload in WORKLOADS:
        runs = []
        for seed in SEEDS:
            run_env, result = bench(workload, seed, SECONDS)
            if not result["correct"] or result["failed"]:
                raise SystemExit(f"ledger: {workload} seed {seed} is not correct "
                                 f"({result['failed']} of {result['attempted']} ops failed); "
                                 "no ledger written")
            env = env or {k: v for k, v in run_env.items() if k not in PER_RUN}
            runs.append({"seed": seed, "attempted": result["attempted"],
                         **{k: m["value"] for k, m in result["metrics"].items()}})
            print(f"ledger: {workload} seed {seed}: {json.dumps(result['metrics'])}",
                  file=sys.stderr)
        units = {k: m["unit"] for k, m in result["metrics"].items()}
        workloads[workload] = {
            "metrics": {k: {"unit": unit, **summarize([r[k] for r in runs])}
                        for k, unit in units.items()},
            "runs": runs,
        }
    ledger = {"label": args.label, "seconds": SECONDS, "seeds": list(SEEDS),
              "env": env, "tier1": tier1(), "workloads": workloads}
    path = ROOT / f"BENCH_{args.label}.json"
    path.write_text(json.dumps(ledger, indent=2) + "\n")
    print(f"ledger: wrote {path.name}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
