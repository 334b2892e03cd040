#!/usr/bin/env python3
"""Store the output digest of every op the benchmark can run, in digests.json.

Run from the root of a treegrp checkout whose outputs are the reference:

    python3 perfbench/record_digests.py

Covers the full ops for every shipped seed and the tiny self-test ops for seed
0.  An op that fails to exit 0 with a passed report stops the recording.
"""

import sys

sys.dont_write_bytecode = True

import hashlib  # noqa: E402
import json  # noqa: E402
from pathlib import Path  # noqa: E402

import run  # noqa: E402
import workloads  # noqa: E402


def main() -> int:
    checkout = run.Checkout(Path.cwd())
    todo = {}
    for workload in workloads.WORKLOADS:
        for op in workloads.ops(workload, 0, tiny=True):
            todo[op["id"]] = op
        for seed in range(workloads.SHIPPED_SEEDS):
            for op in workloads.ops(workload, seed):
                todo[op["id"]] = op
    digests = {}
    for i, (op_id, op) in enumerate(sorted(todo.items())):
        result = run.run_op(checkout, op)
        digests[op_id] = hashlib.sha256(result.get("output", "").encode()).hexdigest()
        why = run.judge(op, result, digests)
        if why is not None:
            raise SystemExit(f"record_digests: {op_id}: {why}")
        print(f"[{i + 1}/{len(todo)}] {result['op_s']:.3f} s  {op_id}", file=sys.stderr)
    run.DIGESTS.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n",
                           encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
