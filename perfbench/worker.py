"""Benchmark worker: one fresh process per op.

Usage: python3 perfbench/worker.py '<op json>'

Imports treegrp (interpreter start-up plus this import are the set-up that
run.py times), prints one "ready" line, runs the op once with its stdout
captured, and prints one JSON result line.  An op of kind "probe" only sets
up.  The worker pins itself to one CPU after the ready line.  During an
untraced op a second thread times a reference loop on that CPU (Metronome).
With "trace_path" in the op, wrappers from tracing.py are installed instead
and the spans are written to that file at exit.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import sys
import threading
import traceback
from time import perf_counter


#: Period of the reference loop during an untraced op.
METRONOME_S = 0.5


def reference_s() -> float:
    """Time one call of a fixed pure-Python loop.

    It fills a set of 25k pseudo-random ints and probes it, so, like
    treegrp's element sets, it is sensitive to cache contention.  It does not
    touch treegrp: its time tracks only the speed the machine gives this
    process at the moment, and run.py scales op and set-up times by it.
    """
    t0 = perf_counter()
    mask = (1 << 64) - 1
    seen = set()
    x = 1
    for _ in range(25_000):
        x = (x * 6364136223846793005 + 1442695040888963407) & mask
        seen.add(x >> 16)
    x = 1
    hits = 0
    for _ in range(25_000):
        x = (x * 6364136223846793005 + 1442695040888963407) & mask
        hits += (x >> 16) in seen
    if hits != 25_000:
        raise RuntimeError("reference loop lost set members")
    return perf_counter() - t0


class Metronome(threading.Thread):
    """Times reference_s() every METRONOME_S while an op runs.

    The caller pins the worker to one CPU first, so the loop meets the same
    contention as the op.  The switch interval is well above the loop's length,
    so the op's thread never interleaves with a sample; the samples' time is
    taken out of the op time.
    """

    def __init__(self):
        super().__init__(daemon=True)
        self.spans: list[tuple[float, float]] = []
        self.done = threading.Event()

    def run(self):
        while not self.done.wait(METRONOME_S):
            start = perf_counter()
            self.spans.append((start, start + reference_s()))

    def stop(self) -> None:
        self.done.set()
        self.join()
        if not self.spans:  # an op shorter than one period: sample once after it
            start = perf_counter()
            self.spans.append((start, start + reference_s()))

    def overlap(self, t0: float, t1: float) -> float:
        return sum(max(0.0, min(end, t1) - max(start, t0)) for start, end in self.spans)


def _lib_call(op: dict):
    from treegrp import halftree

    def call():
        ctx = halftree.JContext.make(op["d"], op["J"])
        report = halftree.verify_ni_identities(ctx, samples=op["samples"], seed=op["seed"])
        print(json.dumps(report.to_dict(), sort_keys=True, indent=2))
    return call


def _cli_call(op: dict):
    import treegrp.cli

    def call():
        return treegrp.cli.main.main(args=op["argv"], prog_name="treegrp",
                                     standalone_mode=False)
    return call


def _run(call) -> int:
    """Exit code under the CLI's contract: 0 ok, 1 failed check, 2 usage, 3 cap."""
    import click
    from treegrp.errors import EnumerationCapExceeded, VerificationError

    try:
        code = call()
    except SystemExit as e:
        return e.code if isinstance(e.code, int) else int(e.code is not None)
    except click.ClickException as e:
        click.echo(f"usage error: {e.format_message()}", err=True)
        return e.exit_code
    except EnumerationCapExceeded as e:
        print(f"resource limit: {e}", file=sys.stderr)
        return 3
    except VerificationError as e:
        print(f"verification failure: {e}", file=sys.stderr)
        return 1
    except Exception:  # an uncaught error ends a CLI run with exit code 1
        traceback.print_exc()
        return 1
    return code if isinstance(code, int) else 0


def main(op: dict) -> dict:
    import treegrp
    import treegrp.cli  # noqa: F401  (the CLI's own imports are set-up too)
    from treegrp.subgroups import resolve_cap

    print(json.dumps({"ready": True, "backend": treegrp.backend_name(),
                      "has_c_kernel": treegrp.has_c_kernel(), "cap": resolve_cap(),
                      "python": sys.version.split()[0],
                      "module": treegrp.__file__}), flush=True)
    if op["kind"] == "probe":
        return {}

    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    tracer = metronome = None
    if op.get("trace_path"):
        sys.dont_write_bytecode = True  # no caches in the benchmark's directory
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    else:
        sys.setswitchinterval(0.1)
        metronome = Metronome()
    call = _cli_call(op) if op["kind"] == "cli" else _lib_call(op)
    if tracer is not None:
        inner = call
        call = lambda: tracer.root(inner)  # noqa: E731

    buf = io.StringIO()
    ref_s = []
    with contextlib.redirect_stdout(buf):
        if metronome is not None:
            metronome.start()
        t0 = perf_counter()
        code = _run(call)
        t1 = perf_counter()
    op_s = t1 - t0
    if metronome is not None:
        metronome.stop()
        op_s -= metronome.overlap(t0, t1)
        ref_s = [end - start for start, end in metronome.spans]
    if tracer is not None:
        with open(op["trace_path"], "w", encoding="utf-8") as fh:
            json.dump(tracer.dump(), fh)
    return {"exit": code, "op_s": op_s, "ref_s": ref_s,
            "output": buf.getvalue(),
            "rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}


if __name__ == "__main__":
    print(json.dumps(main(json.loads(sys.argv[1]))), flush=True)
