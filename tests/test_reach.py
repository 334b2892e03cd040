"""The library is what a command reaches.

One subprocess imports treegrp cold, so that no cache an earlier test filled
hides a call, and runs under sys.setprofile every CLI command below
in-process, then the benchmark's library op (halftree.verify_ni_identities
at d = 12).  It prints the module-level functions and class methods of
treegrp that no call entered; nested closures are out of scope.

A function may go unreached only if the benchmark tracer binds it by name
(perfbench/tracing.py's target lists, read here) or it is in ALLOWED below.
ALLOWED names what is kept on purpose, and each of its names must stay
unreached, so the list can only shrink: a name that a command starts to
reach comes off it.
"""

import importlib.util
import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import treegrp

ROOT = Path(__file__).resolve().parents[1]

ALLOWED = {
    # Helpers of traced names.
    "subgroups.orbit",
    "patterns._extend_one_level",
    # Called by the benchmark worker.
    "kernel.backend_name",
    "kernel.has_c_kernel",
    # Kept for the generated truncation groups on the roadmap.
    "patterns.linear_truncation_group",
    # Samplers and spellings the tests and benchmarks/bench_closure.py use.
    "portrait.FiniteAutomorphism.random",
    "portrait.identity",
    # Protocol methods, and the iterator behind EnumeratedSubgroup.__iter__.
    "portrait.FiniteAutomorphism.__repr__",
    "gf2.LinearSubgroup.__contains__",
    "subgroups.EnumeratedSubgroup.__contains__",
    "subgroups.EnumeratedSubgroup.__eq__",
    "subgroups.EnumeratedSubgroup.__hash__",
    "subgroups.EnumeratedSubgroup.__iter__",
    "subgroups.EnumeratedSubgroup.__len__",
    "subgroups.EnumeratedSubgroup.__repr__",
    "subgroups.EnumeratedSubgroup.elements",
}

RECORDER = textwrap.dedent("""
    import importlib, inspect, json, pkgutil, sys

    import click
    from click.testing import CliRunner

    import treegrp
    from treegrp import cli, halftree


    def own_code(obj, mod):
        obj = getattr(obj, "__func__", obj)  # classmethod, staticmethod
        obj = getattr(obj, "fget", obj)  # property
        if isinstance(obj, click.Command):
            obj = obj.callback
        obj = inspect.unwrap(obj)  # lru_cache
        if inspect.isfunction(obj) and obj.__code__.co_filename == mod.__file__:
            return obj.__code__


    def defined():
        for info in pkgutil.iter_modules(treegrp.__path__):
            mod = importlib.import_module(f"treegrp.{info.name}")
            for name, obj in vars(mod).items():
                members = {name: obj}
                if inspect.isclass(obj) and obj.__module__ == mod.__name__:
                    members = {f"{name}.{a}": m for a, m in vars(obj).items()}
                for qualname, member in members.items():
                    code = own_code(member, mod)
                    if code is not None:
                        yield f"{info.name}.{qualname}", code


    entered = set()


    def profile(frame, event, arg):
        if event == "call":
            entered.add(frame.f_code)


    runner = CliRunner()
    sys.setprofile(profile)
    codes = [runner.invoke(cli.main, argv).exit_code for argv in json.load(sys.stdin)]
    halftree.verify_ni_identities(halftree.JContext.make(12, [11]), samples=2, seed=0)
    sys.setprofile(None)
    names = dict(defined())
    print(json.dumps({"codes": codes,
                      "unreached": sorted(n for n, c in names.items() if c not in entered)}))
""")


def commands(tmp_path):
    """(argv, expected exit code) of every command the recorder runs."""
    doc = ["--format", "json", "--no-timestamp"]
    files = {
        "pj": {"d": 3, "kind": "PJ", "J": [2], "role": "pattern_group"},
        "generated": {"d": 2, "kind": "generated", "generators": ["01", "02"],
                      "role": "pattern_group"},
        "mv": {"d": 3, "kind": "MV", "V": ["00", "01", "10", "11"]},
    }
    runs = [(["classify", "--d", str(d), *doc], 0) for d in (2, 3, 4)]
    runs += [(["classify", "--d", "5", "--gf2", *doc], 0),
             (["classify", "--d", "4", "--cap", "1000", *doc], 3)]
    runs += [(["verify", "--suite", "all", "--d", str(d), *doc], 0) for d in (2, 3)]
    runs += [(["verify", "--suite", "all", "--d", "4", "--samples", "200", *doc], 0),
             (["verify", "--suite", "ni", "--d", "6", "--samples", "50", *doc], 0),
             (["verify", "--suite", "noadad", "--d", "8", *doc], 0)]
    for name, content in files.items():
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(content))
        runs.append((["analyze", "--file", str(path), *doc], 0))
    runs += [(["elem", *argv], 0) for argv in (
        ["compose", "--d", "2", "--lhs", "01", "--rhs", "02"],
        ["invert", "--d", "3", "--g", "0b"],
        ["apply", "--d", "3", "--g", "02", "--w", "000"],
        ["section", "--d", "3", "--g", "0b", "--w", "0"],
        ["alpha", "--d", "4", "--g", "8000", "--J", "3"],
        ["distance", "--d", "3", "--lhs", "01", "--rhs", "03"],
    )]
    return runs


def traced_names():
    """The treegrp names perfbench/tracing.py wraps, as module.qualname."""
    spec = importlib.util.spec_from_file_location("tracing", ROOT / "perfbench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    names = {f"{module.removeprefix('treegrp.')}.{attr}"
             for _, module, attr, *_ in tracing.SPAN_TARGETS + tracing.LEAF_TARGETS}
    return names | {f"portrait.FiniteAutomorphism.{attr}"
                    for _, attr in tracing.METHOD_TARGETS}


def test_every_function_is_reached_traced_or_allowed(tmp_path):
    runs = commands(tmp_path)
    src = str(Path(treegrp.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    env.pop("TREEGRP_CAP", None)
    proc = subprocess.run([sys.executable, "-c", RECORDER], input=json.dumps([a for a, _ in runs]),
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    record = json.loads(proc.stdout)
    assert record["codes"] == [code for _, code in runs]
    unreached = set(record["unreached"])
    assert sorted(unreached - traced_names() - ALLOWED) == []
    assert sorted(ALLOWED - unreached) == []
