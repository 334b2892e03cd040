"""The report schema: one serializer, and whole JSON documents pinned.

The files under tests/data were written before the change they guard
(most by the hand-written to_dict methods that treegrp.report replaced,
the aux documents by the per-pair conjugation check, the depth-4 and
depth-5 classify documents by the two classify row builders that
verify._classify_row replaced, the depth-4 verify-all document, the
benchmark's own op, by the aux probes that listed each truncation group
before patterns.truncation_orbits counted them, the depth-3 verify-all
document, the one that covers the relation suite at d = 3, by the
embedding index that listed its truncation groups, the depth-6 ni and
depth-8 noadad documents by the kernel.pack that wrote each portrait's
row on its own), so a renamed, dropped or reshaped key, or a changed
count, fails here before it reaches a user.
"""

import json
from fractions import Fraction
from pathlib import Path
from random import Random

import pytest
from click.testing import CliRunner

from treegrp import kernel
from treegrp.cli import main
from treegrp.halftree import JContext, verify_ni_identities
from treegrp.report import Report, dumps

DATA = Path(__file__).parent / "data"


@pytest.mark.parametrize("name,args", [
    ("classify_d2", ["classify", "--d", "2"]),
    ("classify_d3_gf2", ["classify", "--d", "3", "--gf2"]),
    ("verify_all_d2", ["verify", "--suite", "all", "--d", "2", "--samples", "20",
                       "--seed", "1"]),
    ("verify_aux_d3", ["verify", "--suite", "aux", "--d", "3"]),
    ("verify_aux_d4_seed3_samples4097", ["verify", "--suite", "aux", "--d", "4", "--seed", "3",
                                         "--samples", "4097"]),
    ("classify_d4", ["classify", "--d", "4"]),
    ("classify_d5_gf2", ["classify", "--d", "5", "--gf2"]),
    ("verify_all_d4_seed5", ["verify", "--suite", "all", "--d", "4", "--seed", "5"]),
    ("verify_all_d3", ["verify", "--suite", "all", "--d", "3"]),
    ("verify_ni_d6_samples500_seed7", ["verify", "--suite", "ni", "--d", "6", "--samples", "500",
                                       "--seed", "7"]),
    ("verify_noadad_d8", ["verify", "--suite", "noadad", "--d", "8"]),
])
def test_cli_json_document_is_pinned(name, args):
    res = CliRunner().invoke(main, args + ["--format", "json", "--no-timestamp"])
    assert res.exit_code == 0, res.output
    assert res.output == (DATA / f"{name}.json").read_text()


@pytest.mark.parametrize("name,args", [
    ("verify_all_d4_seed5", ["verify", "--suite", "all", "--d", "4", "--seed", "5"]),
    ("verify_ni_d6_samples500_seed7", ["verify", "--suite", "ni", "--d", "6", "--samples", "500",
                                       "--seed", "7"]),
])
def test_cli_json_document_does_not_depend_on_the_sampled_stream(monkeypatch, name, args):
    # Smaller chunks draw other pairs from the same seed; no report prints a
    # pair unless a law fails, so the document is the pinned one.
    first = next(kernel.sampled_chunks(Random(5), 4096, 4))
    monkeypatch.setattr(kernel, "CHUNK_BITS", 1 << 12)
    assert next(kernel.sampled_chunks(Random(5), 4096, 4))[1:] != first[1:]
    res = CliRunner().invoke(main, args + ["--format", "json", "--no-timestamp"])
    assert res.exit_code == 0, res.output
    assert res.output == (DATA / f"{name}.json").read_text()


def test_ni_identities_document_is_pinned():
    doc = verify_ni_identities(JContext.make(3, {2}), samples=5, seed=2).to_dict()
    # Compared as values, so a tuple left in place of a list also fails.
    assert doc == json.loads((DATA / "ni_identities_d3.json").read_text())


class _Leaf(Report):
    KEYS = {"name": "leaf"}

    def __init__(self, name: str, ratio: Fraction, pairs: tuple[tuple[int, int], ...]):
        self.name = name
        self.ratio = ratio
        self.pairs = pairs


class _Tree(Report):
    def __init__(self, leaves: list[_Leaf], notes: dict):
        self.leaves = leaves
        self.notes = notes

    @property
    def passed(self) -> bool:
        return len(self.leaves) == 2


def test_report_serializes_its_fields():
    leaf = _Leaf("x", Fraction(3, 4), ((0, 1), (2, 3)))
    tree = _Tree([leaf, _Leaf("y", Fraction(2), ())], {"first": leaf, "n": (5,)})
    leaf_doc = {"leaf": "x", "ratio": {"num": 3, "den": 4}, "pairs": [[0, 1], [2, 3]]}
    assert leaf.to_dict() == leaf_doc
    assert tree.to_dict() == {
        "leaves": [leaf_doc, {"leaf": "y", "ratio": {"num": 2, "den": 1}, "pairs": []}],
        "notes": {"first": leaf_doc, "n": [5]},
        "passed": True,
    }
    assert "passed" not in leaf.to_dict()
    assert json.loads(json.dumps(tree.to_dict())) == tree.to_dict()


@pytest.mark.parametrize("path", sorted(DATA.glob("*.json")), ids=lambda path: path.stem)
def test_dumps_writes_what_json_writes_on_every_pin(path):
    doc = json.loads(path.read_text())
    assert dumps(doc) == json.dumps(doc, sort_keys=True, indent=2)


def test_dumps_writes_what_json_writes_on_empty_nested_and_escaped_values():
    doc = {
        "empty": {"list": [], "dict": {}, "str": ""},
        "nested": [[], [[1, -2], {}], [{"b": None, "a": [True, False]}], 10 ** 30],
        "escapes": "tab\t quote\" backslash\\ newline\n nul\u0000 del\u007f",
        "non-ASCII \u00e9": ["\u00e9t\u00e9", "\u2211", "\U0001f600", "\ud800"],
        "Z": 0,
        "": {"": ""},
    }
    assert dumps(doc) == json.dumps(doc, sort_keys=True, indent=2)
    assert dumps([]) == "[]" and dumps({}) == "{}" and dumps(None) == "null"


@pytest.mark.parametrize("doc", [1.5, (1, 2), {"f": Fraction(1, 2)}, {1: "int key"},
                                 [{"x": {"y"}}], {"b": b"bytes"}])
def test_dumps_refuses_any_other_type(doc):
    with pytest.raises(TypeError):
        dumps(doc)
