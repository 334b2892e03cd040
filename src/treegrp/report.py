"""Reports are plain classes: one serializer for every JSON report.

A report's JSON keys are its attribute names (its vars), except where the
class's ``KEYS`` maps an attribute to another key.  A report class that
defines ``passed`` also gets a ``"passed"`` key.  Values are made
JSON-ready recursively: a Fraction becomes {"num", "den"}, a tuple a list,
and a nested report its own document.

dumps writes a document as json.dumps(doc, sort_keys=True, indent=2)
does, byte for byte, without json's pure-Python encoder, which any
indent selects.
"""

from __future__ import annotations

from fractions import Fraction
from json.encoder import encode_basestring_ascii as _quote


def _plain(value):
    # Fraction is tested last: isinstance against it goes through ABCMeta.
    if value is None or isinstance(value, (str, int)):
        return value
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    if isinstance(value, dict):
        return {k: _plain(v) for k, v in value.items()}
    if isinstance(value, Report):
        return value.to_dict()
    if isinstance(value, Fraction):
        return {"num": value.numerator, "den": value.denominator}
    return value


class Report:
    """Base of the reports; a subclass sets its attributes in __init__."""

    #: JSON key of each attribute whose key is not its name.
    KEYS: dict[str, str] = {}

    def to_dict(self) -> dict:
        keys = self.KEYS
        doc = {keys.get(name, name): _plain(value) for name, value in vars(self).items()}
        if hasattr(type(self), "passed"):
            doc["passed"] = self.passed
        return doc


def dumps(doc) -> str:
    """doc as json.dumps(doc, sort_keys=True, indent=2) writes it: keys
    sorted, strings and keys escaped to ASCII, ints, bools and null as json
    writes them, one list or dict item per line.  A value or key of any
    other type, a subclass of these included, raises TypeError."""
    out: list[str] = []
    _write(doc, "\n", out)
    return "".join(out)


def _write(value, newline: str, out: list[str]) -> None:
    # newline is the line break and indent of value's own line.  Exact
    # types, most frequent first, are what makes this faster than json's.
    kind = type(value)
    if kind is str:
        out.append(_quote(value))
    elif kind is int:
        out.append(int.__repr__(value))
    elif kind is dict:
        if not value:
            out.append("{}")
            return
        inner = newline + "  "
        sep = "{" + inner
        for key in sorted(value):
            if type(key) is not str:
                raise TypeError(f"keys must be str, not {type(key).__name__}")
            out.append(sep + _quote(key) + ": ")
            _write(value[key], inner, out)
            sep = "," + inner
        out.append(newline + "}")
    elif kind is list:
        if not value:
            out.append("[]")
            return
        inner = newline + "  "
        sep = "[" + inner
        for item in value:
            out.append(sep)
            _write(item, inner, out)
            sep = "," + inner
        out.append(newline + "]")
    elif value is None:
        out.append("null")
    elif kind is bool:
        out.append("true" if value else "false")
    else:
        raise TypeError(f"{kind.__name__} is not JSON serializable")
