"""Reports are their dataclasses: one serializer for every JSON report.

A report's JSON keys are its field names, except where a field names
another key with ``field(metadata={"key": ...})``.  A report class that
defines ``passed`` also gets a ``"passed"`` key.  Values are made
JSON-ready recursively: a Fraction becomes {"num", "den"}, a tuple a list,
and a nested report its own document.
"""

from __future__ import annotations

from dataclasses import fields
from fractions import Fraction
from functools import cache


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


@cache
def _keys(cls) -> tuple[tuple[str, str], ...]:
    """(attribute, JSON key) for each field of a report class."""
    return tuple((f.name, f.metadata.get("key", f.name)) for f in fields(cls))


class Report:
    """Base of the dataclass reports; a subclass declares only its fields."""

    def to_dict(self) -> dict:
        doc = {key: _plain(getattr(self, name)) for name, key in _keys(type(self))}
        if hasattr(type(self), "passed"):
            doc["passed"] = self.passed
        return doc
