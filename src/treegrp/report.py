"""Reports are plain classes: one serializer for every JSON report.

A report's JSON keys are its attribute names (its vars), except where the
class's ``KEYS`` maps an attribute to another key.  A report class that
defines ``passed`` also gets a ``"passed"`` key.  Values are made
JSON-ready recursively: a Fraction becomes {"num", "den"}, a tuple a list,
and a nested report its own document.
"""

from __future__ import annotations

from fractions import Fraction


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
