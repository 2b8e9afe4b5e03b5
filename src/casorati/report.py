"""Structured pass/fail reports.  ``check_report`` builds every report and
writes every witness: a check's inputs by witness key, each encoded by its
type, which ``identities.CHECKS`` decodes to replay the check."""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any

from .scalars import format_rational


@dataclass
class CheckReport:
    """Outcome of a single identity/pipeline check.

    ``passed`` is True iff both sides agreed as reduced exact objects (or
    within the stated tolerance for big-float pipelines).  ``witness`` holds
    the encoded inputs whenever the check failed or was inconclusive, enough
    to replay the outcome.  ``inconclusive`` flags sign-sample or
    truncation-sensitivity outcomes that are neither pass nor fail.
    """

    identity_id: str
    params: dict = field(default_factory=dict)
    lhs: str = ""
    rhs: str = ""
    passed: bool = True
    witness: dict | None = None
    inconclusive: bool = False
    note: str = ""

    def to_dict(self) -> dict[str, Any]:
        out: dict[str, Any] = {"identityId": self.identity_id, "params": self.params,
                               "lhs": self.lhs, "rhs": self.rhs, "pass": self.passed}
        if self.witness is not None:
            out["witness"] = self.witness
        if self.inconclusive:
            out["inconclusive"] = True
        if self.note:
            out["note"] = self.note
        return out


def encode(value):
    """A witness value: an element by its ``serialize()``, a Fraction as
    "p/q", a sequence as a list, inputs by key as an object without their
    None inputs, and ints and text as they are."""
    if isinstance(value, dict):
        return {key: encode(item) for key, item in value.items() if item is not None}
    if isinstance(value, (list, tuple)):
        return [encode(item) for item in value]
    return (value.serialize() if hasattr(value, "serialize")
            else format_rational(value) if isinstance(value, Fraction) else value)


def check_report(identity_id: str, passed: bool, lhs, rhs, params: dict, inputs: dict,
                 inconclusive=False, note="") -> CheckReport:
    """A check's report; its ``inputs`` by witness key are its witness when
    it failed or is inconclusive."""
    witness = ({"identityId": identity_id, "inputs": encode(inputs)}
               if not passed or inconclusive else None)
    return CheckReport(identity_id, params, str(lhs), str(rhs), passed, witness, inconclusive,
                       note)


def summarize(reports: list[CheckReport]) -> dict:
    passed = sum(1 for r in reports if r.passed)
    return {"total": len(reports), "passed": passed, "failed": len(reports) - passed,
            "inconclusive": sum(1 for r in reports if r.inconclusive)}


def sort_reports(reports: list[CheckReport]) -> list[CheckReport]:
    """Canonical thread-count-independent ordering."""
    return sorted(reports, key=lambda r: (r.identity_id, r.params.get("trial", -1)))
