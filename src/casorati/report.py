"""Structured pass/fail reports with replayable witnesses."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any


@dataclass
class CheckReport:
    """Outcome of a single identity/pipeline check.

    ``passed`` is True iff both sides agreed as reduced exact objects (or
    within the stated tolerance for big-float pipelines).  ``witness`` holds
    the serialized inputs whenever the check failed or was inconclusive,
    sufficient to replay the exact outcome.  ``inconclusive`` flags sign-sample or truncation
    -sensitivity outcomes that are neither pass nor fail.
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
        out: dict[str, Any] = {
            "identityId": self.identity_id,
            "params": self.params,
            "lhs": self.lhs,
            "rhs": self.rhs,
            "pass": self.passed,
        }
        if self.witness is not None:
            out["witness"] = self.witness
        if self.inconclusive:
            out["inconclusive"] = True
        if self.note:
            out["note"] = self.note
        return out


def summarize(reports: list[CheckReport]) -> dict:
    passed = sum(1 for r in reports if r.passed)
    return {"total": len(reports), "passed": passed, "failed": len(reports) - passed,
            "inconclusive": sum(1 for r in reports if r.inconclusive)}


def sort_reports(reports: list[CheckReport]) -> list[CheckReport]:
    """Canonical thread-count-independent ordering."""
    return sorted(reports, key=lambda r: (r.identity_id, r.params.get("trial", -1)))
