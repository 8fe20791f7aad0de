"""Verification reports: named checks with deterministic witnesses."""

from __future__ import annotations

import json
from typing import Any, Callable, Optional, Sequence

from .records import Record


class Check(Record):
    name: str
    passed: bool
    witness: Optional[tuple] = None

    def to_json(self) -> dict:
        d: dict[str, Any] = {"name": self.name, "pass": self.passed}
        if not self.passed:
            d["witness"] = list(self.witness) if self.witness is not None else None
        return d

    def __str__(self) -> str:
        """The check's name and its witness as the report's JSON writes it."""
        return f"{self.name} at {json.dumps(self.witness)}"


class VerificationReport:
    """Outcome of one verifier run.

    `witness` is present iff the check failed, and is the lexicographically
    first failing tuple for the sweep that produced it.  Reports carry no
    timings, so identical inputs serialize byte-identically.
    """

    def __init__(self, subject: str, checks: Optional[list[Check]] = None):
        self.subject = subject
        self.checks: list[Check] = [] if checks is None else checks
        self.input_digest: Optional[str] = None
        self.stats: Optional[dict] = None

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def add(self, name: str, passed: bool, witness: Optional[tuple] = None) -> None:
        self.checks.append(Check(name, passed, None if passed else witness))

    def first_failure(self) -> Optional[Check]:
        for c in self.checks:
            if not c.passed:
                return c
        return None

    def to_json(self) -> dict:
        body: dict[str, Any] = {
            "subject": self.subject,
            "pass": self.passed,
            "checks": [c.to_json() for c in self.checks],
        }
        if self.stats is not None:
            body["stats"] = self.stats
        if self.input_digest is not None:
            body["inputDigest"] = self.input_digest
        return body

    def render(self, pretty: bool = False) -> str:
        if not pretty:
            return json.dumps(self.to_json(), sort_keys=True, separators=(",", ":"))
        lines = [f"{self.subject}: {'PASS' if self.passed else 'FAIL'}"]
        for c in self.checks:
            mark = "ok  " if c.passed else "FAIL"
            extra = "" if c.passed else f"  witness={c.witness}"
            lines.append(f"  [{mark}] {c.name}{extra}")
        return "\n".join(lines)


def run_checks(report: VerificationReport,
               named: Sequence[tuple[str, Callable[[], Optional[tuple]]]]) -> VerificationReport:
    """Run (name, callable) checks in order; a callable returns a witness or None."""
    for name, fn in named:
        witness = fn()
        report.add(name, witness is None, witness)
    return report
