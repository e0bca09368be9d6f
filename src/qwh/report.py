"""Structured pass/fail reports for the verification suites.  The CLI writes
their dict form; nothing reads it back."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

TOOLKIT_VERSION = "0.1.0"

PASS = "PASS"
FAIL = "FAIL"
ERROR = "ERROR"


@dataclass
class CheckItem:
    label: str
    passed: bool
    residual: Optional[str] = None

    @staticmethod
    def all_zero(label: str, polys) -> "CheckItem":
        """Passes when every polynomial is zero; otherwise the first nonzero
        one is the residual.  `polys` is read only up to that one."""
        witness = next((p for p in polys if not p.is_zero()), None)
        if witness is None:
            return CheckItem(label, True)
        return CheckItem(label, False, residual=witness.render())

    @property
    def status(self) -> str:
        return PASS if self.passed else FAIL

    def to_dict(self) -> dict:
        d = {"label": self.label, "status": self.status, "time": 0.0}
        if self.residual is not None:
            d["residual"] = self.residual
        return d


@dataclass
class CheckReport:
    suite: str
    status: str
    items: List[CheckItem] = field(default_factory=list)
    #: set by `cli.run_suite` after the suite has run, never by a constructor
    params: Dict[str, str] = field(default_factory=dict, init=False)
    message: Optional[str] = None

    @staticmethod
    def from_items(suite: str, items: List[CheckItem]) -> "CheckReport":
        status = PASS if all(i.passed for i in items) else FAIL
        return CheckReport(suite, status, items)

    @staticmethod
    def error(suite: str, message: str) -> "CheckReport":
        return CheckReport(suite, ERROR, [], message=message)

    @property
    def ok(self) -> bool:
        return self.status == PASS

    def to_dict(self) -> dict:
        d = {
            "suite": self.suite,
            "status": self.status,
            "version": TOOLKIT_VERSION,
            "params": dict(self.params),
            "items": [i.to_dict() for i in self.items],
        }
        if self.message is not None:
            d["message"] = self.message
        return d

    def render_text(self) -> str:
        lines = [f"suite {self.suite}: {self.status}"]
        if self.params:
            binds = ", ".join(f"{k}={v}" for k, v in sorted(self.params.items()))
            lines.append(f"  params: {binds}")
        if self.message:
            lines.append(f"  {self.message}")
        for i in self.items:
            lines.append(f"  [{i.status}] {i.label}")
            if i.residual is not None:
                lines.append(f"         residual: {i.residual}")
        return "\n".join(lines)
