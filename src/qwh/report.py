"""Structured pass/fail reports for the verification suites."""

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
    time: float = 0.0

    @staticmethod
    def all_zero(label: str, polys, order) -> "CheckItem":
        """Passes when every polynomial is zero; otherwise the first nonzero
        one, rendered in `order`, is the residual.  `polys` is read only up
        to that one."""
        witness = next((p for p in polys if not p.is_zero()), None)
        if witness is None:
            return CheckItem(label, True)
        return CheckItem(label, False, residual=witness.render(order))

    @property
    def status(self) -> str:
        return PASS if self.passed else FAIL

    def to_dict(self) -> dict:
        d = {"label": self.label, "status": self.status}
        if self.residual is not None:
            d["residual"] = self.residual
        d["time"] = self.time
        return d

    @staticmethod
    def from_dict(d: dict) -> "CheckItem":
        return CheckItem(
            label=d["label"],
            passed=d["status"] == PASS,
            residual=d.get("residual"),
            time=d.get("time", 0.0),
        )


@dataclass
class CheckReport:
    suite: str
    status: str
    items: List[CheckItem] = field(default_factory=list)
    params: Dict[str, str] = field(default_factory=dict)
    version: str = TOOLKIT_VERSION
    message: Optional[str] = None

    @staticmethod
    def from_items(suite: str, items: List[CheckItem], params=None) -> "CheckReport":
        status = PASS if all(i.passed for i in items) else FAIL
        return CheckReport(suite, status, items, dict(params or {}))

    @staticmethod
    def error(suite: str, message: str) -> "CheckReport":
        return CheckReport(suite, ERROR, [], message=message)

    @property
    def ok(self) -> bool:
        return self.status == PASS

    @property
    def failures(self) -> List[CheckItem]:
        return [i for i in self.items if not i.passed]

    def to_dict(self) -> dict:
        d = {
            "suite": self.suite,
            "status": self.status,
            "version": self.version,
            "params": dict(self.params),
            "items": [i.to_dict() for i in self.items],
        }
        if self.message is not None:
            d["message"] = self.message
        return d

    @staticmethod
    def from_dict(d: dict) -> "CheckReport":
        return CheckReport(
            suite=d["suite"],
            status=d["status"],
            items=[CheckItem.from_dict(i) for i in d["items"]],
            params=dict(d.get("params", {})),
            version=d.get("version", TOOLKIT_VERSION),
            message=d.get("message"),
        )

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
