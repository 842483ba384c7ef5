"""Structured pass/fail results for verification checks."""

from __future__ import annotations

import time
from dataclasses import dataclass, field


@dataclass
class CheckReport:
    """Outcome of one verification; failures carry the offending residuals."""

    check: str
    algebra: str | None
    order: int
    failures: list = field(default_factory=list)
    seconds: float = 0.0
    details: dict = field(default_factory=dict)

    @property
    def passed(self):
        return not self.failures

    @property
    def status(self):
        return "pass" if self.passed else "fail"

    def add_failure(self, input_label, residual):
        self.failures.append({"input": str(input_label), "residual": str(residual)})

    def expect_zero(self, input_label, residual):
        """Record ``residual`` (by its repr) as a failure unless it is zero."""
        if not residual.is_zero():
            self.add_failure(input_label, repr(residual))

    def to_dict(self):
        d = {
            "check": self.check,
            "algebra": self.algebra,
            "order": self.order,
            "status": self.status,
            "failures": list(self.failures),
        }
        if self.seconds:
            d["seconds"] = round(self.seconds, 3)
        if self.details:
            d["details"] = self.details
        return d

    def __str__(self):
        tag = self.status.upper()
        alg = f" {self.algebra}" if self.algebra else ""
        t = f" ({self.seconds:.2f}s)" if self.seconds else ""
        line = f"{tag} {self.check}{alg} order={self.order}{t}"
        if self.failures:
            line += f" [{len(self.failures)} failure(s); first: {self.failures[0]['input']}]"
        return line


def timed_reports(*checks):
    """Run each check (a callable that returns one report) in turn; each
    report carries its own measured time."""
    out = []
    for check in checks:
        t0 = time.monotonic()
        report = check()
        report.seconds = time.monotonic() - t0
        out.append(report)
    return out
