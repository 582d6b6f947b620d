"""Check/report containers shared by the verifiers and the CLI.

A report is a flat list of named checks.  Each check records the mathematical
law it tested, a pass/fail status, an exact-or-float residual rendered as a
string, and an optional witness (the failing triple, the central vector, ...).
"""

from __future__ import annotations

from typing import Optional

from .scalars import Frozen, _set


class Check(Frozen):
    __slots__ = ("name", "law", "ok", "residual", "witness")

    def __init__(self, name: str, law: str, ok: bool, residual: Optional[str] = None, witness: Optional[str] = None):
        _set(self, "name", name)
        _set(self, "law", law)
        _set(self, "ok", ok)
        _set(self, "residual", residual)
        _set(self, "witness", witness)

    def as_dict(self) -> dict:
        return {
            "check": self.name,
            "law": self.law,
            "status": "pass" if self.ok else "fail",
            "residual": self.residual,
            "witness": self.witness,
        }

    def render(self) -> str:
        head = "PASS" if self.ok else "FAIL"
        parts = [f"{head}  {self.name}  [{self.law}]"]
        if self.residual is not None:
            parts.append(f"residual={self.residual}")
        if self.witness is not None:
            parts.append(f"witness={self.witness}")
        return "  ".join(parts)


class Report:
    __slots__ = ("checks",)

    def __init__(self, checks: Optional[list] = None):
        self.checks = [] if checks is None else checks

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)

    @property
    def failures(self) -> list:
        return [c for c in self.checks if not c.ok]

    def add(self, name: str, law: str, ok: bool, residual=None, witness=None) -> None:
        self.checks.append(Check(name, law, ok, residual, witness))

    def extend(self, other: "Report") -> "Report":
        self.checks.extend(other.checks)
        return self

    def prefixed(self, prefix: str) -> "Report":
        return Report([Check(f"{prefix}:{c.name}", c.law, c.ok, c.residual, c.witness) for c in self.checks])

    def as_dict(self) -> dict:
        return {"ok": self.ok, "checks": [c.as_dict() for c in self.checks]}

    def render(self) -> str:
        return "\n".join(c.render() for c in self.checks)

    def raise_if_failed(self, exc_type=ValueError) -> "Report":
        if not self.ok:
            lines = "\n".join(c.render() for c in self.failures[:8])
            raise exc_type(f"verification failed:\n{lines}")
        return self
