"""Diagnostic records and the closed code set emitted by the checker."""

from __future__ import annotations

from .model import Span
from .records import record

__all__ = ["Diagnostic", "ERROR", "WARNING", "CODES"]

ERROR = "error"
WARNING = "warning"

# Closed set; every checker obligation maps to exactly one code.
CODES = {
    "E001": "unresolved name",
    "E002": "role not a participant",
    "E003": "sender does not know message",
    "E004": "dependency value unknown to creator",
    "E005": "read without universal knowledge",
    "E006": "non-exhaustive case",
    "E007": "rec/call/end not in tail position",
    "E008": "participants not overlapping",
    "E009": "unbound/duplicate message variable",
    "E010": "ill-kinded refinement",
    "E011": "self-send",
    "E012": "entry protocol not ground",
}


@record
class Diagnostic:
    code: str
    severity: str  # "error" | "warning"
    span: Span
    message: str
    related: Span | None = None

    def __post_init__(self) -> None:
        if self.code not in CODES:
            raise ValueError(f"unknown diagnostic code {self.code}")
        if self.severity not in (ERROR, WARNING):
            raise ValueError(f"unknown severity {self.severity}")

    def to_json(self, file: str) -> dict:
        out = {
            "code": self.code,
            "severity": self.severity,
            "file": file,
            "line": self.span.line,
            "col": self.span.col,
            "len": self.span.length,
            "message": self.message,
        }
        if self.related is not None:
            out["related"] = {"line": self.related.line, "col": self.related.col, "len": self.related.length}
        return out
