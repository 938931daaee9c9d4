"""Diagnostic codes, severities, and source spans shared by the frontend and validator.

The rule catalogue is closed: every diagnostic the toolkit can emit carries one of
the codes below. Codes are stable strings suitable for filtering in scripts.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum


class Severity(Enum):
    ERROR = "error"
    WARNING = "warning"


@dataclass(frozen=True, slots=True)
class SourceSpan:
    """Half-open byte range [start, end) in a named source, with 1-based line/column."""

    file: str
    start: int
    end: int
    line: int
    column: int

    def __post_init__(self) -> None:
        if self.start < 0 or self.end < self.start:
            raise ValueError(f"invalid span offsets: {self.start}..{self.end}")
        if self.line < 1 or self.column < 1:
            raise ValueError("line and column are 1-based")

    def __str__(self) -> str:
        return f"{self.file}:{self.line}:{self.column}"


@dataclass(frozen=True, slots=True)
class Diagnostic:
    """A finding; KeyError unless its code is in the catalogue, whose entry
    gives its severity."""

    code: str
    message: str
    span: SourceSpan | None = None
    subject: str | None = None  # entity id the finding is about, when known

    def __post_init__(self) -> None:
        if self.code not in RULES:
            raise KeyError(f"unknown diagnostic code {self.code!r}")

    @property
    def severity(self) -> Severity:
        return RULES[self.code].severity

    @property
    def is_error(self) -> bool:
        return self.severity is Severity.ERROR

    def render(self) -> str:
        where = f"{self.span}: " if self.span is not None else ""
        who = f" [{self.subject}]" if self.subject else ""
        return f"{where}{self.severity.value} {self.code}: {self.message}{who}"


@dataclass(frozen=True, slots=True)
class RuleInfo:
    code: str
    severity: Severity
    description: str


CATALOGUE: tuple[RuleInfo, ...] = (
    RuleInfo("P1", Severity.ERROR, "lexical error: character or literal cannot be tokenized"),
    RuleInfo("P2", Severity.ERROR, "syntax error: token sequence does not match the grammar"),
    RuleInfo("P3", Severity.ERROR, "duplicate id: name already declared in this scope"),
    RuleInfo("P4", Severity.ERROR, "unresolved reference: path or name does not resolve"),
    RuleInfo("P5", Severity.ERROR, "invalid value: literal out of its permitted range"),
    RuleInfo("F1", Severity.ERROR, "illegal flow adjacency within a machine"),
    RuleInfo("F2", Severity.ERROR, "cross-machine flow that does not pass between transfer ports"),
    RuleInfo("T1", Severity.WARNING, "trigger stays inside a single flow series of one machine"),
    RuleInfo("M1", Severity.WARNING, "machine has stages but no entry (no create, no inbound transfer/receive)"),
    RuleInfo("M2", Severity.WARNING, "release stage with no outgoing flow to a transfer"),
    RuleInfo("R1", Severity.ERROR, "region is empty"),
    RuleInfo("R2", Severity.WARNING, "region is not weakly connected"),
    RuleInfo("R3", Severity.ERROR, "region splits an atomic transfer->receive move"),
    RuleInfo("B1", Severity.ERROR, "behavior graph is structurally invalid"),
)

RULES: dict[str, RuleInfo] = {info.code: info for info in CATALOGUE}


def has_errors(diagnostics: list[Diagnostic] | tuple[Diagnostic, ...]) -> bool:
    return any(d.is_error for d in diagnostics)
