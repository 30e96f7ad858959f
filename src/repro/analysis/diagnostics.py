"""The shared diagnostic engine ("smartlint" core).

Every layer of the static analyzer — the IDL/type-graph rules, the
trace conformance checker, and the session invariant validator —
reports problems through one vocabulary: a :class:`Diagnostic` carries
a rule code (``SRPC0xx`` for interface analysis, ``SRPC1xx`` for trace
conformance, ``SRPC2xx`` for session invariants, ``SRPC3xx`` for
transfer-policy conformance, ``SRPC4xx`` for happens-before races
found by the coherency sanitizer), a severity, a message, and an
optional source location (``file:line:col``).

:class:`DiagnosticCollector` accumulates diagnostics with per-rule
suppression, and the renderers in :mod:`repro.analysis.render` turn
the collected list into text or JSON.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, Iterator, List, Mapping, Optional


class Severity(enum.Enum):
    """How bad a finding is; errors fail the lint."""

    ERROR = "error"
    WARNING = "warning"
    INFO = "info"

    @property
    def rank(self) -> int:
        """Sort key: errors first."""
        return {"error": 0, "warning": 1, "info": 2}[self.value]


@dataclass(frozen=True)
class SourceLocation:
    """Where a diagnostic points (1-based line/column)."""

    file: Optional[str] = None
    line: Optional[int] = None
    col: Optional[int] = None

    def __str__(self) -> str:
        parts = [self.file if self.file is not None else "<input>"]
        if self.line is not None:
            parts.append(str(self.line))
            if self.col is not None:
                parts.append(str(self.col))
        return ":".join(parts)


@dataclass(frozen=True)
class Rule:
    """One entry of the rule catalog."""

    code: str
    severity: Severity
    summary: str


_CATALOG: List[Rule] = [
    # -- IDL / type-graph rules (SRPC0xx) ---------------------------------
    Rule("SRPC001", Severity.ERROR,
         "interface file fails to parse (syntax or semantic IDL error)"),
    Rule("SRPC002", Severity.ERROR,
         "by-value struct embedding cycle: the type has infinite size"),
    Rule("SRPC003", Severity.WARNING,
         "struct is unreachable from every interface procedure"),
    Rule("SRPC004", Severity.ERROR,
         "signature cannot be swizzled: pointer target is unregistered "
         "or not a struct"),
    Rule("SRPC005", Severity.WARNING,
         "closure budget is below the root datum: eager shipping will "
         "always truncate"),
    Rule("SRPC006", Severity.WARNING,
         "struct layout wastes excessive alignment padding on one or "
         "more architecture profiles"),
    Rule("SRPC007", Severity.WARNING,
         "type is both embedded by value and targeted by pointers: "
         "interior pointers cannot be swizzled"),
    Rule("SRPC008", Severity.ERROR,
         "type id bound to conflicting definitions across interface "
         "files"),
    # -- trace conformance rules (SRPC1xx) --------------------------------
    Rule("SRPC100", Severity.ERROR,
         "trace log fails to parse (malformed JSON-lines record)"),
    Rule("SRPC101", Severity.ERROR,
         "cross-space activity transfer without the modified-data-set "
         "piggyback"),
    Rule("SRPC102", Severity.ERROR,
         "session ended owing dirty remote data to its home space but "
         "never wrote it back"),
    Rule("SRPC103", Severity.ERROR,
         "session ended without an invalidation multicast covering "
         "every participant"),
    Rule("SRPC104", Severity.ERROR,
         "write recorded on a cached page without a preceding write "
         "protection fault"),
    Rule("SRPC105", Severity.WARNING,
         "trace ends with a session still open (no session-end record)"),
    # -- session invariant rules (SRPC2xx) --------------------------------
    Rule("SRPC201", Severity.ERROR,
         "allocation table row lies outside the session's cache pages"),
    Rule("SRPC202", Severity.ERROR,
         "page entry list and table page index disagree"),
    Rule("SRPC203", Severity.ERROR,
         "page protection does not match residency/dirtiness"),
    Rule("SRPC204", Severity.ERROR,
         "placeholders overlap within one cache page"),
    Rule("SRPC205", Severity.ERROR,
         "cache page mixes home spaces"),
    Rule("SRPC206", Severity.ERROR,
         "relayed modified-data-set references dead or non-resident "
         "entries"),
    # -- transfer-policy conformance rules (SRPC3xx) ----------------------
    Rule("SRPC300", Severity.ERROR,
         "data-request budget contradicts the session's declared fixed "
         "closure budget"),
    Rule("SRPC301", Severity.ERROR,
         "session declared a zero closure budget (lazy) but shipped "
         "prefetched closure bytes"),
    Rule("SRPC302", Severity.ERROR,
         "session declared graphcopy marshalling (no data plane) but "
         "recorded data-plane requests"),
    Rule("SRPC310", Severity.ERROR,
         "data-batch event contradicts the fetch-pipeline discipline "
         "(uncovered fault, overlapping in-flight fetch, or absorb of "
         "an unissued fetch)"),
    # -- fault-tolerance conformance rules (SRPC32x) ----------------------
    Rule("SRPC320", Severity.ERROR,
         "session aborted at a space without reaping its orphaned "
         "state (pages and table entries leak)"),
    Rule("SRPC321", Severity.ERROR,
         "write-back commit at a space without a preceding staged "
         "prepare for the same session"),
    Rule("SRPC322", Severity.ERROR,
         "space kept using a session's data plane after reaping it "
         "(fault, write or data-batch activity after orphan-reaped)"),
    # -- happens-before race rules (SRPC4xx, the coherency sanitizer) -----
    Rule("SRPC400", Severity.ERROR,
         "data race: two writes in one session with concurrent vector "
         "clocks (no happens-before order)"),
    Rule("SRPC401", Severity.ERROR,
         "stale read: a page fault observed a version older than a "
         "happens-before-earlier write to the same page"),
    Rule("SRPC402", Severity.ERROR,
         "lost invalidation: the end-of-session invalidation is "
         "concurrent with data-plane activity at its target space"),
    Rule("SRPC403", Severity.ERROR,
         "use-after-invalidate: data-plane activity at a space "
         "causally after its session's invalidation"),
    Rule("SRPC404", Severity.ERROR,
         "lost update: a write is not happens-before any write-back "
         "commit or piggyback apply at the written datum's home space"),
    Rule("SRPC405", Severity.ERROR,
         "distributed deadlock: waits-for cycle of dangling exchanges "
         "(requests whose reply never appears)"),
]

RULES: Dict[str, Rule] = {rule.code: rule for rule in _CATALOG}


def rule(code: str) -> Rule:
    """Look up one rule by code."""
    try:
        return RULES[code]
    except KeyError:
        raise KeyError(f"unknown rule code {code!r}") from None


@dataclass(frozen=True)
class Diagnostic:
    """One finding, ready for rendering."""

    code: str
    severity: Severity
    message: str
    location: Optional[SourceLocation] = None
    hint: Optional[str] = None
    data: Mapping[str, Any] = field(default_factory=dict)

    @property
    def is_error(self) -> bool:
        """Whether this finding alone should fail the lint."""
        return self.severity is Severity.ERROR

    def render(self) -> str:
        """One-line ``file:line:col: severity SRPCnnn: message`` form."""
        where = str(self.location) if self.location is not None else "<input>"
        text = f"{where}: {self.severity.value} {self.code}: {self.message}"
        if self.hint:
            text += f"\n    hint: {self.hint}"
        return text

    def sort_key(self):
        """Stable ordering: file, position, severity, code."""
        loc = self.location or SourceLocation()
        return (
            loc.file or "",
            loc.line if loc.line is not None else -1,
            loc.col if loc.col is not None else -1,
            self.severity.rank,
            self.code,
            self.message,
        )


class DiagnosticCollector:
    """Accumulates diagnostics, applying per-rule suppression.

    ``suppress`` is a set of rule codes that are silently dropped —
    the CLI's ``--suppress`` flag and per-file ``// smartlint:
    disable=...`` directives both feed it.
    """

    def __init__(self, suppress: Optional[Iterable[str]] = None) -> None:
        self.suppress = set(suppress or ())
        self.diagnostics: List[Diagnostic] = []

    def emit(
        self,
        code: str,
        message: str,
        location: Optional[SourceLocation] = None,
        hint: Optional[str] = None,
        severity: Optional[Severity] = None,
        **data: Any,
    ) -> Optional[Diagnostic]:
        """Record one finding under a catalogued rule code.

        The severity defaults to the catalog's; returns the recorded
        diagnostic, or ``None`` when the rule is suppressed.
        """
        catalogued = rule(code)
        if code in self.suppress:
            return None
        diagnostic = Diagnostic(
            code=code,
            severity=severity if severity is not None else catalogued.severity,
            message=message,
            location=location,
            hint=hint,
            data=data,
        )
        self.diagnostics.append(diagnostic)
        return diagnostic

    def extend(self, diagnostics: Iterable[Diagnostic]) -> None:
        """Merge already-built diagnostics, still honouring suppression."""
        for diagnostic in diagnostics:
            if diagnostic.code not in self.suppress:
                self.diagnostics.append(diagnostic)

    def __iter__(self) -> Iterator[Diagnostic]:
        return iter(self.diagnostics)

    def __len__(self) -> int:
        return len(self.diagnostics)

    @property
    def errors(self) -> List[Diagnostic]:
        """The error-severity subset."""
        return [d for d in self.diagnostics if d.is_error]

    @property
    def has_errors(self) -> bool:
        """Whether any error-severity diagnostic was collected."""
        return any(d.is_error for d in self.diagnostics)

    def counts(self) -> Dict[str, int]:
        """``{"error": n, "warning": n, "info": n}``."""
        totals = {severity.value: 0 for severity in Severity}
        for diagnostic in self.diagnostics:
            totals[diagnostic.severity.value] += 1
        return totals

    def sorted(self) -> List[Diagnostic]:
        """Diagnostics in stable render order."""
        return sorted(self.diagnostics, key=Diagnostic.sort_key)
