"""Static analysis for smart RPC ("smartlint").

Four layers over one diagnostic engine:

* :mod:`repro.analysis.idl_rules` — IDL/type-graph rules (``SRPC0xx``)
  over parsed interface definitions;
* :mod:`repro.analysis.trace_rules` — offline conformance checking of
  recorded coherency-protocol traces (``SRPC1xx``);
* :mod:`repro.smartrpc.validate` — live session-state invariants
  reported through the same vocabulary (``SRPC2xx``);
* :mod:`repro.analysis.sanitizer` — the coherency sanitizer: vector
  clock happens-before race detection over protocol traces
  (``SRPC4xx``), run over the same parse as the conformance rules by
  :func:`repro.analysis.trace_rules.analyze_trace_file`.

The CLI front end is ``python -m repro.analysis``; see
:mod:`repro.analysis.cli`.
"""

from repro.analysis.diagnostics import (
    Diagnostic,
    DiagnosticCollector,
    Rule,
    RULES,
    Severity,
    SourceLocation,
    rule,
)
from repro.analysis.render import render_json, render_text

__all__ = [
    "Diagnostic",
    "DiagnosticCollector",
    "Rule",
    "RULES",
    "Severity",
    "SourceLocation",
    "render_json",
    "render_text",
    "rule",
]
