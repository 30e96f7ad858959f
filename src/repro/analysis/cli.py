"""The smartlint command line.

Run as ``python -m repro.analysis``::

    python -m repro.analysis examples/interfaces/inventory.x
    python -m repro.analysis merged.jsonl --json
    python -m repro.analysis --self-check

Positional arguments are files to lint.  ``.x`` files go through the
IDL/type-graph rules (``SRPC0xx``, linted together so cross-file type
conflicts surface as ``SRPC008``); everything else is treated as a
JSON-lines trace log, parsed once and checked by both trace rule
families: the conformance rules (``SRPC1xx``/``SRPC3xx``) and the
coherency sanitizer, which rebuilds the happens-before order from the
events' vector-clock stamps and reports races (``SRPC4xx``).  See
:func:`repro.analysis.trace_rules.analyze_trace_file`.  Directories are
scanned recursively for ``.x``, ``.trace`` and ``.jsonl`` files.

Options:

``--json``
    Emit the machine-readable report instead of text.
``--suppress CODES``
    Comma-separated rule codes to drop (repeatable).  Files can also
    carry ``// smartlint: disable=CODE`` directives.
``--closure-size N``
    Budget for the SRPC005 closure check (default 8192, the runtime's).
``--self-check``
    Lint the repository's own shipped interfaces and recorded good
    traces (:data:`SELF_CHECK_PATHS`); fails if anything is reported
    at all.

Exit status: 0 when clean, 1 when anything was reported at error or
warning severity (suppress rules you accept), 2 on usage errors (bad
flags, missing files).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import List, Optional, Sequence, Tuple

from repro.analysis import idl_rules, trace_rules
from repro.analysis.diagnostics import DiagnosticCollector
from repro.analysis.render import render_json, render_text

#: Directories --self-check lints, relative to the repository root.
SELF_CHECK_PATHS = (
    "examples/interfaces",
    "tests/analysis/fixtures/traces/ok",
    "tests/analysis/fixtures/races/ok",
)

_TRACE_SUFFIXES = (".trace", ".jsonl")


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point; returns the process exit status."""
    parser = _build_parser()
    options = parser.parse_args(argv)
    suppress = _gather_suppressions(options.suppress)

    missing: List[str] = []
    if options.self_check:
        if options.paths:
            parser.error("--self-check takes no positional paths")
        targets, missing = _self_check_targets(Path(options.root))
        if not targets:
            print(
                "error: --self-check found none of: "
                + ", ".join(SELF_CHECK_PATHS),
                file=sys.stderr,
            )
            return 2
    elif options.paths:
        targets = options.paths
    else:
        parser.error("no files to lint (or use --self-check)")

    try:
        idl_paths, trace_paths = _partition(targets)
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    collector = DiagnosticCollector(suppress=suppress)
    idl_rules.analyze_files(
        idl_paths, collector, closure_size=options.closure_size
    )
    for path in trace_paths:
        trace_rules.analyze_trace_file(path, collector)

    if options.self_check and not options.json:
        checked = len(idl_paths) + len(trace_paths)
        print(f"self-check: {checked} file(s) linted")
        for relative in missing:
            print(f"self-check: skipped missing {relative}")
    print(render_json(collector) if options.json else render_text(collector))
    if options.self_check:
        # Self-check demands a spotless repo: any diagnostic at all fails.
        return 1 if len(collector) else 0
    return _exit_status(collector)


def _self_check_targets(root: Path) -> Tuple[List[str], List[str]]:
    """(existing, missing) self-check paths under ``root``."""
    targets: List[str] = []
    missing: List[str] = []
    for relative in SELF_CHECK_PATHS:
        candidate = root / relative
        if candidate.exists():
            targets.append(str(candidate))
        else:
            missing.append(relative)
    return targets, missing


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description="Static analysis for smart-RPC interfaces and "
        "trace logs (smartlint).",
    )
    parser.add_argument(
        "paths",
        nargs="*",
        help=".x interface files, trace logs, or directories",
    )
    parser.add_argument(
        "--json",
        action="store_true",
        help="emit the JSON report instead of text",
    )
    parser.add_argument(
        "--suppress",
        action="append",
        default=[],
        metavar="CODES",
        help="comma-separated rule codes to drop (repeatable)",
    )
    parser.add_argument(
        "--closure-size",
        type=int,
        default=idl_rules.DEFAULT_CLOSURE_SIZE,
        metavar="BYTES",
        help="closure budget for the SRPC005 check "
        f"(default {idl_rules.DEFAULT_CLOSURE_SIZE})",
    )
    parser.add_argument(
        "--self-check",
        action="store_true",
        help="lint the repository's shipped interfaces and recorded "
        "good traces; any finding fails",
    )
    parser.add_argument(
        "--root",
        default=".",
        metavar="DIR",
        help="repository root for --self-check (default: cwd)",
    )
    return parser


def _gather_suppressions(values: Sequence[str]) -> List[str]:
    codes: List[str] = []
    for value in values:
        codes.extend(
            code.strip() for code in value.split(",") if code.strip()
        )
    return codes


def _partition(paths: Sequence[str]) -> Tuple[List[Path], List[Path]]:
    """Split inputs into (idl files, trace files), expanding dirs."""
    idl_paths: List[Path] = []
    trace_paths: List[Path] = []
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            idl_paths.extend(sorted(path.rglob("*.x")))
            for suffix in _TRACE_SUFFIXES:
                trace_paths.extend(sorted(path.rglob(f"*{suffix}")))
            continue
        if not path.exists():
            raise FileNotFoundError(f"no such file: {path}")
        if path.suffix == ".x":
            idl_paths.append(path)
        else:
            trace_paths.append(path)
    return idl_paths, trace_paths


def _exit_status(collector: DiagnosticCollector) -> int:
    """Lint-gate policy: any error or warning fails (info does not)."""
    failing = ("error", "warning")
    if any(d.severity.value in failing for d in collector):
        return 1
    return 0
