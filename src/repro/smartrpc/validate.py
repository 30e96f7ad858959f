"""Session-state invariant checking (debugging and test support).

:func:`session_diagnostics` inspects the internal consistency of one
session's smart-RPC state — the data allocation table, the cache page
bookkeeping and the page protections must all agree — and reports
every violation as a structured
:class:`~repro.analysis.diagnostics.Diagnostic` (rules SRPC201-206).
It is pure inspection — no simulated time is charged and nothing is
modified — so tests (including the stateful property tests) can call
it after every operation.

:func:`validate_session` keeps the historical raising contract: it
runs all the checks and raises :class:`InvariantViolation` (carrying
the full diagnostic list) if anything failed.

The invariants, each traceable to the method's design:

1. every table row lies inside a cache page owned by this session,
   and that page lists it (SRPC201, SRPC202);
2. protection matches residency: a page with any non-resident entry is
   inaccessible (``NONE``); a complete clean page is read-only; a
   dirty page is read-write and fully resident (dirtiness is detected
   by a write fault, which can only follow a complete fill) (SRPC203);
3. placeholders on one page never overlap (SRPC204);
4. all entries on a page share one home space (SRPC205) — every
   placeholder strategy keeps the paper's single-home heuristic;
5. the relayed modified-data-set only references live, resident
   entries (SRPC206).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional

from repro.analysis.diagnostics import Diagnostic, DiagnosticCollector
from repro.memory.page import Protection
from repro.smartrpc.errors import SmartRpcError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.smartrpc.runtime import SmartRpcRuntime, SmartSessionState


class InvariantViolation(SmartRpcError):
    """An internal-consistency invariant does not hold.

    ``diagnostics`` holds every violation found (not just the first).
    """

    def __init__(
        self,
        message: str,
        diagnostics: Optional[List[Diagnostic]] = None,
    ) -> None:
        super().__init__(message)
        self.diagnostics: List[Diagnostic] = list(diagnostics or ())


def session_diagnostics(
    runtime: "SmartRpcRuntime",
    state: "SmartSessionState",
    collector: Optional[DiagnosticCollector] = None,
) -> List[Diagnostic]:
    """Check every invariant, collecting all violations.

    Returns the diagnostics found in this call (also appended to
    ``collector`` when one is given).  An empty list means the session
    state is internally consistent.
    """
    if collector is None:
        collector = DiagnosticCollector()
    before = len(collector)
    cache = state.cache
    table = cache.table
    space = runtime.space

    # 1: rows within owned pages.
    for entry in table:
        first = entry.local_address // space.page_size
        last = (entry.end - 1) // space.page_size
        for number in range(first, last + 1):
            if not cache.owns_page(number):
                collector.emit(
                    "SRPC201",
                    f"{entry.pointer!r} placed on page {number} which "
                    "the session does not own",
                    session=state.session_id,
                    page=number,
                )
            elif entry not in cache.page_state(number):
                collector.emit(
                    "SRPC202",
                    f"page {number} does not list {entry.pointer!r}",
                    session=state.session_id,
                    page=number,
                )

    # 2: protection matches residency and dirtiness.
    for number, page in cache.pages.items():
        protection = space.protection_of(number)
        if page.dirty:
            if protection is not Protection.READ_WRITE:
                collector.emit(
                    "SRPC203",
                    f"dirty page {number} is {protection}, not "
                    "READ_WRITE",
                    session=state.session_id,
                    page=number,
                )
            if not page.complete:
                collector.emit(
                    "SRPC203",
                    f"dirty page {number} has non-resident entries",
                    session=state.session_id,
                    page=number,
                )
        elif page and page.complete:
            if protection is Protection.NONE and not page.closed:
                collector.emit(
                    "SRPC203",
                    f"complete open page {number} still inaccessible",
                    session=state.session_id,
                    page=number,
                )
        elif not page.complete:
            if protection is not Protection.NONE:
                collector.emit(
                    "SRPC203",
                    f"incomplete page {number} is {protection}, "
                    "not NONE",
                    session=state.session_id,
                    page=number,
                )

    # 3: no overlap within a page.
    for number in table.pages():
        spans = sorted(
            (entry.local_address, entry.end)
            for entry in table.entries_on_page(number)
        )
        for (s1, e1), (s2, e2) in zip(spans, spans[1:]):
            if e1 > s2:
                collector.emit(
                    "SRPC204",
                    f"overlapping placeholders on page {number}",
                    session=state.session_id,
                    page=number,
                )

    # 4: pages are single-home.
    for number in table.pages():
        homes = {
            entry.pointer.space_id
            for entry in table.entries_on_page(number)
        }
        if len(homes) > 1:
            collector.emit(
                "SRPC205",
                f"page {number} mixes home spaces {sorted(homes)}",
                session=state.session_id,
                page=number,
            )

    # 5: relayed dirty entries are live and resident.
    for entry in state.relayed_dirty:
        if table.entry_for(entry.pointer) is not entry:
            collector.emit(
                "SRPC206",
                f"relayed dirty set references dead {entry.pointer!r}",
                session=state.session_id,
            )
        elif not entry.resident:
            collector.emit(
                "SRPC206",
                f"relayed dirty set references non-resident "
                f"{entry.pointer!r}",
                session=state.session_id,
            )

    return collector.diagnostics[before:]


def validate_session(
    runtime: "SmartRpcRuntime", state: "SmartSessionState"
) -> List[str]:
    """Check every invariant; returns the list of checks performed.

    Raises :class:`InvariantViolation` carrying all collected
    diagnostics when any invariant fails.
    """
    diagnostics = session_diagnostics(runtime, state)
    checks = [
        "rows-within-owned-pages",
        "protection-matches-residency",
        "no-placeholder-overlap",
        "single-home-pages",
        "relayed-dirty-live",
    ]
    if diagnostics:
        summary = "; ".join(
            f"{d.code}: {d.message}" for d in diagnostics
        )
        raise InvariantViolation(
            f"{len(diagnostics)} invariant violation(s): {summary}",
            diagnostics,
        )
    return checks
