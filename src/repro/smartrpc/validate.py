"""Session-state invariant checking (debugging and test support).

:func:`session_diagnostics` inspects the internal consistency of one
session's smart-RPC state — the data allocation table, the cache page
bookkeeping and the page protections must all agree — and reports
every violation as a structured
:class:`~repro.analysis.diagnostics.Diagnostic` (rules SRPC201-206).
It is pure inspection — no simulated time is charged and nothing is
modified — so tests (including the stateful property tests) can call
it after every operation.

The invariants, each traceable to the method's design:

1. every table row lies inside a cache page owned by this session,
   and that page lists it (SRPC201, SRPC202);
2. protection matches residency: a page with any non-resident entry is
   inaccessible (``NONE``); a complete clean page is read-only; a
   dirty page is fully resident (dirtiness is detected by a write
   fault, which can only follow a complete fill), read-write while
   written since the session's last activity crossing and read-only
   after it (SRPC203);
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

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.smartrpc.runtime import SmartRpcRuntime, SmartSessionState


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
            # Writable exactly while written since the last crossing.
            if page.stamp == state.epoch:
                want = Protection.READ_WRITE
            else:
                want = Protection.READ
            if protection is not want:
                collector.emit(
                    "SRPC203",
                    f"dirty page {number} stamped {page.stamp} at epoch "
                    f"{state.epoch} is {protection}, not {want}",
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

