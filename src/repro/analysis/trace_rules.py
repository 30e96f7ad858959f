"""Trace conformance checker (SRPC1xx, SRPC30x–SRPC32x).

:func:`analyze_trace_file` is the one way a trace log is loaded and
checked: it parses the log once and runs these rules and the coherency
sanitizer's (SRPC4xx, :mod:`repro.analysis.sanitizer`) over it.

Replays a recorded simulation trace — a JSON-lines log written by
:func:`repro.simnet.tracefmt.save_trace` — and verifies the coherency
protocol's observable obligations (paper §3.4) offline:

* every cross-space activity transfer carries the modified data set
  piggyback (SRPC101);
* a session that ends holding dirty remote data writes it back to each
  home space (SRPC102);
* the end-of-session invalidation multicast covers every participant
  (SRPC103);
* no write lands on a cached page without a preceding write protection
  fault — the fault is what marks the page dirty, so a missing fault
  means silently lost modifications (SRPC104);
* every session that transferred activity also records its end
  (SRPC105, warning — the trace may simply be truncated).

A session that records a ``policy`` declaration additionally promises
how its data plane behaves, and each recorded ``policy-decision`` is
checked against the declaration:

* a fixed declared budget must match every data request's budget
  (SRPC300);
* a declared zero budget (the lazy policy) must ship no prefetched
  closure bytes — a "lazy" run that prefetches is mislabelled
  (SRPC301);
* graphcopy marshalling has no data plane at all, so any data request
  contradicts it (SRPC302);
* ``data-batch`` events (the fetch pipeline's issue/absorb records)
  must honour the pipeline discipline: every fault a batch claims to
  coalesce must appear as an earlier ``fault`` event, no page may be
  covered by two in-flight fetches at once, and an ``absorb`` must
  name a fetch that was actually issued (SRPC310).

Traces without policy declarations (conventional or pre-policy runs)
skip the SRPC3xx rules entirely.

Crash traces (the fault-tolerance layer, DESIGN.md §12) add three
obligations:

* a space that records a ``session-abort`` must also record the
  matching ``orphan-reaped`` — aborting without rolling back leaks
  protected pages and allocation-table entries (SRPC320);
* a ``writeback-phase`` commit at a space requires that same space's
  earlier prepare for the session — committing unstaged data is
  exactly the half-update the two-phase protocol exists to prevent
  (SRPC321);
* after a space reaps a session, no further ``fault`` / ``write`` /
  ``data-batch`` activity may appear at that space for it — reaping a
  live session would strand the program mid-access (SRPC322).

A session that aborted is excused from the clean-shutdown rules: its
``session-end`` obligations (SRPC102/SRPC103) and the open-session
warning (SRPC105) do not apply.

Diagnostics point at ``tracefile:line`` where the line number is the
offending record's position in the log.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.analysis import sanitizer
from repro.analysis.diagnostics import (
    DiagnosticCollector,
    SourceLocation,
)
from repro.simnet.stats import TraceEvent
from repro.simnet.tracefmt import TraceFormatError, load_trace

#: Categories the checker interprets; anything else passes through.
PROTOCOL_CATEGORIES = (
    "transfer",
    "fault",
    "write",
    "session-end",
    "write-back",
    "invalidate",
    "policy",
    "policy-decision",
    "data-batch",
    "session-abort",
    "orphan-reaped",
    "writeback-phase",
    "piggyback-apply",
)


def check_events(
    events: Sequence[TraceEvent],
    collector: DiagnosticCollector,
    filename: Optional[str] = None,
) -> None:
    """Run every trace conformance rule over an in-memory event list."""

    def loc(index: int) -> SourceLocation:
        return SourceLocation(file=filename, line=index + 1)

    write_faults = set()  # (space, session, page) seen as write faults
    fault_pages = set()  # (space, session, page) seen as any fault
    inflight = {}  # (space, session, fetch_id) -> set of covered pages
    first_transfer = {}  # session -> index of its first transfer
    ended = set()  # sessions with a session-end record
    prepared = set()  # (space, session) with a staged writeback-prepare
    reaped_so_far = set()  # (space, session) reaped, in event order

    # Policy declarations, gathered up front so a decision is checked
    # against its space's declaration regardless of record order.
    # The abort/reap sets are likewise gathered up front: within one
    # space the reap follows its abort, but merged multi-space crash
    # traces interleave spaces arbitrarily.
    declared = {}  # (space, session) -> the "policy" event data
    aborted_sessions = set()  # session ids with any session-abort
    reaped_anywhere = set()  # (space, session) with an orphan-reaped
    for event in events:
        data = event.data or {}
        if event.category == "policy":
            declared[(data.get("space"), data.get("session"))] = data
        elif event.category == "session-abort":
            aborted_sessions.add(data.get("session"))
        elif event.category == "orphan-reaped":
            reaped_anywhere.add((data.get("space"), data.get("session")))

    for index, event in enumerate(events):
        data = event.data or {}
        session = data.get("session")
        if event.category == "transfer":
            if session is not None and session not in first_transfer:
                first_transfer[session] = index
            piggyback = data.get("piggyback")
            # None marks a conventional-RPC trace: no piggyback is
            # expected, so the rule does not apply.
            if piggyback == 0:
                collector.emit(
                    "SRPC101",
                    f"{data.get('dir', 'transfer')} "
                    f"{data.get('src')}->{data.get('dst')} in session "
                    f"{session!r} carries no modified data set",
                    loc(index),
                    hint="the coherency protocol piggybacks the "
                    "modified data set on every call and reply "
                    "(paper §3.4)",
                    session=session,
                )
        elif event.category == "fault":
            _check_liveness(
                "fault", data, reaped_so_far, collector, loc(index)
            )
            fault_pages.add((data.get("space"), session, data.get("page")))
            if data.get("kind") == "write":
                write_faults.add(
                    (data.get("space"), session, data.get("page"))
                )
        elif event.category == "data-batch":
            _check_liveness(
                "data-batch", data, reaped_so_far, collector, loc(index)
            )
            _check_data_batch(
                data, fault_pages, inflight, collector, loc(index)
            )
        elif event.category == "write":
            _check_liveness(
                "write", data, reaped_so_far, collector, loc(index)
            )
            key = (data.get("space"), session, data.get("page"))
            if key not in write_faults:
                collector.emit(
                    "SRPC104",
                    f"space {data.get('space')!r} wrote cache page "
                    f"{data.get('page')} of session {session!r} "
                    "without a preceding write protection fault",
                    loc(index),
                    hint="clean cached pages must be write-protected "
                    "so the first store faults and marks the page "
                    "dirty",
                    session=session,
                    page=data.get("page"),
                )
        elif event.category == "session-end":
            ended.add(session)
            if session not in aborted_sessions:
                # An aborted session's clean-shutdown obligations are
                # waived: the rollback happened via abort/reap instead.
                _check_session_end(
                    events, index, data, collector, loc(index)
                )
        elif event.category == "session-abort":
            ended.add(session)
            space = data.get("space")
            if (space, session) not in reaped_anywhere:
                collector.emit(
                    "SRPC320",
                    f"space {space!r} aborted session {session!r} "
                    f"({data.get('reason', 'unknown reason')}) but "
                    "never reaped its orphaned state",
                    loc(index),
                    hint="an abort must roll the session back: unmap "
                    "its protected pages, free its allocation-table "
                    "entries and discard its staged write-back",
                    session=session,
                    space=space,
                )
        elif event.category == "orphan-reaped":
            reaped_so_far.add((data.get("space"), session))
        elif event.category == "writeback-phase":
            space = data.get("space")
            phase = data.get("phase")
            if phase == "prepare":
                prepared.add((space, session))
            elif phase == "commit" and (space, session) not in prepared:
                collector.emit(
                    "SRPC321",
                    f"space {space!r} committed a write-back for "
                    f"session {session!r} without a staged prepare",
                    loc(index),
                    hint="the two-phase write-back applies only "
                    "batches every dirty home acknowledged staging; "
                    "a commit without its prepare is exactly the "
                    "half-update the protocol exists to prevent",
                    session=session,
                    space=space,
                )
        elif event.category == "policy-decision":
            declaration = declared.get((data.get("space"), session))
            if declaration is None:
                # Undeclared (conventional or pre-policy) trace: the
                # policy rules make no promise to check.
                continue
            _check_policy_decision(
                declaration, data, collector, loc(index)
            )

    for session, index in sorted(
        first_transfer.items(), key=lambda item: item[1]
    ):
        if session not in ended:
            # ``ended`` counts aborts too: a session torn down by the
            # fault-tolerance layer did not merely trail off.
            collector.emit(
                "SRPC105",
                f"session {session!r} transferred activity but never "
                "recorded its end",
                loc(index),
                hint="close the session so write-back and the "
                "invalidation multicast run (or the trace was "
                "truncated)",
                session=session,
            )


def _check_session_end(
    events: Sequence[TraceEvent],
    index: int,
    data: dict,
    collector: DiagnosticCollector,
    location: SourceLocation,
) -> None:
    """SRPC102/SRPC103: obligations that follow a session-end record."""
    session = data.get("session")
    wrote_back = set()
    invalidated = set()
    for later in events[index + 1 :]:
        later_data = later.data or {}
        if later_data.get("session") != session:
            continue
        if later.category == "write-back":
            wrote_back.add(later_data.get("home"))
        elif later.category == "invalidate":
            invalidated.add(later_data.get("dst"))
    dirty_homes = data.get("dirty_homes") or {}
    for home in sorted(dirty_homes):
        if home not in wrote_back:
            collector.emit(
                "SRPC102",
                f"session {session!r} ended holding "
                f"{dirty_homes[home]} dirty item(s) homed at "
                f"{home!r} but never wrote them back",
                location,
                hint="at session end every modified datum must be "
                "written back to its original address space",
                session=session,
                home=home,
            )
    participants = data.get("participants") or []
    missing = [p for p in participants if p not in invalidated]
    if missing:
        collector.emit(
            "SRPC103",
            f"session {session!r} ended without invalidating "
            f"participant(s) {', '.join(repr(p) for p in missing)}",
            location,
            hint="remote pointers have no meaning after the session; "
            "every participant must drop its cached data",
            session=session,
            missing=list(missing),
        )


def _check_liveness(
    category: str,
    data: dict,
    reaped_so_far: set,
    collector: DiagnosticCollector,
    location: SourceLocation,
) -> None:
    """SRPC322: no data-plane activity at a space after it reaped."""
    space = data.get("space")
    session = data.get("session")
    if (space, session) in reaped_so_far:
        collector.emit(
            "SRPC322",
            f"space {space!r} recorded {category} activity for "
            f"session {session!r} after reaping it",
            location,
            hint="the orphan reaper must only fire on sessions whose "
            "peers are actually dead; activity after the reap means "
            "a live session was torn down under the program",
            session=session,
            space=space,
        )


def _check_data_batch(
    data: dict,
    fault_pages: set,
    inflight: dict,
    collector: DiagnosticCollector,
    location: SourceLocation,
) -> None:
    """SRPC310: one fetch-pipeline record against its discipline.

    ``inflight`` maps (space, session, fetch_id) to the set of cache
    pages the outstanding exchange covers; it is maintained across the
    whole trace replay so overlaps and unissued absorbs are caught in
    event order.
    """
    space = data.get("space")
    session = data.get("session")
    kind = data.get("kind")
    fetch_id = data.get("fetch_id")
    pages = data.get("pages") or []
    faults = data.get("faults") or []
    for page in faults:
        if (space, session, page) not in fault_pages:
            collector.emit(
                "SRPC310",
                f"space {space!r} recorded a {kind} data-batch "
                f"(fetch #{fetch_id}) claiming to cover a fault on "
                f"page {page} of session {session!r}, but no such "
                "fault was recorded",
                location,
                hint="a data-batch may only coalesce faults that "
                "actually happened; the fault event must precede the "
                "batch that serves it",
                session=session,
                page=page,
            )
    if kind == "absorb":
        if inflight.pop((space, session, fetch_id), None) is None:
            collector.emit(
                "SRPC310",
                f"space {space!r} absorbed fetch #{fetch_id} in "
                f"session {session!r} but no such fetch was in flight",
                location,
                hint="an absorb must name an earlier prefetch "
                "data-batch that was not already absorbed",
                session=session,
            )
        return
    covered = {
        page
        for (key_space, key_session, _), fetch_pages in inflight.items()
        if key_space == space and key_session == session
        for page in fetch_pages
    }
    overlap = sorted(set(pages) & covered)
    if overlap:
        collector.emit(
            "SRPC310",
            f"space {space!r} issued a {kind} data-batch "
            f"(fetch #{fetch_id}) in session {session!r} for page(s) "
            f"{', '.join(str(p) for p in overlap)} already covered by "
            "an in-flight fetch",
            location,
            hint="the pending table must suppress duplicate fetches: "
            "a fault on an in-flight page absorbs the outstanding "
            "exchange instead of issuing a new one",
            session=session,
        )
    if kind == "prefetch":
        inflight[(space, session, fetch_id)] = set(pages)


def _check_policy_decision(
    declaration: dict,
    data: dict,
    collector: DiagnosticCollector,
    location: SourceLocation,
) -> None:
    """SRPC300-SRPC302: one data request against its declaration."""
    session = data.get("session")
    policy = declaration.get("policy")
    if declaration.get("marshalling") == "graphcopy":
        collector.emit(
            "SRPC302",
            f"space {data.get('space')!r} declared graphcopy "
            f"marshalling for session {session!r} but issued a data "
            f"request to {data.get('home')!r}",
            location,
            hint="graphcopy deep-copies closures at call time; a "
            "declared-graphcopy session has no fill-on-fault data "
            "plane to make requests from",
            session=session,
            policy=policy,
        )
        return
    promised = declaration.get("budget")
    if promised is not None and data.get("budget") != promised:
        collector.emit(
            "SRPC300",
            f"space {data.get('space')!r} requested a closure budget "
            f"of {data.get('budget')} in session {session!r} but "
            f"declared the fixed budget {promised}",
            location,
            hint="a fixed policy's per-request budget is its declared "
            "budget; only variable policies (declared budget null) "
            "may vary it",
            session=session,
            policy=policy,
        )
    if promised == 0 and (data.get("prefetch_bytes") or 0) > 0:
        collector.emit(
            "SRPC301",
            f"space {data.get('space')!r} declared the zero-budget "
            f"(lazy) policy for session {session!r} but shipped "
            f"{data.get('prefetch_bytes')} prefetched byte(s)",
            location,
            hint="a lazy run transfers exactly the demanded data; "
            "prefetched closure bytes mean the trace is mislabelled "
            "or the budget was not honoured",
            session=session,
            policy=policy,
        )


def analyze_trace_file(
    path,
    collector: DiagnosticCollector,
) -> Optional[List[TraceEvent]]:
    """Load one trace log and run both rule families over it.

    The log is parsed once; the conformance rules and then the
    coherency sanitizer (:mod:`repro.analysis.sanitizer`) check the
    same event list.  An unreadable or malformed log, or one whose
    session events lack ``vc`` stamps, is one SRPC100 and ``None``.
    """
    try:
        events = load_trace(path)
        # Reject an unstamped trace before either family reports on it.
        sanitizer.resolve_clocks(events)
    except (OSError, UnicodeDecodeError) as exc:
        collector.emit(
            "SRPC100",
            f"cannot read trace log: {exc}",
            SourceLocation(file=str(path)),
        )
        return None
    except TraceFormatError as exc:
        collector.emit(
            "SRPC100", str(exc), SourceLocation(file=str(path), line=exc.line)
        )
        return None
    check_events(events, collector, filename=str(path))
    sanitizer.check_events(events, collector, filename=str(path))
    return events
