"""Coherency sanitizer: happens-before race detection (SRPC4xx).

The conformance checker (:mod:`repro.analysis.trace_rules`) verifies
*per-event* protocol obligations.  This module checks the obligations
that only exist *between* events: it rebuilds the causal order of a
recorded run and reports pairs of events whose ordering violates the
paper's coherency model — which guarantees consistency only for the
single active thread of control (paper §3.4), so any genuine
concurrency between data-plane operations of one session is a bug in
the protocol machinery, not an acceptable interleaving.

A trace file goes through both rule families over one parse, in
:func:`repro.analysis.trace_rules.analyze_trace_file`.

Causal order comes from vector clocks.  Schema revision 2 traces
(:data:`repro.simnet.tracefmt.TRACE_SCHEMA`) record a ``vc`` stamp on
every protocol event: both carriers piggyback per-site vector clocks
on their exchanges (synchronously in the simulator, as a frame field
over TCP), and every runtime event is stamped with its site's clock at
emission.  A trace with an unstamped session event (revision 1) is
rejected: a replayed log's clocks would hide the very races sought.

The rules:

* **SRPC400** — two writes in one session with *concurrent* clocks: a
  data race.  One session has one thread of control, so every pair of
  writes must be causally ordered.
* **SRPC401** — a page fault observed a version of a cache page older
  than a causally earlier write to that same page: a stale read (the
  fault served data that a happens-before write had replaced).
* **SRPC402** — an end-of-session invalidation whose clock is
  concurrent with data-plane activity at the participant it targets:
  the invalidation was issued without having observed that activity,
  so the participant's cached state it should cover is lost.
* **SRPC403** — data-plane activity at a participant that causally
  *follows* the invalidation of its session: use-after-invalidate
  (remote pointers have no meaning after the session).
* **SRPC404** — a write whose clock is not ordered before any
  write-back commit or data-carrying piggyback apply at the written
  datum's home space: neither can have contained the write, so the
  update is lost.
* **SRPC405** — a cycle in the waits-for graph of dangling exchanges
  (request kinds whose reply never appears): distributed deadlock.
  Skipped for crash traces (aborts and orphan reaps legitimately
  leave exchanges dangling).

Rules SRPC402/SRPC403/SRPC404 apply only to sessions that ended
cleanly: an aborted session's teardown is best-effort by design and
is covered by the fault-tolerance rules (SRPC32x) instead.
"""

from __future__ import annotations

from typing import (
    Dict,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.analysis.diagnostics import (
    DiagnosticCollector,
    SourceLocation,
)
from repro.simnet.stats import TraceEvent
from repro.simnet.tracefmt import SESSION_CATEGORIES, TraceFormatError
from repro.transport.vclock import concurrent, happens_before

ClockMap = Dict[str, int]

#: Request kind -> the reply kind that completes the exchange (message
#: ``kind`` wire values).  Kinds absent here (INVALIDATE, the reply
#: kinds themselves) are one-way and never leave a site waiting.
EXCHANGE_PAIRS: Dict[str, str] = {
    "call": "reply",
    "data_request": "data_reply",
    "writeback_prepare": "writeback_prepare_ack",
    "writeback_commit": "writeback_commit_ack",
    "memory_batch": "memory_batch_reply",
    "type_query": "type_reply",
    "site_register": "dir_reply",
    "site_deregister": "dir_reply",
    "site_lookup": "dir_reply",
    "site_heartbeat": "dir_reply",
    "site_list": "dir_reply",
    "shutdown": "shutdown_ack",
    "status": "status_reply",
    "run_session": "run_reply",
}

#: Data-plane activity at a participant, for the invalidation rules.
_ACTIVITY_CATEGORIES = ("fault", "write", "data-batch", "piggyback-apply")


# -- causal order -------------------------------------------------------------


def resolve_clocks(
    events: Sequence[TraceEvent],
) -> List[Optional[ClockMap]]:
    """One vector clock per event: its recorded ``vc`` stamp, if any.

    Every session-scoped event must carry one (schema revision 2); an
    unstamped one raises :class:`TraceFormatError` naming its line,
    because the causal order the rules judge would be unknown.
    """
    clocks: List[Optional[ClockMap]] = []
    for index, event in enumerate(events):
        vc = (event.data or {}).get("vc")
        if not isinstance(vc, dict):
            if event.category in SESSION_CATEGORIES:
                raise TraceFormatError(
                    index + 1,
                    f"{event.category} event has no vector-clock stamp "
                    "(a revision-1 trace?)",
                )
            vc = None
        clocks.append(vc)
    return clocks


# -- the sanitizer ------------------------------------------------------------


def check_events(
    events: Sequence[TraceEvent],
    collector: DiagnosticCollector,
    filename: Optional[str] = None,
) -> None:
    """Run every happens-before rule over an in-memory event list.

    Raises :class:`TraceFormatError` on an unstamped session event.
    """
    vcs = resolve_clocks(events)

    def loc(index: int) -> SourceLocation:
        return SourceLocation(file=filename, line=index + 1)

    aborted: Set[Optional[str]] = set()
    reaped = False
    ended: Set[Optional[str]] = set()
    grounds: Dict[Optional[str], str] = {}
    writes: List[Tuple[int, dict, ClockMap]] = []
    faults: List[Tuple[int, dict, ClockMap]] = []
    invalidates: List[Tuple[int, dict, ClockMap]] = []
    activity: List[Tuple[int, str, dict, ClockMap]] = []
    # Per (session, home): the commits and data-carrying piggyback
    # applies that update the home's originals.
    arrivals: Dict[Tuple[Optional[str], Optional[str]],
                   List[Tuple[int, ClockMap]]] = {}

    for index, event in enumerate(events):
        data = event.data or {}
        vc = vcs[index]
        if event.category == "session-abort":
            aborted.add(data.get("session"))
        elif event.category == "orphan-reaped":
            reaped = True
        elif event.category == "session-end":
            ended.add(data.get("session"))
        if data.get("ground") and data.get("session"):
            grounds.setdefault(data["session"], data["ground"])
        if vc is None:
            continue
        if event.category == "write":
            writes.append((index, data, vc))
        elif event.category == "fault":
            faults.append((index, data, vc))
        elif event.category == "invalidate":
            invalidates.append((index, data, vc))
        elif (
            event.category == "writeback-phase"
            and data.get("phase") == "commit"
        ) or (event.category == "piggyback-apply" and data.get("items")):
            key = (data.get("session"), data.get("space"))
            arrivals.setdefault(key, []).append((index, vc))
        if event.category in _ACTIVITY_CATEGORIES:
            activity.append((index, event.category, data, vc))

    clean = ended - aborted

    _check_data_races(writes, clean, collector, loc)
    _check_stale_reads(writes, faults, collector, loc)
    _check_invalidations(
        invalidates, activity, clean, collector, loc
    )
    _check_lost_updates(writes, arrivals, clean, grounds, collector, loc)
    if not aborted and not reaped:
        _check_waits_for_cycles(events, collector, loc)


def _check_data_races(
    writes: Sequence[Tuple[int, dict, ClockMap]],
    clean: Set[Optional[str]],
    collector: DiagnosticCollector,
    loc,
) -> None:
    """SRPC400: every pair of writes in a session must be ordered.

    Only cleanly ended sessions are checked: a crashed participant's
    unacknowledged write is genuinely concurrent with the ground's
    later activity (its clock never merged back), but the abort
    discards it — that is crash recovery, not a race.
    """
    for position, (index, data, vc) in enumerate(writes):
        if data.get("session") not in clean:
            continue
        for later_index, later_data, later_vc in writes[position + 1:]:
            if data.get("session") != later_data.get("session"):
                continue
            if not concurrent(vc, later_vc):
                continue
            collector.emit(
                "SRPC400",
                f"concurrent writes in session "
                f"{data.get('session')!r}: space {data.get('space')!r} "
                f"page {data.get('page')} and space "
                f"{later_data.get('space')!r} page "
                f"{later_data.get('page')} have no happens-before "
                "order",
                loc(later_index),
                hint="a session has one thread of control; two writes "
                "with concurrent vector clocks mean two spaces "
                "modified session data at once — a data race the "
                "coherency protocol cannot repair",
                session=data.get("session"),
                other_line=index + 1,
            )


def _check_stale_reads(
    writes: Sequence[Tuple[int, dict, ClockMap]],
    faults: Sequence[Tuple[int, dict, ClockMap]],
    collector: DiagnosticCollector,
    loc,
) -> None:
    """SRPC401: no fault may observe a version an earlier write beat."""
    by_page: Dict[Tuple, List[Tuple[int, dict, ClockMap]]] = {}
    for index, data, vc in writes:
        key = (data.get("space"), data.get("session"), data.get("page"))
        by_page.setdefault(key, []).append((index, data, vc))
    for index, data, vc in faults:
        observed = data.get("version")
        if not isinstance(observed, int):
            continue
        key = (data.get("space"), data.get("session"), data.get("page"))
        for write_index, write_data, write_vc in by_page.get(key, ()):
            version = write_data.get("version")
            if not isinstance(version, int) or version <= observed:
                continue
            if happens_before(write_vc, vc):
                collector.emit(
                    "SRPC401",
                    f"space {data.get('space')!r} faulted on page "
                    f"{data.get('page')} of session "
                    f"{data.get('session')!r} observing version "
                    f"{observed}, but the write of version {version} "
                    "happens-before the fault",
                    loc(index),
                    hint="the fault served stale data: a causally "
                    "earlier write had already replaced the version "
                    "the fault observed",
                    session=data.get("session"),
                    page=data.get("page"),
                    other_line=write_index + 1,
                )


def _check_invalidations(
    invalidates: Sequence[Tuple[int, dict, ClockMap]],
    activity: Sequence[Tuple[int, str, dict, ClockMap]],
    clean: Set[Optional[str]],
    collector: DiagnosticCollector,
    loc,
) -> None:
    """SRPC402/SRPC403: invalidations versus participant activity.

    For a cleanly ended session, every data-plane event at a
    participant must happen-before the invalidation that targets the
    participant.  Activity concurrent with the invalidation means the
    invalidation was issued blind to it (SRPC402); activity causally
    after it means the participant kept using dead remote pointers
    (SRPC403).
    """
    for inv_index, inv_data, inv_vc in invalidates:
        session = inv_data.get("session")
        if session not in clean:
            continue
        target = inv_data.get("dst")
        for index, category, data, vc in activity:
            if data.get("session") != session:
                continue
            if data.get("space") != target:
                continue
            if happens_before(vc, inv_vc):
                continue
            if happens_before(inv_vc, vc):
                collector.emit(
                    "SRPC403",
                    f"space {target!r} recorded {category} activity "
                    f"for session {session!r} after its invalidation "
                    "(use-after-invalidate)",
                    loc(index),
                    hint="remote pointers have no meaning after the "
                    "session; no data-plane access may causally "
                    "follow the invalidation that ends it",
                    session=session,
                    space=target,
                    other_line=inv_index + 1,
                )
            else:
                collector.emit(
                    "SRPC402",
                    f"invalidation of session {session!r} at "
                    f"{target!r} is concurrent with that space's "
                    f"{category} activity: the invalidation never "
                    "observed it (lost invalidation)",
                    loc(inv_index),
                    hint="the end-of-session invalidation must "
                    "causally follow every participant's last "
                    "data-plane activity, or cached state escapes it",
                    session=session,
                    space=target,
                    other_line=index + 1,
                )


def _check_lost_updates(
    writes: Sequence[Tuple[int, dict, ClockMap]],
    arrivals: Dict[Tuple[Optional[str], Optional[str]],
                   List[Tuple[int, ClockMap]]],
    clean: Set[Optional[str]],
    grounds: Dict[Optional[str], str],
    collector: DiagnosticCollector,
    loc,
) -> None:
    """SRPC404: every write must reach its home's originals.

    Two events update a home's originals: a write-back commit applies
    the staged batch, and a piggyback carrying modified data applies
    it on arrival.  The active space holds every current version, so a
    write ordered before either at its datum's home has reached the
    originals; one ordered before neither never did — and a cleanly
    ended session whose home recorded neither lost every write homed
    there.  Data homed at the session's ground space is exempt: the
    piggyback that returns activity to the ground applies it.
    """
    for index, data, vc in writes:
        session = data.get("session")
        home = data.get("home")
        if session not in clean or not home:
            continue
        if home == grounds.get(session):
            continue
        home_arrivals = arrivals.get((session, home))
        if not home_arrivals:
            collector.emit(
                "SRPC404",
                f"write at space {data.get('space')!r} (page "
                f"{data.get('page')}, session {session!r}) never "
                f"reached its home {home!r}: the session ended "
                "cleanly but the update is lost",
                loc(index),
                hint="a cleanly ended session must deliver every write "
                "to its home, by piggyback or by the two-phase "
                "write-back",
                session=session,
                home=home,
            )
            continue
        if any(
            happens_before(vc, arrival_vc)
            for _, arrival_vc in home_arrivals
        ):
            continue
        collector.emit(
            "SRPC404",
            f"write at space {data.get('space')!r} (page "
            f"{data.get('page')}, session {session!r}) is not "
            f"happens-before any write-back commit or piggyback "
            f"apply at its home {home!r}: the update is lost",
            loc(index),
            hint="a write after the last transfer to its home must be "
            "written back; the commit applies only what was staged",
            session=session,
            home=home,
        )


def _check_waits_for_cycles(
    events: Sequence[TraceEvent],
    collector: DiagnosticCollector,
    loc,
) -> None:
    """SRPC405: no cycle among sites with dangling exchanges.

    A site *waits on* a peer when it sent a request-kind message and
    the trace holds no completing reply of the paired kind.  A cycle
    in that graph is a distributed deadlock: every site on it is
    blocked in a synchronous exchange that can only complete once its
    own pending work does.
    """
    requests: Dict[Tuple[str, str, str], int] = {}
    replies: Set[Tuple[str, str, str]] = set()
    for index, event in enumerate(events):
        if event.category != "message":
            continue
        data = event.data or {}
        src = data.get("src")
        dst = data.get("dst")
        kind = data.get("kind")
        if not src or not dst or not isinstance(kind, str):
            continue
        if kind in EXCHANGE_PAIRS:
            requests.setdefault((src, dst, kind), index)
        replies.add((src, dst, kind))

    waits: Dict[str, Dict[str, Tuple[str, int]]] = {}
    for (src, dst, kind), index in requests.items():
        if (dst, src, EXCHANGE_PAIRS[kind]) in replies:
            continue
        waits.setdefault(src, {}).setdefault(dst, (kind, index))

    reported: Set[frozenset] = set()
    for start in sorted(waits):
        cycle = _find_cycle(waits, start)
        if cycle is None:
            continue
        key = frozenset(cycle)
        if key in reported:
            continue
        reported.add(key)
        hops = []
        first_index = None
        for position, site in enumerate(cycle):
            peer = cycle[(position + 1) % len(cycle)]
            kind, index = waits[site][peer]
            hops.append(f"{site} waits on {peer} ({kind})")
            if first_index is None or index < first_index:
                first_index = index
        collector.emit(
            "SRPC405",
            "distributed deadlock: " + "; ".join(hops),
            loc(first_index if first_index is not None else 0),
            hint="every exchange is synchronous, so a waits-for cycle "
            "of unanswered requests can never complete; if a crash "
            "caused this, the trace should record the abort",
            sites=list(cycle),
        )


def _find_cycle(
    waits: Dict[str, Dict[str, Tuple[str, int]]],
    start: str,
) -> Optional[List[str]]:
    """One waits-for cycle reachable from ``start``, or ``None``."""
    path: List[str] = []
    on_path: Set[str] = set()
    visited: Set[str] = set()

    def visit(site: str) -> Optional[List[str]]:
        if site in on_path:
            return path[path.index(site):]
        if site in visited:
            return None
        visited.add(site)
        path.append(site)
        on_path.add(site)
        for peer in sorted(waits.get(site, ())):
            found = visit(peer)
            if found is not None:
                return found
        path.pop()
        on_path.discard(site)
        return None

    return visit(start)
