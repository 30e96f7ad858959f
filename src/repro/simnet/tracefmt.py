"""Rendering and serialization of simulation traces.

Enable tracing by constructing the network's stats collector with
``trace=True``; every message, fault and protocol action is then
timestamped.  :func:`format_timeline` renders the trace as an aligned
timeline, which is the fastest way to see the method at work::

    t (ms)    category  detail
    0.000     message   A->B call tree_ops.search ...
    0.412     message   B->A data_request 40B
    ...

Traces also round-trip through a line-oriented JSON format (one event
per line) via :func:`save_trace` / :func:`load_trace`, so a recorded
run can be replayed offline — e.g. by the conformance checker in
``repro.analysis``.
"""

from __future__ import annotations

import json
from typing import Iterable, List, Optional, Union

from repro.simnet.stats import StatsCollector, TraceEvent


def format_timeline(
    events: Iterable[TraceEvent],
    categories: Optional[List[str]] = None,
    limit: Optional[int] = None,
) -> str:
    """Render trace events as an aligned timeline table.

    ``categories`` filters to the given kinds; ``limit`` truncates the
    output (a note records how many events were dropped).
    """
    selected = [
        event
        for event in events
        if categories is None or event.category in categories
    ]
    dropped = 0
    if limit is not None and len(selected) > limit:
        dropped = len(selected) - limit
        selected = selected[:limit]
    lines = ["t (ms)      category    detail"]
    for event in selected:
        lines.append(
            f"{event.time * 1000:10.3f}  {event.category:<10s}  "
            f"{event.detail}"
        )
    if dropped:
        lines.append(f"... {dropped} more events")
    return "\n".join(lines)


class TraceFormatError(ValueError):
    """A trace log line could not be parsed back into a TraceEvent.

    ``line`` is the offending record's 1-based position in the log.
    """

    def __init__(self, line: int, reason: str) -> None:
        super().__init__(f"line {line}: {reason}")
        self.line = line


#: Trace schema revision.  Revision 2 (the coherency-sanitizer rev)
#: requires every session-scoped protocol event to carry ``session``,
#: ``site``, a per-(site, session) monotonic ``seq`` and a vector-clock
#: ``vc`` stamp.  :func:`save_trace` enforces the current revision at
#: write time; :func:`load_trace` validates only on request, so a
#: deliberately broken mutant still loads, and the trace analyzer
#: rejects a log whose session events carry no ``vc`` stamp.
TRACE_SCHEMA = 2

#: Every session-scoped protocol event category; schema revision 2
#: requires the stamp fields on each of these.  Carrier-level events
#: (``message`` / ``timeout`` / ``loss``) are exempt: they may be
#: recorded where no session context exists.
SESSION_CATEGORIES = frozenset({
    "transfer", "fault", "write",
    "session-end", "write-back", "invalidate",
    "policy", "policy-decision", "data-batch",
    "session-abort", "orphan-reaped", "writeback-phase",
    "piggyback-apply",
})


def validate_event(event: TraceEvent, lineno: int = 0) -> None:
    """Check one event against the current trace schema revision.

    Raises :class:`TraceFormatError` naming the missing or malformed
    field, so an emitter bug fails at record time instead of surfacing
    as a puzzling analysis result later.
    """
    if event.category not in SESSION_CATEGORIES:
        return
    what = f"{event.category} event"
    data = event.data
    if data is None:
        raise TraceFormatError(lineno, f"{what} has no data fields")
    session = data.get("session")
    if not isinstance(session, str) or not session:
        raise TraceFormatError(
            lineno, f"{what} has no session id (got {session!r})"
        )
    site = data.get("site")
    if not isinstance(site, str) or not site:
        raise TraceFormatError(
            lineno, f"{what} has no site id (got {site!r})"
        )
    seq = data.get("seq")
    if isinstance(seq, bool) or not isinstance(seq, int) or seq < 0:
        raise TraceFormatError(
            lineno, f"{what} has no monotonic sequence (got {seq!r})"
        )
    vc = data.get("vc")
    if not isinstance(vc, dict) or not all(
        isinstance(k, str)
        and isinstance(v, int)
        and not isinstance(v, bool)
        and v >= 0
        for k, v in vc.items()
    ):
        raise TraceFormatError(
            lineno, f"{what} has no vector-clock stamp (got {vc!r})"
        )


def event_to_json(event: TraceEvent) -> str:
    """Serialize one event as a single JSON line (no newline)."""
    record = {"t": event.time, "category": event.category,
              "detail": event.detail}
    if event.data is not None:
        record["data"] = dict(event.data)
    return json.dumps(record, sort_keys=True)


def event_from_json(line: str, lineno: int = 0) -> TraceEvent:
    """Parse one JSON trace line back into a :class:`TraceEvent`."""
    try:
        record = json.loads(line)
    except json.JSONDecodeError as exc:
        raise TraceFormatError(lineno, f"not valid JSON: {exc}") from None
    if not isinstance(record, dict):
        raise TraceFormatError(lineno, "expected a JSON object")
    try:
        time = record["t"]
        category = record["category"]
        detail = record["detail"]
    except KeyError as exc:
        raise TraceFormatError(lineno, f"missing trace field {exc}") from None
    if not isinstance(time, (int, float)) or isinstance(time, bool):
        raise TraceFormatError(lineno, f"bad timestamp {time!r}")
    if not isinstance(category, str) or not isinstance(detail, str):
        raise TraceFormatError(lineno, "category and detail must be strings")
    data = record.get("data")
    if data is not None and not isinstance(data, dict):
        raise TraceFormatError(lineno, f"bad data field {data!r}")
    return TraceEvent(
        time=float(time), category=category, detail=detail, data=data
    )


def dump_trace(events: Iterable[TraceEvent]) -> str:
    """Serialize events as JSON-lines text (trailing newline included)."""
    lines = [event_to_json(event) for event in events]
    return "\n".join(lines) + ("\n" if lines else "")


def parse_trace(text: str) -> List[TraceEvent]:
    """Parse JSON-lines text back into a list of events."""
    events = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        events.append(event_from_json(line, lineno))
    return events


def save_trace(
    events: Union[Iterable[TraceEvent], StatsCollector],
    path,
    validate: bool = True,
) -> None:
    """Write a trace log (one JSON object per line) to ``path``.

    Events are validated against the current schema revision
    (:data:`TRACE_SCHEMA`) before anything is written, so a malformed
    event fails at record time with nothing on disk.  ``validate=False``
    is the escape hatch for deliberately writing non-conforming traces
    (the mutant-fixture recorders).
    """
    if isinstance(events, StatsCollector):
        events = events.events
    events = list(events)
    if validate:
        for lineno, event in enumerate(events, start=1):
            validate_event(event, lineno)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(dump_trace(events))


def load_trace(path) -> List[TraceEvent]:
    """Read a trace log written by :func:`save_trace`."""
    with open(path, "r", encoding="utf-8") as handle:
        return parse_trace(handle.read())


def summarize_trace(stats: StatsCollector) -> str:
    """Counter totals plus the first and last event times."""
    lines = [stats.summary()]
    if stats.events:
        first = stats.events[0].time * 1000
        last = stats.events[-1].time * 1000
        lines.append(
            f"trace: {len(stats.events)} events from "
            f"{first:.3f} ms to {last:.3f} ms"
        )
    else:
        lines.append("trace: no events recorded (tracing off?)")
    return "\n".join(lines)
