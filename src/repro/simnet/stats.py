"""Statistics and tracing for simulated runs.

The paper's evaluation reports processing time (Figs. 4, 6, 7) and the
number of callbacks (Fig. 5).  :class:`StatsCollector` counts both plus
the auxiliary quantities (bytes moved, page faults, write-backs) that
EXPERIMENTS.md uses to explain the measured shapes.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Mapping, Optional

from repro.simnet.message import Message, MessageKind


@dataclass(frozen=True)
class TraceEvent:
    """One timestamped record in the simulation trace.

    ``data`` carries optional machine-readable details (message kinds,
    session ids, page numbers) so recorded traces can be checked
    offline by :mod:`repro.analysis.trace_rules`; ``detail`` stays the
    human-readable rendering used by the timeline formatter.
    """

    time: float
    category: str
    detail: str
    data: Optional[Mapping[str, Any]] = field(
        default=None, compare=False
    )


@dataclass
class TransferLedger:
    """Shipped-vs-touched accounting of the fault-driven fill path.

    ``shipped`` counts closure bytes a home space sent in data replies;
    ``touched`` counts the subset the program actually accessed.  The
    ``prefetch_*`` pair restricts both to data shipped *beyond* the
    demanded roots — the eager-closure gamble whose payoff the adaptive
    policy watches.  One ledger lives on the global
    :class:`StatsCollector` (benchmark reporting) and one per smart
    session (the adaptive feedback signal).
    """

    closure_bytes_shipped: int = 0
    closure_bytes_touched: int = 0
    prefetch_bytes_shipped: int = 0
    prefetch_bytes_touched: int = 0
    #: Fetch-pipeline wins: demand round trips that never happened.
    #: ``round_trips_saved`` counts cache pages that became resident
    #: without issuing their own data request (covered by a coalesced
    #: batch or an absorbed prefetch); ``piggyback_hits`` counts faults
    #: that were satisfied by absorbing an already-in-flight exchange
    #: instead of issuing a new one.
    round_trips_saved: int = 0
    piggyback_hits: int = 0

    def record_saved_round_trips(self, pages: int) -> None:
        """Count demand exchanges the pipeline made unnecessary."""
        self.round_trips_saved += pages

    def record_piggyback_hit(self) -> None:
        """Count one fault absorbed by an in-flight exchange."""
        self.piggyback_hits += 1

    def as_dict(self) -> Dict[str, int]:
        """Counter mapping for JSON reporting."""
        return {
            "closure_bytes_shipped": self.closure_bytes_shipped,
            "closure_bytes_touched": self.closure_bytes_touched,
            "prefetch_bytes_shipped": self.prefetch_bytes_shipped,
            "prefetch_bytes_touched": self.prefetch_bytes_touched,
            "round_trips_saved": self.round_trips_saved,
            "piggyback_hits": self.piggyback_hits,
        }


class StatsCollector:
    """Accumulates counters and (optionally) a full event trace.

    One collector is shared by the network and every runtime in a
    simulation.  Counters are cheap; the trace is off by default because
    long benchmark runs would otherwise build million-entry lists.
    """

    def __init__(self, trace: bool = False) -> None:
        #: Whether events are being recorded.  Emitters that do
        #: per-event work beyond building the event — vector-clock
        #: stamping, say — check this first so benchmark runs (tracing
        #: off) pay nothing; a plain attribute, as every fault reads it.
        self.tracing = trace
        self.events: List[TraceEvent] = []
        self.messages_by_kind: Counter = Counter()
        self.bytes_by_kind: Counter = Counter()
        self.page_faults = 0
        self.write_faults = 0
        self.pages_filled = 0
        self.entries_transferred = 0
        self.duplicate_entries = 0
        self.write_backs = 0
        self.invalidations = 0
        self.remote_mallocs = 0
        self.remote_frees = 0
        self.batch_flushes = 0
        self.sessions_aborted = 0
        self.orphans_reaped = 0
        self.transfer_ledger = TransferLedger()

    # -- messages ---------------------------------------------------------

    def record_message(self, message: Message) -> None:
        """Count one sent message."""
        self.count_message(message.kind, message.size)

    def count_message(
        self, kind: MessageKind, size: int, copies: int = 1
    ) -> None:
        """Count ``copies`` sent messages of ``kind`` with ``size``
        payload bytes each, without building them (a real carrier's
        untraced path)."""
        self.messages_by_kind[kind] += copies
        self.bytes_by_kind[kind] += size * copies

    @property
    def total_messages(self) -> int:
        """Number of messages sent, all kinds."""
        return sum(self.messages_by_kind.values())

    @property
    def total_bytes(self) -> int:
        """Payload bytes sent, all kinds."""
        return sum(self.bytes_by_kind.values())

    @property
    def callbacks(self) -> int:
        """Data-request messages from a callee back to a data home.

        This is the quantity the paper's Figure 5 plots: for the fully
        lazy baseline it is one per pointer dereference; for the proposed
        method it is one per faulted page.
        """
        return self.messages_by_kind[MessageKind.DATA_REQUEST]

    # -- tracing ----------------------------------------------------------

    def record_event(
        self,
        time: float,
        category: str,
        detail: str,
        data: Optional[Mapping[str, Any]] = None,
    ) -> None:
        """Append a trace event if tracing is enabled."""
        if self.tracing:
            self.events.append(TraceEvent(time, category, detail, data))

    def events_in(self, category: str) -> Iterator[TraceEvent]:
        """Iterate trace events of one category."""
        return (event for event in self.events if event.category == category)

    # -- lifecycle ---------------------------------------------------------

    def reset(self) -> None:
        """Zero every counter and drop the trace."""
        self.events.clear()
        self.messages_by_kind.clear()
        self.bytes_by_kind.clear()
        self.page_faults = 0
        self.write_faults = 0
        self.pages_filled = 0
        self.entries_transferred = 0
        self.duplicate_entries = 0
        self.write_backs = 0
        self.invalidations = 0
        self.remote_mallocs = 0
        self.remote_frees = 0
        self.batch_flushes = 0
        self.sessions_aborted = 0
        self.orphans_reaped = 0
        self.transfer_ledger = TransferLedger()

    def summary(self) -> str:
        """Human-readable multi-line counter dump."""
        lines = [
            f"messages: {self.total_messages} ({self.total_bytes} bytes)",
            f"callbacks (data requests): {self.callbacks}",
            f"page faults: {self.page_faults} (write: {self.write_faults})",
            f"entries transferred: {self.entries_transferred} "
            f"(duplicates: {self.duplicate_entries})",
            f"write-backs: {self.write_backs}, "
            f"invalidations: {self.invalidations}",
            f"remote mallocs: {self.remote_mallocs}, "
            f"frees: {self.remote_frees}, "
            f"batch flushes: {self.batch_flushes}",
            f"closure bytes shipped: "
            f"{self.transfer_ledger.closure_bytes_shipped} "
            f"(touched: {self.transfer_ledger.closure_bytes_touched}), "
            f"prefetched: {self.transfer_ledger.prefetch_bytes_shipped} "
            f"(touched: {self.transfer_ledger.prefetch_bytes_touched})",
            f"round trips saved: {self.transfer_ledger.round_trips_saved} "
            f"(piggyback hits: {self.transfer_ledger.piggyback_hits})",
            f"sessions aborted: {self.sessions_aborted}, "
            f"orphans reaped: {self.orphans_reaped}",
        ]
        return "\n".join(lines)
