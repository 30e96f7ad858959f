"""Per-site vector clocks for causal trace stamping.

Every :class:`~repro.transport.base.Endpoint` owns one
:class:`VectorClock`.  Each traced protocol event *ticks* the owning
site's component and records the resulting snapshot; each exchange
piggybacks the sender's snapshot on the frame and the receiver *merges*
it before the handler runs (and the sender merges the receiver's
snapshot back off the reply).  The recorded stamps therefore encode the
genuine happens-before relation of the run: event ``a`` happened before
event ``b`` iff ``a``'s clock is pointwise ≤ ``b``'s and the two
differ.  The offline sanitizer (:mod:`repro.analysis.sanitizer`)
rebuilds the causal order from the stamps alone, so merged multi-process
traces need no synchronized wall clocks.

Clocks are thread-safe: the TCP transport dispatches handlers on worker
threads, and the pipeline touches the trace from its prefetch executor.

The real carriers piggyback the clock in its *wire form* — the sorted
``(site id, tick count)`` pairs a frame carries — and use
:meth:`VectorClock.tick_wire` / :meth:`VectorClock.merge_wire`, which
produce and consume that form directly instead of copying the clock
into a dict, sorting it and copying it back on every exchange.
"""

from __future__ import annotations

import threading
from typing import Dict, List, Mapping, Optional, Tuple

__all__ = [
    "VectorClock",
    "concurrent",
    "dominates",
    "happens_before",
]

#: A clock snapshot: site id -> number of local ticks observed.
ClockMap = Dict[str, int]

#: The same snapshot as frames carry it: ``(site id, ticks)`` pairs
#: sorted by site id.
WireClock = Tuple[Tuple[str, int], ...]


class VectorClock:
    """One site's vector clock plus its per-session event sequences."""

    def __init__(self, site_id: str) -> None:
        self.site_id = site_id
        self._clock: ClockMap = {}
        #: The clock's site ids, sorted; stale (shorter than the clock)
        #: after a merge added a site, and re-sorted on the next use.
        self._order: List[str] = []
        self._seqs: Dict[Optional[str], int] = {}
        self._lock = threading.Lock()

    def tick(self) -> ClockMap:
        """Advance this site's component; return the new snapshot."""
        with self._lock:
            self._clock[self.site_id] = self._clock.get(self.site_id, 0) + 1
            return dict(self._clock)

    def tick_wire(self) -> WireClock:
        """:meth:`tick`, returning the snapshot in wire form."""
        with self._lock:
            clock = self._clock
            clock[self.site_id] = clock.get(self.site_id, 0) + 1
            order = self._order
            if len(order) != len(clock):  # sites are only ever added
                order = self._order = sorted(clock)
            return tuple([(site, clock[site]) for site in order])

    def merge_wire(self, pairs: WireClock) -> None:
        """:meth:`merge` for a snapshot in wire form."""
        if not pairs:
            return
        with self._lock:
            clock = self._clock
            for site, count in pairs:
                if count > clock.get(site, 0):
                    clock[site] = count

    def merge(self, other: Optional[Mapping[str, int]]) -> None:
        """Fold a received snapshot in (pointwise maximum)."""
        if not other:
            return
        with self._lock:
            for site, count in other.items():
                if count > self._clock.get(site, 0):
                    self._clock[site] = int(count)

    def snapshot(self) -> ClockMap:
        """The current clock, as a plain dict (safe to piggyback)."""
        with self._lock:
            return dict(self._clock)

    def next_seq(self, session: Optional[str] = None) -> int:
        """The next per-(site, session) monotonic event sequence."""
        with self._lock:
            value = self._seqs.get(session, -1) + 1
            self._seqs[session] = value
            return value

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"VectorClock({self.site_id!r}, {self.snapshot()!r})"


def dominates(a: Mapping[str, int], b: Mapping[str, int]) -> bool:
    """Whether ``a`` is pointwise ≥ ``b``."""
    return all(a.get(site, 0) >= count for site, count in b.items())


def happens_before(a: Mapping[str, int], b: Mapping[str, int]) -> bool:
    """Whether the event stamped ``a`` happened before the one stamped
    ``b``: ``a ≤ b`` pointwise and the stamps differ."""
    return dict(a) != dict(b) and dominates(b, a)


def concurrent(a: Mapping[str, int], b: Mapping[str, int]) -> bool:
    """Whether two stamps are causally unordered."""
    return (
        dict(a) != dict(b)
        and not dominates(b, a)
        and not dominates(a, b)
    )
