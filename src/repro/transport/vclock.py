"""Per-site vector clocks for causal trace stamping.

Every :class:`~repro.transport.base.Endpoint` owns one
:class:`VectorClock`.  Each traced protocol event *ticks* the owning
site's component and records the resulting snapshot; an exchange
piggybacks the sender's snapshot on the frame and the receiver *merges*
it before the handler runs (and the sender merges the receiver's
snapshot back off the reply).  The recorded stamps therefore encode the
genuine happens-before relation of the run: event ``a`` happened before
event ``b`` iff ``a``'s clock is pointwise ≤ ``b``'s and the two
differ.  The offline sanitizer (:mod:`repro.analysis.sanitizer`)
rebuilds the causal order from the stamps alone, so merged multi-process
traces need no synchronized wall clocks.

A clock travels only once somebody traces.  A frame carries a ticked
clock when its sender traces, and the clock the sender has heard
(:meth:`VectorClock.relay_wire`, unticked) when it does not but has
merged one; a site that has neither ticked nor heard a clock
(:attr:`VectorClock.entries` empty) sends the empty clock, and an
empty clock is never merged.  In an untraced run no clock is ever
ticked, encoded or merged, and a traced → untraced → traced chain
still orders the first site's events before the last one's: the
untraced hop passes on what it heard.

Clocks are thread-safe: the TCP transport dispatches handlers on worker
threads, and the pipeline touches the trace from its prefetch executor.

Every carrier (simnet, tcp, shm) passes the clock in its *wire form* —
the sorted ``(site id, tick count)`` pairs a frame carries — made by
:meth:`VectorClock.tick_wire` / :meth:`VectorClock.relay_wire` and
folded in by :meth:`VectorClock.merge_wire`.
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
        #: Site id -> ticks observed; empty until this site ticks or
        #: merges a non-empty clock.  Read it, never write it: a
        #: carrier tests it to decide whether a frame needs a clock.
        self.entries: ClockMap = {}
        #: The clock's site ids, sorted; stale (shorter than the clock)
        #: after a merge added a site, and re-sorted on the next use.
        self._order: List[str] = []
        self._seqs: Dict[Optional[str], int] = {}
        self._lock = threading.Lock()

    def tick(self) -> ClockMap:
        """Advance this site's component; return the new snapshot."""
        with self._lock:
            self.entries[self.site_id] = self.entries.get(self.site_id, 0) + 1
            return dict(self.entries)

    def tick_wire(self) -> WireClock:
        """:meth:`tick`, returning the snapshot in wire form."""
        with self._lock:
            clock = self.entries
            clock[self.site_id] = clock.get(self.site_id, 0) + 1
            return self._wire()

    def relay_wire(self) -> WireClock:
        """The snapshot in wire form, unticked: what a site that does
        not trace passes on of the clocks it has heard."""
        with self._lock:
            return self._wire()

    def _wire(self) -> WireClock:
        clock = self.entries
        order = self._order
        if len(order) != len(clock):  # sites are only ever added
            order = self._order = sorted(clock)
        return tuple(zip(order, map(clock.__getitem__, order)))

    def merge_wire(self, pairs: WireClock) -> None:
        """Fold a received snapshot in wire form in (pointwise
        maximum); the empty clock is a no-op."""
        if not pairs:
            return
        with self._lock:
            clock = self.entries
            for site, count in pairs:
                if count > clock.get(site, 0):
                    clock[site] = count

    def next_seq(self, session: Optional[str] = None) -> int:
        """The next per-(site, session) monotonic event sequence."""
        with self._lock:
            value = self._seqs.get(session, -1) + 1
            self._seqs[session] = value
            return value

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"VectorClock({self.site_id!r}, {self.entries!r})"


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
