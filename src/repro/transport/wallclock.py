"""Wall-clock time for real transports.

The simulator's :class:`~repro.simnet.clock.SimClock` advances only
when a runtime charges it.  Under a real transport time passes by
itself, so :class:`WallClock` reads the operating system clock and
``advance`` / ``bill`` only validate their arguments: the modelled
charges no longer move ``now``.

``now`` is epoch-based (``time.time``) rather than per-process
monotonic so that trace events recorded by different OS processes on
the same machine merge into one causally ordered timeline — see
:mod:`repro.transport.tracemerge`.
"""

from __future__ import annotations

import time


class WallClock:
    """Drop-in for :class:`~repro.simnet.clock.SimClock` on real time."""

    @property
    def now(self) -> float:
        """Current wall time in epoch seconds."""
        return time.time()

    def advance(self, seconds: float) -> None:
        """Accept a modelled charge; real time advances on its own."""
        if seconds < 0:
            raise ValueError(f"cannot advance clock by {seconds!r} seconds")

    def bill(self, seconds: float, count: int) -> None:
        """Accept ``count`` equal modelled charges (see :meth:`advance`)."""
        if seconds < 0:
            raise ValueError(f"cannot advance clock by {seconds!r} seconds")
        if count < 0:
            raise ValueError(f"cannot bill {count!r} charges")
