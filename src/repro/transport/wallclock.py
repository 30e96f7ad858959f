"""Wall-clock time for real transports.

The simulator's :class:`~repro.simnet.clock.SimClock` advances only
when a runtime charges it.  Under a real transport time passes by
itself, so :class:`WallClock` reads the operating system clock and
says so with ``models_time = False``.  A runtime reads that once
(``RpcRuntime.models_time``) and then computes no modelled charge at
all: no charge from the fill path (data request, reply, fault,
prefetch issue), the stub's codec or a resident access reaches this
clock.  It therefore has no ``advance`` / ``bill``: a charge that
escaped a ``models_time`` guard is an ``AttributeError`` on the
first real-carrier run that reaches it.

``now`` is epoch-based (``time.time``) rather than per-process
monotonic so that trace events recorded by different OS processes on
the same machine merge into one causally ordered timeline — see
:mod:`repro.transport.tracemerge`.
"""

from __future__ import annotations

import time


class WallClock:
    """A clock that only tells the time: ``now`` is the operating system's."""

    #: Real time passes by itself: a runtime over this clock charges
    #: nothing.
    models_time = False

    @property
    def now(self) -> float:
        """Current wall time in epoch seconds."""
        return time.time()
