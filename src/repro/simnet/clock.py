"""Simulated clock and cost model.

The reproduction reports *simulated seconds*.  The clock is advanced
explicitly by the runtimes according to a :class:`CostModel` whose
constants approximate the paper's testbed: Sun SPARC stations (28.5
MIPS) on a 10 Mbps Ethernet using TCP with ``TCP_NODELAY``.

The calibration used for the figures lives in
:mod:`repro.bench.calibration`; the defaults here are the same values so
that library users get paper-scale numbers out of the box.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from math import inf


@dataclass(frozen=True)
class CostModel:
    """Time charges (in seconds) for the simulated testbed.

    Attributes:
        message_latency: fixed cost per network message (propagation,
            interrupt handling, protocol stack traversal).  A small RPC is
            two messages (request + reply).
        byte_wire: transmission time per byte on the wire
            (10 Mbps -> 0.8 microseconds per byte).
        byte_codec: CPU time per byte to XDR-encode *or* decode data,
            including the representation conversion the paper charges for
            heterogeneity.
        page_fault: cost of one access-violation trap plus user-level
            handler dispatch and the mprotect-style remap afterwards.
        local_access: cost of one program-level memory access once data is
            resident (the paper's point is that this equals ordinary local
            access cost).
        visit_compute: per-node computation in the workload body
            (comparisons, bookkeeping) besides its memory accesses.
        malloc_op: CPU cost of one heap allocate/release operation.
    """

    message_latency: float = 50e-6
    byte_wire: float = 0.8e-6
    byte_codec: float = 0.9e-6
    page_fault: float = 40e-6
    local_access: float = 0.35e-6
    visit_compute: float = 1.2e-6
    malloc_op: float = 6e-6

    def __post_init__(self) -> None:
        # Checked once here, not at every charge: a real carrier's
        # runtime computes no charge at all, so a bad field would
        # otherwise surface only mid-session on the simulator.
        for item in fields(self):
            value = getattr(self, item.name)
            if not (isinstance(value, (int, float)) and 0 <= value < inf):
                raise ValueError(
                    f"CostModel.{item.name} must be a finite, "
                    f"non-negative number of seconds, got {value!r}"
                )

    def message_cost(self, payload_bytes: int) -> float:
        """Wire time for one message carrying ``payload_bytes``."""
        return self.message_latency + payload_bytes * self.byte_wire

    def codec_cost(self, payload_bytes: int) -> float:
        """CPU time to encode or decode ``payload_bytes`` once."""
        return payload_bytes * self.byte_codec


class SimClock:
    """A monotonically advancing simulated clock.

    All runtimes participating in a simulation share one clock, which is
    consistent with the paper's single-active-thread execution model: at
    any instant exactly one thread is running somewhere in the session,
    so global time is just the sum of everything that thread did.
    """

    #: Charges move this clock: a runtime over it computes every one.
    models_time = True

    def __init__(self) -> None:
        self._now = 0.0

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    def advance(self, seconds: float) -> None:
        """Advance the clock; ``seconds`` must be non-negative (a NaN
        is refused: it would poison every later reading)."""
        if not seconds >= 0:
            raise ValueError(f"cannot advance clock by {seconds!r} seconds")
        self._now += seconds

    def bill(self, seconds: float, count: int) -> None:
        """Advance by ``seconds``, ``count`` times over.

        Exactly equivalent to calling :meth:`advance` ``count`` times:
        the float accumulation order is preserved, so a bulk access
        run charges byte-identical simulated time to the per-access
        loop it replaces (``count * seconds`` in one add would round
        differently).
        """
        if not seconds >= 0:
            raise ValueError(f"cannot advance clock by {seconds!r} seconds")
        if count < 0:
            raise ValueError(f"cannot bill {count!r} charges")
        now = self._now
        for _ in range(count):
            now += seconds
        self._now = now

    def reset(self) -> None:
        """Rewind to time zero (used between benchmark repetitions)."""
        self._now = 0.0

    # -- overlap modelling ----------------------------------------------------
    #
    # The simulator runs everything on one Python thread, so work that a
    # real system performs *concurrently* (an asynchronous prefetch
    # exchange overlapping ground-thread execution) is simulated
    # sequentially and then re-timed: mark the instant the overlapped
    # work starts, run it (the clock accrues its full cost), rewind to
    # the mark, and later join at ``max(now, completion instant)``.

    def mark(self) -> float:
        """The current instant, for a later :meth:`rewind`."""
        return self._now

    def rewind(self, instant: float) -> None:
        """Move the clock back to a previously marked instant.

        Used only to model overlapped work: the charges stay accounted
        in the interval that was simulated, but the foreground timeline
        resumes from the mark.
        """
        if instant < 0 or instant > self._now:
            raise ValueError(
                f"cannot rewind clock to {instant!r} (now {self._now!r})"
            )
        self._now = instant

    def join(self, instant: float) -> None:
        """Wait until ``instant``: advance if it is still in the future."""
        if instant > self._now:
            self._now = instant


class Stopwatch:
    """Measures an interval of simulated time against a :class:`SimClock`."""

    def __init__(self, clock: SimClock) -> None:
        self._clock = clock
        self._start = clock.now

    def restart(self) -> None:
        """Begin a new interval at the current instant."""
        self._start = self._clock.now

    @property
    def elapsed(self) -> float:
        """Simulated seconds since construction or the last restart."""
        return self._clock.now - self._start
