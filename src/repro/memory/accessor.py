"""The program-facing memory accessor.

Workload code ("the remote procedure body") never touches an
:class:`~repro.memory.address_space.AddressSpace` directly; it goes
through :class:`Mem`, which plays the role of the CPU load/store path:

1. attempt the access;
2. on an access violation, deliver the fault to the registered
   user-level handler (as the kernel delivers SIGSEGV / a Mach
   exception);
3. re-execute the access.

This makes remote data *transparent* to the program: the same
``mem.load(...)`` works whether the page is ordinary local memory,
an already-filled cache page, or a protected page whose data is still
on another machine.  Once a page is resident, the only cost is
``CostModel.local_access`` — the paper's claim that cached remote data
costs exactly as much as local data.

:meth:`Mem.load` and :meth:`Mem.store` are the whole access plane.
Four mechanisms keep the *Python-level* cost of that claim honest:

* **Page access tokens.**  On the first touch of a page, ``Mem``
  caches ``(read limit, write limit, page buffer, observe)`` for it:
  how far into the page a load and a store may reach on the fast path
  (the buffer's length, or -1 when the protection denies the access),
  and whether an access to it still reports to the observer;
  subsequent accesses on the page skip the checked
  ``AddressSpace.read``/``write`` path entirely and slice the page
  buffer directly.  Tokens are discarded wholesale whenever the
  space's ``generation`` counter moves — ``map_region``, ``unmap_page``
  and ``protect`` all bump it — so a coherency-driven protection flip
  is never missed.  A page buffer is mutated in place, so a live token
  always sees current contents, with one exception: a write past the
  bytes a buffer backs rebinds it to a longer one, and that bumps the
  generation too.
* **Direct fault delivery.**  A one-page access whose token shows the
  page mapped but its protection denying the access is a fault with
  nothing left to check: ``Mem`` builds the :class:`AccessViolation`
  itself, hands it to the space's handler and retries through a fresh
  token — no raise and catch through ``AddressSpace.read``/``write``.
  Any other access a token does not cover — a cross-page span, an
  unmapped page, bytes past the buffer — takes the checked path and
  its fault-retry loop, which reads zeros past the buffer and grows it
  on a write.  Both count a fault only after its handler returns, and
  give up after the same number of handler invocations.
* **Access runs.**  ``accesses=n`` makes one load or store stand for
  ``n`` modelled accesses: one protection check for the whole span,
  the clock charged ``n`` times and at most one coalesced observer
  callback covering the span's byte range.  ``Mem`` moves the clock
  itself, with no call into it: one ``local_access`` added to
  ``SimClock.now`` per modelled access, in order, so a run charges
  byte-identical time to ``n`` single accesses (the access-plane
  contract in ``SimClock``'s docstring).
* **Settled pages.**  The observer's return value says whether
  accesses to the page can still matter to it: a truthy answer
  ("settled") rewrites the page's token with ``observe`` false, so
  later token accesses to that page make no callback at all until the
  next generation bump drops the token table.  ``None`` (or any falsy
  answer) keeps the callbacks coming.  The checked path reports every
  access and ignores the answer, and installing an observer re-arms
  every page.  The smart runtime settles a page once its cache holds
  no untouched shipped data, which is what makes a warm resident
  access cost only the access.
"""

from __future__ import annotations

import struct
from typing import Callable, Dict, List, Optional, Tuple, Union

from repro.memory.address_space import AddressSpace
from repro.memory.faults import AccessViolation, FaultKind, FaultLoopError
from repro.simnet.clock import CostModel, SimClock
from repro.simnet.stats import StatsCollector

_MAX_FAULT_RETRIES = 8

#: ``observer(address, size, is_write)``; a truthy return settles the
#: page (see :attr:`Mem.observer`).
_Observer = Callable[[int, int, bool], Optional[bool]]

#: token = (read limit, write limit, page buffer, observe); a limit is
#: the buffer's length, or -1 when the page's protection denies the
#: access; ``observe`` is whether a fast-path access still calls the
#: observer.  The buffer itself, not a view of it: a cold walk takes
#: one token per page, and a tuple of ints, a bool and a bytearray is
#: one object the cyclic collector can stop tracking, where a
#: memoryview is a second one.
_Token = Tuple[int, int, bytearray, bool]


class Mem:
    """Checked, fault-transparent access to one address space."""

    def __init__(
        self,
        space: AddressSpace,
        clock: Optional[SimClock] = None,
        cost_model: Optional[CostModel] = None,
        stats: Optional[StatsCollector] = None,
    ) -> None:
        self.space = space
        self.clock = clock
        self.cost_model = cost_model if cost_model is not None else CostModel()
        self.stats = stats
        self._tokens: Dict[int, _Token] = {}
        self._observer: Optional[_Observer] = None
        self._token_gen = -1
        # CostModel is a frozen dataclass, so the per-access charge can
        # be snapshotted once instead of read on every fast-path access.
        self._local_access = self.cost_model.local_access

    @property
    def observer(self) -> Optional[_Observer]:
        """Called as ``observer(address, size, is_write)`` after an access.

        Only the program plane goes through :class:`Mem`, so this sees
        exactly what the procedure body touches — the smart runtime
        hooks it for shipped-vs-touched accounting — and never the
        codec's raw-plane traffic.  A run of accesses reports once for
        its whole byte range.  A truthy return settles the page: token
        accesses to it stop reporting until the space's generation
        moves.  The checked path (a cross-page span, a fault, a token
        miss) reports every access.  Installing or replacing the
        observer re-arms every page.
        """
        return self._observer

    @observer.setter
    def observer(self, observer: Optional[_Observer]) -> None:
        self._observer = observer
        self._tokens.clear()

    # -- page access tokens ----------------------------------------------------

    def _token(self, page_number: int) -> Optional[_Token]:
        """The access token for a page, acquiring one when mapped.

        Callers must have synchronised ``_token_gen`` with the space's
        generation first; the cached limits are then valid because any
        later ``protect``/``unmap_page`` or buffer growth bumps the
        generation and discards the whole token table.
        """
        page = self.space.page_if_mapped(page_number)
        if page is None:
            return None
        protection = page.protection
        data = page.data
        token = (
            len(data) if protection.readable else -1,
            len(data) if protection.writable else -1,
            data,
            self._observer is not None,
        )
        self._tokens[page_number] = token
        return token

    # -- loads/stores ----------------------------------------------------------

    def load(self, address: int, size: int, accesses: int = 1) -> bytes:
        """Load ``size`` bytes as ``accesses`` accesses, resolving faults.

        A run (``accesses`` other than 1) pays the protection check
        once for its whole span; the clock is still charged
        ``accesses`` times and one observer callback, unless the page
        is settled, covers the span.  A span touching protected pages
        faults and retries like any access — each page it covers may
        fault once.
        """
        space = self.space
        if self._token_gen != space.generation:
            self._tokens.clear()
            self._token_gen = space.generation
        page_size = space.page_size
        page_number = address // page_size
        token = self._tokens.get(page_number)
        if token is None:
            token = self._token(page_number)
        if token is not None and size >= 0:
            offset = address - page_number * page_size
            end = offset + size
            if end <= token[0]:
                data = bytes(token[2][offset:end])
                # The clock is charged here, not through a call: one
                # add per modelled access, in order (the access-plane
                # contract of ``SimClock``).
                clock = self.clock
                if accesses == 1:
                    if clock is not None:
                        clock.now += self._local_access
                elif accesses < 0:
                    raise ValueError(f"negative access count {accesses!r}")
                elif clock is not None:
                    now = clock.now
                    charge = self._local_access
                    while accesses:
                        now += charge
                        accesses -= 1
                    clock.now = now
                if token[3] and self._observer(address, size, False):
                    # Settled until the generation moves; should the
                    # observer itself have moved it, the next access
                    # drops this token with the rest.
                    self._tokens[page_number] = token[:3] + (False,)
                return data
            if token[0] < 0 and end <= page_size:
                return self._fault(address, size, None, accesses)
        return self._checked(address, size, None, accesses)

    def store(self, address: int, data: bytes, accesses: int = 1) -> None:
        """Store bytes as ``accesses`` accesses, resolving faults."""
        space = self.space
        if self._token_gen != space.generation:
            self._tokens.clear()
            self._token_gen = space.generation
        page_size = space.page_size
        page_number = address // page_size
        token = self._tokens.get(page_number)
        if token is None:
            token = self._token(page_number)
        if token is not None:
            offset = address - page_number * page_size
            size = len(data)
            end = offset + size
            if end <= token[1]:
                if accesses == 1:
                    clock = self.clock  # charged as in ``load``
                    if clock is not None:
                        clock.now += self._local_access
                else:
                    # A run or a negative count.  No store run is on a
                    # hot path, so it takes the call ``load`` avoids.
                    self._charge(accesses)
                token[2][offset:end] = data
                if token[3] and self._observer(address, size, True):
                    self._tokens[page_number] = token[:3] + (False,)
                return
            if token[1] < 0 and end <= page_size:
                self._fault(address, size, data, accesses)
                return
        self._checked(address, len(data), data, accesses)

    def _fault(
        self, address: int, size: int, data: Optional[bytes], accesses: int
    ) -> Optional[bytes]:
        """A one-page access its page's protection denies.

        A load when ``data`` is None, else a store of ``data``.  The
        :class:`AccessViolation` goes straight to the space's handler
        (no raise and catch through ``AddressSpace.read``/``write``),
        and the access is retried through a fresh token, within the
        same budget of handler invocations as :meth:`_checked`.  What
        a token cannot serve after the handler ran (the page unmapped,
        or bytes past its buffer) finishes on the checked plane.  The
        retried access reports to the observer whatever its page's
        state, as a checked access does.
        """
        if accesses < 0:
            raise ValueError(f"negative access count {accesses!r}")
        space = self.space
        page_number = address // space.page_size
        end = address - page_number * space.page_size + size
        write = data is not None
        kind = FaultKind.WRITE if write else FaultKind.READ
        budget = _MAX_FAULT_RETRIES
        while True:
            self._deliver(
                AccessViolation(space.space_id, address, kind, page_number)
            )
            budget -= 1
            if not budget:
                raise self._gave_up(address, write, _MAX_FAULT_RETRIES)
            if self._token_gen != space.generation:
                self._tokens.clear()
                self._token_gen = space.generation
            token = self._token(page_number)
            if token is None:
                break
            limit = token[1] if write else token[0]
            if end <= limit:
                offset = end - size
                if write:
                    token[2][offset:end] = data
                    result = None
                else:
                    result = bytes(token[2][offset:end])
                self._done(address, size, write, accesses)
                return result
            if limit >= 0:
                break
        return self._checked(address, size, data, accesses)

    def _checked(
        self, address: int, size: int, data: Optional[bytes], accesses: int
    ) -> Optional[bytes]:
        """Access through the checked ``AddressSpace`` plane.

        A load when ``data`` is None, else a store of ``data``.  Each
        fault goes to the handler and the access is retried; the retry
        budget is widened by the span's page count, so a span may fault
        once per page it covers.
        """
        if accesses < 0:
            raise ValueError(f"negative access count {accesses!r}")
        space = self.space
        budget = _MAX_FAULT_RETRIES + max(0, size - 1) // space.page_size
        for _ in range(budget):
            try:
                if data is None:
                    result = space.read(address, size)
                else:
                    result = space.write(address, data)
            except AccessViolation as fault:
                self._deliver(fault)
                continue
            self._done(address, size, data is not None, accesses)
            return result
        raise self._gave_up(address, data is not None, budget)

    # -- bulk typed access -----------------------------------------------------
    #
    # Layout questions go to ``repro.xdr``; those imports are deferred
    # to call time because ``repro.xdr`` imports this package at module
    # load.

    def load_array(
        self, address: int, element_spec, count: int, arch
    ) -> List[Union[int, float, bytes]]:
        """Load ``count`` identity-layout elements in one checked run.

        ``element_spec`` must have the identity property on ``arch``
        (``repro.xdr.raw.raw_identity_size``): native memory already is
        the canonical form, so the run is a single bulk copy decoded
        without a per-element accessor round.  One ``local_access`` is
        charged per element.
        """
        from repro.xdr.raw import raw_identity_size
        from repro.xdr.types import OpaqueType, ScalarType

        if count < 0:
            raise ValueError(f"negative element count {count!r}")
        unit = raw_identity_size(element_spec, arch)
        if unit is None:
            raise ValueError(
                f"{element_spec!r} has no identity layout on {arch.name}"
            )
        blob = self.load(address, unit * count, accesses=count)
        if isinstance(element_spec, ScalarType):
            prefix = ">" if arch.byteorder == "big" else "<"
            code = element_spec.kind.struct_code
            return list(struct.unpack(prefix + code * count, blob))
        assert isinstance(element_spec, OpaqueType)
        return [blob[i * unit : (i + 1) * unit] for i in range(count)]

    # -- internals ------------------------------------------------------------

    def _deliver(self, fault: AccessViolation) -> None:
        handler = self.space.fault_handler
        if handler is None:
            raise fault
        handler(fault)
        # Counted only after the handler returns: a handler that raises
        # did not resolve anything, so it must not score a fault.
        if self.stats is not None:
            self.stats.page_faults += 1

    def _done(
        self, address: int, size: int, write: bool, accesses: int
    ) -> None:
        """Charge a completed faulting-plane access and report it to
        the observer (whatever its page's state)."""
        self._charge(accesses)
        if self._observer is not None:
            self._observer(address, size, write)

    def _gave_up(
        self, address: int, write: bool, budget: int
    ) -> FaultLoopError:
        """The error for an access still faulting after ``budget``
        handler invocations."""
        return FaultLoopError(
            f"{'store to' if write else 'load of'} {address:#x} in "
            f"{self.space.space_id!r} still faults after {budget} handler "
            f"invocations"
        )

    def _charge(self, accesses: int) -> None:
        """Charge ``accesses`` local accesses: one add of
        ``local_access`` to the clock per access, in order (the
        access-plane contract of ``SimClock``)."""
        if accesses < 0:
            raise ValueError(f"negative access count {accesses!r}")
        clock = self.clock
        if clock is None:
            return
        now = clock.now
        charge = self._local_access
        while accesses:
            now += charge
            accesses -= 1
        clock.now = now
