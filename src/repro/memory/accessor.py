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
``mem.load_int(...)`` works whether the page is ordinary local memory,
an already-filled cache page, or a protected page whose data is still
on another machine.  Once a page is resident, the only cost is
``CostModel.local_access`` — the paper's claim that cached remote data
costs exactly as much as local data.

Two mechanisms keep the *Python-level* cost of that claim honest:

* **Page access tokens.**  On the first touch of a page, ``Mem``
  caches ``(read limit, write limit, page buffer)`` for it: how far
  into the page a load and a store may reach on the fast path (the
  buffer's length, or -1 when the protection denies the access);
  subsequent accesses on the page skip the checked
  ``AddressSpace.read``/``write`` path entirely and slice the page
  buffer directly.  Tokens are discarded wholesale whenever the
  space's ``generation`` counter moves — ``map_region``, ``unmap_page``
  and ``protect`` all bump it — so a coherency-driven protection flip
  is never missed.  A page buffer is mutated in place, so a live token
  always sees current contents, with one exception: a write past the
  bytes a buffer backs rebinds it to a longer one, and that bumps the
  generation too.  An access past a token's limit takes the checked
  path, which reads zeros there and grows the buffer on a write.
* **Access runs.**  :meth:`load_run`/:meth:`store_run` perform one
  protection check for a whole run of accesses, charge the clock once
  per modelled access (in the same float-accumulation order as the
  per-access loop they replace) and emit a single coalesced observer
  callback covering the run's byte range.
"""

from __future__ import annotations

import struct
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.memory.address_space import AddressSpace
from repro.memory.faults import AccessViolation, FaultLoopError
from repro.simnet.clock import CostModel, SimClock
from repro.simnet.stats import StatsCollector

_MAX_FAULT_RETRIES = 8

#: token = (read limit, write limit, page buffer); a limit is the
#: buffer's length, or -1 when the page's protection denies the access.
#: The buffer itself, not a view of it: a cold walk takes one token per
#: page, and a tuple of ints and a bytearray is one object the cyclic
#: collector can stop tracking, where a memoryview is a second one.
_Token = Tuple[int, int, bytearray]


class Mem:
    """Checked, fault-transparent access to one address space."""

    def __init__(
        self,
        space: AddressSpace,
        clock: Optional[SimClock] = None,
        cost_model: Optional[CostModel] = None,
        stats: Optional[StatsCollector] = None,
        use_tokens: bool = True,
    ) -> None:
        self.space = space
        self.clock = clock
        self.cost_model = cost_model if cost_model is not None else CostModel()
        self.stats = stats
        #: Called as ``observer(address, size, is_write)`` after each
        #: successful access.  Only the program plane goes through
        #: :class:`Mem`, so this sees exactly what the procedure body
        #: touches — the smart runtime hooks it for shipped-vs-touched
        #: accounting — and never the codec's raw-plane traffic.  A
        #: bulk run reports once for its whole byte range.
        self.observer: Optional[Callable[[int, int, bool], None]] = None
        #: Whether the token fast path is used.  Disabled, every access
        #: takes the legacy checked ``AddressSpace.read``/``write``
        #: path — the knob ``bench_hotpath.py`` uses to price the
        #: checked path against the tokenized one.
        self.use_tokens = use_tokens
        self._tokens: Dict[int, _Token] = {}
        self._token_gen = -1
        self._bill = getattr(clock, "bill", None)
        # CostModel is a frozen dataclass, so the per-access charge can
        # be snapshotted once instead of read on every fast-path access.
        self._local_access = self.cost_model.local_access

    # -- page access tokens ----------------------------------------------------

    def _token(self, page_number: int) -> Optional[_Token]:
        """The access token for a page, acquiring one when mapped.

        Callers must have synchronised ``_token_gen`` with the space's
        generation first; the cached limits are then valid because any
        later ``protect``/``unmap_page`` or buffer growth bumps the
        generation and discards the whole token table.
        """
        token = self._tokens.get(page_number)
        if token is None:
            page = self.space.page_if_mapped(page_number)
            if page is None:
                return None
            protection = page.protection
            data = page.data
            token = (
                len(data) if protection.readable else -1,
                len(data) if protection.writable else -1,
                data,
            )
            self._tokens[page_number] = token
        return token

    # -- raw loads/stores ----------------------------------------------------

    def load(self, address: int, size: int) -> bytes:
        """Load ``size`` bytes, transparently resolving faults."""
        if self.use_tokens and size >= 0:
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
                end = offset + size
                if end <= token[0]:
                    data = bytes(token[2][offset:end])
                    if self.clock is not None:
                        self.clock.advance(self._local_access)
                    if self.observer is not None:
                        self.observer(address, size, False)
                    return data
        for _ in range(_MAX_FAULT_RETRIES):
            try:
                data = self.space.read(address, size)
            except AccessViolation as fault:
                self._deliver(fault)
                continue
            self._charge_access()
            if self.observer is not None:
                self.observer(address, size, False)
            return data
        raise FaultLoopError(
            f"load of {address:#x} in {self.space.space_id!r} still faults "
            f"after {_MAX_FAULT_RETRIES} handler invocations"
        )

    def store(self, address: int, data: bytes) -> None:
        """Store bytes, transparently resolving faults."""
        size = len(data)
        if self.use_tokens:
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
                end = offset + size
                if end <= token[1]:
                    token[2][offset:end] = data
                    if self.clock is not None:
                        self.clock.advance(self._local_access)
                    if self.observer is not None:
                        self.observer(address, size, True)
                    return
        for _ in range(_MAX_FAULT_RETRIES):
            try:
                self.space.write(address, data)
            except AccessViolation as fault:
                self._deliver(fault)
                continue
            self._charge_access()
            if self.observer is not None:
                self.observer(address, size, True)
            return
        raise FaultLoopError(
            f"store to {address:#x} in {self.space.space_id!r} still faults "
            f"after {_MAX_FAULT_RETRIES} handler invocations"
        )

    # -- bulk access runs ------------------------------------------------------

    def load_run(self, address: int, size: int, accesses: int = 1) -> bytes:
        """Load ``size`` bytes as one checked run of ``accesses`` accesses.

        The protection check is paid once for the whole run instead of
        once per element; the clock is still charged ``accesses``
        times (in per-access accumulation order, so simulated time is
        byte-identical to the loop this replaces) and one coalesced
        observer callback covers the run's byte range.  A run touching
        protected pages faults and retries like any access — each page
        the run covers may fault once.
        """
        if self.use_tokens and size >= 0:
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
                end = offset + size
                if end <= token[0]:
                    data = bytes(token[2][offset:end])
                    bill = self._bill
                    if bill is not None and accesses > 0:
                        bill(self._local_access, accesses)
                    elif bill is None:
                        self._charge_run(accesses)
                    if self.observer is not None:
                        self.observer(address, size, False)
                    return data
        budget = _MAX_FAULT_RETRIES + max(0, size - 1) // self.space.page_size
        for _ in range(budget):
            try:
                data = self.space.read(address, size)
            except AccessViolation as fault:
                self._deliver(fault)
                continue
            self._charge_run(accesses)
            if self.observer is not None:
                self.observer(address, size, False)
            return data
        raise FaultLoopError(
            f"bulk load of {address:#x} in {self.space.space_id!r} still "
            f"faults after {budget} handler invocations"
        )

    def store_run(self, address: int, data: bytes, accesses: int = 1) -> None:
        """Store bytes as one checked run of ``accesses`` accesses."""
        size = len(data)
        if self.use_tokens:
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
                end = offset + size
                if end <= token[1]:
                    token[2][offset:end] = data
                    bill = self._bill
                    if bill is not None and accesses > 0:
                        bill(self._local_access, accesses)
                    elif bill is None:
                        self._charge_run(accesses)
                    if self.observer is not None:
                        self.observer(address, size, True)
                    return
        budget = _MAX_FAULT_RETRIES + max(0, size - 1) // self.space.page_size
        for _ in range(budget):
            try:
                self.space.write(address, data)
            except AccessViolation as fault:
                self._deliver(fault)
                continue
            self._charge_run(accesses)
            if self.observer is not None:
                self.observer(address, size, True)
            return
        raise FaultLoopError(
            f"bulk store to {address:#x} in {self.space.space_id!r} still "
            f"faults after {budget} handler invocations"
        )

    # -- bulk typed access -----------------------------------------------------
    #
    # The typed helpers delegate layout questions to ``repro.xdr``;
    # those imports are deferred to call time because ``repro.xdr``
    # imports this package at module load.

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
        blob = self.load_run(address, unit * count, accesses=count)
        if isinstance(element_spec, ScalarType):
            prefix = ">" if arch.byteorder == "big" else "<"
            code = element_spec.kind.struct_code
            return list(struct.unpack(prefix + code * count, blob))
        assert isinstance(element_spec, OpaqueType)
        return [blob[i * unit : (i + 1) * unit] for i in range(count)]

    def store_array(
        self,
        address: int,
        element_spec,
        values: Sequence[Union[int, float, bytes]],
        arch,
    ) -> None:
        """Store identity-layout elements in one checked run."""
        from repro.xdr.raw import raw_identity_size
        from repro.xdr.types import OpaqueType, ScalarType

        unit = raw_identity_size(element_spec, arch)
        if unit is None:
            raise ValueError(
                f"{element_spec!r} has no identity layout on {arch.name}"
            )
        count = len(values)
        if isinstance(element_spec, ScalarType):
            prefix = ">" if arch.byteorder == "big" else "<"
            code = element_spec.kind.struct_code
            blob = struct.pack(prefix + code * count, *values)
        else:
            assert isinstance(element_spec, OpaqueType)
            for value in values:
                if not isinstance(value, bytes) or len(value) != unit:
                    raise ValueError(
                        f"opaque element of {unit} bytes given {value!r}"
                    )
            blob = b"".join(values)
        self.store_run(address, blob, accesses=count)

    def load_struct_run(
        self, address: int, spec, names: Sequence[str], arch
    ) -> tuple:
        """Load several members of the struct at ``address`` in one run.

        One checked access covers the contiguous byte span of the named
        fields (padding gaps included); one ``local_access`` is charged
        per member (per element for array members, whose values are
        returned flattened).  Values come back in ``names`` order.
        """
        from repro.xdr.view import compile_run_plan

        plan = compile_run_plan(spec, arch, tuple(names))
        blob = self.load_run(
            address + plan.start, plan.span, plan.accesses
        )
        return plan.unpack(blob)

    # -- integer/float convenience --------------------------------------------

    def load_uint(
        self, address: int, size: int, byteorder: str = "big"
    ) -> int:
        """Load an unsigned integer of ``size`` bytes."""
        return int.from_bytes(self.load(address, size), byteorder)

    def store_uint(
        self, address: int, value: int, size: int, byteorder: str = "big"
    ) -> None:
        """Store an unsigned integer of ``size`` bytes."""
        self.store(address, value.to_bytes(size, byteorder))

    def load_int(self, address: int, size: int, byteorder: str = "big") -> int:
        """Load a signed (two's-complement) integer."""
        return int.from_bytes(
            self.load(address, size), byteorder, signed=True
        )

    def store_int(
        self, address: int, value: int, size: int, byteorder: str = "big"
    ) -> None:
        """Store a signed (two's-complement) integer."""
        self.store(address, value.to_bytes(size, byteorder, signed=True))

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

    def _charge_access(self) -> None:
        if self.clock is not None:
            self.clock.advance(self.cost_model.local_access)

    def _charge_run(self, accesses: int) -> None:
        if self.clock is None or accesses <= 0:
            return
        bill = self._bill
        if bill is not None:
            bill(self.cost_model.local_access, accesses)
            return
        cost = self.cost_model.local_access
        advance = self.clock.advance
        for _ in range(accesses):
            advance(cost)
