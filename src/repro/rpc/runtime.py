"""The per-address-space RPC runtime.

One :class:`RpcRuntime` manages one address space on one site: it
registers procedure implementations, dispatches incoming calls,
marshals arguments through the canonical form (charging codec CPU time
to the simulated clock), and tracks the sessions it participates in.

The runtime is deliberately synchronous: the paper's execution model
has exactly one active thread per session, so a call is a nested
invocation into the destination runtime and nested RPCs / callbacks
compose as ordinary nested calls.

Extension hooks (overridden by
:class:`repro.smartrpc.runtime.SmartRpcRuntime`):

* ``_pointer_out`` / ``_pointer_in`` — pointer (un)marshalling; the
  conventional defaults refuse pointers, reproducing the restriction
  the paper sets out to remove;
* ``_make_piggyback`` / ``_apply_piggyback`` — opaque data attached to
  every activity transfer (call and reply); the coherency protocol's
  modified-data-set and the batched remote memory operations ride here;
  ``_withhold_piggyback`` marks the one transfer without it, an error
  reply;
* ``_make_session_state`` / ``_teardown_session`` — session lifecycle;
* ``session_send`` — every session-scoped exchange; the smart runtime
  guards it with the session deadline, the exchange cap and a typed
  abort.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Optional, Sequence, Tuple

from repro.memory.accessor import Mem
from repro.memory.address_space import AddressSpace
from repro.memory.heap import Heap
from repro.namesvc.client import TypeResolver
from repro.rpc import marshal
from repro.rpc.errors import (
    RpcError,
    RpcRemoteError,
    SessionError,
    UnknownProcedureError,
)
from repro.rpc.interface import InterfaceDef, ProcedureDef
from repro.rpc.session import RpcSession, SessionState
from repro.simnet.message import Message, MessageKind
from repro.transport.base import Endpoint, Transport
from repro.xdr.arch import Architecture
from repro.xdr.raw import RawCodec, WirePlan, wire_plan
from repro.xdr.stream import XdrDecoder, XdrEncoder
from repro.xdr.types import StructType
from repro.xdr.view import StructView

_STATUS_OK = 0
_STATUS_REMOTE_ERROR = 1

Implementation = Callable[..., Any]


class CallContext:
    """What a procedure body receives as its first argument.

    Provides the callee-side session state, typed memory access, and
    the ability to issue nested RPCs — including callbacks to the
    caller, which the execution model explicitly allows.
    """

    def __init__(
        self,
        runtime: "RpcRuntime",
        state: SessionState,
        caller_site: str,
    ) -> None:
        self.runtime = runtime
        self._state = state
        self.caller_site = caller_site

    @property
    def state(self) -> SessionState:
        """The local session state (stub argument protocol)."""
        return self._state

    @property
    def mem(self) -> Mem:
        """Checked access to the local address space."""
        return self.runtime.mem

    def struct_view(self, address: int, spec: StructType) -> StructView:
        """A typed view of a struct at ``address`` in local memory."""
        return StructView(self.runtime.mem, address, spec, self.runtime.arch)

    def call(self, dst: str, qualified: str, args: Sequence[Any]) -> Any:
        """Issue a nested RPC within the same session."""
        return self.runtime.call(self, dst, qualified, args)

    def callback(self, qualified: str, args: Sequence[Any]) -> Any:
        """Remotely call the caller back (paper §3.1)."""
        return self.call(self.caller_site, qualified, args)


class RpcRuntime:
    """RPC runtime for one address space."""

    def __init__(
        self,
        network: Transport,
        site: Endpoint,
        arch: Architecture,
        resolver: Optional[TypeResolver] = None,
        space: Optional[AddressSpace] = None,
    ) -> None:
        self.network = network
        self.site = site
        self.arch = arch
        self.space = (
            space if space is not None else AddressSpace(site.site_id)
        )
        self.resolver = (
            resolver
            if resolver is not None
            else TypeResolver(site, server_site_id=None)
        )
        self.heap = Heap(self.space)
        self.mem = Mem(
            self.space,
            clock=network.clock,
            cost_model=network.cost_model,
            stats=network.stats,
        )
        self.codec = RawCodec(self.space, arch)
        self._wire_plans: Dict[str, WirePlan] = {}
        self._procedures: Dict[str, Tuple[ProcedureDef, Implementation]] = {}
        self._imported: Dict[str, ProcedureDef] = {}
        self._sessions: Dict[str, SessionState] = {}
        site.register_handler(MessageKind.CALL, self._handle_call)

    def wire_plan(self, type_id: str) -> WirePlan:
        """The compiled layout of ``type_id`` on this machine.

        Resolves the id on first use (one name-server query when the
        resolver is cold); a published definition is immutable, so the
        memo never needs invalidating.
        """
        plan = self._wire_plans.get(type_id)
        if plan is None:
            plan = self._wire_plans[type_id] = wire_plan(
                self.resolver.resolve(type_id), self.arch
            )
        return plan

    # -- identity ------------------------------------------------------------

    @property
    def site_id(self) -> str:
        """This runtime's address-space identifier."""
        return self.site.site_id

    @property
    def clock(self):
        """The shared simulated clock."""
        return self.network.clock

    @property
    def cost_model(self):
        """The shared cost model."""
        return self.network.cost_model

    @property
    def stats(self):
        """The shared statistics collector."""
        return self.network.stats

    def trace_event(
        self,
        category: str,
        detail: str,
        session: Optional[str] = None,
        **data: Any,
    ) -> None:
        """Record one causally stamped protocol event at this site.

        Every protocol-plane emitter goes through here so each event
        carries the schema's required fields: the ``session`` it
        belongs to plus the endpoint's ``site`` / ``seq`` / ``vc``
        stamp (:meth:`repro.transport.base.Endpoint.stamp`).  A no-op
        when tracing is off, so benchmark runs never tick clocks for
        events nobody records.
        """
        if not self.stats.tracing:
            return
        payload: Dict[str, Any] = dict(data)
        if session is not None:
            payload["session"] = session
        payload.update(self.site.stamp(session))
        self.stats.record_event(
            self.clock.now, category, detail, data=payload
        )

    # -- typed heap convenience -----------------------------------------------

    def malloc(self, type_id: str) -> int:
        """Allocate one value of ``type_id`` on the local typed heap."""
        spec = self.resolver.resolve(type_id)
        self.clock.advance(self.cost_model.malloc_op)
        return self.heap.malloc(spec.sizeof(self.arch), type_id)

    def struct_view(self, address: int, spec: StructType) -> StructView:
        """A typed program-plane view of local memory."""
        return StructView(self.mem, address, spec, self.arch)

    # -- procedure registration -----------------------------------------------

    def register_procedure(
        self,
        interface: InterfaceDef,
        name: str,
        implementation: Implementation,
    ) -> None:
        """Bind ``implementation`` to ``interface.name``."""
        procedure = interface.procedure(name)
        qualified = interface.qualified(name)
        if qualified in self._procedures:
            raise RpcError(f"procedure {qualified!r} already registered")
        self._procedures[qualified] = (procedure, implementation)

    def import_interface(self, interface: InterfaceDef) -> None:
        """Make an interface's signatures known for caller-side marshalling.

        A caller needs the :class:`ProcedureDef` to marshal arguments
        even when it implements nothing — this is the client half of
        what a stub compiler distributes to both sides.
        """
        for procedure in interface.procedures:
            self._imported[interface.qualified(procedure.name)] = procedure

    def procedure_def(self, qualified: str) -> ProcedureDef:
        """The signature registered or imported under ``qualified``."""
        bound = self._procedures.get(qualified)
        if bound is not None:
            return bound[0]
        imported = self._imported.get(qualified)
        if imported is not None:
            return imported
        raise UnknownProcedureError(
            f"site {self.site_id!r} has no procedure {qualified!r}"
        )

    # -- sessions -------------------------------------------------------------

    def func_ref(self, interface: InterfaceDef, name: str):
        """A :class:`~repro.rpc.funcref.FuncRef` to a procedure served
        by *this* runtime (it must be implemented locally)."""
        from repro.rpc.funcref import FuncRef

        qualified = interface.qualified(name)
        self._lookup(qualified)  # verifies a local implementation exists
        return FuncRef(
            self.site_id, qualified, signature=interface.procedure(name)
        )

    def session(self) -> RpcSession:
        """Open a new ground-thread session (context manager)."""
        return RpcSession(self)

    def begin_session(self, session_id: str) -> SessionState:
        """Create ground-side session state."""
        if session_id in self._sessions:
            raise SessionError(f"session {session_id!r} already open here")
        state = self._make_session_state(session_id, self.site_id)
        self._sessions[session_id] = state
        return state

    def end_session(self, state: SessionState) -> None:
        """Close a session this runtime grounds."""
        if state.session_id not in self._sessions:
            if state.closed:
                # Aborted or reaped under us (deadline, dead peer);
                # everything was already rolled back, so the context
                # manager's exit has nothing left to do.
                return
            raise SessionError(
                f"session {state.session_id!r} is not open here"
            )
        if state.ground_site != self.site_id:
            raise SessionError(
                f"session {state.session_id!r} is grounded at "
                f"{state.ground_site!r}, not here"
            )
        self._teardown_session(state)
        state.closed = True
        self._sessions.pop(state.session_id, None)

    def session_state(self, session_id: str) -> SessionState:
        """Look up the local state of an open session."""
        try:
            return self._sessions[session_id]
        except KeyError:
            raise SessionError(
                f"session {session_id!r} is not open at {self.site_id!r}"
            ) from None

    def _ensure_session(
        self, session_id: str, ground_site: str
    ) -> SessionState:
        state = self._sessions.get(session_id)
        if state is None:
            state = self._make_session_state(session_id, ground_site)
            self._sessions[session_id] = state
        return state

    # -- the call path --------------------------------------------------------

    def call(
        self,
        session: Any,
        dst: str,
        qualified: str,
        args: Sequence[Any],
        procedure: Optional[ProcedureDef] = None,
    ) -> Any:
        """Issue one RPC to ``dst`` within ``session``.

        ``session`` is anything exposing ``.state`` — an
        :class:`~repro.rpc.session.RpcSession` on the ground thread or a
        :class:`CallContext` inside a procedure body.
        """
        state = session.state
        if state.closed:
            raise SessionError(
                f"session {state.session_id!r} has ended"
            )
        if procedure is None:
            procedure = self.procedure_def(qualified)
        encoder = XdrEncoder()
        encoder.pack_string(state.session_id)
        encoder.pack_string(state.ground_site)
        encoder.pack_string(qualified)
        # Activity is about to move to dst: attach the coherency /
        # memory-batch piggyback (smart runtime) before the arguments.
        piggyback = self._make_piggyback(state, dst)
        encoder.pack_opaque(piggyback)
        self._record_transfer(
            "call", state, self.site_id, dst, qualified, piggyback
        )
        marshal.pack_args(
            encoder,
            procedure,
            args,
            pointer_out=self._bind_pointer_out(state),
        )
        payload = encoder.getvalue()
        self.clock.advance(self.cost_model.codec_cost(len(payload)))
        reply = self.session_send(
            state, dst, MessageKind.CALL, payload,
            reply_kind=MessageKind.REPLY,
        )
        self.clock.advance(self.cost_model.codec_cost(len(reply)))
        decoder = XdrDecoder(reply)
        status = decoder.unpack_uint32()
        if status == _STATUS_REMOTE_ERROR:
            remote_type = decoder.unpack_string()
            message = decoder.unpack_string()
            decoder.expect_done()
            raise RpcRemoteError(remote_type, message)
        if status != _STATUS_OK:
            raise RpcError(f"bad reply status {status!r}")
        # Activity has moved back to us: apply the piggyback first so
        # any pointers in the result resolve against fresh data.
        reply_piggyback = decoder.unpack_opaque()
        self._record_transfer(
            "return", state, dst, self.site_id, qualified, reply_piggyback
        )
        self._apply_piggyback(state, dst, reply_piggyback)
        result = marshal.unpack_result(
            decoder, procedure, pointer_in=self._bind_pointer_in(state)
        )
        decoder.expect_done()
        return result

    def _handle_call(self, message: Message) -> bytes:
        self.clock.advance(self.cost_model.codec_cost(len(message.payload)))
        decoder = XdrDecoder(message.payload)
        session_id = decoder.unpack_string()
        ground_site = decoder.unpack_string()
        qualified = decoder.unpack_string()
        state = self._ensure_session(session_id, ground_site)
        state.note_participant(message.src)
        encoder = XdrEncoder()
        state.call_depth += 1
        try:
            self._apply_piggyback(
                state, message.src, decoder.unpack_opaque()
            )
            procedure, implementation = self._lookup(qualified)
            args = marshal.unpack_args(
                decoder, procedure, pointer_in=self._bind_pointer_in(state)
            )
            decoder.expect_done()
            context = CallContext(self, state, message.src)
            result = implementation(context, *args)
        except Exception as exc:  # noqa: BLE001 - ship remote errors
            self._withhold_piggyback(state, message.src)
            encoder.pack_uint32(_STATUS_REMOTE_ERROR)
            encoder.pack_string(type(exc).__name__)
            encoder.pack_string(str(exc))
        else:
            encoder.pack_uint32(_STATUS_OK)
            # Activity moves back to the caller: dirty data rides along.
            encoder.pack_opaque(self._make_piggyback(state, message.src))
            marshal.pack_result(
                encoder,
                procedure,
                result,
                pointer_out=self._bind_pointer_out(state),
            )
        finally:
            state.call_depth -= 1
        reply = encoder.getvalue()
        self.clock.advance(self.cost_model.codec_cost(len(reply)))
        return reply

    def _lookup(self, qualified: str) -> Tuple[ProcedureDef, Implementation]:
        try:
            return self._procedures[qualified]
        except KeyError:
            raise UnknownProcedureError(
                f"site {self.site_id!r} has no procedure {qualified!r}"
            ) from None

    def _record_transfer(
        self,
        direction: str,
        state: SessionState,
        src: str,
        dst: str,
        qualified: str,
        piggyback: bytes,
    ) -> None:
        """Trace one activity transfer (call or return).

        The recorded piggyback size is what the offline conformance
        checker uses to verify the modified data set travelled; it is
        ``None`` for conventional runtimes, which have no coherency
        protocol to conform to.
        """
        size = len(piggyback) if self._piggyback_expected else None
        self.trace_event(
            "transfer",
            f"{src}->{dst} {direction} {qualified} "
            f"(session {state.session_id}, piggyback "
            f"{size if size is not None else 'n/a'})",
            session=state.session_id,
            ground=state.ground_site,
            dir=direction,
            src=src,
            dst=dst,
            proc=qualified,
            piggyback=size,
        )

    # -- extension hooks ------------------------------------------------------

    # Whether activity transfers must carry the coherency piggyback
    # (the smart runtime overrides this to True).
    _piggyback_expected = False

    def _make_session_state(
        self, session_id: str, ground_site: str
    ) -> SessionState:
        return SessionState(session_id, ground_site)

    def session_send(
        self,
        state: SessionState,
        dst: str,
        kind: MessageKind,
        payload: bytes,
        reply_kind: Optional[MessageKind] = None,
    ) -> bytes:
        """One session-scoped exchange.

        The smart runtime overrides this with the guarded send that
        enforces session deadlines and per-exchange timeouts and turns
        a dead peer into a typed :class:`SessionAbortedError` instead
        of an unbounded hang.
        """
        return self.site.send(dst, kind, payload, reply_kind=reply_kind)

    def _teardown_session(self, state: SessionState) -> None:
        """Ground-side end-of-session work; conventional RPC has none."""

    def _make_piggyback(self, state: SessionState, dst: str) -> bytes:
        return b""

    def _apply_piggyback(
        self, state: SessionState, src: str, data: bytes
    ) -> None:
        if data:
            raise RpcError(
                "conventional RPC received unexpected piggyback data"
            )

    def _withhold_piggyback(self, state: SessionState, dst: str) -> None:
        """Activity returns to ``dst`` with an error, so no piggyback."""

    def _bind_pointer_out(self, state: SessionState) -> marshal.PointerOut:
        return marshal.refuse_pointer_out

    def _bind_pointer_in(self, state: SessionState) -> marshal.PointerIn:
        return marshal.refuse_pointer_in
