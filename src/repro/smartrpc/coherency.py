"""The coherency protocol (paper §3.4).

RPC's synchronous nature — one active thread per session, even across
nested calls — means coherency need only be guaranteed *for the active
thread*.  The protocol therefore ships the **modified data set** (all
data on dirty cache pages, plus dirty data relayed from other spaces)
whenever thread activity crosses address spaces: piggybacked on every
call's arguments and every reply's results.

Each peer gets only the part it may lack (DESIGN.md §12, delivery).
The active space holds every current version, so after a crossing
both sides do; a space stamps each dirty page with the epoch of its
last write fault and each relayed entry with the epoch it arrived in,
remembers per peer the epoch of the last crossing with it, and ships a
peer only entries stamped after that.  Each crossing re-protects the
pages written since the last one, so the next write faults and
restamps.

At the end of the session the ground runtime

1. writes every modified datum a home may lack back to it, and
2. multicasts an invalidation so every participant drops its cached
   data — remote pointers have no meaning after the session.

No concurrency control appears anywhere, which is the paper's point of
contrast with DSM systems.

The write-back itself runs in two phases (DESIGN.md §12): every home
owed data first *stages* its batch (``WRITEBACK_PREPARE``), and only when
every stage is acknowledged does the ground *commit* them
(``WRITEBACK_COMMIT``), at which point each home applies its staged
batch to the originals.  A crash anywhere in between therefore never
leaves a home space half-updated: an uncommitted home discards its
staged batch on the abort INVALIDATE (or when its orphan reaper
fires), so each home ends either fully original or fully updated.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List

from repro.simnet.message import Message, MessageKind
from repro.smartrpc import transfer
from repro.smartrpc.alloc_table import AllocEntry
from repro.smartrpc.closure import ClosureItem
from repro.smartrpc.errors import SmartRpcError
from repro.xdr.stream import XdrDecoder, XdrEncoder
from repro.xdr.types import TypeSpec

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.smartrpc.runtime import SmartRpcRuntime, SmartSessionState


def modified_items(
    runtime: "SmartRpcRuntime", state: "SmartSessionState", peer: str
) -> List[ClosureItem]:
    """The modified data ``peer`` may lack, as transferable items.

    That is every entry of the modified data set stamped after the
    last crossing with ``peer`` (:meth:`SmartSessionState.since`).  An
    entry's stamp is the later of its page's (the epoch of the page's
    last write fault) and the epoch its relayed copy arrived in.
    """
    since = state.since(peer)
    return _items(runtime, [
        entry
        for entry, stamp in _stamped_entries(state).items()
        if stamp > since and entry.resident
    ])


def _stamped_entries(state: "SmartSessionState") -> Dict[AllocEntry, int]:
    stamps = state.cache.dirty_entries()
    for entry, stamp in state.relayed_dirty.items():
        if stamps.get(entry, -1) < stamp:
            stamps[entry] = stamp
    return stamps


def _items(
    runtime: "SmartRpcRuntime", entries: List[AllocEntry]
) -> List[ClosureItem]:
    """One batch's entries as transferable items, each type id
    resolved once."""
    specs: Dict[str, TypeSpec] = {}
    items = []
    for entry in entries:
        pointer = entry.pointer
        type_id = pointer[2]
        if type_id in specs:
            spec = specs[type_id]
        else:
            spec = specs[type_id] = runtime.resolver.resolve(type_id)
        items.append(ClosureItem(pointer, spec, entry.local_address))
    return items


def encode_piggyback(
    runtime: "SmartRpcRuntime", state: "SmartSessionState", peer: str
) -> bytes:
    """Build the piggyback of one activity transfer to ``peer``.

    Carries the sender's participant set (so the ground space ends the
    session knowing *every* involved space, even ones it never called
    directly) and the modified data ``peer`` may lack.
    """
    encoder = XdrEncoder()
    participants = sorted(state.participants | {runtime.site_id})
    encoder.pack_uint32(len(participants))
    for participant in participants:
        encoder.pack_string(participant)
    encoder.pack_opaque(
        transfer.encode_batch(
            runtime, state, modified_items(runtime, state, peer)
        )
    )
    return encoder.getvalue()


def apply_piggyback(
    runtime: "SmartRpcRuntime",
    state: "SmartSessionState",
    peer: str,
    payload: bytes,
) -> None:
    """Apply a piggyback from ``peer`` (participants + modified data).

    Records a ``piggyback-apply`` event when the batch carried data:
    the sanitizer's evidence that data homed here reached the
    originals without a write-back (SRPC404).
    """
    if not payload:
        return
    decoder = XdrDecoder(payload)
    count = decoder.unpack_uint32()
    for _ in range(count):
        state.note_participant(decoder.unpack_string())
    batch = decoder.unpack_opaque()
    decoder.expect_done()
    applied = transfer.apply_batch(runtime, state, batch, overwrite=True)
    if applied:
        runtime.trace_event(
            "piggyback-apply",
            f"{runtime.site_id}: session {state.session_id} applied "
            f"{applied} modified item(s) from {peer}",
            session=state.session_id,
            space=runtime.site_id,
            src=peer,
            items=applied,
        )


# -- session end --------------------------------------------------------------


def end_session(
    runtime: "SmartRpcRuntime", state: "SmartSessionState"
) -> None:
    """Ground-side session teardown: write back, invalidate, drop."""
    runtime.flush_memory_batch(state)
    participants = sorted(
        p for p in state.participants if p != runtime.site_id
    )
    owed = _owed_by_home(runtime, state)
    dirty_homes = {home: len(items) for home, items in owed.items()}
    runtime.trace_event(
        "session-end",
        f"{runtime.site_id}: session {state.session_id} ends "
        f"(participants {participants}, dirty homes {dirty_homes})",
        session=state.session_id,
        space=runtime.site_id,
        participants=participants,
        dirty_homes=dirty_homes,
    )
    _write_back(runtime, state, owed)
    # The write-back already committed, so the multicast is best
    # effort: a dead participant cleans up when its reaper fires.
    runtime.invalidate_participants(state)
    state.release()


def _owed_by_home(
    runtime: "SmartRpcRuntime", state: "SmartSessionState"
) -> Dict[str, List[ClosureItem]]:
    """Per remote home, the modified data homed there it may lack."""
    owed: Dict[str, List[AllocEntry]] = {}
    since: Dict[str, int] = {}
    for entry, stamp in _stamped_entries(state).items():
        home = entry.pointer[0]
        if home == runtime.site_id or not entry.resident:
            continue
        if home not in since:
            since[home] = state.since(home)
        if stamp > since[home]:
            owed.setdefault(home, []).append(entry)
    return {home: _items(runtime, entries) for home, entries in owed.items()}


def _write_back(
    runtime: "SmartRpcRuntime",
    state: "SmartSessionState",
    by_home: Dict[str, List[ClosureItem]],
) -> None:
    """Two-phase write-back: stage at every owed home, then commit.

    Phase ordering is the crash-safety argument: no home applies
    anything until *every* home has acknowledged holding its complete
    batch, and each home's apply is a single local step, so a crash at
    any instant leaves every home either fully original or fully
    updated (an uncommitted staged batch is discarded by the abort
    INVALIDATE or the home's own orphan reaper).
    """
    homes = sorted(by_home)
    for home in homes:
        encoder = XdrEncoder()
        encoder.pack_string(state.session_id)
        encoder.pack_string(state.ground_site)
        encoder.pack_opaque(
            transfer.encode_batch(runtime, state, by_home[home])
        )
        payload = encoder.getvalue()
        if runtime.models_time:
            runtime.clock.advance(runtime.cost_model.codec_cost(len(payload)))
        runtime.session_send(
            state,
            home,
            MessageKind.WRITEBACK_PREPARE,
            payload,
            reply_kind=MessageKind.WRITEBACK_PREPARE_ACK,
        )
    for home in homes:
        encoder = XdrEncoder()
        encoder.pack_string(state.session_id)
        runtime.session_send(
            state,
            home,
            MessageKind.WRITEBACK_COMMIT,
            encoder.getvalue(),
            reply_kind=MessageKind.WRITEBACK_COMMIT_ACK,
        )
        runtime.stats.write_backs += 1
        runtime.trace_event(
            "write-back",
            f"{runtime.site_id}: session {state.session_id} wrote "
            f"{len(by_home[home])} item(s) back to {home}",
            session=state.session_id,
            space=runtime.site_id,
            home=home,
            items=len(by_home[home]),
        )


def _record_phase(
    runtime: "SmartRpcRuntime",
    state: "SmartSessionState",
    phase: str,
    size: int,
) -> None:
    """Trace one home-side write-back phase transition.

    Recorded at the *home* (not the ground) so the evidence survives a
    ground crash: the SRPC321 conformance rule checks every commit at
    a space against that same space's earlier prepare.
    """
    runtime.trace_event(
        "writeback-phase",
        f"{runtime.site_id}: session {state.session_id} write-back "
        f"{phase} ({size} staged byte(s))",
        session=state.session_id,
        space=runtime.site_id,
        ground=state.ground_site,
        home=runtime.site_id,
        phase=phase,
        bytes=size,
    )


def handle_writeback_prepare(
    runtime: "SmartRpcRuntime", message: Message
) -> bytes:
    """Home-space phase 1: hold the batch without applying it."""
    if runtime.models_time:
        runtime.clock.advance(
            runtime.cost_model.codec_cost(len(message.payload))
        )
    decoder = XdrDecoder(message.payload)
    session_id = decoder.unpack_string()
    ground_site = decoder.unpack_string()
    # Staged as a view, not a copy: every carrier hands a handler a
    # payload that owns its bytes, so the view keeps them alive until
    # commit.  A re-prepare supersedes what was staged.
    batch = decoder.unpack_opaque_view()
    decoder.expect_done()
    state = runtime.ensure_smart_session(session_id, ground_site)
    state.staged_writeback = batch
    _record_phase(runtime, state, "prepare", len(batch))
    return b""


def handle_writeback_commit(
    runtime: "SmartRpcRuntime", message: Message
) -> bytes:
    """Home-space phase 2: apply the staged batch to the originals."""
    decoder = XdrDecoder(message.payload)
    session_id = decoder.unpack_string()
    decoder.expect_done()
    state = runtime._sessions.get(session_id)
    staged = state.take_staged() if state is not None else None
    if staged is None:
        raise SmartRpcError(
            f"{runtime.site_id}: writeback-commit for session "
            f"{session_id!r} without a staged prepare"
        )
    transfer.apply_batch(runtime, state, staged, overwrite=True)
    _record_phase(runtime, state, "commit", len(staged))
    return b""


def handle_invalidate(
    runtime: "SmartRpcRuntime", message: Message
) -> bytes:
    """Participant side of the end-of-session invalidation multicast."""
    decoder = XdrDecoder(message.payload)
    session_id = decoder.unpack_string()
    decoder.expect_done()
    runtime.invalidate_session(session_id)
    return b""
