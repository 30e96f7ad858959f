"""The coherency protocol (paper §3.4).

RPC's synchronous nature — one active thread per session, even across
nested calls — means coherency need only be guaranteed *for the active
thread*.  The protocol therefore ships the **modified data set** (all
data on dirty cache pages, plus dirty data relayed from other spaces)
whenever thread activity crosses address spaces: piggybacked on every
call's arguments and every reply's results.

At the end of the session the ground runtime

1. writes every modified datum back to its original address space, and
2. multicasts an invalidation so every participant drops its cached
   data — remote pointers have no meaning after the session.

No concurrency control appears anywhere, which is the paper's point of
contrast with DSM systems.

The write-back itself runs in two phases (DESIGN.md §12): every dirty
home first *stages* its batch (``WRITEBACK_PREPARE``), and only when
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
from repro.smartrpc.closure import ClosureItem
from repro.smartrpc.errors import SmartRpcError
from repro.xdr.stream import XdrDecoder, XdrEncoder

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.smartrpc.runtime import SmartRpcRuntime, SmartSessionState


def modified_items(
    runtime: "SmartRpcRuntime", state: "SmartSessionState"
) -> List[ClosureItem]:
    """The modified data set as transferable items."""
    entries = []
    seen = set()
    for entry in state.cache.dirty_entries():
        seen.add(entry)
        entries.append(entry)
    for entry in state.relayed_dirty:
        if entry not in seen:
            entries.append(entry)
    items = []
    for entry in entries:
        if not entry.resident:
            continue
        spec = runtime.resolver.resolve(entry.pointer.type_id)
        items.append(
            ClosureItem(entry.pointer, spec, entry.local_address)
        )
    return items


def encode_piggyback(
    runtime: "SmartRpcRuntime", state: "SmartSessionState"
) -> bytes:
    """Build the per-activity-transfer piggyback.

    Carries the sender's participant set (so the ground space ends the
    session knowing *every* involved space, even ones it never called
    directly) and the modified data set.
    """
    encoder = XdrEncoder()
    participants = sorted(state.participants | {runtime.site_id})
    encoder.pack_uint32(len(participants))
    for participant in participants:
        encoder.pack_string(participant)
    encoder.pack_opaque(
        transfer.encode_batch(runtime, state, modified_items(runtime, state))
    )
    return encoder.getvalue()


def apply_piggyback(
    runtime: "SmartRpcRuntime",
    state: "SmartSessionState",
    payload: bytes,
) -> None:
    """Apply an incoming piggyback (participants + modified data)."""
    if not payload:
        return
    decoder = XdrDecoder(payload)
    count = decoder.unpack_uint32()
    for _ in range(count):
        state.note_participant(decoder.unpack_string())
    batch = decoder.unpack_opaque()
    decoder.expect_done()
    transfer.apply_batch(runtime, state, batch, overwrite=True)


# -- session end --------------------------------------------------------------


def end_session(
    runtime: "SmartRpcRuntime", state: "SmartSessionState"
) -> None:
    """Ground-side session teardown: write back, invalidate, drop."""
    runtime.flush_memory_batch(state)
    participants = sorted(
        p for p in state.participants if p != runtime.site_id
    )
    dirty_homes: Dict[str, int] = {}
    for item in modified_items(runtime, state):
        home = item.pointer.space_id
        if home != runtime.site_id:
            dirty_homes[home] = dirty_homes.get(home, 0) + 1
    runtime.trace_event(
        "session-end",
        f"{runtime.site_id}: session {state.session_id} ends "
        f"(participants {participants}, dirty homes {dirty_homes})",
        session=state.session_id,
        space=runtime.site_id,
        participants=participants,
        dirty_homes=dict(dirty_homes),
    )
    _write_back(runtime, state)
    # The write-back already committed, so the multicast is best
    # effort: a dead participant cleans up when its reaper fires.
    runtime.invalidate_participants(state)
    state.release()


def _write_back(
    runtime: "SmartRpcRuntime", state: "SmartSessionState"
) -> None:
    """Two-phase write-back: stage at every dirty home, then commit.

    Phase ordering is the crash-safety argument: no home applies
    anything until *every* home has acknowledged holding its complete
    batch, and each home's apply is a single local step, so a crash at
    any instant leaves every home either fully original or fully
    updated (an uncommitted staged batch is discarded by the abort
    INVALIDATE or the home's own orphan reaper).
    """
    by_home: Dict[str, List[ClosureItem]] = {}
    for item in modified_items(runtime, state):
        by_home.setdefault(item.pointer.space_id, []).append(item)
    homes = sorted(h for h in by_home if h != runtime.site_id)
    for home in homes:
        encoder = XdrEncoder()
        encoder.pack_string(state.session_id)
        encoder.pack_string(state.ground_site)
        encoder.pack_opaque(
            transfer.encode_batch(runtime, state, by_home[home])
        )
        payload = encoder.getvalue()
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
    runtime.clock.advance(
        runtime.cost_model.codec_cost(len(message.payload))
    )
    decoder = XdrDecoder(message.payload)
    session_id = decoder.unpack_string()
    ground_site = decoder.unpack_string()
    # Staged as a view, not a copy.  On an owned payload the view just
    # pins the ``bytes``; on a shared-memory delivery it aliases the
    # ground's data segment, and retaining the carrier lease keeps the
    # extent pinned there — the batch is never shipped twice, commit
    # applies it straight out of the segment.
    batch = decoder.unpack_opaque_view()
    decoder.expect_done()
    state = runtime.ensure_smart_session(session_id, ground_site)
    _, superseded = state.take_staged()  # a re-prepare supersedes it
    if superseded is not None:
        superseded.release()
    lease = message.carrier_ref
    if lease is not None:
        lease.retain()
    state.staged_writeback = batch
    state.staged_writeback_lease = lease
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
    staged, lease = (
        state.take_staged() if state is not None else (None, None)
    )
    if staged is None:
        raise SmartRpcError(
            f"{runtime.site_id}: writeback-commit for session "
            f"{session_id!r} without a staged prepare"
        )
    try:
        if lease is not None:
            # The commit "flips the word": re-check the extent's stamp
            # and epoch, then apply in place.  A ground that died and
            # restarted bumped its segment epoch, so a stale staged
            # batch fails loudly here instead of half-applying.
            lease.validate()
        transfer.apply_batch(runtime, state, staged, overwrite=True)
    finally:
        if lease is not None:
            lease.release()
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
