"""The fixed Python a lazy fault, an exchange, a cold fill and a
resident access cost, counted in calls.

Wall time on a shared host moves by more than any bound worth having,
but the number of Python-level calls (``sys.setprofile``'s ``call``
and ``c_call`` events) one operation makes does not: it is the same on
every host.  Every first touch of remote data is one DATA_REQUEST /
DATA_REPLY exchange, so the lazy fault (on simnet, and on shm with
both ends' threads counted) and the echo are the unit cost of the
lazy baseline, and a change that puts per-request Python back fails
here deterministically.  The third is the eager closure's unit cost: a
cold session moves every datum through the closure walk, the batch
encode, the batch apply and its first touch, so a change that puts
per-datum Python back on the fill path fails.  The fourth is the other
end of the paper's claim: once data is resident, an access costs what
a local one does, so a change that puts per-access Python back fails
too.  The fifth is the program plane under writes: a visited tree node
costs its struct-field accesses, its share of the read and write
faults and the write-back, so a change that puts per-field or
per-fault Python back fails.  Each budget
is the count measured when it was set, plus 5 % headroom; lower it
when a change makes the path cheaper.  Each test records its measured
count as a junit property, so a CI run keeps the figure of every
interpreter it ran on.  A count weighs calls, not their cost: a C
function counts one whether it is a dict probe or a bisect, and a call
into a class whose ``__init__`` is not Python counts none, so a wall
time claim still needs timed runs.
"""

import sys
import threading
from typing import Dict

import pytest

from repro.bench.harness import CALLEE, CALLER, make_carrier, make_world
from repro.simnet.message import MessageKind
from repro.workloads.linked_list import build_list, list_client
from repro.workloads.traversal import tree_client
from repro.workloads.trees import build_complete_tree

#: Calls per lazy fault on simnet: a 256-node ``total`` under ``lazy``,
#: all of it (stub, faults, program) divided by its 256 faults.  143.6
#: on CPython 3.11 since a batch item is applied by the loop generated
#: for its type and a placeholder miss places its row in one frame and
#: the space's ``map_page`` (144.6, under a budget of 151.8, before
#: that).  144.6 on CPython 3.11 since the home keeps the last DATA_REQUEST head and
#: the callee the last pool table (neither is decoded again when the
#: next one opens with the same bytes), the cache's fill makes the
#: request with no forwarding frames, the home takes a type's
#: plan and how to follow it from the runtime's memos and looks its
#: session up in one call, and a ``Message`` takes its id from a C
#: callable (169.6, under a budget of 178.1, before that).  169.6
#: on CPython 3.11 since a resident access moves the simulated clock
#: itself and a run decodes in one C call (170.6, under a budget of
#: 179.1, before that).  170.6
#: on CPython 3.11 since the home walks and packs a request in one pass
#: (180.5, under a budget of 189.6, before that).  180.5
#: on CPython 3.11 since the home finds a requested root's allocation by
#: one probe of the heap's base-address dict, a table row and a page are
#: built with no ``__init__`` frame and the touch observer scores a first
#: touch itself (186.6, under a budget of 194.8, before that).  186.6
#: on CPython 3.11 since a protection fault goes from the token miss
#: straight to its handler, and the home looks each requested root up
#: in its heap once and takes its type's plan from the runtime's memo
#: (204.6, under a budget of 214.8, before that).  204.6
#: on CPython 3.11 since a batch's pool head is one cursor pass both
#: ways, a placeholder is placed in one step, the batch's tail posts
#: its ledgers itself and a BFS walk is its own queue (251.7, under a
#: budget of 264, before that).  251.7 on CPython 3.11 since a
#: delivery snapshots and merges a vector clock
#: only when its sender has one and the home decodes a DATA_REQUEST's
#: head in one cursor pass (268, under a budget of 281, while every
#: delivery merged a snapshot both ways and the head went through the
#: stream decoder).  Before that, 268 since a fill calls
#: ``transfer.request_data`` directly and reads the pipeline's switch
#: as an attribute (270, under a budget of 283, while the runtime
#: forwarded the call and ``active`` was a property; 270 since a batch
#: is read by one cursor and a first touch scores its page's own rows;
#: 286 on 3.9 and 3.11 and 283 on 3.12 before that, under a budget of
#: 300; 427 before the exchange and data-request paths were trimmed).
FAULT_BUDGET = 150.8

#: Calls per lazy fault on shm, as above, counted on the client thread
#: and the home's serving thread as the echo budget counts them (the
#: test records each thread's share as well).  188.1 on CPython 3.11
#: (114.2 on the faulting thread) since a batch item is applied by the
#: loop generated for its type (189.1, under a budget of 198.5, before
#: that).  189.1 on CPython 3.11
#: since a ``REQUEST`` names no site and its kind by a word, the
#: serving loop runs the reply cache on its dict and builds the
#: handler's ``Message`` field by field, a client attempt waits in one
#: ``poll`` with no socket timeout to set, and the simnet fault's cuts
#: (237.2, under a budget of 249.0, before that).
#: 237.2 on CPython 3.11 since the home walks and packs a request in
#: one pass (247.1, under a budget of 259.5, before that).
#: 247.1 on CPython 3.11 since the home probes its heap's base-address
#: dict, a row and a page are built with no ``__init__`` frame and the
#: observer scores a first touch itself (253.1, under a budget of 264.7,
#: before that).  253.1 on CPython 3.11 since a protection fault goes
#: straight to its handler and the home looks each requested root up
#: once (271.2, under a budget of 284.7, before that).  271.2 on
#: CPython 3.11 when set, since a real carrier's runtime computes no
#: modelled charge at all (332 before this and the simnet fault's
#: cuts).
SHM_FAULT_BUDGET = 197.5

#: Calls per node of a cold 4096-node ``total`` under ``paper`` on
#: simnet (after two warm sessions): the whole session — stub, four
#: faults, the closure walk and batch encode at the home, the batch
#: apply and every first touch at the callee — divided by its nodes.
#: 29.2 on CPython 3.11 since a run of batch items is applied by one
#: loop generated for its type (no slot loop, codec probe, value list
#: or slice per item) and a swizzle miss places its row in one frame
#: and ``map_page``'s, not four (31.3, under a budget of 32.9, before
#: that).
#: 31.3 on CPython 3.11 since a resident access moves the simulated
#: clock itself and a run decodes in one C call (32.3, under a budget
#: of 33.9, before that).
#: 32.3 on CPython 3.11 since the home walks and packs each datum in one
#: pass, translating a pointer slot and admitting its target in one
#: probe of the heap's base-address dict (35.3, under a budget of 37.1,
#: before that; the wall time fell more than the count, which does not
#: weigh the three objects per datum the walk no longer keeps).
#: 35.3 on CPython 3.11 since the home resolves each pointer it walks by
#: one probe of the heap's base-address dict (a bisect before), a
#: ``ClosureItem``, ``AllocEntry`` and ``CachePage`` are each built by a
#: factory with no ``__init__`` frame, and the touch observer scores a
#: first touch itself (37.3, under a budget of 39.2, before that; the
#: wall time fell more than the count, which a bisect and a class call
#: under-weight).  37.3 on CPython 3.11 since a placeholder is placed
#: in one step (no ``map_page`` → ``table.add`` chain, 8 calls before),
#: a BFS walk is its own queue and a first touch tells a cache page by
#: its type (44.4, under a budget of 46.6, before that; 73.4 while the
#: walk read only the pointer words and the encoder read each datum
#: again, the apply went through the decoder and the raw plane per
#: item, and a first touch bisected the table and posted each row to
#: the ledgers in two calls).
COLD_FILL_BUDGET = 30.7

#: Calls per 16-byte echo, client and serving thread together, on
#: either carrier (the test records each thread's share as well): 89.0
#: on both since a ``REQUEST`` names no site and its kind by a word,
#: the serving loop runs the reply cache on its dict and builds the
#: handler's ``Message`` field by field, and a client attempt waits in
#: one ``poll`` with no socket timeout to set (116.0, under a budget of
#: 122, before that).  116.3 on both when set, since an untraced exchange
#: carries no vector clock and its frames are encoded from their fields
#: (192 on both under a budget of 202 while every frame ticked, encoded,
#: decoded and merged a clock; 194 on tcp and 206 on shm while the shm
#: carrier had a data segment, 263 before that).
ECHO_BUDGET = 93.5

#: Calls per node of a warm ``total`` over a 4096-node list in one
#: ``paper`` session (after two warm calls): the stub and marshal
#: amortised over the walk, and per node one ``load`` and the run
#: plan's C ``unpack``.  4.09 on CPython 3.11 since ``Mem`` adds a
#: run's charges to the clock itself and the plan's ``unpack`` is the
#: codec's own (5.09, under a budget of 5.36, while a run called the
#: clock's ``bill`` and the plan's Python ``unpack`` method; 9.1 while
#: every resident access still called the touch observer and a run
#: charged the clock through ``Mem._charge``).
RESIDENT_BUDGET = 4.29

#: Calls per visited node of a ``search_update`` of 1024 nodes of a
#: 2047-node tree under ``paper`` on simnet (after two warm sessions):
#: the whole session — stub, 643 faults (513 of them write faults), the
#: fills, the piggyback and write-back, and per node a ``StructView``,
#: a ``get``, a ``set`` and a two-field run — divided by its visits.
#: 115.8 on CPython 3.11 since a batch item is applied by the loop
#: generated for its type, the coherency path's as the fill path's, and
#: a swizzle miss places its row in at most two frames (117.9, under a
#: budget of 123.8, before that).
#: 117.9 on CPython 3.11 since the cache's fill makes the request with
#: no forwarding frames, and the home keeps the last request head and
#: the callee the last pool table (121.5, under a budget of 127.6,
#: before that).
#: 121.5 on CPython 3.11 since the token path charges the clock itself,
#: with no ``advance`` or ``bill`` call (124.5, under a budget of 130.7,
#: before that).
#: 124.5 on CPython 3.11 since the home walks and packs a request in one
#: pass and a coherency batch is packed from its table rows (131.0,
#: under a budget of 137.6, before that).
#: 131.0 on CPython 3.11 since the home probes its heap's base-address
#: dict, a row and a page are built with no ``__init__`` frame and the
#: touch observer scores a first touch itself (139.3, under a budget of
#: 145.6, before that).  139.3 on CPython 3.11 when set, since a struct
#: field is a compiled accessor, a protection fault goes straight from
#: the token miss to its handler and a write fault hands its page to
#: ``mark_dirty_page`` (167.8 before).
WRITEBACK_VISIT_BUDGET = 121.6


class _Counter:
    """A profile function counting Python and builtin calls, in all
    and per thread name."""

    def __init__(self) -> None:
        self.calls = 0
        self.by_thread: Dict[str, int] = {}

    def __call__(self, _frame, event, _arg) -> None:
        if event == "call" or event == "c_call":
            self.calls += 1
            name = threading.current_thread().name
            self.by_thread[name] = self.by_thread.get(name, 0) + 1

    def reset(self) -> None:
        self.calls = 0
        self.by_thread = {}


def test_one_lazy_fault_stays_within_its_call_budget(record_property):
    world = make_world("lazy")
    head = build_list(world.caller, list(range(256)))
    stub = list_client(world.caller, CALLEE)
    for _ in range(2):  # resolve types, warm every memo
        with world.caller.session() as session:
            stub.total(session, head)
    before = world.stats.callbacks
    counter = _Counter()
    with world.caller.session() as session:
        sys.setprofile(counter)
        try:
            total = stub.total(session, head)
        finally:
            sys.setprofile(None)
    faults = world.stats.callbacks - before
    assert total == sum(range(256)) and faults == 256
    per_fault = counter.calls / faults
    record_property("calls_per_fault", round(per_fault, 2))
    assert per_fault <= FAULT_BUDGET, per_fault


def test_one_shm_lazy_fault_stays_within_its_call_budget(record_property):
    counter = _Counter()
    with make_world("lazy", transport="shm") as world:
        head = build_list(world.caller, list(range(256)))
        stub = list_client(world.caller, CALLEE)
        # Set across the first dial, so the thread that serves the
        # caller's connection at the home starts with the counter.
        threading.setprofile(counter)
        try:
            for _ in range(2):  # dial, resolve types, warm every memo
                with world.caller.session() as session:
                    stub.total(session, head)
        finally:
            threading.setprofile(None)
        before = world.stats.callbacks
        counter.reset()
        with world.caller.session() as session:
            sys.setprofile(counter)
            try:
                total = stub.total(session, head)
            finally:
                sys.setprofile(None)
        faults = world.stats.callbacks - before
        per_fault = counter.calls / faults  # before the world closes
        threads = dict(counter.by_thread)
    assert total == sum(range(256)) and faults == 256
    record_property("calls_per_fault", round(per_fault, 2))
    # The callee's serving thread runs the walk and makes every fault's
    # request (the client side); the ground's serving thread answers
    # them (the serving side); the rest is the ground's own call.
    record_property(
        "client_calls_per_fault", round(threads[f"rpc-{CALLEE}"] / faults, 2)
    )
    record_property(
        "serving_calls_per_fault", round(threads[f"rpc-{CALLER}"] / faults, 2)
    )
    assert per_fault <= SHM_FAULT_BUDGET, per_fault


def test_one_cold_node_stays_within_its_call_budget(record_property):
    nodes = 4096
    world = make_world("paper")
    head = build_list(world.caller, list(range(nodes)))
    stub = list_client(world.caller, CALLEE)
    for _ in range(2):  # resolve types, warm every memo
        with world.caller.session() as session:
            stub.total(session, head)
    faults = world.stats.page_faults
    counter = _Counter()
    sys.setprofile(counter)
    try:
        with world.caller.session() as session:
            total = stub.total(session, head)
    finally:
        sys.setprofile(None)
    assert total == sum(range(nodes))
    assert world.stats.page_faults - faults == 4  # four eager fills
    per_node = counter.calls / nodes
    record_property("calls_per_node", round(per_node, 2))
    assert per_node <= COLD_FILL_BUDGET, per_node


def test_one_resident_node_stays_within_its_call_budget(record_property):
    nodes = 4096
    world = make_world("paper")
    head = build_list(world.caller, list(range(nodes)))
    stub = list_client(world.caller, CALLEE)
    counter = _Counter()
    with world.caller.session() as session:
        for _ in range(2):  # fill, then settle every page
            stub.total(session, head)
        faults = world.stats.page_faults
        sys.setprofile(counter)
        try:
            total = stub.total(session, head)
        finally:
            sys.setprofile(None)
        assert world.stats.page_faults == faults  # resident throughout
    assert total == sum(range(nodes))
    per_node = counter.calls / nodes
    record_property("calls_per_node", round(per_node, 2))
    assert per_node <= RESIDENT_BUDGET, per_node


@pytest.mark.parametrize("carrier", ["tcp", "shm"])
def test_one_echo_stays_within_its_call_budget(carrier, record_property):
    echoes = 100
    counter = _Counter()
    server = make_carrier(carrier, "B")
    client = make_carrier(carrier, "A")
    try:
        client.add_peer("B", server.address)
        server.endpoint.register_handler(
            MessageKind.CALL, lambda message: bytes(message.payload)
        )
        body = bytes(16)

        def echo():
            return client.endpoint.send(
                "B", MessageKind.CALL, body, reply_kind=MessageKind.REPLY
            )

        # Set across the first dial, so the thread that serves the
        # client's connection starts with the counter installed.
        threading.setprofile(counter)
        try:
            for _ in range(5):  # dial, handshake, warm every memo
                echo()
        finally:
            threading.setprofile(None)
        counter.reset()
        sys.setprofile(counter)
        try:
            for _ in range(echoes):
                assert echo() == body
        finally:
            sys.setprofile(None)
        per_echo = counter.calls / echoes
        threads = dict(counter.by_thread)
    finally:
        client.close()
        server.close()
    record_property("calls_per_echo", round(per_echo, 2))
    record_property(
        "client_calls_per_echo",
        round(threads[threading.main_thread().name] / echoes, 2),
    )
    record_property(
        "serving_calls_per_echo", round(threads["rpc-B"] / echoes, 2)
    )
    assert per_echo <= ECHO_BUDGET, per_echo


def test_one_written_tree_node_stays_within_its_call_budget(record_property):
    visits = 1024
    world = make_world("paper")
    root = build_complete_tree(world.caller, 2047)
    stub = tree_client(world.caller, CALLEE)
    checksums = []
    for _ in range(2):  # resolve types, warm every memo
        with world.caller.session() as session:
            checksums.append(stub.search_update(session, root, visits))
    faults = world.stats.page_faults
    write_faults = world.stats.write_faults
    counter = _Counter()
    sys.setprofile(counter)
    try:
        with world.caller.session() as session:
            checksum = stub.search_update(session, root, visits)
    finally:
        sys.setprofile(None)
    # Every visited node's data went up by one per session, and came home.
    assert checksums[1] == checksums[0] + visits
    assert checksum == checksums[0] + 2 * visits
    assert world.stats.page_faults - faults == 643
    assert world.stats.write_faults - write_faults == 513
    per_node = counter.calls / visits
    record_property("calls_per_visited_node", round(per_node, 2))
    assert per_node <= WRITEBACK_VISIT_BUDGET, per_node
