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
too.  Each budget
is the count measured when it was set, plus 5 % headroom; lower it
when a change makes the path cheaper.
"""

import sys
import threading

import pytest

from repro.bench.harness import CALLEE, make_carrier, make_world
from repro.simnet.message import MessageKind
from repro.workloads.linked_list import build_list, list_client

#: Calls per lazy fault on simnet: a 256-node ``total`` under ``lazy``,
#: all of it (stub, faults, program) divided by its 256 faults.  204.6
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
FAULT_BUDGET = 214.8

#: Calls per lazy fault on shm, as above, counted on the client thread
#: and the home's serving thread as the echo budget counts them.
#: 271.2 on CPython 3.11 when set, since a real carrier's runtime
#: computes no modelled charge at all (332 before this and the
#: simnet fault's cuts).
SHM_FAULT_BUDGET = 284.7

#: Calls per node of a cold 4096-node ``total`` under ``paper`` on
#: simnet (after two warm sessions): the whole session — stub, four
#: faults, the closure walk and batch encode at the home, the batch
#: apply and every first touch at the callee — divided by its nodes.
#: 37.3 on CPython 3.11 since a placeholder is placed in one step (no
#: ``map_page`` → ``table.add`` chain, 8 calls before), a BFS walk is
#: its own queue and a first touch tells a cache page by its type
#: (44.4, under a budget of 46.6, before that; 73.4 while the walk read
#: only the pointer words and the encoder read each datum again, the
#: apply went through the decoder and the raw plane per item, and a
#: first touch bisected the table and posted each row to the ledgers in
#: two calls).
COLD_FILL_BUDGET = 39.2

#: Calls per 16-byte echo, client and serving thread together, on
#: either carrier: 116.3 on both when set, since an untraced exchange
#: carries no vector clock and its frames are encoded from their fields
#: (192 on both under a budget of 202 while every frame ticked, encoded,
#: decoded and merged a clock; 194 on tcp and 206 on shm while the shm
#: carrier had a data segment, 263 before that).
ECHO_BUDGET = 122

#: Calls per node of a warm ``total`` over a 4096-node list in one
#: ``paper`` session (after two warm calls): the stub and marshal
#: amortised over the walk, and per node one ``load``, the run plan's
#: unpack and the clock's one ``bill``.  5.1 when set on CPython 3.11
#: (9.1 while every resident access still called the touch observer
#: and a run charged the clock through ``Mem._charge``).
RESIDENT_BUDGET = 5.36


class _Counter:
    """A profile function counting Python and builtin calls."""

    def __init__(self) -> None:
        self.calls = 0

    def __call__(self, _frame, event, _arg) -> None:
        if event == "call" or event == "c_call":
            self.calls += 1


def test_one_lazy_fault_stays_within_its_call_budget():
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
    assert counter.calls / faults <= FAULT_BUDGET, counter.calls / faults


def test_one_shm_lazy_fault_stays_within_its_call_budget():
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
        counter.calls = 0
        with world.caller.session() as session:
            sys.setprofile(counter)
            try:
                total = stub.total(session, head)
            finally:
                sys.setprofile(None)
        faults = world.stats.callbacks - before
        per_fault = counter.calls / faults  # before the world closes
    assert total == sum(range(256)) and faults == 256
    assert per_fault <= SHM_FAULT_BUDGET, per_fault


def test_one_cold_node_stays_within_its_call_budget():
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
    assert counter.calls / nodes <= COLD_FILL_BUDGET, counter.calls / nodes


def test_one_resident_node_stays_within_its_call_budget():
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
    assert counter.calls / nodes <= RESIDENT_BUDGET, counter.calls / nodes


@pytest.mark.parametrize("carrier", ["tcp", "shm"])
def test_one_echo_stays_within_its_call_budget(carrier):
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
        counter.calls = 0
        sys.setprofile(counter)
        try:
            for _ in range(echoes):
                assert echo() == body
        finally:
            sys.setprofile(None)
        per_echo = counter.calls / echoes
    finally:
        client.close()
        server.close()
    assert per_echo <= ECHO_BUDGET, per_echo
