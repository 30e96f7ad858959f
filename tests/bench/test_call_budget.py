"""The fixed Python a lazy fault and an exchange cost, counted in calls.

Wall time on a shared host moves by more than any bound worth having,
but the number of Python-level calls (``sys.setprofile``'s ``call``
and ``c_call`` events) one operation makes does not: it is the same on
every host.  Every first touch of remote data is one DATA_REQUEST /
DATA_REPLY exchange, so these two counts are the unit cost of the lazy
baseline, and a change that puts per-request Python back fails here
deterministically.  Each budget is the count measured when it was set,
plus 5 % headroom; lower it when a change makes the path cheaper.
"""

import sys
import threading

import pytest

from repro.bench.harness import CALLEE, make_carrier, make_world
from repro.simnet.message import MessageKind
from repro.workloads.linked_list import build_list, list_client

#: Calls per lazy fault on simnet: a 256-node ``total`` under ``lazy``,
#: all of it (stub, faults, program) divided by its 256 faults.  286
#: when set on CPython 3.9 and 3.11, 283 on 3.12 (427 before the
#: exchange and data-request paths were trimmed).
FAULT_BUDGET = 300

#: Calls per 16-byte echo, client and serving thread together, on
#: either carrier: 192 on both when set (194 on tcp and 206 on shm
#: while the shm carrier had a data segment, 263 before that).
ECHO_BUDGET = 202


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
