"""A vector clock travels only once somebody traces.

A frame carries a ticked clock when its sender traces, the clock the
sender has heard when it does not, and the empty clock when it has
heard none; an empty clock is never merged.  So an untraced run ticks,
encodes and merges nothing, and an untraced hop between two traced
sites still passes on what it heard: the first site's events stay
ordered before the last one's.
"""

import subprocess
import sys
import threading

import pytest

from repro.analysis import trace_rules
from repro.analysis.diagnostics import DiagnosticCollector
from repro.bench.harness import install_workloads, make_carrier
from repro.namesvc import TypeNameServer, TypeResolver
from repro.rpc.interface import InterfaceDef, Param, ProcedureDef
from repro.rpc.stubgen import ClientStub, bind_server
from repro.simnet.message import MessageKind
from repro.simnet.network import Network
from repro.simnet.stats import StatsCollector
from repro.simnet.tracefmt import save_trace
from repro.smartrpc import SmartRpcRuntime
from repro.transport.exchange import Connection, ExchangeTransport
from repro.transport.framing import LENGTH_PREFIX, Request, decode_frame
from repro.transport.tracemerge import merge_trace_files
from repro.transport.vclock import happens_before
from repro.workloads.trees import TREE_NODE_TYPE_ID, build_complete_tree
from repro.xdr import SPARC32
from repro.xdr.registry import TypeRegistry
from repro.xdr.types import PointerType, int64

CARRIERS = ("tcp", "shm")

NODE = PointerType(TREE_NODE_TYPE_ID)
#: ``relay`` at the middle site calls ``read_at`` at the last one,
#: which dereferences the first site's node.
HOPS = InterfaceDef(
    "clock_hops",
    [
        ProcedureDef("relay", [Param("node", NODE)], returns=int64),
        ProcedureDef("read_at", [Param("node", NODE)], returns=int64),
    ],
)


class _Carriers:
    """Started carriers with their own statistics and one peer table."""

    def __init__(self, carrier):
        self.carrier = carrier
        self.peers = {}
        self.stacks = []

    def add(self, site_id, trace):
        stack = make_carrier(
            self.carrier,
            site_id,
            stats=StatsCollector(trace=trace),
            peers=self.peers,
        )
        self.stacks.append(stack)
        self.peers[site_id] = stack.address
        return stack

    def close(self):
        for stack in self.stacks:
            stack.close()


@pytest.fixture(params=CARRIERS)
def carriers(request):
    built = _Carriers(request.param)
    try:
        yield built
    finally:
        built.close()


def _watch_clocks(client, server):
    """Record the clock of every request ``server`` runs and of every
    reply ``client`` takes."""
    requests, replies = [], []

    def execute(request):
        requests.append(request.clock)
        return ExchangeTransport._execute(server, request)

    def run_attempts(*args):
        reply, unnoted = ExchangeTransport._run_attempts(client, *args)
        replies.append(reply.clock)
        return reply, unnoted

    server._execute = execute
    client._run_attempts = run_attempts
    return requests, replies


# -- untraced: nothing ticks, nothing travels --------------------------------


def test_an_untraced_exchange_carries_and_leaves_no_clock(carriers):
    a = carriers.add("A", trace=False)
    b = carriers.add("B", trace=False)
    b.endpoint.register_handler(
        MessageKind.CALL, lambda message: bytes(message.payload)
    )
    requests, replies = _watch_clocks(a, b)
    for _ in range(3):
        assert a.endpoint.send(
            "B", MessageKind.CALL, b"ping", reply_kind=MessageKind.REPLY
        ) == b"ping"
    assert requests == [(), (), ()] and replies == [(), (), ()]
    assert a.endpoint.vclock.entries == {}
    assert b.endpoint.vclock.entries == {}
    # The counts are the traced run's: one request and one reply each.
    assert a.stats.messages_by_kind[MessageKind.CALL] == 3
    assert a.stats.messages_by_kind[MessageKind.REPLY] == 3
    assert a.stats.bytes_by_kind[MessageKind.CALL] == 12


def test_an_untraced_simnet_delivery_leaves_every_clock_empty():
    network = Network()
    a = network.add_site("A")
    b = network.add_site("B")
    b.register_handler(MessageKind.CALL, lambda message: b"ok")
    network.send("A", "B", MessageKind.CALL, b"x", MessageKind.REPLY)
    assert a.vclock.entries == {} and b.vclock.entries == {}


# -- a traced send is stamped before it leaves -------------------------------


def test_a_traced_send_happens_before_the_nested_request_it_causes(
    carriers, monkeypatch
):
    """A's CALL makes B ask A for data before B replies.  The CALL's
    ``message`` event must happen-before every event A records while
    serving that DATA_REQUEST, however late ``send`` returns: here A's
    send of the CALL returns only once A has served it."""
    a = carriers.add("A", trace=True)
    b = carriers.add("B", trace=True)
    served = threading.Event()

    def at_a(message):
        for what in ("enter", "leave"):
            a.stats.record_event(
                a.clock.now, "serving", what, data=a.endpoint.stamp()
            )
        served.set()
        return b"data"

    a.endpoint.register_handler(MessageKind.DATA_REQUEST, at_a)
    b.endpoint.register_handler(
        MessageKind.CALL,
        lambda message: b.endpoint.send(
            "A", MessageKind.DATA_REQUEST, b"which",
            reply_kind=MessageKind.DATA_REPLY,
        ),
    )
    real_send = Connection.send

    def send(conn, data, deadline=None):
        real_send(conn, data, deadline)
        frame = decode_frame(memoryview(data)[LENGTH_PREFIX.size:])
        if (
            isinstance(frame, Request)
            and conn.peer == "B"  # A's connection to B: A sends it
            and frame.kind == MessageKind.CALL.value
        ):
            assert served.wait(10)

    monkeypatch.setattr(Connection, "send", send)
    assert a.endpoint.send(
        "B", MessageKind.CALL, b"go", reply_kind=MessageKind.REPLY
    ) == b"data"
    (call,) = [
        event.data["vc"] for event in a.stats.events
        if event.category == "message" and event.data["kind"] == "call"
    ]
    serving = [
        event.data["vc"] for event in a.stats.events
        if event.category == "serving"
    ]
    assert len(serving) == 2
    assert all(happens_before(call, stamp) for stamp in serving)


# -- traced -> untraced -> traced ------------------------------------------


def test_an_untraced_hop_relays_the_clock_it_heard(carriers):
    a = carriers.add("A", trace=True)
    b = carriers.add("B", trace=False)
    c = carriers.add("C", trace=True)
    stamps = {}

    def at_b(message):
        return b.endpoint.send(
            "C", MessageKind.CALL, message.payload,
            reply_kind=MessageKind.REPLY,
        )

    def at_c(message):
        stamps["C"] = c.endpoint.stamp()["vc"]
        return b"done"

    b.endpoint.register_handler(MessageKind.CALL, at_b)
    c.endpoint.register_handler(MessageKind.CALL, at_c)
    requests, _replies = _watch_clocks(b, c)
    before = a.endpoint.stamp()["vc"]
    assert a.endpoint.send(
        "B", MessageKind.CALL, b"go", reply_kind=MessageKind.REPLY
    ) == b"done"
    after = a.endpoint.stamp()["vc"]
    # B never ticked: what it sent C is exactly what it heard.
    assert "B" not in b.endpoint.vclock.entries
    assert dict(requests[0]) == {"A": before["A"] + 1}
    assert happens_before(before, stamps["C"])
    assert happens_before(stamps["C"], after)


def test_an_untraced_simnet_hop_passes_the_clock_on():
    network = Network()  # untraced: only the explicit stamps tick
    a, b, c = (network.add_site(site) for site in "ABC")
    stamps = {}
    b.register_handler(
        MessageKind.CALL,
        lambda message: network.send(
            "B", "C", MessageKind.CALL, b"x", MessageKind.REPLY
        ),
    )

    def at_c(message):
        stamps["C"] = c.stamp()["vc"]
        return b"done"

    c.register_handler(MessageKind.CALL, at_c)
    before = a.stamp()["vc"]
    network.send("A", "B", MessageKind.CALL, b"x", MessageKind.REPLY)
    after = a.stamp()["vc"]
    assert "B" not in b.vclock.entries
    assert happens_before(before, stamps["C"])
    assert happens_before(stamps["C"], after)


def _hop_space(stack, ns_site):
    runtime = SmartRpcRuntime(
        stack,
        stack.endpoint,
        SPARC32,
        resolver=TypeResolver(stack.endpoint, ns_site),
    )
    install_workloads(runtime)
    return runtime


def test_an_untraced_hop_keeps_a_merged_session_trace_clean(tmp_path):
    """A smart session over tcp: traced A calls untraced B, which calls
    traced C, and C faults on A's tree.  C's first events must follow
    A's call, and the two traces merged must satisfy both rule
    families (``python -m repro.analysis``)."""
    built = _Carriers("tcp")
    try:
        TypeNameServer(built.add("NS", trace=False).endpoint, TypeRegistry())
        a, b, c = (
            _hop_space(built.add(site, trace=site != "B"), "NS")
            for site in "ABC"
        )
        spec = a.resolver.resolve(TREE_NODE_TYPE_ID)

        def read_at(ctx, node):
            view = c.struct_view(node, c.resolver.resolve(TREE_NODE_TYPE_ID))
            return int.from_bytes(view.get("data"), "big")

        bind_server(b, HOPS, {
            "relay": lambda ctx, node: ClientStub(b, HOPS, "C").read_at(
                ctx, node
            ),
            "read_at": read_at,
        })
        bind_server(c, HOPS, {"relay": read_at, "read_at": read_at})
        a.import_interface(HOPS)
        b.import_interface(HOPS)
        root = build_complete_tree(a, 7)
        a.struct_view(root, spec).set("data", (41).to_bytes(8, "big"))
        with a.session() as session:
            assert ClientStub(a, HOPS, "B").relay(session, root) == 41
        assert b.stats.events == []
        call = next(
            event.data["vc"] for event in a.stats.events
            if event.category == "transfer" and event.data["dst"] == "B"
        )
        first_at_c = c.stats.events[0].data["vc"]
        assert happens_before(call, first_at_c)
        for runtime in (a, c):
            save_trace(runtime.stats, tmp_path / f"{runtime.site_id}.jsonl")
    finally:
        built.close()
    merged = tmp_path / "merged.jsonl"
    merge_trace_files([tmp_path / "A.jsonl", tmp_path / "C.jsonl"], merged)
    collector = DiagnosticCollector()
    trace_rules.analyze_trace_file(merged, collector)
    assert list(collector) == [], [d.render() for d in collector]
    lint = subprocess.run(
        [sys.executable, "-m", "repro.analysis", str(merged)],
        capture_output=True,
        text=True,
    )
    assert lint.returncode == 0, lint.stdout + lint.stderr


# -- tracing switched on mid-run --------------------------------------------


def test_a_site_that_starts_tracing_mid_run_stamps_in_order(carriers):
    a = carriers.add("A", trace=False)
    b = carriers.add("B", trace=True)
    seen = []

    def at_b(message):
        seen.append(b.endpoint.stamp()["vc"])
        return b"ok"

    b.endpoint.register_handler(MessageKind.CALL, at_b)

    def call():
        a.endpoint.send(
            "B", MessageKind.CALL, b"x", reply_kind=MessageKind.REPLY
        )

    call()
    # Untraced, A ticked nothing, but it heard B and passes B on.
    assert "A" not in a.endpoint.vclock.entries
    assert a.endpoint.vclock.entries == {"B": seen[0]["B"] + 1}
    a.stats.tracing = True
    first = a.endpoint.stamp()["vc"]
    assert first["A"] == 1  # its own count starts at its first stamp
    assert happens_before(seen[0], first)
    call()
    assert happens_before(first, seen[1])
    # Traced, every request A sends now carries a ticked clock.
    assert a.endpoint.vclock.entries["A"] > first["A"]
