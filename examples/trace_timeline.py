#!/usr/bin/env python
"""Watch the protocol work: a traced session that loses two frames.

Tracing timestamps every message; this example runs one small remote
tree search while A drops its third request and B its second reply
(the ``--fault`` clauses a tcp or shm process takes), and prints the
full timeline — calls, data requests with their eager closures,
retransmission timeouts, write-backs and the final invalidations.

Run::

    python examples/trace_timeline.py
"""

from repro.namesvc import TypeNameServer, TypeResolver
from repro.simnet import Network, StatsCollector
from repro.simnet.tracefmt import format_timeline, summarize_trace
from repro.smartrpc import SmartRpcRuntime, make_policy
from repro.transport import FaultInjector
from repro.workloads.traversal import bind_tree_server, tree_client
from repro.workloads.trees import (
    TREE_NODE_TYPE_ID,
    build_complete_tree,
    tree_node_spec,
)
from repro.xdr import SPARC32
from repro.xdr.registry import TypeRegistry


def main() -> None:
    network = Network(stats=StatsCollector(trace=True))
    name_server = TypeNameServer(network.add_site("NS"), TypeRegistry())
    name_server.publish(TREE_NODE_TYPE_ID, tree_node_spec())
    site_a = network.add_site("A", FaultInjector.parse("drop-request=3"))
    site_b = network.add_site("B", FaultInjector.parse("drop-reply=2"))
    policy = make_policy("paper", closure_size=256)
    machine_a = SmartRpcRuntime(
        network, site_a, SPARC32, resolver=TypeResolver(site_a, "NS"),
        policy=policy,
    )
    machine_b = SmartRpcRuntime(
        network, site_b, SPARC32, resolver=TypeResolver(site_b, "NS"),
        policy=policy,
    )
    root = build_complete_tree(machine_a, 63)
    bind_tree_server(machine_b)
    stub = tree_client(machine_a, "B")

    with machine_a.session() as session:
        checksum = stub.search_update(session, root, 20)
    print(f"remote search+update of 20 nodes -> checksum {checksum}")
    print()
    print(format_timeline(network.stats.events, limit=60))
    print()
    print(summarize_trace(network.stats))
    # Both losses cost a timeout; the lost reply is replayed from B's
    # reply cache instead of running the handler again.
    categories = {event.category for event in network.stats.events}
    assert "timeout" in categories and network.retransmissions == 2
    assert site_b.reply_cache.retransmission_hits >= 1


if __name__ == "__main__":
    main()
