"""The acceptance scenario: smart RPC across separate OS processes.

Four genuine processes take part:

1. this test process — the ground/caller address space "A";
2. a spawned registry host — site directory + type name server;
3. a spawned space host "B" — runs the remote procedures;
4. a spawned space host "C" — a second callee in the same session.

The session exercises the full smart-RPC machinery over localhost TCP
— pointer swizzling, fault-driven pulls, modified-data piggybacking,
session-end write-back and invalidation of *both* callees — while
injected wire faults (a dropped request, a duplicated request, a
dropped reply) force the Birrell-Nelson retry path.  The updates land
exactly once, and the merged four-process trace passes every
conformance rule.
"""

import glob
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.analysis import trace_rules
from repro.analysis.diagnostics import DiagnosticCollector
from repro.namesvc.directory import DirectoryClient, DirectoryError
from repro.simnet.stats import StatsCollector
from repro.simnet.tracefmt import load_trace, save_trace
from repro.transport.base import FaultInjector
from repro.transport.host import (
    make_space,
    published_address,
    query_status,
)
from repro.transport.tracemerge import export_trace, merge_trace_files
from repro.workloads.traversal import (
    expected_search_checksum,
    tree_client,
    tree_expose_client,
)
from repro.workloads.trees import (
    TREE_NODE_TYPE_ID,
    build_complete_tree,
    local_tree_checksum,
)
from repro.xdr.view import StructView

NODES = 63
EXPOSED_NODES = 7
SPAWN_TIMEOUT = 30


def _env():
    src = str(Path(repro.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [src, env.get("PYTHONPATH")])
    )
    return env


class HostProcess:
    """One spawned ``python -m repro.transport serve`` process."""

    def __init__(self, *args, transport="tcp"):
        self.transport = transport
        self.proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro.transport", "serve",
                "--transport", transport, *args,
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            env=_env(),
        )
        line = self.proc.stdout.readline().strip()
        assert line.startswith("READY "), f"bad READY line: {line!r}"
        self.addr = line.split("addr=")[1]

    def shutdown(self, registry_addr):
        subprocess.run(
            [
                sys.executable, "-m", "repro.transport", "shutdown",
                "--site", self.site_id, "--registry", registry_addr,
                "--transport", self.transport,
            ],
            env=_env(),
            capture_output=True,
            timeout=SPAWN_TIMEOUT,
            check=True,
        )

    def wait(self):
        stdout, stderr = self.proc.communicate(timeout=SPAWN_TIMEOUT)
        assert self.proc.returncode == 0, stderr[-2000:]

    def kill(self):
        if self.proc.poll() is None:
            self.proc.kill()
            self.proc.wait()


@pytest.fixture(params=["tcp", "shm"])
def deployment(request, tmp_path):
    """Registry + two space hosts, each writing a trace log.

    Runs once per carrier: the same four-process scenario must hold
    over localhost sockets and over abstract ``AF_UNIX`` sockets.
    """
    transport = request.param
    hosts = []
    try:
        registry = HostProcess(
            "--site", "NS", "--serve-registry",
            "--trace", str(tmp_path / "ns.jsonl"),
            transport=transport,
        )
        registry.site_id = "NS"
        hosts.append(registry)
        # B also homes a small tree of its own (tree_expose): the
        # ground will modify it and write it back at session end.
        b = HostProcess(
            "--site", "B", "--registry", registry.addr,
            "--trace", str(tmp_path / "b.jsonl"),
            "--heartbeat", "0.5",
            "--expose-tree", str(EXPOSED_NODES),
            transport=transport,
        )
        b.site_id = "B"
        hosts.append(b)
        # C drops its second outgoing reply: one of the session's
        # exchanges with C must survive via retransmission + cache.
        c = HostProcess(
            "--site", "C", "--registry", registry.addr,
            "--trace", str(tmp_path / "c.jsonl"),
            "--fault", "drop-reply=2",
            transport=transport,
        )
        c.site_id = "C"
        hosts.append(c)
        yield transport, registry, b, c
    finally:
        for host in hosts:
            host.kill()
        if transport == "shm":
            # A host still up here died by SIGKILL, closing nothing:
            # its listening socket went with the process, and it made
            # no /dev/shm file.
            names = [host.addr.rsplit(":", 1)[0] for host in hosts]
            with open("/proc/net/unix") as table:
                sockets = table.read()
            for name in names:
                assert "@" + name not in sockets
                assert not glob.glob(f"/dev/shm/{name}*")


def test_session_across_processes_with_faults(deployment, tmp_path):
    carrier, registry, b, c = deployment
    host, port = registry.addr.rsplit(":", 1)
    stats = StatsCollector(trace=True)
    # The caller drops its 2nd request transmission and duplicates its
    # 5th — mid-session faults on the caller side of the exchanges.
    transport, runtime = make_space(
        "A",
        registry=(host, int(port)),
        stats=stats,
        faults=FaultInjector(drop_requests={2}, duplicate_requests={5}),
        transport=carrier,
    )
    try:
        directory = DirectoryClient(transport.endpoint, "NS")
        directory.register(*published_address(transport))
        assert set(directory.list()) == {"A", "B", "C"}

        root = build_complete_tree(runtime, NODES)
        with runtime.session() as session:
            updated = tree_client(runtime, "B").search_update(
                session, root, NODES
            )
            searched = tree_client(runtime, "C").search(
                session, root, NODES
            )
        expected = expected_search_checksum(NODES, NODES)
        assert updated == expected
        # C sees B's +1 updates piggybacked through the caller's heap.
        assert searched == expected + NODES
        # The piggybacked updates landed exactly once: a re-executed
        # (duplicated) search_update would have added NODES again.
        assert local_tree_checksum(runtime, root) == expected + NODES

        # Second session: the ground dereferences a pointer into B's
        # OWN heap, modifies it, and session end must WRITE_BACK the
        # dirty data across the process boundary.
        expose = tree_expose_client(runtime, "B")
        spec = runtime.resolver.resolve(TREE_NODE_TYPE_ID)
        with runtime.session() as session:
            pointer = expose.tree_root(session)
            view = StructView(runtime.mem, pointer, spec, runtime.arch)
            view.set("data", (555).to_bytes(8, "big"))
        assert stats.write_backs > 0
        # B reads its own heap: the write-back landed, exactly once.
        with runtime.session() as session:
            remote_sum = expose.tree_checksum(session)
        assert remote_sum == sum(range(EXPOSED_NODES)) + 555

        # The injected faults actually bit and were survived.
        assert transport.retransmissions >= 2
        save_trace(stats, tmp_path / "a.jsonl")
        directory.deregister()
    finally:
        transport.close()

    for site_host in (b, c, registry):
        site_host.shutdown(registry.addr)
        site_host.wait()

    # The ground recorded session-end invalidation of both callees
    # (coherency events are ground-side; participants log messages).
    ground_events = load_trace(tmp_path / "a.jsonl")
    invalidated = {
        e.data.get("dst")
        for e in ground_events
        if e.category == "invalidate"
    }
    assert {"B", "C"} <= invalidated
    assert any(e.category == "write-back" for e in ground_events)
    # C's dropped reply shows up as a loss event in its own trace.
    assert any(
        e.category == "loss" for e in load_trace(tmp_path / "c.jsonl")
    )

    merged = tmp_path / "merged.jsonl"
    count = merge_trace_files(
        [tmp_path / name for name in
         ("a.jsonl", "b.jsonl", "c.jsonl", "ns.jsonl")],
        merged,
    )
    assert count > 0
    # Both rule families over the merged timeline: the four processes'
    # piggybacked vector clocks must order every fault, write and
    # invalidation — any SRPC4xx finding is a real race.
    collector = DiagnosticCollector()
    trace_rules.analyze_trace_file(merged, collector)
    assert list(collector) == [], [d.render() for d in collector]
    export_trace(merged, "cross_process")


def test_heartbeat_keeps_liveness_fresh(deployment):
    carrier, registry, b, c = deployment
    host, port = registry.addr.rsplit(":", 1)
    transport, _ = make_space(
        "probe", method="eager", registry=(host, int(port)),
        transport=carrier,
    )
    try:
        directory = DirectoryClient(transport.endpoint, "NS")
        # Readiness barrier instead of a wall-clock sleep: B's host
        # blocks this exchange until it has heartbeated twice, so the
        # lookup below observes a provably fresh liveness age.
        status = query_status(
            transport.endpoint, "B", min_heartbeats=2, max_wait=10.0
        )
        assert status["heartbeats"] >= 2
        _, _, age = directory.lookup("B")
        assert age < 1.5
    finally:
        transport.close()


def test_deregistered_site_is_forgotten(deployment):
    carrier, registry, b, c = deployment
    host, port = registry.addr.rsplit(":", 1)
    transport, _ = make_space(
        "probe", method="eager", registry=(host, int(port)),
        transport=carrier,
    )
    try:
        directory = DirectoryClient(transport.endpoint, "NS")
        b.shutdown(registry.addr)
        b.wait()
        with pytest.raises(DirectoryError):
            directory.lookup("B")
    finally:
        transport.close()
