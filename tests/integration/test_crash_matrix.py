"""The crash matrix: every role × every protocol step, every carrier.

One scenario (:func:`repro.transport.host.run_crash_session`) runs a
ground session from G against two exposing homes H and T — calls,
fault-driven fills, writes, activity transfers with the modified-data
piggyback, a second write each home has not seen, and the two-phase
session-end write-back that ships it.  Each matrix cell
kills exactly one participant at exactly one protocol step:

* role ``caller`` — the ground G dies right after *sending* the step's
  frame (delivered, reply lost with the sender);
* role ``callee`` — the first home H dies right before *processing*
  the step's frame;
* role ``third`` — the second home T dies the same way.

Determinism comes from counting frames, not from timing: each cell is
one ``crash-send=KIND:N`` / ``crash-recv=KIND:N`` fault clause
(:func:`_cell_fault`), which the simnet cells give the victim site as
its :class:`FaultInjector` and the real-process cells pass to the
victim process as ``--fault`` (it ``os._exit``\\ s with code 86 at the
planned frame).  The real-process half runs once per carrier — TCP
sockets and abstract ``AF_UNIX`` sockets, whose listeners go with a
dead process.  After every cell
the survivors must converge: the aborting ground reaps its own state,
peers of a dead ground reap on heartbeat age, peers of a live aborting
ground are invalidated — no session stays open, no cache page stays
mapped, and every surviving home heap is either fully original or
fully updated.  There are no wall-clock sleeps anywhere: process cells
block on the hosts' STATUS readiness barrier instead.
"""

import glob
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

import repro
from repro.analysis import sanitizer, trace_rules
from repro.analysis.diagnostics import DiagnosticCollector
from repro.namesvc.client import TypeResolver
from repro.namesvc.directory import DirectoryClient
from repro.namesvc.server import TypeNameServer
from repro.simnet.message import MessageKind
from repro.simnet.network import Network
from repro.simnet.stats import StatsCollector
from repro.simnet.tracefmt import save_trace
from repro.smartrpc.errors import SessionAbortedError
from repro.smartrpc.policy import make_policy
from repro.smartrpc.runtime import SmartRpcRuntime
from repro.smartrpc.validate import session_diagnostics
from repro.transport.base import FaultInjector, RetryPolicy, TransportError
from repro.transport.host import (
    CRASH_SCENARIO_MARK,
    CRASH_SCENARIO_REMARK,
    RUN_ABORTED,
    decode_run_reply,
    encode_run_session,
    make_space,
    published_address,
    query_status,
    run_crash_session,
)
from repro.transport.tracemerge import export_trace, merge_trace_files
from repro.workloads.traversal import (
    TREE_EXPOSE,
    TREE_OPS,
    bind_tree_expose,
    tree_expose_client,
)
from repro.workloads.trees import (
    build_complete_tree,
    local_tree_checksum,
    register_tree_types,
)
from repro.xdr.arch import SPARC32
from repro.xdr.registry import TypeRegistry

GROUND = "G"
HOMES = ("H", "T")
EXPOSED_NODES = 7
ORIGINAL_SUM = sum(range(EXPOSED_NODES))
#: The scenario overwrites each root's datum 0 (originally 0) with the
#: mark, then with the remark.
MARKED_SUM = ORIGINAL_SUM + CRASH_SCENARIO_MARK
REMARKED_SUM = ORIGINAL_SUM + CRASH_SCENARIO_REMARK

ROLE_SITE = {"caller": GROUND, "callee": "H", "third": "T"}
STEPS = (
    "call",
    "fault-fill",
    "activity-transfer",
    "writeback-prepare",
    "writeback-commit",
)

#: Caller cells kill the ground at its Nth *sent* frame of a kind.
#: The scenario's send order is CALL(H) CALL(T) DR(H) DR(T) CALL(H)
#: CALL(T) WBP(H) WBP(T) WBC(H) WBC(T), so the third CALL is the
#: first activity transfer carrying the modified-data piggyback.
GROUND_SEND = {
    "call": (MessageKind.CALL, 1),
    "fault-fill": (MessageKind.DATA_REQUEST, 1),
    "activity-transfer": (MessageKind.CALL, 3),
    "writeback-prepare": (MessageKind.WRITEBACK_PREPARE, 1),
    "writeback-commit": (MessageKind.WRITEBACK_COMMIT, 1),
}

#: Callee/third cells kill a home at its Nth *received* frame: each
#: home sees two CALLs (tree_root, then the checksum activity
#: transfer), one DATA_REQUEST and one prepare/commit pair.
VICTIM_RECV = {
    "call": (MessageKind.CALL, 1),
    "fault-fill": (MessageKind.DATA_REQUEST, 1),
    "activity-transfer": (MessageKind.CALL, 2),
    "writeback-prepare": (MessageKind.WRITEBACK_PREPARE, 1),
    "writeback-commit": (MessageKind.WRITEBACK_COMMIT, 1),
}

#: What each surviving home's heap must sum to after the cell, when not
#: ORIGINAL_SUM.  A home's heap takes the mark when *it* receives the
#: checksum activity transfer (the overwrite piggyback applies
#: home-bound dirty data at the home), and the remark only when its
#: write-back commit lands; a staged batch that is never committed is
#: discarded — each home fully original or fully at one of the
#: session's versions, never in between.
MARKED = {
    ("caller", "activity-transfer"): {"H": MARKED_SUM},
    ("caller", "writeback-prepare"): {"H": MARKED_SUM, "T": MARKED_SUM},
    ("caller", "writeback-commit"): {"H": REMARKED_SUM, "T": MARKED_SUM},
    ("callee", "writeback-prepare"): {"T": MARKED_SUM},
    ("callee", "writeback-commit"): {"T": MARKED_SUM},
    ("third", "activity-transfer"): {"H": MARKED_SUM},
    ("third", "writeback-prepare"): {"H": MARKED_SUM},
    ("third", "writeback-commit"): {"H": REMARKED_SUM},
}

#: Survivors left holding orphaned session state that only the
#: heartbeat reaper can release (peers of a dead ground).  Peers of a
#: live aborting ground are invalidated instead, and the ground reaps
#: itself synchronously inside the abort.
NEED_REAP = {
    ("caller", "call"): {"H"},
    ("caller", "fault-fill"): {"H", "T"},
    ("caller", "activity-transfer"): {"H", "T"},
    ("caller", "writeback-prepare"): {"H", "T"},
    ("caller", "writeback-commit"): {"H", "T"},
}

CELLS = [(role, step) for role in ROLE_SITE for step in STEPS]


def _cell_fault(role, step):
    """The one fault clause that kills the cell's victim."""
    if role == "caller":
        kind, nth = GROUND_SEND[step]
        return f"crash-send={kind.value}:{nth}"
    kind, nth = VICTIM_RECV[step]
    return f"crash-recv={kind.value}:{nth}"


def _assert_reached(aborted, role, step):
    """The ground aborted on the exchange of the cell's planned frame.

    A scenario change that stops sending that frame would otherwise
    abort elsewhere, or not at all, and test nothing it names.
    """
    kind = (GROUND_SEND if role == "caller" else VICTIM_RECV)[step][0]
    assert f"aborted: {kind.value} exchange" in str(aborted), str(aborted)


def _events_for_session(events, session_id):
    """The sub-trace of one session, in original order."""
    return [
        event
        for event in events
        if (event.data or {}).get("session") == session_id
    ]


def _gate_failures(collector):
    """What fails the offline gates in one collector of both families.

    The conformance rules must raise no errors, and the coherency
    sanitizer must raise nothing at all — crash semantics (aborted
    sessions, reaped orphans, a victim's genuinely concurrent final
    writes) are understood by the SRPC4xx rules, not suppressed here.
    """
    return [
        d.render()
        for d in collector
        if d.is_error or d.code.startswith("SRPC4")
    ]


def _gate_events(events):
    """Both offline gates over one in-memory trace."""
    collector = DiagnosticCollector()
    trace_rules.check_events(events, collector)
    sanitizer.check_events(events, collector)
    assert _gate_failures(collector) == []


# -- the simulated half ------------------------------------------------------


def make_crash_world(faults=None):
    """NS + ground G + two exposing homes H, T on one simnet network.

    ``faults`` maps a site id to the fault spec its injector parses.
    The fully lazy policy (closure budget 0) makes the message
    sequence exactly the ten session frames the ordinal tables above
    count on: no eager closure means every dereference is one
    DATA_REQUEST.
    """
    stats = StatsCollector(trace=True)
    network = Network(stats=stats)
    TypeNameServer(network.add_site("NS"), TypeRegistry())
    runtimes = {}
    for site_id in (GROUND,) + HOMES:
        spec = (faults or {}).get(site_id)
        site = network.add_site(
            site_id, faults=FaultInjector.parse(spec) if spec else None
        )
        runtime = SmartRpcRuntime(
            network,
            site,
            SPARC32,
            resolver=TypeResolver(site, "NS"),
            policy=make_policy("lazy"),
        )
        register_tree_types(runtime)
        runtime.import_interface(TREE_OPS)
        runtime.import_interface(TREE_EXPOSE)
        runtimes[site_id] = runtime
    roots = {}
    for site_id in HOMES:
        roots[site_id] = build_complete_tree(
            runtimes[site_id], EXPOSED_NODES
        )
        bind_tree_expose(runtimes[site_id], roots[site_id])
    return network, stats, runtimes, roots


@pytest.mark.parametrize("role,step", CELLS)
def test_simnet_crash_cell(role, step):
    victim = ROLE_SITE[role]
    network, stats, runtimes, roots = make_crash_world(
        {victim: _cell_fault(role, step)}
    )

    with pytest.raises(SessionAbortedError) as aborted:
        run_crash_session(runtimes[GROUND], list(HOMES))
    # Every cell surfaces as an unreachable peer at the ground: a dead
    # callee fails the exchange directly, and a dying ground's own
    # send is the last thing it does.
    assert aborted.value.reason.startswith(
        "peer-unreachable:"
    ), aborted.value.reason
    _assert_reached(aborted.value, role, step)
    assert network.is_crashed(victim)

    survivors = [s for s in (GROUND,) + HOMES if s != victim]
    # Orphaned state a survivor still holds must be internally
    # consistent before the reaper discards it.
    for site_id in survivors:
        runtime = runtimes[site_id]
        for state in list(runtime._sessions.values()):
            assert session_diagnostics(runtime, state) == []

    # The failure detector's view: the victim stopped heartbeating.
    ages = {
        site_id: (99.0 if site_id == victim else 0.0)
        for site_id in (GROUND,) + HOMES
    }
    for site_id in survivors:
        reaped = runtimes[site_id].reap_orphans(ages, grace=1.0)
        expected = NEED_REAP.get((role, step), set())
        assert len(reaped) == (1 if site_id in expected else 0), (
            site_id,
            reaped,
        )

    # Convergence: no survivor keeps any session state, cache pages
    # or allocation-table entries for the dead session.
    for site_id in survivors:
        assert runtimes[site_id]._sessions == {}, site_id

    # Atomicity: every surviving home heap is fully original or fully
    # updated — a crash at any step never leaves it in between.
    for site_id in HOMES:
        if site_id == victim:
            continue
        checksum = local_tree_checksum(runtimes[site_id], roots[site_id])
        expected = MARKED.get((role, step), {}).get(site_id, ORIGINAL_SUM)
        assert checksum == expected, (site_id, checksum)

    assert stats.sessions_aborted >= 1
    assert stats.orphans_reaped >= 1
    # The aborted session's own sub-trace records its full lifecycle:
    # it aborted somewhere and every reap names it.
    session_events = _events_for_session(
        stats.events, aborted.value.session_id
    )
    lifecycle = {event.category for event in session_events}
    assert {"session-abort", "orphan-reaped"} <= lifecycle, lifecycle
    _gate_events(stats.events)


def test_simnet_session_deadline_aborts():
    """A session open past its deadline aborts on its next exchange."""
    network, stats, runtimes, roots = make_crash_world()
    ground = runtimes[GROUND]
    ground.policy = replace(ground.policy, session_deadline=1e-9)
    with pytest.raises(SessionAbortedError) as aborted:
        run_crash_session(ground, list(HOMES))
    assert aborted.value.reason == "deadline"
    assert ground._sessions == {}
    _gate_events(stats.events)


def test_simnet_caller_survives_callee_crash_and_runs_again():
    """After a callee dies mid-session the ground retries elsewhere."""
    network, stats, runtimes, roots = make_crash_world(
        {"H": "crash-recv=data_request:1"}
    )
    with pytest.raises(SessionAbortedError):
        run_crash_session(runtimes[GROUND], list(HOMES))
    # A fresh session against the surviving home completes cleanly.
    checksums = run_crash_session(runtimes[GROUND], ["T"])
    assert checksums["T"] in (ORIGINAL_SUM, MARKED_SUM)
    assert local_tree_checksum(runtimes["T"], roots["T"]) == REMARKED_SUM
    _gate_events(stats.events)


# -- the real-process half (TCP and shared memory) ---------------------------

SPAWN_TIMEOUT = 30
CRASH_EXIT = 86
HEARTBEAT = 0.1
GRACE = 0.5
#: The ground's per-exchange cap: dead peers are declared unreachable
#: after this long instead of after the transport's full schedule.
EXCHANGE_TIMEOUT = 1.0
#: A schedule long enough to sit on the STATUS barrier; the exchange
#: cap above is what keeps dead-peer exchanges fast.
PATIENT_RETRY = RetryPolicy(
    timeout=0.25, backoff=2.0, max_timeout=2.0, max_attempts=6
)


def _env():
    src = str(Path(repro.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [src, env.get("PYTHONPATH")])
    )
    return env


class HostProcess:
    """One spawned ``python -m repro.transport serve`` process."""

    def __init__(self, site_id, *args, transport="tcp"):
        self.site_id = site_id
        self.transport = transport
        self.proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro.transport", "serve",
                "--site", site_id, "--transport", transport, *args,
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            env=_env(),
        )
        line = self.proc.stdout.readline().strip()
        assert line.startswith("READY "), f"bad READY line: {line!r}"
        self.addr = line.split("addr=")[1]

    def shutdown(self, endpoint):
        """Ask the host to stop, over an endpoint that can reach it —
        what ``python -m repro.transport shutdown`` sends, without a
        process of its own."""
        endpoint.send(
            self.site_id,
            MessageKind.SHUTDOWN,
            b"",
            reply_kind=MessageKind.SHUTDOWN_ACK,
        )

    def wait_crashed(self):
        """Block until the planned os._exit(86) crash happens."""
        self.proc.communicate(timeout=SPAWN_TIMEOUT)
        assert self.proc.returncode == CRASH_EXIT, self.proc.returncode

    def wait(self):
        stdout, stderr = self.proc.communicate(timeout=SPAWN_TIMEOUT)
        assert self.proc.returncode == 0, stderr[-2000:]

    def kill(self):
        if self.proc.poll() is None:
            self.proc.kill()
            self.proc.wait()


@pytest.fixture(scope="module", params=["tcp", "shm"])
def registry(request):
    """One registry per carrier, shared by that carrier's cells
    (sites use unique ids)."""
    host = HostProcess("NS", "--serve-registry", transport=request.param)
    yield host
    host.kill()
    if request.param == "shm":
        # The registry died by SIGKILL, closing nothing: its listening
        # socket went with the process, and it made no /dev/shm file.
        name = host.addr.rsplit(":", 1)[0]
        with open("/proc/net/unix") as table:
            assert "@" + name not in table.read()
        assert not glob.glob(f"/dev/shm/{name}*")


def _spawn_home(site_id, registry_addr, trace_path, carrier, fault=None):
    args = [
        "--registry", registry_addr,
        "--method", "lazy",
        "--heartbeat", str(HEARTBEAT),
        "--orphan-grace", str(GRACE),
        "--expose-tree", str(EXPOSED_NODES),
        "--trace", str(trace_path),
    ]
    if fault is not None:
        args += ["--fault", fault]
    return HostProcess(site_id, *args, transport=carrier)


def _barrier(endpoint, site, *, min_reaped=0):
    """Wait for a host to be live (and to have reaped, if asked)."""
    return query_status(
        endpoint,
        site,
        min_heartbeats=1,
        min_reaped=min_reaped,
        max_wait=8.0,
    )


def _checksum(runtime, home):
    """One fresh probe session reading a surviving home's own heap."""
    with runtime.session() as session:
        return tree_expose_client(runtime, home).tree_checksum(session)


@pytest.mark.parametrize("role,step", CELLS)
def test_process_crash_cell(role, step, registry, tmp_path):
    carrier = registry.transport
    host, port = registry.addr.rsplit(":", 1)
    registry_pair = (host, int(port))
    cell = f"{role[0]}{STEPS.index(step)}"
    sites = {
        name: f"{name}{cell}" for name in (GROUND,) + HOMES
    }
    victim = ROLE_SITE[role]
    fault = _cell_fault(role, step)

    hosts = []
    stats = StatsCollector(trace=True)
    transport = None
    try:
        for name in HOMES:
            hosts.append(
                _spawn_home(
                    sites[name],
                    registry.addr,
                    tmp_path / f"{name}.jsonl",
                    carrier,
                    fault=fault if name == victim else None,
                )
            )
        peers = [sites[name] for name in HOMES]
        if role == "caller":
            # The ground is a spawned host with a planned crash,
            # driven from here through RUN_SESSION.
            ground_args = [
                "--registry", registry.addr,
                "--method", "lazy",
                "--heartbeat", str(HEARTBEAT),
                "--fault", fault,
            ]
            ground_host = HostProcess(
                sites[GROUND], *ground_args, transport=carrier
            )
            hosts.append(ground_host)
            transport, runtime = make_space(
                f"probe{cell}",
                method="lazy",
                registry=registry_pair,
                stats=stats,
                retry=PATIENT_RETRY,
                exchange_timeout=EXCHANGE_TIMEOUT,
                transport=carrier,
            )
            directory = DirectoryClient(transport.endpoint, "NS")
            directory.register(*published_address(transport))
            with pytest.raises(TransportError):
                transport.endpoint.send(
                    sites[GROUND],
                    MessageKind.RUN_SESSION,
                    encode_run_session(peers),
                    reply_kind=MessageKind.RUN_REPLY,
                )
            # Exit status 86 is the injector's: the ground reached its
            # planned frame (a missed frame would end the run cleanly).
            ground_host.wait_crashed()
            # Survivors reap the dead ground on heartbeat age; the
            # STATUS barrier blocks until each reap actually happened.
            for name in HOMES:
                needs = name in NEED_REAP[(role, step)]
                status = _barrier(
                    transport.endpoint,
                    sites[name],
                    min_reaped=1 if needs else 0,
                )
                if needs:
                    assert status["orphans_reaped"] >= 1, (name, status)
                assert status["open_sessions"] == 0, (name, status)
                assert status["invariant_errors"] == 0, (name, status)
        else:
            # This test process is the ground; the victim home dies
            # mid-exchange and the session must abort, not hang.
            transport, runtime = make_space(
                sites[GROUND],
                method="lazy",
                registry=registry_pair,
                stats=stats,
                retry=PATIENT_RETRY,
                exchange_timeout=EXCHANGE_TIMEOUT,
                transport=carrier,
            )
            directory = DirectoryClient(transport.endpoint, "NS")
            directory.register(*published_address(transport))
            with pytest.raises(SessionAbortedError) as aborted:
                run_crash_session(runtime, peers)
            assert aborted.value.reason.startswith(
                "peer-unreachable:"
            ), aborted.value.reason
            _assert_reached(aborted.value, role, step)
            victim_host = next(
                h for h in hosts if h.site_id == sites[victim]
            )
            victim_host.wait_crashed()
            assert runtime._sessions == {}
            survivor = "T" if victim == "H" else "H"
            status = _barrier(transport.endpoint, sites[survivor])
            assert status["open_sessions"] == 0, status
            assert status["invariant_errors"] == 0, status

        # Atomicity across the process boundary: each surviving home
        # heap is fully original or fully updated.
        for name in HOMES:
            if sites[name] == sites[victim]:
                continue
            checksum = _checksum(runtime, sites[name])
            expected = MARKED.get((role, step), {}).get(name, ORIGINAL_SUM)
            assert checksum == expected, (name, checksum)

        save_trace(stats, tmp_path / "ground.jsonl")
        directory.deregister()
    finally:
        try:
            # The survivors stop over the probe's own transport, before
            # it closes.
            for spawned in hosts:
                if transport is None or spawned.site_id == sites[victim]:
                    continue
                if spawned.proc.poll() is None:
                    spawned.shutdown(transport.endpoint)
                    spawned.wait()
        finally:
            if transport is not None:
                transport.close()
            for spawned in hosts:
                spawned.kill()

    # The merged survivor trace passes every conformance rule — the
    # victim's log died with it, like a real crashed process's would.
    traces = [
        path
        for path in (
            tmp_path / "ground.jsonl",
            tmp_path / "H.jsonl",
            tmp_path / "T.jsonl",
        )
        if path.exists()
    ]
    merged = tmp_path / "merged.jsonl"
    assert merge_trace_files(traces, merged) > 0
    # The coherency sanitizer checks the same survivor timeline: the
    # aborted session's leftovers must read as crash semantics (which
    # the SRPC4xx rules scope out), never as a race.
    collector = DiagnosticCollector()
    trace_rules.analyze_trace_file(merged, collector)
    assert _gate_failures(collector) == []
    export_trace(merged, f"crash_{carrier}_{role}_{step}")
