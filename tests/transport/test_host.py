"""One recipe for a site: the process host builds its stack the way
``make_world`` does, and serves it."""

import threading

import pytest

from repro.bench.harness import (
    POLICIES,
    make_carrier,
    make_world,
    resolve_policy,
    standard_workload_hints,
)
from repro.namesvc.directory import DirectoryClient, SiteDirectory
from repro.smartrpc.policy import make_policy
from repro.transport.__main__ import _build_parser
from repro.transport.base import FaultInjector
from repro.transport.host import ProcessHost, make_space, query_status


def _installed(runtime):
    """What a site knows: type ids, imported and bound procedures."""
    return (
        sorted(runtime.resolver.local.type_ids),
        sorted(runtime._imported),
        sorted(runtime._procedures),
    )


@pytest.mark.parametrize("name", POLICIES)
def test_every_policy_builds_a_space(name):
    transport, runtime = make_space(f"S-{name}", method=name, transport="tcp")
    try:
        assert runtime.policy.name == resolve_policy(name).name
        if name == "proposed":
            assert runtime.policy.name == "paper"
        if name == "hinted":
            hints = runtime.policy.hints
            assert hints._follow == standard_workload_hints()._follow
        if name == "eager":
            # The unbounded-closure preset, not the deep-copy baseline.
            assert runtime.policy.name == "eager"
            assert runtime.policy.budget == make_policy("eager").budget
    finally:
        transport.close()


def test_space_copies_a_policy_before_arming_it():
    policy = make_policy("lazy")
    transport, runtime = make_space(
        "S-armed", method=policy, orphan_grace=0.5, transport="tcp"
    )
    try:
        assert runtime.policy.orphan_grace == 0.5
        assert policy.orphan_grace == 0.0
    finally:
        transport.close()


def test_serve_method_choices_are_the_policies():
    parser = _build_parser()
    commands = next(
        action for action in parser._actions if action.dest == "command"
    )
    serve = commands.choices["serve"]
    method = next(
        action for action in serve._actions if action.dest == "method"
    )
    assert tuple(method.choices) == POLICIES
    assert len(set(method.choices)) == len(method.choices)


def test_world_and_space_install_the_same_workloads():
    world = make_world()
    transport, runtime = make_space("S-installed", transport="tcp")
    try:
        installed = _installed(runtime)
        assert installed[0] and installed[1] and installed[2]
        assert _installed(world.caller) == installed
        assert _installed(world.callee) == installed
    finally:
        transport.close()


def test_host_registers_again_when_the_directory_forgets_it():
    registry = make_carrier("tcp", "NS")
    directory = SiteDirectory(registry.endpoint)
    transport, runtime = make_space(
        "B", registry=registry.address, transport="tcp"
    )
    host = ProcessHost(transport, runtime, heartbeat_interval=0.05)
    serving = threading.Thread(target=host.serve_forever, daemon=True)
    serving.start()
    probe = make_carrier(
        "tcp",
        "probe",
        listen=False,
        peers={"NS": registry.address, "B": transport.address},
    )
    try:
        # One heartbeat in: the host registered before it began them.
        status = query_status(
            probe.endpoint, "B", min_heartbeats=1, max_wait=5.0
        )
        directory.records.clear()  # a registry restart, in effect
        query_status(
            probe.endpoint,
            "B",
            min_heartbeats=status["heartbeats"] + 2,
            max_wait=5.0,
        )
        host_name, port, _age = DirectoryClient(
            probe.endpoint, "NS"
        ).lookup("B")
        assert (host_name, port) == transport.address
    finally:
        host.request_stop()
        serving.join(5.0)
        probe.close()
        registry.close()
    assert not serving.is_alive()


def test_fault_ordinal_below_one_is_rejected():
    # `serve --fault` specs count frames from 1; a 0 or negative
    # ordinal would plan a fault that never fires.
    for spec, clause in (
        ("crash-recv=writeback_prepare:0", "crash-recv=writeback_prepare:0"),
        ("drop-request=1,dup-request=-2", "dup-request=-2"),
        ("drop-reply=0", "drop-reply=0"),
    ):
        with pytest.raises(ValueError, match=clause):
            FaultInjector.parse(spec)
    with pytest.raises(ValueError, match="crash-send=call:0"):
        FaultInjector(crash_sends={"call": 0})


def test_fault_unknown_kind_is_rejected():
    # Crash clauses name a message kind by its value; a misspelt one
    # (the crash matrix spells its steps with hyphens) would plan a
    # crash that never fires.
    with pytest.raises(ValueError, match="crash-recv=writeback-prepare:1"):
        FaultInjector(crash_recvs={"writeback-prepare": 1})
    with pytest.raises(ValueError, match="crash-send=CALL:1"):
        FaultInjector(crash_sends={"CALL": 1})
    with pytest.raises(ValueError, match="no message kind 'bogus'"):
        FaultInjector.parse("crash-send=bogus:2")
