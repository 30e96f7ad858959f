"""A prefetch that fails on a real carrier.

On tcp the pipeline's prefetch runs on a worker thread through the raw
``send``, so its failure surfaces only where the ground thread next
touches the fetch: a fault that absorbs it, an activity crossing that
drops it, or a teardown that abandons it.  The ground here walks a
list homed at the callee, and its prefetch worker meets a home that
does not answer while every ground-thread exchange goes through.
"""

import threading
import time

import pytest

from repro.bench.harness import CALLEE, TCP, make_world
from repro.smartrpc.errors import SessionAbortedError
from repro.smartrpc.long_pointer import LongPointer
from repro.transport.base import TransportError
from repro.workloads.linked_list import (
    LIST_NODE_TYPE_ID,
    build_list,
    list_client,
)
from repro.xdr.view import compile_run_plan

#: Long enough that the first fill leaves a frontier to prefetch.
NODES = 2000


def unreachable_prefetches(runtime, hold=None, started=None):
    """Make the prefetch worker's exchanges fail; the ground's pass.

    With ``hold`` the worker first signals ``started`` and blocks until
    ``hold`` is set (ten seconds at most, so a pipeline that waits on
    it fails instead of hanging), as an exchange with a hung peer
    would.
    """
    send = runtime.site.send

    def prefetch_aware_send(*args, **kwargs):
        if threading.current_thread().name.startswith("prefetch-"):
            if hold is not None:
                started.set()
                hold.wait(10)
            raise TransportError("home unreachable")
        return send(*args, **kwargs)

    runtime.site.send = prefetch_aware_send


def remote_list(world, state):
    """The ground's local address of a list homed at the callee."""
    head = build_list(world.callee, list(range(NODES)))
    return state.swizzler.swizzle(
        LongPointer(CALLEE, head, LIST_NODE_TYPE_ID)
    )


def walk(runtime, head, nodes=None):
    """Sum the list through the program plane, faulting it in."""
    spec = runtime.resolver.resolve(LIST_NODE_TYPE_ID)
    plan = compile_run_plan(spec, runtime.arch, ("value", "next"))
    result, address, seen = 0, head, 0
    while address != 0 and seen != nodes:
        value, address = plan.unpack(
            runtime.mem.load(address + plan.start, plan.span, plan.accesses)
        )
        result += value
        seen += 1
    return result


def prefetch_workers():
    return [
        thread for thread in threading.enumerate()
        if thread.name.startswith("prefetch-")
    ]


def test_a_fault_absorbing_a_failed_prefetch_aborts_the_session():
    with make_world("pipelined", transport=TCP) as world:
        ground = world.caller
        unreachable_prefetches(ground)
        with pytest.raises(SessionAbortedError) as aborted:
            with ground.session() as session:
                state = session.state
                walk(ground, remote_list(world, state))
        assert aborted.value.reason == f"peer-unreachable:{CALLEE}"
        assert ground._sessions == {}
        assert state.cache.footprint() == (0, 0)
        assert world.stats.sessions_aborted == 1


def test_a_failed_prefetch_dropped_at_a_crossing_raises_nothing():
    with make_world("pipelined", transport=TCP) as world:
        ground = world.caller
        unreachable_prefetches(ground)
        local = build_list(ground, [1, 2, 3])
        stub = list_client(ground, CALLEE)
        with ground.session() as session:
            # One fault: the fill, then a prefetch that fails.
            assert walk(ground, remote_list(world, session.state), 1) == 0
            # Activity leaves for the callee and drops that prefetch.
            assert stub.total(session, local) == 6
        assert world.stats.sessions_aborted == 0


def test_abandon_does_not_wait_on_a_running_prefetch():
    hold, started = threading.Event(), threading.Event()
    with make_world("pipelined", transport=TCP) as world:
        ground = world.caller
        unreachable_prefetches(ground, hold, started)
        try:
            with ground.session() as session:
                walk(ground, remote_list(world, session.state), 1)
                assert started.wait(10)
                began = time.monotonic()
                session.state.pipeline.abandon()
                assert time.monotonic() - began < 1.0
                # The worker is still inside its exchange.
                assert [t.is_alive() for t in prefetch_workers()] == [True]
        finally:
            hold.set()
            for thread in prefetch_workers():
                thread.join(10)
        assert prefetch_workers() == []
