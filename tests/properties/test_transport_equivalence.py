"""Transport and policy equivalence properties.

Two independent invariances meet here:

* **Transport equivalence** — the transport is a carrier, not a
  participant: for any seeded session the smart-RPC layer must produce
  byte-identical results and identical protocol counters whether the
  frames cross a simulated network, real localhost sockets, or
  shared-memory segments (where bulk payloads never touch a wire at
  all — the counters still charge the logical bytes).
* **Policy equivalence** — a transfer policy decides *how much* moves
  *when*, never *what the procedure computes*: every preset must
  produce the identical procedure result on every workload, over both
  transports.

Each example runs the same workload through ``make_world`` across the
compared axis and diffs everything but wall-clock time (simulated
seconds and real seconds legitimately differ; traffic legitimately
differs across policies).
"""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.rpc.session as rpc_session
from repro.bench.harness import (
    CALLEE,
    METHODS,
    POLICIES,
    PROPOSED,
    SHM,
    SIMNET,
    TCP,
    make_world,
    run_hash_call,
    run_tree_call,
)
from repro.workloads.linked_list import (
    LIST_OPS,
    build_list,
    list_client,
    read_list,
)

#: ExperimentRun fields that must match across transports — all of
#: them except ``seconds`` (modeled time vs. measured wall time).
COMPARED_FIELDS = (
    "method",
    "callbacks",
    "messages",
    "bytes_moved",
    "page_faults",
    "write_faults",
    "entries",
    "result",
)

depths = st.integers(min_value=0, max_value=4)
ratios = st.sampled_from([0.1, 0.5, 1.0])
procedures = st.sampled_from(["search", "search_update"])
methods = st.sampled_from(METHODS)


def _align_session_ids():
    """Restart the global session counter for one compared pair.

    Session ids embed a process-wide counter, written in base 36;
    when the compared runs straddle the one boundary where the padded
    XDR string grows a word (``A#zz`` vs ``A#100``, the 1 296th
    session — a long hypothesis run gets there), ``bytes_moved``
    shifts by one word per message.  Pinning the counter makes the
    paired sessions byte-identical.
    """
    rpc_session._session_numbers = itertools.count(100)


def _tree_run(transport, method, nodes, procedure, ratio):
    with make_world(method, transport=transport) as world:
        return run_tree_call(world, nodes, procedure, ratio=ratio)


class TestTreeEquivalence:
    @settings(max_examples=10, deadline=None)
    @given(depths, ratios, procedures, methods)
    def test_same_session_same_counters(
        self, depth, ratio, procedure, method
    ):
        nodes = 2 ** (depth + 1) - 1
        _align_session_ids()
        simulated = _tree_run(SIMNET, method, nodes, procedure, ratio)
        for transport in (TCP, SHM):
            real = _tree_run(transport, method, nodes, procedure, ratio)
            for name in COMPARED_FIELDS:
                assert getattr(simulated, name) == getattr(real, name), (
                    transport,
                    name,
                )

    @settings(max_examples=5, deadline=None)
    @given(depths, st.integers(min_value=1, max_value=8))
    def test_path_search_equivalent(self, depth, seed):
        nodes = 2 ** (depth + 1) - 1
        _align_session_ids()
        runs = [
            _tree_run_path(transport, nodes, seed)
            for transport in (SIMNET, TCP, SHM)
        ]
        for run in runs[1:]:
            for name in COMPARED_FIELDS:
                assert getattr(runs[0], name) == getattr(run, name), name


def _tree_run_path(transport, nodes, seed):
    with make_world(PROPOSED, transport=transport) as world:
        return run_tree_call(
            world, nodes, "path_search", repeats=3, seed=seed
        )


class TestPolicyEquivalence:
    """Every transfer policy computes the same procedure results."""

    @settings(max_examples=4, deadline=None)
    @given(depths, ratios, procedures)
    def test_tree_result_identical_across_policies(
        self, depth, ratio, procedure
    ):
        nodes = 2 ** (depth + 1) - 1
        results = {}
        for policy in POLICIES:
            world = make_world(policy)
            run = run_tree_call(world, nodes, procedure, ratio=ratio)
            results[policy] = run.result
        assert len(set(results.values())) == 1, results

    @settings(max_examples=3, deadline=None)
    @given(
        st.integers(min_value=8, max_value=80),
        st.integers(min_value=1, max_value=6),
    )
    def test_hash_result_identical_across_policies(self, keys, lookups):
        results = {}
        for policy in POLICIES:
            world = make_world(policy)
            run = run_hash_call(world, keys, lookups)
            results[policy] = run.result
        assert len(set(results.values())) == 1, results

    @pytest.mark.parametrize("policy", POLICIES)
    def test_policy_counters_match_across_transports(self, policy):
        runs = []
        _align_session_ids()
        for transport in (SIMNET, TCP, SHM):
            with make_world(policy, transport=transport) as world:
                runs.append(
                    run_tree_call(world, 31, "search", ratio=1.0)
                )
        for run in runs[1:]:
            for name in COMPARED_FIELDS:
                assert getattr(runs[0], name) == getattr(run, name), name

    @pytest.mark.parametrize("policy", POLICIES)
    def test_hash_counters_match_across_transports(self, policy):
        runs = []
        _align_session_ids()
        for transport in (SIMNET, TCP, SHM):
            with make_world(policy, transport=transport) as world:
                runs.append(run_hash_call(world, 40, 3))
        for run in runs[1:]:
            for name in COMPARED_FIELDS:
                assert getattr(runs[0], name) == getattr(run, name), name


class TestMutationEquivalence:
    @settings(max_examples=5, deadline=None)
    @given(
        st.lists(
            st.integers(min_value=-(2**20), max_value=2**20),
            min_size=1,
            max_size=12,
        ),
        st.integers(min_value=-8, max_value=8),
    )
    def test_scale_bytes_identical(self, values, factor):
        outcomes = []
        _align_session_ids()
        for transport in (SIMNET, TCP, SHM):
            with make_world(PROPOSED, transport=transport) as world:
                world.caller.import_interface(LIST_OPS)
                head = build_list(world.caller, values)
                stub = list_client(world.caller, CALLEE)
                with world.caller.session() as session:
                    stub.scale(session, head, factor)
                outcomes.append(
                    (
                        read_list(world.caller, head),
                        world.stats.total_messages,
                        world.stats.total_bytes,
                    )
                )
        assert outcomes[0] == outcomes[1] == outcomes[2]
        assert outcomes[0][0] == [v * factor for v in values]
