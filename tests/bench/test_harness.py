"""Tests for the experiment harness."""

import pytest

from repro.bench.experiments import _world
from repro.bench.harness import (
    FULLY_EAGER,
    FULLY_LAZY,
    METHODS,
    PROPOSED,
    make_world,
    resolve_policy,
    run_hash_call,
    run_tree_call,
)
from repro.smartrpc.errors import SmartRpcError
from repro.smartrpc.policy import GRAPHCOPY, POLICY_NAMES, make_policy
from repro.smartrpc.runtime import SmartRpcRuntime
from repro.workloads.traversal import expected_search_checksum


class TestMakeWorld:
    def test_proposed_world_uses_smart_runtimes(self):
        world = make_world(PROPOSED)
        assert isinstance(world.caller, SmartRpcRuntime)
        assert isinstance(world.callee, SmartRpcRuntime)

    def test_eager_world_runs_the_graphcopy_policy(self):
        world = make_world(FULLY_EAGER)
        assert isinstance(world.caller, SmartRpcRuntime)
        assert world.caller.policy.marshalling == GRAPHCOPY
        assert world.caller.policy.name == "graphcopy"

    def test_lazy_world_runs_the_lazy_policy(self):
        world = make_world(FULLY_LAZY)
        assert isinstance(world.caller, SmartRpcRuntime)
        assert world.caller.policy.name == "lazy"
        assert world.caller.policy.declared_budget == 0
        assert world.caller.policy.allocation_strategy == "isolated"

    def test_every_policy_name_builds_a_world(self):
        for name in POLICY_NAMES:
            world = make_world(name)
            assert isinstance(world.caller, SmartRpcRuntime)

    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError):
            make_world("telepathy")

    def test_closure_size_propagates(self):
        world = make_world(resolve_policy(PROPOSED, closure_size=1234))
        assert world.callee.policy.declared_budget == 1234

    def test_policy_instance_accepted(self):
        world = make_world(make_policy("paper", closure_size=512))
        assert world.caller.policy.declared_budget == 512
        assert world.method == "paper"

    def test_runtimes_share_one_frozen_policy(self):
        # Adaptive budgets live in each session, so sharing is safe.
        world = make_world("adaptive")
        assert world.caller.policy is world.callee.policy

    def test_default_architecture_is_sparc(self):
        world = make_world(PROPOSED)
        assert world.caller.arch.name == "sparc32"
        assert world.callee.arch.name == "sparc32"


class TestResolvePolicy:
    def test_proposed_is_the_paper_policy(self):
        assert resolve_policy(PROPOSED).name == "paper"
        assert resolve_policy(PROPOSED).declared_budget == 8192

    def test_pinned_presets_ignore_the_closure_sweep_knob(self):
        # The figure runner sweeps every column and drops what a
        # column's preset pins.
        with _world(FULLY_LAZY, closure_size=4096) as world:
            assert world.caller.policy.declared_budget == 0
        with _world(FULLY_EAGER, closure_size=4096) as world:
            assert world.caller.policy.name == "graphcopy"

    def test_pinned_presets_reject_the_closure_sweep_knob(self):
        # Dropping a pinned sweep knob is the figure runner's business
        # (``experiments._world``), not a silent default here.
        with pytest.raises(SmartRpcError):
            resolve_policy(FULLY_LAZY, closure_size=4096)
        with pytest.raises(SmartRpcError):
            resolve_policy(FULLY_EAGER, allocation_strategy="packed")

    def test_hinted_gets_the_standard_workload_hints(self):
        policy = resolve_policy("hinted")
        assert policy.closure_hints is not None

    def test_policy_instance_passes_through(self):
        policy = make_policy("adaptive")
        assert resolve_policy(policy) is policy


class TestRunTreeCall:
    @pytest.mark.parametrize("method", METHODS)
    def test_search_result_is_correct_for_every_method(self, method):
        world = make_world(method)
        run = run_tree_call(world, 63, "search", ratio=1.0)
        assert run.result == expected_search_checksum(63, 63)
        assert run.seconds > 0
        assert run.messages >= 2

    def test_ratio_zero_is_nearly_free_for_lazy(self):
        world = make_world(FULLY_LAZY)
        run = run_tree_call(world, 63, "search", ratio=0.0)
        assert run.callbacks == 0

    def test_search_repeat_runs(self):
        world = make_world(PROPOSED)
        run = run_tree_call(world, 63, "search_repeat", repeats=3)
        assert run.result == 3 * sum(range(63))

    def test_path_search_runs(self):
        world = make_world(PROPOSED)
        run = run_tree_call(world, 63, "path_search", repeats=4, seed=9)
        assert run.callbacks >= 1

    def test_unknown_procedure_rejected(self):
        world = make_world(PROPOSED)
        with pytest.raises(ValueError):
            run_tree_call(world, 63, "teleport", ratio=0.1)

    def test_stats_reset_before_measurement(self):
        world = make_world(PROPOSED)
        run_tree_call(world, 63, "search", ratio=1.0)
        # a second run on a fresh world is comparable
        world2 = make_world(PROPOSED)
        run2 = run_tree_call(world2, 63, "search", ratio=1.0)
        assert run2.messages > 0

    def test_row_shape(self):
        world = make_world(PROPOSED)
        run = run_tree_call(world, 63, "search", ratio=0.5)
        row = run.row()
        assert row[0] == PROPOSED
        assert len(row) == 5

    def test_ledger_populates_for_the_swizzle_path(self):
        world = make_world(PROPOSED)
        run = run_tree_call(world, 63, "search", ratio=1.0)
        ledger = run.ledger()
        assert ledger["closure_bytes_shipped"] > 0
        assert 0 < ledger["closure_bytes_touched"] <= (
            ledger["closure_bytes_shipped"]
        )

    def test_graphcopy_has_no_fill_ledger(self):
        world = make_world(FULLY_EAGER)
        run = run_tree_call(world, 63, "search", ratio=1.0)
        assert run.closure_shipped == 0
        assert run.prefetch_shipped == 0


class TestRunHashCall:
    def test_lookup_result_matches_across_policies(self):
        results = set()
        for method in (PROPOSED, FULLY_LAZY, "adaptive"):
            world = make_world(method)
            run = run_hash_call(world, 100, 4)
            results.add(run.result)
        assert len(results) == 1

    def test_lazy_hash_run_never_prefetches(self):
        world = make_world(FULLY_LAZY)
        run = run_hash_call(world, 100, 4)
        assert run.prefetch_shipped == 0


class TestEagerConstructorCompat:
    def test_fully_eager_class_is_the_pinned_runtime(self):
        """The fully eager method has no class of its own: it is the
        smart runtime under the policy named ``graphcopy``."""
        world = make_world(FULLY_EAGER)
        eager = SmartRpcRuntime(
            world.network,
            world.network.add_site("E"),
            world.caller.arch,
            policy="graphcopy",
        )
        assert eager.policy.marshalling == GRAPHCOPY
        assert eager.policy.name == world.caller.policy.name == "graphcopy"
