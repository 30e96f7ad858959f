"""Unit tests for the transfer-policy layer.

Three concerns: preset construction (each named policy carries the
decisions of the system it models), adaptive feedback dynamics (the
budget drifts with the shipped-vs-touched ratio), and end-to-end
wiring (the runtime consults the policy and traces its decisions).
"""

import pytest

from repro.bench.harness import (
    PROPOSED,
    make_world,
    resolve_policy,
    run_hash_call,
    run_tree_call,
)
from repro.simnet.stats import TransferLedger
from repro.smartrpc.cache import ISOLATED, SINGLE_HOME
from repro.smartrpc.closure import BREADTH_FIRST, DEPTH_FIRST
from repro.smartrpc.errors import SmartRpcError
from repro.smartrpc.hints import ClosureHints
from repro.smartrpc.policy import (
    DEFAULT_CLOSURE_SIZE,
    GRAPHCOPY,
    POLICY_NAMES,
    SWIZZLE,
    UNBOUNDED,
    AdaptivePolicy,
    FixedPolicy,
    GraphcopyPolicy,
    make_policy,
)


class FakeState:
    """Just enough of ``SmartSessionState`` for ``request_budget``."""

    def __init__(self):
        self.policy_data = {}
        self.transfer_stats = TransferLedger()

    def prefetch(self, shipped, touched):
        self.transfer_stats.record_shipped(shipped, prefetched=True)
        if touched:
            self.transfer_stats.record_touched(touched, prefetched=True)


class TestPresets:
    def test_every_preset_has_a_factory(self):
        assert POLICY_NAMES == (
            "adaptive",
            "eager",
            "fixed",
            "graphcopy",
            "hinted",
            "lazy",
            "paper",
            "pipelined",
        )

    def test_paper_is_the_fixed_default_closure(self):
        policy = make_policy("paper")
        assert policy.name == "paper"
        assert policy.declared_budget == DEFAULT_CLOSURE_SIZE
        assert policy.marshalling == SWIZZLE
        assert policy.coherency is True
        assert policy.allocation_strategy == SINGLE_HOME
        assert policy.closure_order == BREADTH_FIRST

    def test_lazy_is_budget_zero_with_isolated_pages(self):
        policy = make_policy("lazy")
        assert policy.declared_budget == 0
        assert policy.allocation_strategy == ISOLATED
        assert policy.coherency is True

    def test_eager_is_the_unbounded_spectrum_endpoint(self):
        policy = make_policy("eager")
        assert policy.declared_budget == UNBOUNDED
        assert policy.marshalling == SWIZZLE

    def test_graphcopy_is_deep_copy_without_coherency(self):
        policy = make_policy("graphcopy")
        assert isinstance(policy, GraphcopyPolicy)
        assert policy.marshalling == GRAPHCOPY
        assert policy.coherency is False
        assert policy.declared_budget is None

    def test_graphcopy_has_no_data_plane_to_budget(self):
        with pytest.raises(SmartRpcError):
            make_policy("graphcopy").request_budget(FakeState())

    def test_hinted_carries_its_hints(self):
        hints = ClosureHints()
        policy = make_policy("hinted", closure_hints=hints)
        assert policy.hints is hints
        assert policy.declared_budget == DEFAULT_CLOSURE_SIZE

    def test_adaptive_declares_a_variable_budget(self):
        policy = make_policy("adaptive")
        assert policy.declared_budget is None
        assert policy.marshalling == SWIZZLE

    def test_fixed_takes_an_arbitrary_budget(self):
        policy = make_policy("fixed", closure_size=123)
        assert policy.declared_budget == 123

    def test_describe_is_the_trace_declaration(self):
        described = make_policy("paper").describe()
        assert described == {
            "policy": "paper",
            "budget": DEFAULT_CLOSURE_SIZE,
            "marshalling": SWIZZLE,
            "coherency": True,
            "order": BREADTH_FIRST,
            "strategy": SINGLE_HOME,
            "batch_window": 0,
            "max_inflight": 0,
            "prefetch_depth": 0,
            "session_deadline": 0.0,
            "exchange_timeout": 0.0,
            "orphan_grace": 0.0,
        }


class TestMakePolicyErrors:
    def test_unknown_name_is_a_value_error(self):
        with pytest.raises(ValueError):
            make_policy("telepathy")

    def test_lazy_pins_budget_zero(self):
        with pytest.raises(SmartRpcError):
            make_policy("lazy", closure_size=4096)
        assert make_policy("lazy", closure_size=0).declared_budget == 0

    def test_eager_pins_the_unbounded_budget(self):
        with pytest.raises(SmartRpcError):
            make_policy("eager", closure_size=4096)
        policy = make_policy("eager", closure_size=UNBOUNDED)
        assert policy.declared_budget == UNBOUNDED

    def test_graphcopy_rejects_every_knob(self):
        with pytest.raises(SmartRpcError):
            make_policy("graphcopy", closure_size=8192)
        with pytest.raises(SmartRpcError):
            make_policy("graphcopy", closure_order=DEPTH_FIRST)

    def test_hinted_requires_hints(self):
        with pytest.raises(SmartRpcError):
            make_policy("hinted")

    def test_budget_bounds(self):
        with pytest.raises(SmartRpcError):
            FixedPolicy(-1)
        with pytest.raises(SmartRpcError):
            FixedPolicy(UNBOUNDED + 1)

    def test_bad_knob_values(self):
        with pytest.raises(SmartRpcError):
            make_policy("paper", allocation_strategy="scattered")
        with pytest.raises(SmartRpcError):
            make_policy("paper", closure_order="random")
        with pytest.raises(SmartRpcError):
            make_policy("adaptive", allocation_strategy="scattered")
        with pytest.raises(SmartRpcError):
            make_policy("adaptive", closure_order="random")

    def test_bad_adaptive_bounds(self):
        with pytest.raises(SmartRpcError):
            AdaptivePolicy(min_budget=0)
        with pytest.raises(SmartRpcError):
            AdaptivePolicy(min_budget=1024, max_budget=512)


class TestPolicyCopies:
    def test_fresh_is_an_independent_copy(self):
        policy = make_policy("paper")
        twin = policy.fresh()
        assert twin is not policy
        twin.set_budget(64)
        assert policy.declared_budget == DEFAULT_CLOSURE_SIZE

    def test_pinned_presets_refuse_budget_changes(self):
        for name in ("lazy", "eager"):
            with pytest.raises(SmartRpcError):
                make_policy(name).set_budget(4096)

    def test_sweepable_presets_accept_budget_changes(self):
        policy = make_policy("paper")
        policy.set_budget(64)
        assert policy.declared_budget == 64


class TestAdaptiveDynamics:
    def test_initial_budget_until_the_window_fills(self):
        policy = AdaptivePolicy(initial=8192, window=1024)
        state = FakeState()
        assert policy.request_budget(state) == 8192
        state.prefetch(1000, 0)  # below the window: no verdict yet
        assert policy.request_budget(state) == 8192

    def test_wasted_prefetch_halves_the_budget(self):
        policy = AdaptivePolicy(initial=8192, window=1024)
        state = FakeState()
        state.prefetch(2048, 0)
        assert policy.request_budget(state) == 4096

    def test_useful_prefetch_doubles_the_budget(self):
        policy = AdaptivePolicy(initial=8192, window=1024)
        state = FakeState()
        state.prefetch(2048, 2048)
        assert policy.request_budget(state) == 16384

    def test_mid_band_ratio_holds_steady(self):
        policy = AdaptivePolicy(initial=8192, window=1024)
        state = FakeState()
        state.prefetch(2048, 1024)  # ratio 0.5: inside the deadband
        assert policy.request_budget(state) == 8192

    def test_budget_floors_at_min(self):
        policy = AdaptivePolicy(initial=512, min_budget=256, window=512)
        state = FakeState()
        state.prefetch(512, 0)
        assert policy.request_budget(state) == 256
        state.prefetch(512, 0)
        assert policy.request_budget(state) == 256

    def test_budget_caps_at_max(self):
        policy = AdaptivePolicy(
            initial=1 << 19, max_budget=1 << 20, window=512
        )
        state = FakeState()
        state.prefetch(512, 512)
        assert policy.request_budget(state) == 1 << 20
        state.prefetch(512, 512)
        assert policy.request_budget(state) == 1 << 20

    def test_each_window_is_judged_incrementally(self):
        """Old bytes are marked off after an adjustment: the next
        verdict sees only traffic since the last one."""
        policy = AdaptivePolicy(initial=8192, window=1024)
        state = FakeState()
        state.prefetch(2048, 0)
        assert policy.request_budget(state) == 4096
        # Touching the *old* waste later must not double the budget:
        # only a fresh window's worth of new traffic reopens the case.
        state.transfer_stats.record_touched(2048, prefetched=True)
        assert policy.request_budget(state) == 4096

    def test_sessions_tune_independently(self):
        policy = AdaptivePolicy(initial=8192, window=1024)
        wasteful, frugal = FakeState(), FakeState()
        wasteful.prefetch(2048, 0)
        assert policy.request_budget(wasteful) == 4096
        assert policy.request_budget(frugal) == 8192


class TestPolicyWiring:
    """The runtime consults the policy and traces its decisions."""

    def test_decisions_carry_the_requested_dfs_order(self):
        world = make_world(
            resolve_policy(PROPOSED, closure_order=DEPTH_FIRST), trace=True
        )
        run_tree_call(world, 63, "search", ratio=1.0)
        decisions = [
            e for e in world.stats.events if e.category == "policy-decision"
        ]
        assert decisions
        for event in decisions:
            assert event.data["order"] == DEPTH_FIRST
            assert event.data["policy"] == "paper"

    def test_each_session_declares_its_policy(self):
        world = make_world("lazy", trace=True)
        run_tree_call(world, 15, "search", ratio=1.0)
        declarations = [
            e for e in world.stats.events if e.category == "policy"
        ]
        assert declarations
        for event in declarations:
            assert event.data["policy"] == "lazy"
            assert event.data["budget"] == 0

    def test_adaptive_decisions_record_varying_budgets(self):
        world = make_world("adaptive", trace=True)
        run_hash_call(world, 400, 12)
        budgets = [
            e.data["budget"]
            for e in world.stats.events
            if e.category == "policy-decision"
        ]
        assert budgets
        assert len(set(budgets)) > 1, budgets

    def test_adaptive_beats_the_fixed_default_on_hash_lookups(self):
        """The acceptance bar: at equal correctness, the adaptive
        budget moves fewer bytes than the paper's fixed 8192 on the
        sparse hash-retrieval workload."""
        adaptive = run_hash_call(make_world("adaptive"), 2000, 40)
        paper = run_hash_call(make_world(PROPOSED), 2000, 40)
        assert adaptive.result == paper.result
        assert adaptive.bytes_moved < paper.bytes_moved
        assert adaptive.prefetch_shipped < paper.prefetch_shipped

    def test_touched_ledger_never_exceeds_shipped(self):
        run = run_tree_call(make_world(PROPOSED), 63, "search", ratio=0.5)
        assert 0 < run.closure_touched <= run.closure_shipped
        assert 0 <= run.prefetch_touched <= run.prefetch_shipped
