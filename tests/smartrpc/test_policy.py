"""Unit tests for the transfer-policy value.

Four concerns: preset construction (each named policy carries the
decisions of the system it models), validation (an out-of-range value
fails when the policy is built, not mid-session on the wire), adaptive
feedback dynamics (the budget drifts with the shipped-vs-touched
ratio), and end-to-end wiring (the runtime consults the policy and
traces its decisions).
"""

from dataclasses import FrozenInstanceError, replace

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
    ADAPTIVE_MAX_BUDGET,
    ADAPTIVE_MIN_BUDGET,
    ADAPTIVE_WINDOW,
    DEFAULT_CLOSURE_SIZE,
    GRAPHCOPY,
    POLICY_NAMES,
    SWIZZLE,
    UNBOUNDED,
    TransferPolicy,
    make_policy,
)


class FakeState:
    """Just enough of ``SmartSessionState`` for ``request_budget``."""

    def __init__(self):
        self.policy_data = {}
        self.transfer_stats = TransferLedger()

    def prefetch(self, shipped, touched):
        self.transfer_stats.record_fill(0, shipped)
        if touched:
            self.transfer_stats.record_touched(touched, prefetched=True)


#: Every preset's trace declaration (SRPC3xx reads this payload),
#: recorded from the class-per-preset implementation this value
#: replaced.  ``proposed`` is the benchmark alias of ``paper``.
DESCRIBED = {
    "adaptive": {
        "policy": "adaptive", "budget": None, "marshalling": "swizzle",
        "coherency": True, "order": "bfs", "strategy": "single_home",
        "coalesce": False, "prefetch": False,
        "session_deadline": 0.0, "exchange_timeout": 0.0,
        "orphan_grace": 0.0,
    },
    "eager": {
        "policy": "eager", "budget": 4294967295, "marshalling": "swizzle",
        "coherency": True, "order": "bfs", "strategy": "single_home",
        "coalesce": False, "prefetch": False,
        "session_deadline": 0.0, "exchange_timeout": 0.0,
        "orphan_grace": 0.0,
    },
    "graphcopy": {
        "policy": "graphcopy", "budget": None,
        "marshalling": "graphcopy", "coherency": False, "order": "bfs",
        "strategy": "single_home", "coalesce": False, "prefetch": False,
        "session_deadline": 0.0, "exchange_timeout": 0.0,
        "orphan_grace": 0.0,
    },
    "hinted": {
        "policy": "hinted", "budget": 8192, "marshalling": "swizzle",
        "coherency": True, "order": "bfs", "strategy": "single_home",
        "coalesce": False, "prefetch": False,
        "session_deadline": 0.0, "exchange_timeout": 0.0,
        "orphan_grace": 0.0,
    },
    "lazy": {
        "policy": "lazy", "budget": 0, "marshalling": "swizzle",
        "coherency": True, "order": "bfs", "strategy": "isolated",
        "coalesce": False, "prefetch": False,
        "session_deadline": 0.0, "exchange_timeout": 0.0,
        "orphan_grace": 0.0,
    },
    "paper": {
        "policy": "paper", "budget": 8192, "marshalling": "swizzle",
        "coherency": True, "order": "bfs", "strategy": "single_home",
        "coalesce": False, "prefetch": False,
        "session_deadline": 0.0, "exchange_timeout": 0.0,
        "orphan_grace": 0.0,
    },
    "pipelined": {
        "policy": "pipelined", "budget": None, "marshalling": "swizzle",
        "coherency": True, "order": "bfs", "strategy": "single_home",
        "coalesce": True, "prefetch": True,
        "session_deadline": 0.0, "exchange_timeout": 0.0,
        "orphan_grace": 0.0,
    },
    "proposed": {
        "policy": "paper", "budget": 8192, "marshalling": "swizzle",
        "coherency": True, "order": "bfs", "strategy": "single_home",
        "coalesce": False, "prefetch": False,
        "session_deadline": 0.0, "exchange_timeout": 0.0,
        "orphan_grace": 0.0,
    },
}


class TestPresets:
    def test_every_preset_has_a_factory(self):
        assert POLICY_NAMES == (
            "adaptive",
            "eager",
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
        assert policy.marshalling == GRAPHCOPY
        assert policy.coherency is False
        assert policy.declared_budget is None

    def test_graphcopy_has_no_data_plane_to_budget(self):
        with pytest.raises(SmartRpcError):
            make_policy("graphcopy").request_budget(FakeState())

    def test_hinted_carries_its_hints(self):
        hints = ClosureHints()
        policy = make_policy("hinted", closure_hints=hints)
        assert policy.closure_hints is hints
        assert policy.declared_budget == DEFAULT_CLOSURE_SIZE

    def test_adaptive_declares_a_variable_budget(self):
        policy = make_policy("adaptive")
        assert policy.declared_budget is None
        assert policy.marshalling == SWIZZLE

    def test_paper_takes_an_arbitrary_budget(self):
        policy = make_policy("paper", closure_size=123)
        assert policy.declared_budget == 123

    def test_either_pipeline_switch_makes_the_budget_vary(self):
        for switch in ("coalesce", "prefetch"):
            policy = TransferPolicy(**{switch: True})
            assert policy.declared_budget is None

    def test_describe_is_the_trace_declaration(self):
        described = make_policy("paper").describe()
        assert described == {
            "policy": "paper",
            "budget": DEFAULT_CLOSURE_SIZE,
            "marshalling": SWIZZLE,
            "coherency": True,
            "order": BREADTH_FIRST,
            "strategy": SINGLE_HOME,
            "coalesce": False,
            "prefetch": False,
            "session_deadline": 0.0,
            "exchange_timeout": 0.0,
            "orphan_grace": 0.0,
        }

    @pytest.mark.parametrize("name", sorted(DESCRIBED))
    def test_every_preset_describes_as_recorded(self, name):
        assert resolve_policy(name).describe() == DESCRIBED[name]


class TestMakePolicyErrors:
    def test_unknown_name_is_a_value_error(self):
        with pytest.raises(ValueError):
            make_policy("telepathy")

    def test_lazy_pins_budget_zero(self):
        with pytest.raises(SmartRpcError):
            make_policy("lazy", closure_size=4096)
        with pytest.raises(SmartRpcError):
            make_policy("lazy", closure_size=0)
        assert make_policy("lazy").declared_budget == 0

    def test_eager_pins_the_unbounded_budget(self):
        with pytest.raises(SmartRpcError):
            make_policy("eager", closure_size=4096)
        assert make_policy("eager").declared_budget == UNBOUNDED

    def test_graphcopy_rejects_every_knob(self):
        for knob, value in (
            ("closure_size", 8192),
            ("closure_order", DEPTH_FIRST),
            ("allocation_strategy", ISOLATED),
            ("closure_hints", ClosureHints()),
            ("batch_memory_ops", False),
            ("adaptive", True),
            ("coalesce", True),
            ("prefetch", True),
        ):
            with pytest.raises(SmartRpcError):
                make_policy("graphcopy", **{knob: value})

    def test_graphcopy_takes_the_fault_tolerance_seconds(self):
        policy = make_policy("graphcopy", session_deadline=30.0)
        assert policy.session_deadline == 30.0

    def test_hinted_requires_hints(self):
        with pytest.raises(SmartRpcError):
            make_policy("hinted")

    def test_budget_bounds(self):
        with pytest.raises(SmartRpcError):
            TransferPolicy(closure_size=-1)
        with pytest.raises(SmartRpcError):
            TransferPolicy(closure_size=UNBOUNDED + 1)
        assert TransferPolicy(closure_size=UNBOUNDED).closure_size == UNBOUNDED

    def test_bad_knob_values(self):
        with pytest.raises(SmartRpcError):
            make_policy("paper", allocation_strategy="scattered")
        with pytest.raises(SmartRpcError):
            make_policy("paper", allocation_strategy="mixed")
        with pytest.raises(SmartRpcError):
            make_policy("paper", closure_order="random")
        with pytest.raises(SmartRpcError):
            make_policy("adaptive", allocation_strategy="scattered")
        with pytest.raises(SmartRpcError):
            make_policy("adaptive", closure_order="random")
        with pytest.raises(SmartRpcError):
            TransferPolicy(marshalling="telepathy")

    def test_bad_adaptive_bounds(self):
        # The starting budget is the closure size, held to the wire.
        with pytest.raises(SmartRpcError):
            make_policy("adaptive", closure_size=2**40)
        with pytest.raises(SmartRpcError):
            make_policy("adaptive", closure_size=-1)


class TestOutOfRangeFailsAtConstruction:
    """Each value used to pass construction and fail mid-session (a
    remote ``uint32 out of range``, or a negative deadline meaning
    "never"); now building the policy raises."""

    @pytest.mark.parametrize("fields", [
        {"closure_size": 2**33},
        {"closure_size": -1},
        {"closure_size": UNBOUNDED + 1},
        {"exchange_timeout": float("nan")},
        {"orphan_grace": float("-inf")},
        {"session_deadline": -1.0},
        {"exchange_timeout": -0.5},
        {"orphan_grace": -10.0},
        {"session_deadline": float("nan")},
    ])
    def test_out_of_range_value_raises(self, fields):
        with pytest.raises(SmartRpcError):
            make_policy("paper", **fields)
        with pytest.raises(SmartRpcError):
            replace(make_policy("paper"), **fields)

    def test_sweep_past_the_wire_maximum_raises(self):
        with pytest.raises(SmartRpcError):
            replace(make_policy("paper"), closure_size=2**33)

    def test_zero_seconds_disable_fault_tolerance(self):
        policy = make_policy("paper", session_deadline=0.0)
        assert policy.session_deadline == 0.0


class TestPolicyCopies:
    def test_policy_is_frozen(self):
        policy = make_policy("paper")
        with pytest.raises(FrozenInstanceError):
            policy.closure_size = 64
        assert policy.declared_budget == DEFAULT_CLOSURE_SIZE

    def test_pinned_presets_refuse_budget_changes(self):
        for name in ("lazy", "eager"):
            with pytest.raises(SmartRpcError):
                make_policy(name, closure_size=4096)

    def test_sweepable_presets_accept_budget_changes(self):
        # A sweep builds a new value; the one it started from stays.
        policy = make_policy("paper")
        swept = replace(policy, closure_size=64)
        assert swept.declared_budget == 64
        assert swept.name == "paper"
        assert policy.declared_budget == DEFAULT_CLOSURE_SIZE


class TestAdaptiveDynamics:
    def test_initial_budget_until_the_window_fills(self):
        policy = make_policy("adaptive")
        state = FakeState()
        assert policy.request_budget(state) == DEFAULT_CLOSURE_SIZE
        # Below the window: no verdict yet.
        state.prefetch(ADAPTIVE_WINDOW - 1, 0)
        assert policy.request_budget(state) == DEFAULT_CLOSURE_SIZE

    def test_wasted_prefetch_halves_the_budget(self):
        policy = make_policy("adaptive")
        state = FakeState()
        state.prefetch(ADAPTIVE_WINDOW, 0)
        assert policy.request_budget(state) == 4096

    def test_useful_prefetch_doubles_the_budget(self):
        policy = make_policy("adaptive")
        state = FakeState()
        state.prefetch(ADAPTIVE_WINDOW, ADAPTIVE_WINDOW)
        assert policy.request_budget(state) == 16384

    def test_mid_band_ratio_holds_steady(self):
        policy = make_policy("adaptive")
        state = FakeState()
        # Ratio 0.5: inside the deadband.
        state.prefetch(ADAPTIVE_WINDOW, ADAPTIVE_WINDOW // 2)
        assert policy.request_budget(state) == 8192

    def test_budget_floors_at_min(self):
        policy = make_policy("adaptive", closure_size=2 * ADAPTIVE_MIN_BUDGET)
        state = FakeState()
        state.prefetch(ADAPTIVE_WINDOW, 0)
        assert policy.request_budget(state) == ADAPTIVE_MIN_BUDGET
        state.prefetch(ADAPTIVE_WINDOW, 0)
        assert policy.request_budget(state) == ADAPTIVE_MIN_BUDGET

    def test_budget_caps_at_max(self):
        policy = make_policy(
            "adaptive", closure_size=ADAPTIVE_MAX_BUDGET // 2
        )
        state = FakeState()
        state.prefetch(ADAPTIVE_WINDOW, ADAPTIVE_WINDOW)
        assert policy.request_budget(state) == ADAPTIVE_MAX_BUDGET
        state.prefetch(ADAPTIVE_WINDOW, ADAPTIVE_WINDOW)
        assert policy.request_budget(state) == ADAPTIVE_MAX_BUDGET

    def test_each_window_is_judged_incrementally(self):
        """Old bytes are marked off after an adjustment: the next
        verdict sees only traffic since the last one."""
        policy = make_policy("adaptive")
        state = FakeState()
        state.prefetch(ADAPTIVE_WINDOW, 0)
        assert policy.request_budget(state) == 4096
        # Touching the *old* waste later must not double the budget:
        # only a fresh window's worth of new traffic reopens the case.
        state.transfer_stats.record_touched(
            ADAPTIVE_WINDOW, prefetched=True
        )
        assert policy.request_budget(state) == 4096

    def test_sessions_tune_independently(self):
        policy = make_policy("adaptive")
        wasteful, frugal = FakeState(), FakeState()
        wasteful.prefetch(ADAPTIVE_WINDOW, 0)
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
