"""Figure 5: callbacks vs access ratio, fully lazy vs proposed.

Expected shape: the lazy method performs one callback per visited node
(32,767 at ratio 1.0); the proposed method needs orders of magnitude
fewer because a fault fetches a whole page group plus its closure.
"""

import pytest
from conftest import record_sim_result

from repro.bench.calibration import FIG4_CLOSURE, FIG4_NODES
from repro.bench.harness import (
    FULLY_LAZY,
    PROPOSED,
    make_world,
    resolve_policy,
    run_tree_call,
)

RATIOS = [0.2, 0.6, 1.0]


@pytest.mark.parametrize("ratio", RATIOS)
@pytest.mark.parametrize("method", [FULLY_LAZY, PROPOSED])
def test_fig5_callbacks(
    benchmark, method, ratio, transport_mode, policy_mode, closure_order_mode
):
    if method == PROPOSED and policy_mode is not None:
        method = policy_mode

    def run():
        policy = resolve_policy(
            method, closure_size=FIG4_CLOSURE, closure_order=closure_order_mode
        )
        with make_world(policy, transport=transport_mode) as world:
            return run_tree_call(world, FIG4_NODES, "search", ratio=ratio)

    run_result = benchmark.pedantic(run, rounds=1, iterations=1)
    benchmark.extra_info["policy"] = method
    benchmark.extra_info["callbacks"] = run_result.callbacks
    if method == FULLY_LAZY:
        assert run_result.callbacks == int(round(ratio * FIG4_NODES))
    record_sim_result(
        f"fig5 {method:>8s} ratio={ratio:.1f}: "
        f"callbacks={run_result.callbacks}"
    )
