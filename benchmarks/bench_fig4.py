"""Figure 4: processing time vs access ratio, three methods.

Paper setup: a 32,767-node complete binary tree of 16-byte nodes on
the caller; the callee searches depth-first until the access ratio is
reached; closure size 8,192 bytes.  Expected shape: fully eager flat
(~2 s), fully lazy linear and worst (~12 s at ratio 1.0), the proposed
method best below a crossover near ratio 0.6.

With ``--transport both`` every (method, ratio) point runs over the
simulator and over real localhost TCP; both rows carry a
``transport`` tag in ``extra_info`` so the JSON output holds the two
modes side by side (modeled seconds vs wall seconds, same counters).
"""

import pytest
from conftest import record_sim_result

from repro.bench.calibration import FIG4_CLOSURE, FIG4_NODES
from repro.bench.harness import (
    METHODS,
    PROPOSED,
    SIMNET,
    make_world,
    resolve_policy,
    run_tree_call,
)

RATIOS = [0.0, 0.2, 0.4, 0.6, 0.8, 1.0]


@pytest.mark.parametrize("ratio", RATIOS)
@pytest.mark.parametrize("method", METHODS)
def test_fig4_search(
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
    benchmark.extra_info["transport"] = transport_mode
    benchmark.extra_info["policy"] = method
    benchmark.extra_info.update(run_result.ledger())
    benchmark.extra_info["sim_seconds"] = round(run_result.seconds, 4)
    benchmark.extra_info["callbacks"] = run_result.callbacks
    benchmark.extra_info["bytes"] = run_result.bytes_moved
    unit = "sim s" if transport_mode == SIMNET else "wall s"
    record_sim_result(
        f"fig4 {method:>8s} ratio={ratio:.1f} [{transport_mode}]: "
        f"{run_result.seconds:7.3f} {unit}  "
        f"callbacks={run_result.callbacks:6d}  "
        f"bytes={run_result.bytes_moved}"
    )
