"""Ablation: closure traversal order (paper §6 "shape" discussion).

The paper uses breadth-first traversal and notes that optimising the
closure's shape to the remote access pattern is open.  A depth-first
closure matches a depth-first consumer better at partial ratios.
"""

import pytest
from conftest import record_sim_result

from repro.bench.harness import (
    PROPOSED,
    make_world,
    resolve_policy,
    run_tree_call,
)
from repro.smartrpc.closure import BREADTH_FIRST, DEPTH_FIRST

NODES = 32767


@pytest.mark.parametrize("ratio", [0.25, 0.5, 1.0])
@pytest.mark.parametrize("order", [BREADTH_FIRST, DEPTH_FIRST])
def test_ablation_closure_order(benchmark, order, ratio, policy_mode):
    method = PROPOSED if policy_mode is None else policy_mode

    def run():
        world = make_world(resolve_policy(method, closure_order=order))
        return run_tree_call(world, NODES, "search", ratio=ratio)

    run_result = benchmark.pedantic(run, rounds=1, iterations=1)
    benchmark.extra_info["policy"] = method
    benchmark.extra_info["sim_seconds"] = round(run_result.seconds, 4)
    benchmark.extra_info["bytes"] = run_result.bytes_moved
    benchmark.extra_info.update(run_result.ledger())
    record_sim_result(
        f"ablation-closure {method} {order} ratio={ratio:.2f}: "
        f"{run_result.seconds:7.3f} s  "
        f"callbacks={run_result.callbacks}  "
        f"bytes={run_result.bytes_moved}  "
        f"prefetch={run_result.prefetch_shipped}B/"
        f"{run_result.prefetch_touched}B touched"
    )
