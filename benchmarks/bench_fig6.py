"""Figure 6: processing time vs closure size, three tree sizes.

Paper setup: the tree is depth-first searched from the root to the
leaves ten times in one RPC (upper levels are reused from the cache
after the first pass); the closure size sweeps 0-50 KB.  Expected
shape: expensive at closure 0 (lazy-like), a small optimum that grows
with the tree (paper: 4/8/16 KB), rising again past it.
"""

import pytest
from conftest import record_sim_result

from repro.bench.calibration import FIG6_REPEATS
from repro.bench.harness import (
    PROPOSED,
    make_world,
    resolve_policy,
    run_tree_call,
)

NODE_COUNTS = [16383, 32767, 65535]
CLOSURE_SIZES = [0, 2048, 4096, 8192, 16384, 32768, 49152]


@pytest.mark.parametrize("closure_size", CLOSURE_SIZES)
@pytest.mark.parametrize("num_nodes", NODE_COUNTS)
def test_fig6_closure_sweep(
    benchmark,
    num_nodes,
    closure_size,
    transport_mode,
    policy_mode,
    closure_order_mode,
):
    method = PROPOSED if policy_mode is None else policy_mode

    def run():
        policy = resolve_policy(
            method, closure_size=closure_size, closure_order=closure_order_mode
        )
        with make_world(policy, transport=transport_mode) as world:
            return run_tree_call(
                world, num_nodes, "search_repeat", repeats=FIG6_REPEATS
            )

    run_result = benchmark.pedantic(run, rounds=1, iterations=1)
    benchmark.extra_info["policy"] = method
    benchmark.extra_info["sim_seconds"] = round(run_result.seconds, 4)
    benchmark.extra_info["callbacks"] = run_result.callbacks
    record_sim_result(
        f"fig6 nodes={num_nodes:5d} closure={closure_size:6d}B: "
        f"{run_result.seconds:7.3f} s  "
        f"callbacks={run_result.callbacks}"
    )
