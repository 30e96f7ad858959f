"""Ablation: placeholder-page allocation strategies (paper §6).

The paper calls its single-home grouping a heuristic and leaves "a
general allocation method to find the optimal tradeoff between working
set size and number of communications" to future work.  This bench
measures the implemented points in that tradeoff space.
"""

import pytest
from conftest import record_sim_result

from repro.bench.harness import (
    PROPOSED,
    make_world,
    resolve_policy,
    run_tree_call,
)
from repro.smartrpc.cache import ISOLATED, PACKED, SINGLE_HOME

NODES = 32767
RATIO = 0.5


@pytest.mark.parametrize("strategy", [SINGLE_HOME, PACKED, ISOLATED])
def test_ablation_alloc_strategy(benchmark, strategy):
    def run():
        world = make_world(
            resolve_policy(PROPOSED, allocation_strategy=strategy)
        )
        return run_tree_call(world, NODES, "search", ratio=RATIO)

    run_result = benchmark.pedantic(run, rounds=1, iterations=1)
    benchmark.extra_info["sim_seconds"] = round(run_result.seconds, 4)
    benchmark.extra_info["callbacks"] = run_result.callbacks
    record_sim_result(
        f"ablation-alloc {strategy:>11s}: {run_result.seconds:7.3f} s  "
        f"callbacks={run_result.callbacks:5d}  "
        f"faults={run_result.page_faults}"
    )
