"""Figure 7: update performance vs update ratio.

Paper setup: the Figure 4 subject, closure 8,192 bytes; the solid line
updates every visited node, the dotted line only visits.  Expected
shape: the updated curve scales with the ratio and sits at about twice
the not-updated one (read page-in plus write-back of the dirty page).
"""

import pytest
from conftest import record_sim_result

from repro.bench.calibration import FIG4_CLOSURE, FIG4_NODES
from repro.bench.harness import (
    PROPOSED,
    make_world,
    resolve_policy,
    run_tree_call,
)

RATIOS = [0.2, 0.4, 0.6, 0.8, 1.0]


@pytest.mark.parametrize("ratio", RATIOS)
@pytest.mark.parametrize("procedure", ["search", "search_update"])
def test_fig7_update(
    benchmark, procedure, ratio, transport_mode, policy_mode, closure_order_mode
):
    method = PROPOSED if policy_mode is None else policy_mode

    def run():
        policy = resolve_policy(
            method, closure_size=FIG4_CLOSURE, closure_order=closure_order_mode
        )
        with make_world(policy, transport=transport_mode) as world:
            return run_tree_call(world, FIG4_NODES, procedure, ratio=ratio)

    run_result = benchmark.pedantic(run, rounds=1, iterations=1)
    benchmark.extra_info["policy"] = method
    benchmark.extra_info["sim_seconds"] = round(run_result.seconds, 4)
    benchmark.extra_info["write_faults"] = run_result.write_faults
    label = "updated" if procedure == "search_update" else "visited"
    record_sim_result(
        f"fig7 {label:>7s} ratio={ratio:.1f}: "
        f"{run_result.seconds:7.3f} s  "
        f"write-faults={run_result.write_faults}"
    )
