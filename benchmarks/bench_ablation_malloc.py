"""Ablation: batched vs immediate remote memory operations (paper §3.5).

The paper argues that issuing each ``extended_malloc`` as its own
remote message "would degrade the runtime performance terribly" and
batches them until thread activity moves.  This bench measures both.
"""

import pytest
from conftest import record_sim_result

from repro.bench.harness import (
    CALLEE,
    PROPOSED,
    make_world,
    resolve_policy,
)
from repro.workloads.linked_list import build_list, list_client

ALLOCATIONS = 500


@pytest.mark.parametrize("batched", [True, False],
                         ids=["batched", "immediate"])
def test_ablation_remote_malloc(benchmark, batched):
    def run():
        world = make_world(
            resolve_policy(PROPOSED, batch_memory_ops=batched)
        )
        head = build_list(world.caller, [0])
        client = list_client(world.caller, CALLEE)
        world.stats.reset()
        clock = world.network.clock
        start = clock.now
        with world.caller.session() as session:
            client.append_range(session, head, 0, ALLOCATIONS)
        return clock.now - start, world.stats.total_messages

    seconds, messages = benchmark.pedantic(run, rounds=1, iterations=1)
    benchmark.extra_info["sim_seconds"] = round(seconds, 4)
    benchmark.extra_info["messages"] = messages
    mode = "batched" if batched else "immediate"
    record_sim_result(
        f"ablation-malloc {mode:>9s}: {seconds:7.4f} s  "
        f"messages={messages} for {ALLOCATIONS} remote allocations"
    )
