#!/usr/bin/env python
"""Record or check the committed benchmark baseline.

The baseline pins the deterministic simnet metrics — round trips
(``DATA_REQUEST`` exchanges, the paper's Figure 5 "callbacks"), bytes
shipped, and simulated seconds — for the standard workloads under each
transfer policy, plus real wall time for reference.  Two files are
written next to this script:

* ``BENCH_fig4.json`` — the Figure 4/5 workloads (linked list, hash
  table, search tree) under the ``paper``, ``lazy``, ``adaptive`` and
  ``pipelined`` presets, with the pipeline's round-trip reduction
  versus ``paper`` precomputed per workload;
* ``BENCH_ablation.json`` — the fetch-pipeline switch ablation
  (coalescing only, prefetch only, both) on the same workloads.

Usage (from the repository root)::

    PYTHONPATH=src python benchmarks/baseline.py            # re-record
    PYTHONPATH=src python benchmarks/baseline.py --compare  # CI gate

``--compare`` re-runs the experiments and fails (exit 1) when any
policy regresses more than 10% on round trips, bytes shipped, or
simulated seconds against the committed baseline, or when any result
value differs at all.  ``--policies`` restricts the comparison (the CI
gate checks every policy); wall time is recorded but never compared —
it measures the host, not the code under test.

``--transport tcp`` / ``--transport shm`` runs the same workloads over
a real carrier instead and records ``BENCH_tcp.json`` /
``BENCH_shm.json``.  A carrier baseline gates only the deterministic
metrics (results, round trips, bytes shipped — identical to simnet by
the transport-equivalence property); seconds over a real carrier are
wall time and are recorded for reference only.  The shm file also
records the raw carrier page-fill slopes of both carriers next to a
plain memcpy (see ``repro.bench.carrier``), the Figure 4 eager/lazy
crossover sweep over both real carriers, and ``carrier_rtt_us``, the 16-byte echo and PING round trips
over both carriers next to the same ping-pong over a bare blocking
socket and one ``Request`` through the frame codec and back, all
pinned to one CPU, with two shape gates on ``--compare``: each
carrier's echo p50 must stay under 15x that floor measured in the same
run, and the frame round trip under 1x it.
"""

from __future__ import annotations

import argparse
import gc
import json
import sys
import time
from pathlib import Path
from typing import Callable, Dict, List, Tuple

from repro.bench.carrier import (
    FLOOR,
    FRAME,
    carrier_per_byte,
    carrier_rtt_us,
    memcpy_per_byte,
)
from repro.bench.harness import (
    FULLY_EAGER,
    FULLY_LAZY,
    SHM,
    SIMNET,
    TCP,
    TRANSPORTS,
    World,
    make_world,
    run_hash_call,
    run_list_call,
    run_tree_call,
)
from repro.smartrpc.policy import TransferPolicy

import bench_hotpath

HERE = Path(__file__).resolve().parent
FIG4_BASELINE = HERE / "BENCH_fig4.json"
ABLATION_BASELINE = HERE / "BENCH_ablation.json"
HOTPATH_BASELINE = bench_hotpath.HOTPATH_BASELINE

#: Relative regression allowed before --compare fails.
TOLERANCE = 0.10

#: The Figure 4 crossover sweep recorded into the shm baseline: small
#: enough that a fully-lazy ratio-1.0 walk stays fast over a real
#: carrier, large enough that the eager closure is genuinely bulk.
CROSSOVER_NODES = 2047
#: Recorded as ``closure_bytes``; neither duelling method takes a
#: budget (graphcopy has no data plane, lazy pins 0).
CROSSOVER_CLOSURE = 8192
CROSSOVER_RATIOS = (0.0, 0.05, 0.1, 0.2, 0.5, 1.0)

WORKLOADS: List[Tuple[str, Callable[[World], object]]] = [
    ("linked_list_4096_total", lambda w: run_list_call(w, 4096)),
    ("hashtable_2000x40_lookup", lambda w: run_hash_call(w, 2000, 40)),
    ("tree_8191_search_0.5", lambda w: run_tree_call(
        w, 8191, "search", ratio=0.5
    )),
]

FIG4_POLICIES = ("paper", "lazy", "adaptive", "pipelined")

#: The switch ablation: each variant enables one pipeline mechanism.
ABLATION_VARIANTS: Dict[str, TransferPolicy] = {
    "coalesce_only": TransferPolicy(name="coalesce_only", coalesce=True),
    "prefetch_only": TransferPolicy(name="prefetch_only", prefetch=True),
    "full_pipeline": TransferPolicy(
        name="full_pipeline", coalesce=True, prefetch=True
    ),
}

#: Metrics gated by --compare (higher is worse for all three).
COMPARED = ("round_trips", "bytes_shipped", "sim_seconds")

#: The shm file's one host-independent shape gate on exchange latency
#: (same spirit as ``first_call_over_hotpath``): a carrier's 16-byte
#: echo may cost at most this many bare blocking-socket ping-pongs of
#: the same 16 bytes, timed in the same process on the same pinned
#: CPU.  On the reference VM the floor itself flips between 8 and
#: 13 us with the host's state; with the compiled frame codec tcp
#: reads about 8x it and shm about 12x (13x and 18x on the per-field
#: ladder; tcp 30-50x while it ran on an event loop, which must fail).
RTT_OVER_FLOOR_CEILING = 15

#: The frame codec's gate, in the same unit: encoding and decoding one
#: 64-byte ``Request`` may cost at most one bare-socket ping-pong (it
#: reads 0.3-0.5x; the per-field ladder read 1.3-2x and must fail).
FRAME_OVER_FLOOR_CEILING = 1

#: What a real-carrier baseline gates: only the metrics the
#: transport-equivalence property makes deterministic.  Seconds over a
#: real carrier measure the host and are recorded, never compared.
CARRIER_COMPARED = ("round_trips", "bytes_shipped")


def measure(
    method, workload: Callable[[World], object], transport: str = SIMNET
) -> Dict:
    """One fresh world, one measured call, one metrics record."""
    with make_world(method, transport=transport) as world:
        started = time.perf_counter()
        run = workload(world)
        wall = time.perf_counter() - started
    record = {
        "result": run.result,
        "round_trips": run.callbacks,
        "messages": run.messages,
        "bytes_shipped": run.bytes_moved,
        "wall_seconds": round(wall, 4),
        "round_trips_saved": run.round_trips_saved,
        "piggyback_hits": run.piggyback_hits,
    }
    if transport == SIMNET:
        record["sim_seconds"] = round(run.seconds, 9)
    else:
        # The stopwatch reads wall time on a real carrier.
        record["call_seconds"] = round(run.seconds, 4)
    return record


def _record_runs(transport: str) -> Dict[str, Dict[str, Dict]]:
    return {
        name: {
            policy: measure(policy, workload, transport)
            for policy in FIG4_POLICIES
        }
        for name, workload in WORKLOADS
    }


def _round_trip_reductions(runs: Dict) -> Dict:
    reductions = {}
    for name, by_policy in runs.items():
        paper = by_policy["paper"]["round_trips"]
        reductions[name] = {
            policy: round(
                1.0 - by_policy[policy]["round_trips"] / paper, 4
            )
            for policy in FIG4_POLICIES
            if policy != "paper" and paper
        }
    return reductions


def record_fig4() -> Dict:
    runs = _record_runs(SIMNET)
    return {
        "meta": {
            "transport": "simnet",
            "tolerance": TOLERANCE,
            **bench_hotpath.host_meta(),
        },
        "runs": runs,
        "round_trip_reduction_vs_paper": _round_trip_reductions(runs),
    }


def _crossover_sweep(transport: str) -> Dict:
    """Fig4's eager/lazy duel at each access ratio over one carrier.

    Returns per-ratio wall seconds for the fully-eager (graphcopy) and
    fully-lazy methods plus the crossover: the smallest ratio from
    which eager stays ahead.  Cheap bulk bytes move it left.  Each
    cell is the best of three fresh worlds — wall time on a shared
    host has fat tails (scheduler, collector), and a single stalled
    run would move the recorded crossover.
    """
    walls: Dict[str, List[float]] = {FULLY_EAGER: [], FULLY_LAZY: []}
    for ratio in CROSSOVER_RATIOS:
        for method in (FULLY_EAGER, FULLY_LAZY):
            best = None
            for _ in range(3):
                # Start each run collected: a gen-2 pass landing
                # inside a polling handoff would be charged to the
                # carrier.
                gc.collect()
                with make_world(method, transport=transport) as world:
                    run = run_tree_call(
                        world, CROSSOVER_NODES, "search", ratio=ratio
                    )
                if best is None or run.seconds < best:
                    best = run.seconds
            walls[method].append(round(best, 4))
    crossover = next(
        (
            ratio
            for i, ratio in enumerate(CROSSOVER_RATIOS)
            if all(
                walls[FULLY_EAGER][j] <= walls[FULLY_LAZY][j]
                for j in range(i, len(CROSSOVER_RATIOS))
            )
        ),
        None,
    )
    return {
        "nodes": CROSSOVER_NODES,
        "closure_bytes": CROSSOVER_CLOSURE,
        "ratios": list(CROSSOVER_RATIOS),
        "wall_seconds": walls,
        "crossover_ratio": crossover,
    }


def record_carrier(transport: str) -> Dict:
    """The committed baseline for one real carrier (tcp or shm)."""
    runs = _record_runs(transport)
    record = {
        "meta": {
            "transport": transport,
            "tolerance": TOLERANCE,
            "compared": list(CARRIER_COMPARED),
            **bench_hotpath.host_meta(),
        },
        "runs": runs,
        "round_trip_reduction_vs_paper": _round_trip_reductions(runs),
    }
    if transport == SHM:
        # The per-byte cost of bulk shipping over each carrier, and
        # the Figure 4 crossover over each: both land in one file so a
        # carrier difference is visible in one place.  (At the paper's
        # 16-byte tree nodes the sweep is marshalling-bound.)
        record["carrier_page_fill_ns_per_byte"] = {
            "memcpy": round(memcpy_per_byte() * 1e9, 4),
            TCP: round(carrier_per_byte(TCP) * 1e9, 4),
            SHM: round(carrier_per_byte(SHM) * 1e9, 4),
        }
        # What the slopes cancel out: the round trip of one small
        # exchange, the paper's callback cost unit, and the bare
        # socket ping-pong it is gated against.
        record["carrier_rtt_us"] = {
            name: carrier_rtt_us(name)
            for name in (FLOOR, FRAME, TCP, SHM)
        }
        record["fig4_crossover"] = {
            SHM: _crossover_sweep(SHM),
            TCP: _crossover_sweep(TCP),
        }
    return record


def record_ablation() -> Dict:
    runs: Dict[str, Dict[str, Dict]] = {}
    for name, workload in WORKLOADS:
        runs[name] = {
            variant: measure(policy, workload)
            for variant, policy in ABLATION_VARIANTS.items()
        }
    return {
        "meta": {
            "transport": "simnet",
            "tolerance": TOLERANCE,
            **bench_hotpath.host_meta(),
        },
        "runs": runs,
    }


def compare(
    baseline: Dict, current: Dict, label: str, policies=None
) -> List[str]:
    """Regressions of ``current`` against ``baseline`` (empty = pass)."""
    problems = []
    compared = tuple(
        baseline.get("meta", {}).get("compared", COMPARED)
    )
    for workload, by_policy in baseline["runs"].items():
        for policy, expected in by_policy.items():
            if policies and policy not in policies:
                continue
            actual = (
                current["runs"].get(workload, {}).get(policy)
            )
            if actual is None:
                problems.append(
                    f"{label}: {workload}/{policy} missing from rerun"
                )
                continue
            if actual["result"] != expected["result"]:
                problems.append(
                    f"{label}: {workload}/{policy} result changed "
                    f"{expected['result']} -> {actual['result']}"
                )
            for metric in compared:
                before, after = expected[metric], actual[metric]
                if after > before * (1.0 + TOLERANCE):
                    problems.append(
                        f"{label}: {workload}/{policy} {metric} "
                        f"regressed {before} -> {after} "
                        f"(>{TOLERANCE:.0%} tolerance)"
                    )
    return problems


def compare_rtt(current: Dict, label: str) -> List[str]:
    """Each carrier's echo, and the frame codec's round trip, against
    the bare-socket floor of the same fresh record."""
    rtt = current.get("carrier_rtt_us")
    if not rtt:
        return []
    floor = rtt[FLOOR]["echo_p50"]
    gated = [
        (FRAME, "round trip", rtt[FRAME]["roundtrip_us"],
         FRAME_OVER_FLOOR_CEILING)
    ] + [
        (carrier, "echo p50", rtt[carrier]["echo_p50"],
         RTT_OVER_FLOOR_CEILING)
        for carrier in (TCP, SHM)
    ]
    return [
        f"{label}: {name} {what} {value} us is {value / floor:.1f}x the "
        f"bare-socket floor {floor} us (ceiling {ceiling}x)"
        for name, what, value, ceiling in gated
        if value > ceiling * floor
    ]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--compare",
        action="store_true",
        help="check against the committed baseline instead of rewriting",
    )
    parser.add_argument(
        "--policies",
        default=None,
        help="comma-separated policy/variant subset to compare "
        "(default: everything in the baseline)",
    )
    parser.add_argument(
        "--transport",
        choices=TRANSPORTS,
        default=SIMNET,
        help="carrier to record/compare: simnet writes BENCH_fig4 + "
        "BENCH_ablation, tcp/shm write BENCH_<transport>.json gating "
        "only the deterministic counters",
    )
    args = parser.parse_args(argv)
    policies = (
        {name.strip() for name in args.policies.split(",")}
        if args.policies
        else None
    )
    if args.transport == SIMNET:
        recorded = [
            (FIG4_BASELINE, record_fig4()),
            (ABLATION_BASELINE, record_ablation()),
        ]
    else:
        recorded = [
            (
                HERE / f"BENCH_{args.transport}.json",
                record_carrier(args.transport),
            )
        ]
    if not args.compare:
        for path, current in recorded:
            path.write_text(json.dumps(current, indent=2) + "\n")
        print(
            "wrote " + " and ".join(path.name for path, _ in recorded)
        )
        for _, current in recorded:
            cuts_by_workload = current.get(
                "round_trip_reduction_vs_paper", {}
            )
            for workload, cuts in cuts_by_workload.items():
                print(f"  {workload}: round-trip cut vs paper {cuts}")
            slopes = current.get("carrier_page_fill_ns_per_byte")
            if slopes:
                print(
                    "  carrier page fill ns/B: "
                    + ", ".join(
                        f"{name} {value}"
                        for name, value in slopes.items()
                    )
                )
            rtt = current.get("carrier_rtt_us")
            if rtt:
                print(
                    "  carrier echo p50/p99 us: "
                    + ", ".join(
                        f"{name} {row['echo_p50']}/{row['echo_p99']}"
                        for name, row in rtt.items()
                        if name != FRAME
                    )
                    + f"; frame round trip {rtt[FRAME]['roundtrip_us']} us"
                )
            crossover = current.get("fig4_crossover")
            if crossover:
                for carrier, sweep in crossover.items():
                    print(
                        f"  fig4 crossover over {carrier}: "
                        f"ratio {sweep['crossover_ratio']}"
                    )
        return 0
    problems = []
    for path, current in recorded:
        if not path.exists():
            problems.append(f"{path.name}: no committed baseline")
            continue
        baseline = json.loads(path.read_text())
        problems.extend(
            compare(baseline, current, path.name, policies=policies)
        )
        problems.extend(compare_rtt(current, path.name))
    if args.transport == SIMNET:
        # The memory hot-path gate rides along with the simnet compare:
        # re-measure and check the host-independent shape (tokens never
        # slower than the checked path, bulk under half of it, resident
        # walk over the speedup floor).
        if not HOTPATH_BASELINE.exists():
            problems.append(
                f"{HOTPATH_BASELINE.name}: no committed baseline"
            )
        else:
            problems.extend(
                bench_hotpath.compare(
                    json.loads(HOTPATH_BASELINE.read_text()),
                    bench_hotpath.record_hotpath(),
                    HOTPATH_BASELINE.name,
                )
            )
    if problems:
        print("baseline comparison FAILED:", file=sys.stderr)
        for problem in problems:
            print(f"  {problem}", file=sys.stderr)
        return 1
    scope = ", ".join(sorted(policies)) if policies else "all policies"
    print(f"baseline comparison passed ({scope})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
