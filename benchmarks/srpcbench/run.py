#!/usr/bin/env python3
"""srpcbench: whole-session wall/CPU time on all three carriers.

    python3 benchmarks/srpcbench/run.py --seed N              # end to end
    python3 benchmarks/srpcbench/run.py --seed N --trace      # per layer
    python3 benchmarks/srpcbench/run.py --self-compare        # steadiness

Each workload runs in ``ROUNDS`` worker subprocesses (``worker.py``),
interleaved round-robin across workloads so a slow spell on a shared
host lands on all of them; samples are pooled and per-round figures
reported as medians.  Everything runs on one CPU (``pin_to_one_cpu``).
End-to-end metrics come only from untraced
rounds.  ``--trace`` makes one untraced and one traced round per
workload plus the micro metrics, and reports the per-layer numbers.
``BENCHMARK.json`` at the repository root names every metric, unit
and bound; nothing else may be printed and nothing may be missing.
README.md explains the workloads and how to read the numbers.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Sequence

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]

ROUNDS = 4
#: Generous next to the ~30 s a run takes; a hung carrier must not
#: hang the benchmark.
WORKER_TIMEOUT = 150

Metrics = Dict[str, float]

def _span_metrics() -> Dict[str, tuple]:
    """metric -> (span names whose per-op figures are added, figure, scale)"""
    metrics: Dict[str, tuple] = {
        "rpc.call.self_ms": (("rpc.call", "rpc.dispatch"), "self_s", 1e3),
        "rpc.call.count": (("rpc.call",), "count", 1),
        "rpc.marshal.self_ms": (("rpc.marshal",), "self_s", 1e3),
        "workload.body.self_ms": (("workload.body",), "self_s", 1e3),
    }
    for span, figures in {
        "smartrpc.closure.walk": {"count": "count", "items": "n"},
        "smartrpc.transfer.encode_batch": {"bytes": "n"},
        "smartrpc.transfer.apply_batch": {"items": "n"},
        "smartrpc.transfer.request_data": {"count": "count"},
        "smartrpc.transfer.handle_data_request": {},
        "smartrpc.cache.handle_fault": {"count": "count"},
        "smartrpc.coherency.piggyback": {"items": "n"},
        "smartrpc.coherency.end_session": {},
        "smartrpc.coherency.writeback_handlers": {"count": "count"},
        "transport.send": {"count": "count"},
    }.items():
        metrics[f"{span}.self_ms"] = ((span,), "self_s", 1e3)
        for suffix, figure in figures.items():
            metrics[f"{span}.{suffix}"] = ((span,), figure, 1)
    return metrics


SPAN_METRICS = _span_metrics()


def pin_to_one_cpu() -> None:
    """Keep this process and every script it starts on one CPU.

    The carriers' service threads and the caller take strict turns, so
    one CPU loses no parallelism, but left on two a hand-off is a
    cross-CPU wake-up whose cost depends on what the hypervisor is
    doing with the other vCPU: rounds of ``tree_writeback_tcp`` then
    ranged over 25 % on a busy host, and ``calibrate()`` timed one CPU
    while the service threads ran on the other (README.md, "One CPU").
    """
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def load_benchmark() -> Dict[str, Any]:
    """``BENCHMARK.json``: the metric names, units, bounds, run length."""
    with open(ROOT / "BENCHMARK.json") as handle:
        return json.load(handle)


def run_script(script: str, *args: Any) -> Dict[str, Any]:
    """Run one benchmark script to completion; its last line is JSON."""
    command = [sys.executable, str(HERE / script), *map(str, args)]
    done = subprocess.run(
        command, stdout=subprocess.PIPE, text=True, timeout=WORKER_TIMEOUT
    )
    if done.returncode != 0:
        raise SystemExit(
            f"srpcbench: {' '.join(command)} exited with {done.returncode}"
        )
    return json.loads(done.stdout.splitlines()[-1])


def run_worker(
    workload: str,
    seed: int,
    seconds: float,
    trace: bool = False,
    spans_out: Optional[Path] = None,
) -> Dict[str, Any]:
    """One round of ``workload`` in a subprocess of its own."""
    args: List[Any] = [
        "--workload", workload, "--seed", seed, "--seconds", seconds,
    ]
    if trace:
        args.append("--trace")
        if spans_out is not None:
            spans_out.mkdir(parents=True, exist_ok=True)
            args += ["--spans-out", spans_out / f"{workload}.spans.jsonl"]
    return run_script("worker.py", *args)


def end_to_end(rounds: Sequence[Mapping[str, Any]]) -> Metrics:
    """The end-to-end metrics of one workload from its untraced rounds."""
    attempted = sum(r["attempted"] for r in rounds)
    failed = sum(r["failed"] for r in rounds)
    samples = [sample for r in rounds for sample in r["op_s"]]
    counts = rounds[0]["counts"]
    median = statistics.median
    return {
        "op_ms_p50": median(samples) * 1e3,
        "ops_per_s": median(r["attempted"] / r["busy_s"] for r in rounds),
        "cpu_ms_per_op": median(
            r["cpu_s"] / r["attempted"] * 1e3 for r in rounds
        ),
        "messages_per_op": counts["messages"],
        "wire_bytes_per_op": counts["bytes"],
        "peak_rss_mb": median(r["peak_rss_mb"] for r in rounds),
        "ok_share": (attempted - failed) / attempted,
        "setup_s": median(r["setup_s"] for r in rounds),
    }


def p90(samples: Sequence[float]) -> float:
    """Nearest-rank 90th percentile (a --quick round may hold 1 sample)."""
    return sorted(samples)[math.ceil(0.9 * len(samples)) - 1]


def per_layer(
    plain: Mapping[str, Any],
    traced: Mapping[str, Any],
    micro: Mapping[str, float],
) -> Metrics:
    """The per-layer metrics of one workload.

    Timings of whole calls and the exact counts come from the untraced
    round, span figures from the traced one, micro metrics from their
    own process.
    """
    layers = traced["layers"]
    metrics: Metrics = dict(micro)
    for name, (span_names, figure, scale) in SPAN_METRICS.items():
        metrics[name] = scale * sum(
            layers[span][figure] for span in span_names if span in layers
        )
    counts = plain["counts"]
    median = statistics.median
    metrics.update({
        "session.call_ms_p50": median(plain["call_s"]) * 1e3,
        "session.end_ms_p50": median(plain["end_s"]) * 1e3,
        "session.op_ms_p90": p90(plain["op_s"]) * 1e3,
        "session.samples": len(plain["op_s"]),
        "smartrpc.transfer.entries": counts["entries"],
        # 0 when nothing was shipped (every warm call).
        "smartrpc.transfer.useful_share": counts["closure_bytes_touched"]
        / max(counts["closure_bytes_shipped"], 1),
        "memory.page_faults": counts["page_faults"],
        "memory.write_faults": counts["write_faults"],
        "transport.messages": counts["messages"],
        "transport.bytes": counts["bytes"],
        "trace.overhead_share": median(traced["op_s"]) / median(plain["op_s"])
        - 1,
        "trace.unattributed_share": traced["unattributed_share"],
        "host.calib_ms_before": plain["calib_ms"][0],
        "host.calib_ms_after": plain["calib_ms"][1],
    })
    return metrics


def measure(
    workloads: Sequence[str],
    seed: int,
    seconds: float,
    trace: bool = False,
    quick: bool = False,
    spans_out: Optional[Path] = None,
) -> Dict[str, Dict[str, Any]]:
    """Run ``workloads``; per workload the contract's result object."""
    share = seconds / ROUNDS
    if trace:
        rounds = {
            name: [
                run_worker(name, seed, share),
                run_worker(name, seed, share, True, spans_out),
            ]
            for name in workloads
        }
        micro = run_script("micro.py", *(("--echoes", 200) if quick else ()))
    else:
        rounds = {name: [] for name in workloads}
        for _ in range(ROUNDS):
            for name in workloads:
                rounds[name].append(run_worker(name, seed, share))
    results = {}
    for name, done in rounds.items():
        attempted = sum(r["attempted"] for r in done)
        failed = sum(r["failed"] for r in done)
        # A traced round must move the same traffic as an untraced one.
        same = all(r["counts"] == done[0]["counts"] for r in done)
        results[name] = {
            "correct": failed == 0 and same,
            "attempted": attempted,
            "failed": failed,
            "metrics": per_layer(*done, micro) if trace else end_to_end(done),
            "calib_ms": done[0]["calib_ms"],
        }
    return results


def report(
    workload: str, result: Mapping[str, Any], declared: Sequence[Mapping]
) -> None:
    """Print one workload's metrics, then its result object as JSON.

    Exactly the declared names are printed: an undeclared name or a
    missing one is an error in the benchmark itself.
    """
    units = {metric["name"]: metric["unit"] for metric in declared}
    metrics = result["metrics"]
    if set(metrics) != set(units):
        raise SystemExit(
            f"srpcbench: metrics differ from BENCHMARK.json: undeclared "
            f"{sorted(set(metrics) - set(units))}, missing "
            f"{sorted(set(units) - set(metrics))}"
        )
    print(f"# {workload}  ({result['attempted']} ops, "
          f"{result['failed']} failed)")
    for name in units:
        print(f"{name:<48}{metrics[name]:>16.4f} {units[name]}")
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            name: {"value": metrics[name], "unit": units[name]}
            for name in units
        },
    }))


def self_compare(
    workloads: Sequence[str],
    seed: int,
    seconds: float,
    declared: Sequence[Mapping],
) -> bool:
    """Two full sets of the same code must agree within the bounds."""
    first = measure(workloads, seed, seconds)
    second = measure(workloads, seed, seconds)
    agree = True
    for name in workloads:
        notes = []
        for label, done in (("first", first), ("second", second)):
            result = done[name]
            before, after = result["calib_ms"]
            if not 0.9 <= after / before <= 1.1:
                notes.append(
                    f"host drifted during {label} set "
                    f"(calibration {before:.2f} -> {after:.2f} ms)"
                )
            if not result["correct"]:
                notes.append(f"{label} set had failed ops")
                agree = False
        print(f"# {name}  {'; '.join(notes)}")
        for metric in declared:
            key, bound = metric["name"], metric["bound"]
            a, b = first[name]["metrics"][key], second[name]["metrics"][key]
            worse = (b - a) / a if metric["better"] == "lower" else (a - b) / a
            ok = worse <= bound
            agree = agree and ok
            print(
                f"{key:<24}{a:>14.4f}{b:>14.4f} {metric['unit']:<6}"
                f"{worse:>+8.1%} (bound {bound:.0%})"
                f"{'' if ok else '  OUT OF BOUND'}"
            )
    return agree


def main(argv: Optional[List[str]] = None) -> int:
    benchmark = load_benchmark()
    names = [workload["name"] for workload in benchmark["workloads"]]
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter
    )
    parser.add_argument(
        "--workload", choices=names, help="run one workload (default: all)"
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--seconds",
        type=float,
        default=benchmark["run_seconds"],
        help="measured seconds per workload",
    )
    parser.add_argument(
        "--trace",
        nargs="?",
        type=int,
        choices=(0, 1),
        const=1,
        default=0,
        help="1: the traced run that reports the per-layer metrics",
    )
    parser.add_argument(
        "--quick", action="store_true", help="a tenth of the work"
    )
    parser.add_argument(
        "--self-compare",
        action="store_true",
        help="run the end-to-end set twice; fail unless they agree",
    )
    parser.add_argument(
        "--spans-out", type=Path, help="directory for the raw spans"
    )
    args = parser.parse_args(argv)

    pin_to_one_cpu()
    workloads = [args.workload] if args.workload else names
    seconds = args.seconds / 10 if args.quick else args.seconds
    if args.self_compare:
        agree = self_compare(
            workloads, args.seed, seconds, benchmark["end_to_end"]
        )
        return 0 if agree else 1
    results = measure(
        workloads,
        args.seed,
        seconds,
        bool(args.trace),
        args.quick,
        args.spans_out,
    )
    declared = benchmark["per_layer" if args.trace else "end_to_end"]
    for name in workloads:
        report(name, results[name], declared)
    return 0 if all(r["correct"] for r in results.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
