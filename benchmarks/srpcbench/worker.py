"""One round of one workload, in a process of its own.

``run.py`` starts this once per round so every round pays the whole
set-up (imports, world, data, warm-up) and reports its own peak RSS.
The last line of standard output is one JSON object; the exit code is
non-zero when the round left something behind (a ``/dev/shm``
segment, a mapped cache page, a live non-daemon thread).
"""

from __future__ import annotations

import time

_STARTED = time.perf_counter()  # set-up time counts the imports below

import argparse
import gc
import glob
import json
import random
import resource
import statistics
import struct
import sys
import threading
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parents[1] / "src")]

import spans  # noqa: E402
from workloads import WORKLOADS, counts, op_failed  # noqa: E402

from repro.bench.harness import make_world  # noqa: E402

WARM_UP_OPS = 3
SEGMENTS = "/dev/shm/srpc-*"

#: Operations are timed in batches at least this long, with one
#: calibration between batches.
BATCH_S = 0.05
#: What :func:`calibrate` takes on this repository's reference host
#: when it is quiet; reported times are scaled to a host this fast.
REFERENCE_S = 4.0e-3

_PAIR = struct.Struct(">iI")


def calibrate() -> float:
    """Seconds one fixed interpreter-bound loop takes right now.

    The shared host flips between a fast and a slow state every few
    seconds: the same cold list operation took 165 to 260 ms while
    this loop, timed next to it, moved in step.  Every reported time
    is therefore the measured time multiplied by ``REFERENCE_S`` over
    the mean of the two calibrations around it (README.md,
    "Host-normalised time").  The loop calls nothing in ``src/``, so a
    faster program shows in full, and it leaves no garbage for the
    collector to find during an operation.

    The mix matters.  In the slow state the warm list walk takes 1.68x
    as long and the cold fill 1.46x; packing and slicing slows by
    1.68x, plain integer arithmetic by 1.28x.  Two parts of the first
    to half a part of the second slows by 1.57x, between the two, so
    neither workload is off by more than ~7 % when the host changes
    state between runs.
    """
    started = time.perf_counter()
    buffer = bytearray(8 * 4000)
    table = {}
    total = 0
    for index in range(4000):
        _PAIR.pack_into(buffer, 8 * index, index, 3 * index)
        table[index] = bytes(buffer[8 * index : 8 * index + 8])
        low, high = _PAIR.unpack_from(buffer, 8 * index)
        total += low + high
    for index in range(4000):
        total += len(table[index])
    for index in range(15000):
        total = (total * 31 + index) & 0xFFFF
    return time.perf_counter() - started


def summarise(
    recorder: spans.Recorder, factors: Sequence[float]
) -> Dict[str, Any]:
    """Medians over operations of each span name's per-op totals.

    ``factors[i]`` is operation ``i``'s host-normalisation factor.
    """
    ops = spans.per_op(recorder.spans)
    for op, factor in zip(ops, factors):
        for entry in op.values():
            entry["self_s"] *= factor
    names = sorted({name for op in ops for name in op})
    zero = {"self_s": 0.0, "count": 0, "n": 0}
    layers = {
        name: {
            key: statistics.median(op.get(name, zero)[key] for op in ops)
            for key in zero
        }
        for name in names
    }
    whole = [
        span for span in recorder.spans if span[spans.NAME] == spans.OP_SPAN
    ]
    unattributed = statistics.median(
        op[spans.OP_SPAN]["self_s"]
        / ((span[spans.END] - span[spans.START]) * factor)
        for op, span, factor in zip(ops, whole, factors)
    )
    return {"layers": layers, "unattributed_share": unattributed}


def left_behind(caches: Sequence[Any], segments_before: set) -> List[str]:
    """What a closed world still holds that it should have released."""
    problems = []
    for cache in caches:
        if cache.footprint() != (0, 0):
            problems.append(
                f"cache footprint {cache.footprint()} after session end"
            )
    leftover = sorted(set(glob.glob(SEGMENTS)) - segments_before)
    if leftover:
        problems.append(f"shared-memory segments left behind: {leftover}")
    threads = [
        thread.name
        for thread in threading.enumerate()
        if thread is not threading.main_thread() and not thread.daemon
    ]
    if threads:
        problems.append(f"non-daemon threads still alive: {threads}")
    return problems


def run_round(
    name: str,
    seed: int,
    seconds: float,
    recorder: Optional[spans.Recorder],
) -> Tuple[Dict[str, Any], List[float], List[str]]:
    """Set up, warm up, time operations for ``seconds``, tear down.

    Returns the round's result, every attempted operation's
    host-normalisation factor, and what the round left behind.
    """
    spec = WORKLOADS[name]
    # Crashed processes of other runs may have left segments behind;
    # only the ones that appear during this round are this round's.
    segments_before = set(glob.glob(SEGMENTS))
    setup_calibs = [calibrate()]
    wrap: Callable[[str, Callable], Callable] = (
        recorder.wrap if recorder is not None else lambda _name, fn: fn
    )
    world = make_world(spec.policy, transport=spec.transport)
    try:
        workload = spec.build(world, random.Random(seed), wrap)
        caller, callee, stats = world.caller, world.callee, world.stats
        caches: List[Any] = []

        def cold_op() -> Tuple[int, int, float, float, float]:
            started = time.perf_counter()
            with caller.session() as session:
                got, want = workload.op(session)
                called = time.perf_counter()
                caches[:] = (
                    session.state.cache,
                    callee.session_state(session.session_id).cache,
                )
            return got, want, started, called, time.perf_counter()

        warm_session = caller.session() if spec.warm else None

        def warm_op() -> Tuple[int, int, float, float, float]:
            started = time.perf_counter()
            got, want = workload.op(warm_session)
            ended = time.perf_counter()
            return got, want, started, ended, ended

        one_op = warm_op if spec.warm else cold_op
        timed_op = (
            recorder.wrap(spans.OP_SPAN, one_op)
            if recorder is not None
            else one_op
        )

        if warm_session is not None:
            warm_session.__enter__()
        for _ in range(WARM_UP_OPS):
            setup_calibs.append(calibrate())
            one_op()
        if warm_session is not None:
            caches[:] = (
                warm_session.state.cache,
                callee.session_state(warm_session.session_id).cache,
            )
        gc.collect()
        stats.reset()
        setup_calibs.append(calibrate())
        setup_s = (time.perf_counter() - _STARTED) * (
            REFERENCE_S * len(setup_calibs) / sum(setup_calibs)
        )

        samples: List[Tuple[int, float, float, float]] = []
        op_batch: List[int] = []  # attempted op -> its batch
        busy: List[Tuple[float, float]] = []  # per batch: wall s, CPU s
        calibs = [setup_calibs[-1]]
        failed = 0
        reference: Optional[Dict[str, int]] = None
        deadline = time.perf_counter() + seconds
        while time.perf_counter() < deadline:
            cpu_started = time.process_time()
            batch_started = time.perf_counter()
            while True:
                if recorder is not None:
                    recorder.op = len(op_batch)
                op_batch.append(len(busy))
                try:
                    got, want, started, called, ended = timed_op()
                except Exception as exc:  # noqa: BLE001 - a raise fails the op
                    print(
                        f"{name}: op {len(op_batch)} raised {exc!r}",
                        file=sys.stderr,
                    )
                    failed += 1
                else:
                    seen = counts(stats)
                    if reference is None:
                        reference = seen
                    if op_failed(got, want, seen, reference):
                        failed += 1
                    samples.append(
                        (len(busy), ended - started, called - started,
                         ended - called)
                    )
                stats.reset()
                now = time.perf_counter()
                if now - batch_started >= BATCH_S or now >= deadline:
                    break
            busy.append(
                (now - batch_started, time.process_time() - cpu_started)
            )
            calibs.append(calibrate())
        if recorder is not None:
            recorder.op = -1
        # One factor per batch: the calibrations just before and after.
        factors = [
            2 * REFERENCE_S / (before + after)
            for before, after in zip(calibs, calibs[1:])
        ]
        if warm_session is None:
            end_s = [end * factors[batch] for batch, _, _, end in samples]
        else:
            started = time.perf_counter()
            warm_session.__exit__(None, None, None)
            end_s = [(time.perf_counter() - started) * factors[-1]]
    finally:
        world.close()

    result = {
        "setup_s": setup_s,
        "attempted": len(op_batch),
        "failed": failed,
        "busy_s": sum(wall * f for (wall, _), f in zip(busy, factors)),
        "cpu_s": sum(cpu * f for (_, cpu), f in zip(busy, factors)),
        "op_s": [op * factors[batch] for batch, op, _, _ in samples],
        "call_s": [call * factors[batch] for batch, _, call, _ in samples],
        "end_s": end_s,
        "counts": reference,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
        "calib_ms": [calibs[0] * 1e3, calibs[-1] * 1e3],
    }
    op_factors = [factors[batch] for batch in op_batch]
    return result, op_factors, left_behind(caches, segments_before)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument(
        "--spans-out", help="write the raw spans here as JSON lines"
    )
    args = parser.parse_args(argv)

    recorder = spans.Recorder() if args.trace else None
    patches = spans.install(recorder) if recorder is not None else []
    try:
        result, factors, problems = run_round(
            args.workload, args.seed, args.seconds, recorder
        )
    finally:
        spans.uninstall(patches)
    if recorder is not None:
        result.update(summarise(recorder, factors))
        if args.spans_out:
            with open(args.spans_out, "w") as out:
                for span in recorder.spans:
                    out.write(json.dumps(span) + "\n")
    for problem in problems:
        print(f"{args.workload}: {problem}", file=sys.stderr)
    print(json.dumps(result))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
