#!/usr/bin/env python
"""Record the memory hot-path baseline (``BENCH_hotpath.json``).

What the page-access-token + bulk-run work actually bought, measured
on the host and pinned so CI notices if it erodes:

* ``per_access_ns`` — nanoseconds per resident 4-byte program-plane
  access: ``checked`` (the checked plane itself, one
  ``AddressSpace.read`` plus one clock charge per access),
  ``tokenized`` (``Mem.load``, the page token fast path), and
  ``bulk_amortized`` (one ``load_array`` run divided by its modelled
  access count).
* ``linked_list_4096_total`` — the acceptance workload: wall
  milliseconds of one ``total`` call over the 4096-node list on a
  warm session (every page resident, the paper's steady state), on
  the shipped hot path and with every token acquisition forced to
  miss on both runtimes' ``Mem`` (so each access falls through to the
  checked plane), plus the first call (fill included), timed back to
  back with the resident walk in the same world.

Wall numbers measure the host, so the regression gate
(``baseline.py --compare``, via :func:`compare`) checks only the
host-independent *shape*: tokens never slower than the checked path,
bulk clearly cheaper than per-access, the resident walk at least
``WALK_FLOOR`` times faster with the hot path on, and the cold first
call (fill path included) at most ``FIRST_CALL_CEILING`` times the
resident walk (the median of that ratio over fresh worlds).

Timing uses the ``repro.bench.carrier`` discipline: collector off,
best-of-three batches over a wall-time floor.

Usage::

    PYTHONPATH=src python benchmarks/bench_hotpath.py            # re-record
    PYTHONPATH=src python benchmarks/bench_hotpath.py --out X.json
"""

from __future__ import annotations

import argparse
import json
import platform
import statistics
import time
from pathlib import Path
from typing import Dict, List

from repro.bench.carrier import seconds_per_call
from repro.bench.harness import CALLEE, make_world
from repro.memory.accessor import Mem
from repro.memory.address_space import AddressSpace
from repro.simnet.clock import SimClock
from repro.workloads.linked_list import build_list, list_client
from repro.xdr.arch import SPARC32
from repro.xdr.types import int32

HERE = Path(__file__).resolve().parent
HOTPATH_BASELINE = HERE / "BENCH_hotpath.json"

LIST_NODES = 4096

#: Accesses per timed batch in the per-access microbenchmark: one
#: page's worth of consecutive 4-byte slots.
MICRO_ACCESSES = 256

#: Fresh worlds whose checked walk is timed, and fresh worlds whose
#: cold first call and resident walk are timed back to back (the first
#: :data:`WALK_WORLDS` of them time all three).  The first-call gate
#: reads the median of the per-world ratios: while it divided the best
#: first call of seven worlds by the best walk of three, a slow spell
#: in one world but not the other read it past the ceiling with no
#: code change (two of fifteen back-to-back records).
WALK_WORLDS = 3
FIRST_CALL_WORLDS = 7

#: Host-independent gate floors (see :func:`compare`).
BULK_VS_CHECKED = 0.5
#: ``checked_ms / hotpath_ms``.  1.5 while the checked walk ran on a
#: ``Mem`` that skipped tokens outright; a forced token miss also pays
#: the token lookup, which reads the speedup 1.10x higher (median of
#: ten alternating runs), so the floor rose by the same factor.
WALK_FLOOR = 1.65
#: ``first_call_ms / hotpath_ms``: what the fill path (closure walk,
#: batch encode, batch apply) may cost next to the resident walk it
#: precedes.  30x before the compiled wire plans, 14x with them, 11.4x
#: since placeholder pages are backed lazily and released per batch,
#: 8.8x since a batch builds its placeholders in one pass, under a
#: ceiling of 11.0 (the ratio plus a quarter).  Settled pages then made
#: the resident walk 1.37x faster (median of 22 alternating record
#: pairs) without touching the cold path, so the ratio read 11.7x.  The
#: ceiling is 11.0 rescaled by that speedup and rounded down: 14.9
#: times the new walk allows no more first-call milliseconds than 11.0
#: times the old one did.  Reading each datum once, a cursor apply and
#: page-grain settling then made the cold session 1.106x faster
#: (srpcbench ``list_cold_simnet``, median of ten alternating pairs
#: pinned to one CPU) without touching the walk, so the ceiling is
#: 14.9 divided by that speedup, rounded down.  The ceiling stayed
#: when the ratio became the median of per-world ratios (see
#: :data:`FIRST_CALL_WORLDS`).
FIRST_CALL_CEILING = 13.4

#: The pre-change reference: the same resident walk, same timing
#: discipline, at the commit before the token/bulk work, on the host
#: in the committed meta block.  A miss-forced ``Mem`` cannot
#: reproduce this number — even with every token missing, the ported
#: workloads keep their coalesced access runs — so the full
#: before/after ratio is recorded here rather than re-measured.
PRE_CHANGE_REFERENCE = {
    "commit": "475497f",
    "resident_walk_ms": 21.866,
    "first_call_ms": 138.0,
}


def cpu_model() -> str:
    """The host CPU model string (best effort, never raises)."""
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.lower().startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine() or "unknown"


def host_meta() -> Dict[str, str]:
    """Interpreter + CPU identification for a BENCH meta block."""
    return {
        "interpreter": "%s %s" % (
            platform.python_implementation(), platform.python_version()
        ),
        "cpu": cpu_model(),
    }


def per_access_ns() -> Dict[str, float]:
    """Nanoseconds per resident access on each access plane."""
    offsets = range(0, MICRO_ACCESSES * 4, 4)
    space = AddressSpace("H")
    clock = SimClock()
    mem = Mem(space, clock=clock)
    base = space.map_region(1)
    read, advance = space.read, clock.advance
    cost = mem.cost_model.local_access
    load = mem.load

    def checked_batch() -> None:
        for offset in offsets:
            read(base + offset, 4)
            advance(cost)

    def token_batch() -> None:
        for offset in offsets:
            load(base + offset, 4)

    def bulk_batch() -> None:
        mem.load_array(base, int32, MICRO_ACCESSES, SPARC32)

    results = {
        label: seconds_per_call(batch) * 1e9 / MICRO_ACCESSES
        for label, batch in (("checked", checked_batch),
                             ("tokenized", token_batch),
                             ("bulk_amortized", bulk_batch))
    }
    return {label: round(value, 2) for label, value in results.items()}


def _one_walk_world(checked: bool = True):
    """(first call s, hot walk s, checked walk s) from one world.

    The first call and the hot walk are timed back to back; with
    ``checked`` false the checked walk is not timed (it is ``None``).
    """
    with make_world("paper", transport="simnet") as world:
        head = build_list(world.caller, list(range(LIST_NODES)))
        stub = list_client(world.caller, CALLEE)
        with world.caller.session() as session:
            started = time.perf_counter()
            result = stub.total(session, head)
            first = time.perf_counter() - started
            assert result == sum(range(LIST_NODES))
            hot = seconds_per_call(lambda: stub.total(session, head))
            if not checked:
                return first, hot, None
            for runtime in (world.caller, world.callee):
                # Every token acquisition misses from here on, so each
                # access falls through to the checked plane.
                runtime.mem._tokens.clear()
                runtime.mem._token = lambda page_number: None
            checked = seconds_per_call(lambda: stub.total(session, head))
    return first, hot, checked


def resident_walk_ms() -> Dict[str, float]:
    """Wall ms of ``total`` over the 4096-node list, warm session.

    Each walk figure is the best of :data:`WALK_WORLDS` fresh worlds:
    host noise (scheduler, collector, neighbours) spans whole batches,
    so the minimum is the least-contaminated estimate of each path's
    cost.  A first call is one unbatched sample, so it is set against
    the walk timed right after it in the same world, where a slow
    spell weighs on both, and ``first_call_over_hotpath`` is the
    median of :data:`FIRST_CALL_WORLDS` such ratios (``first_call_ms``
    the median first call).
    """
    rounds = [
        _one_walk_world(checked=index < WALK_WORLDS)
        for index in range(FIRST_CALL_WORLDS)
    ]
    first = statistics.median(r[0] for r in rounds)
    hot = min(r[1] for r in rounds[:WALK_WORLDS])
    checked = min(r[2] for r in rounds[:WALK_WORLDS])
    return {
        "first_call_ms": round(first * 1e3, 3),
        "hotpath_ms": round(hot * 1e3, 3),
        "checked_ms": round(checked * 1e3, 3),
        "speedup_checked_over_hotpath": round(checked / hot, 2),
        "first_call_over_hotpath": round(
            statistics.median(r[0] / r[1] for r in rounds), 2
        ),
        "pre_change_reference": dict(PRE_CHANGE_REFERENCE),
        "speedup_vs_pre_change": round(
            PRE_CHANGE_REFERENCE["resident_walk_ms"] / (hot * 1e3), 2
        ),
    }


def record_hotpath() -> Dict:
    """One full measurement pass: the BENCH_hotpath.json payload."""
    meta = {"transport": "simnet", **host_meta()}
    return {
        "meta": meta,
        "per_access_ns": per_access_ns(),
        "linked_list_4096_total": resident_walk_ms(),
    }


def compare(baseline: Dict, current: Dict, label: str) -> List[str]:
    """Host-independent regressions of ``current`` (empty = pass).

    Absolute nanoseconds differ across hosts; what must hold anywhere
    is the ordering the optimisation exists to produce.
    """
    problems = []
    access = current.get("per_access_ns", {})
    walk = current.get("linked_list_4096_total", {})
    for field, record in (("per_access_ns", access),
                          ("linked_list_4096_total", walk)):
        missing = set(baseline.get(field, {})) - set(record)
        if missing:
            problems.append(
                f"{label}: {field} lost fields {sorted(missing)}"
            )
    if not problems:
        if access["tokenized"] > access["checked"]:
            problems.append(
                f"{label}: tokenized access "
                f"({access['tokenized']} ns) slower than checked "
                f"({access['checked']} ns)"
            )
        if access["bulk_amortized"] > access["checked"] * BULK_VS_CHECKED:
            problems.append(
                f"{label}: bulk access ({access['bulk_amortized']} ns) "
                f"not under {BULK_VS_CHECKED:.0%} of checked "
                f"({access['checked']} ns)"
            )
        if walk["speedup_checked_over_hotpath"] < WALK_FLOOR:
            problems.append(
                f"{label}: resident walk speedup "
                f"{walk['speedup_checked_over_hotpath']}x under the "
                f"{WALK_FLOOR}x floor"
            )
        if walk["first_call_over_hotpath"] > FIRST_CALL_CEILING:
            problems.append(
                f"{label}: cold first call is "
                f"{walk['first_call_over_hotpath']}x the resident walk, "
                f"over the {FIRST_CALL_CEILING}x ceiling"
            )
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--out",
        type=Path,
        default=HOTPATH_BASELINE,
        help="where to write the JSON record "
        "(default: the committed baseline)",
    )
    args = parser.parse_args(argv)
    current = record_hotpath()
    args.out.write_text(json.dumps(current, indent=2) + "\n")
    access = current["per_access_ns"]
    walk = current["linked_list_4096_total"]
    print(f"wrote {args.out.name}")
    print(
        "  per-access ns: checked %.1f, tokenized %.1f, "
        "bulk %.1f" % (
            access["checked"], access["tokenized"],
            access["bulk_amortized"],
        )
    )
    print(
        "  linked_list_4096_total resident walk: hotpath %.2f ms, "
        "checked %.2f ms (%.2fx), first call %.1f ms (%.1fx the walk)" % (
            walk["hotpath_ms"], walk["checked_ms"],
            walk["speedup_checked_over_hotpath"], walk["first_call_ms"],
            walk["first_call_over_hotpath"],
        )
    )
    print(
        "  vs pre-change commit %s: %.2fx" % (
            walk["pre_change_reference"]["commit"],
            walk["speedup_vs_pre_change"],
        )
    )
    return 0


if __name__ == "__main__":
    import sys

    sys.exit(main())
