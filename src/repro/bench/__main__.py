"""Command-line entry point: regenerate the paper's tables and figures.

The one runner of every table, figure and ablation.  Usage::

    python -m repro.bench            # list experiments
    python -m repro.bench fig4       # one experiment at paper scale
    python -m repro.bench all        # everything (several minutes)
    python -m repro.bench fig4 --quick   # reduced scale for smoke runs
    python -m repro.bench fig5 --transport shm   # over a real carrier
"""

from __future__ import annotations

import argparse
import inspect
import sys

from repro.bench.experiments import ALL_EXPERIMENTS
from repro.bench.harness import TRANSPORTS
from repro.smartrpc.closure import BREADTH_FIRST, DEPTH_FIRST
from repro.smartrpc.policy import POLICY_NAMES

_QUICK_OVERRIDES = {
    "fig4": dict(num_nodes=8191, ratios=[0.0, 0.25, 0.5, 0.75, 1.0]),
    "fig5": dict(num_nodes=8191, ratios=[0.0, 0.25, 0.5, 0.75, 1.0]),
    "fig6": dict(
        node_counts=[4095, 8191],
        closure_sizes=[0, 1024, 4096, 16384],
        repeats=3,
    ),
    "fig7": dict(num_nodes=8191, ratios=[0.0, 0.25, 0.5, 0.75, 1.0]),
    "ablation_alloc": dict(num_nodes=8191),
    "ablation_closure": dict(num_nodes=8191),
}


def main(argv=None) -> int:
    """Run one (or all) experiments and print their tables."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench",
        description="Regenerate the paper's evaluation figures/tables.",
    )
    parser.add_argument(
        "experiment",
        nargs="?",
        help="experiment name, or 'all'",
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="reduced problem sizes (for smoke runs)",
    )
    parser.add_argument(
        "--policy",
        choices=POLICY_NAMES,
        help="transfer policy for the proposed-method column",
    )
    parser.add_argument(
        "--closure-order",
        choices=(BREADTH_FIRST, DEPTH_FIRST),
        help="closure traversal order (bfs is the paper's)",
    )
    parser.add_argument(
        "--transport",
        choices=TRANSPORTS,
        help="carrier the figures run over (simnet is the default; "
        "tcp and shm report wall seconds)",
    )
    args = parser.parse_args(argv)
    if not args.experiment:
        print("available experiments:")
        for name in ALL_EXPERIMENTS:
            print(f"  {name}")
        print("or: all")
        return 0
    names = (
        list(ALL_EXPERIMENTS)
        if args.experiment == "all"
        else [args.experiment]
    )
    for name in names:
        runner = ALL_EXPERIMENTS.get(name)
        if runner is None:
            print(f"unknown experiment {name!r}", file=sys.stderr)
            return 2
        kwargs = dict(_QUICK_OVERRIDES.get(name, {})) if args.quick else {}
        accepted = inspect.signature(runner).parameters
        for flag, value in (
            ("policy", args.policy),
            ("closure_order", args.closure_order),
            ("transport", args.transport),
        ):
            if value is None:
                continue
            if flag not in accepted:
                print(
                    f"note: {name} does not take --{flag.replace('_', '-')};"
                    " ignored",
                    file=sys.stderr,
                )
                continue
            kwargs[flag] = value
        result = runner(**kwargs)
        print(result.render())
        print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
