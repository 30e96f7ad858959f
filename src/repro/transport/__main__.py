"""The transport command line.

Run as ``python -m repro.transport``::

    # the shared registry (site directory + type name server)
    python -m repro.transport serve --site NS --serve-registry --port 7000

    # one smart-RPC address space per OS process
    python -m repro.transport serve --site B --registry 127.0.0.1:7000

    # liveness / control
    python -m repro.transport ping --site B --registry 127.0.0.1:7000
    python -m repro.transport status --site B --registry 127.0.0.1:7000
    python -m repro.transport shutdown --site B --registry 127.0.0.1:7000

    # one timeline out of the per-process --trace logs
    python -m repro.transport merge-traces run.jsonl a.jsonl b.jsonl

Every host prints ``READY site=<id> addr=<host>:<port>`` once serving;
scripts spawning hosts should wait for that line before dialling.
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

from repro.transport.host import (
    METHODS,
    PROPOSED,
    REGISTRY_SITE,
    HEARTBEAT_INTERVAL,
    TRANSPORTS,
    run_ping,
    run_serve,
    run_shutdown,
    run_status,
)
from repro.transport.shm import DEFAULT_SEGMENT_SIZE
from repro.transport.tracemerge import run_merge


def _add_registry_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--registry",
        metavar="ADDR",
        help="address of the registry host (site directory): HOST:PORT "
        "over tcp, the registry's srpc-<hex> name over shm",
    )
    parser.add_argument(
        "--registry-site",
        default=REGISTRY_SITE,
        metavar="ID",
        help=f"site id of the registry host (default {REGISTRY_SITE})",
    )
    parser.add_argument(
        "--transport",
        choices=TRANSPORTS,
        default="tcp",
        help="carrier to serve or dial on: tcp sockets, or shm "
        "(same machine: a local socket for the frames, a shared-memory "
        "segment for bulk bodies; default tcp)",
    )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.transport",
        description="Real inter-process smart-RPC transport over TCP "
        "sockets or shared memory (--transport shm).",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    serve = commands.add_parser(
        "serve", help="host one address space (or the registry)"
    )
    serve.add_argument(
        "--site", required=True, metavar="ID", help="this host's site id"
    )
    serve.add_argument("--host", default="127.0.0.1", metavar="ADDR")
    serve.add_argument(
        "--port", type=int, default=0, metavar="N",
        help="listening port (default 0: ephemeral)",
    )
    _add_registry_options(serve)
    serve.add_argument(
        "--serve-registry",
        action="store_true",
        help="host the site directory and type name server instead of "
        "an address space",
    )
    serve.add_argument(
        "--method",
        choices=METHODS,
        default=PROPOSED,
        help="which runtime this address space runs (default proposed)",
    )
    serve.add_argument(
        "--heartbeat",
        type=float,
        default=HEARTBEAT_INTERVAL,
        metavar="SECONDS",
        help="directory heartbeat interval "
        f"(default {HEARTBEAT_INTERVAL})",
    )
    serve.add_argument(
        "--trace",
        metavar="PATH",
        help="record a JSONL trace and write it here on shutdown",
    )
    serve.add_argument(
        "--expose-tree",
        type=int,
        default=0,
        metavar="NODES",
        help="home a NODES-node tree here and serve its root pointer "
        "(tree_expose interface), so remote grounds can modify it and "
        "exercise session-end write-back into this process",
    )
    serve.add_argument(
        "--fault",
        metavar="SPEC",
        help="inject wire faults: drop-request=N, dup-request=N, "
        "drop-reply=N, loss=RATE, seed=N, crash-send=KIND:N, "
        "crash-recv=KIND:N (comma separated)",
    )
    serve.add_argument(
        "--session-deadline",
        type=float,
        default=0.0,
        metavar="SECONDS",
        help="abort sessions still open after this long (0: never)",
    )
    serve.add_argument(
        "--exchange-timeout",
        type=float,
        default=0.0,
        metavar="SECONDS",
        help="cap each session exchange's retries at this long, "
        "aborting the session on expiry (0: full retry schedule)",
    )
    serve.add_argument(
        "--orphan-grace",
        type=float,
        default=0.0,
        metavar="SECONDS",
        help="reap sessions whose peer's directory heartbeat is older "
        "than this (0: never reap)",
    )
    serve.add_argument(
        "--segment-size",
        type=int,
        default=DEFAULT_SEGMENT_SIZE,
        metavar="BYTES",
        help="shm only: data segment size for bulk payload handover "
        f"(default {DEFAULT_SEGMENT_SIZE})",
    )
    serve.set_defaults(run=run_serve)

    ping = commands.add_parser("ping", help="measure RTT to a host")
    ping.add_argument("--site", required=True, metavar="ID")
    _add_registry_options(ping)
    ping.add_argument(
        "--timeout", type=float, default=2.0, metavar="SECONDS"
    )
    ping.set_defaults(run=run_ping)

    shutdown = commands.add_parser(
        "shutdown", help="ask a host to exit gracefully"
    )
    shutdown.add_argument("--site", required=True, metavar="ID")
    _add_registry_options(shutdown)
    shutdown.set_defaults(run=run_shutdown)

    status = commands.add_parser(
        "status",
        help="block on a host's readiness barrier and print counters",
    )
    status.add_argument("--site", required=True, metavar="ID")
    _add_registry_options(status)
    status.add_argument(
        "--min-heartbeats", type=int, default=0, metavar="N",
        help="wait until the host has heartbeated N times",
    )
    status.add_argument(
        "--min-reaped", type=int, default=0, metavar="N",
        help="wait until the host has reaped N orphaned sessions",
    )
    status.add_argument(
        "--max-wait", type=float, default=5.0, metavar="SECONDS",
        help="give up waiting for the condition after this long",
    )
    status.set_defaults(run=run_status)

    merge = commands.add_parser(
        "merge-traces",
        help="merge per-process trace logs into one timeline",
    )
    merge.add_argument("out", help="merged trace output path")
    merge.add_argument(
        "traces", nargs="+", help="per-process trace logs to merge"
    )
    merge.set_defaults(run=run_merge)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point; returns the process exit status."""
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command in ("ping", "shutdown", "status") and (
        args.registry is None
    ):
        parser.error(f"{args.command} requires --registry HOST:PORT")
    return args.run(args)


if __name__ == "__main__":
    sys.exit(main())
