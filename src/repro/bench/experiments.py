"""One function per table, figure and ablation of the paper's evaluation.

Each returns the rows the paper plots (plus the counters that explain
them) and a rendered text table.  ``python -m repro.bench <name>`` is
the one runner of every one of them (``ALL_EXPERIMENTS``).

Parameters default to the paper's values; tests pass smaller trees so
the full suite stays fast.  The figures take ``transport=`` and run
over a real carrier (``tcp`` / ``shm``), where seconds are wall time
and the counters are simnet's.  Every world an experiment builds is
closed when its cell is done.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.smartrpc.alloc_table import table_rows
from repro.smartrpc.cache import ISOLATED, PACKED, SINGLE_HOME
from repro.smartrpc.closure import BREADTH_FIRST, DEPTH_FIRST
from repro.smartrpc.policy import make_policy, pinned_fields
from repro.workloads.hashtable import build_hash_table, hash_client
from repro.workloads.linked_list import list_client
from repro.xdr.types import Field as XField
from repro.xdr.types import OpaqueType, PointerType, StructType

from repro.bench import calibration
from repro.bench.ascii_chart import render_chart
from repro.bench.harness import (
    CALLEE,
    FULLY_EAGER,
    FULLY_LAZY,
    METHODS,
    PROPOSED,
    SIMNET,
    make_world,
    resolve_policy,
    run_hash_call,
    run_tree_call,
    standard_workload_hints,
)
from repro.bench.reporting import format_table


def _world(method, policy=None, transport=SIMNET, **knobs):
    """A fresh world for one cell of a figure; use it in ``with``.

    ``policy`` (``--policy``) substitutes any transfer policy for the
    proposed method's column while the baseline columns stay what the
    paper plots; the sweep knobs (closure size, ``--closure-order``)
    ride along on every column except where its preset pins them (the
    lazy and eager budgets, all of graphcopy's data plane).  A knob
    left ``None`` keeps the preset's value.
    """
    if method == PROPOSED and policy is not None:
        method = policy
    pinned = pinned_fields(method)
    fields = {
        knob: value
        for knob, value in knobs.items()
        if value is not None and knob not in pinned
    }
    return make_world(resolve_policy(method, **fields), transport=transport)


def _over(transport: str) -> str:
    """The result-name suffix naming a real carrier (none for simnet)."""
    return "" if transport == SIMNET else f" over {transport} (wall seconds)"


@dataclass
class ExperimentResult:
    """Rows plus presentation for one regenerated figure/table."""

    name: str
    headers: List[str]
    rows: List[tuple]
    notes: List[str] = field(default_factory=list)
    chart: Optional[str] = None

    def render(self) -> str:
        """The text table (plus chart and notes) for this experiment."""
        parts = [format_table(self.name, self.headers, self.rows)]
        if self.chart:
            parts.append("")
            parts.append(self.chart)
        if self.notes:
            parts.append("")
            parts.extend(f"note: {note}" for note in self.notes)
        return "\n".join(parts)


# -- Figure 4 -----------------------------------------------------------------


def fig4_methods_comparison(
    num_nodes: int = calibration.FIG4_NODES,
    ratios: Optional[Sequence[float]] = None,
    closure_size: int = calibration.FIG4_CLOSURE,
    policy: Optional[str] = None,
    closure_order: Optional[str] = None,
    transport: str = SIMNET,
) -> ExperimentResult:
    """Figure 4: processing time vs access ratio, three methods."""
    if ratios is None:
        ratios = calibration.ACCESS_RATIOS
    rows = []
    for ratio in ratios:
        times: Dict[str, float] = {}
        for method in METHODS:
            with _world(
                method,
                policy,
                transport,
                closure_size=closure_size,
                closure_order=closure_order,
            ) as world:
                run = run_tree_call(world, num_nodes, "search", ratio=ratio)
            times[method] = run.seconds
        rows.append(
            (
                ratio,
                times[FULLY_EAGER],
                times[FULLY_LAZY],
                times[PROPOSED],
            )
        )
    chart = render_chart(
        {
            "eager": [(row[0], row[1]) for row in rows],
            "lazy": [(row[0], row[2]) for row in rows],
            "proposed": [(row[0], row[3]) for row in rows],
        },
        y_label="processing time (s) vs access ratio",
    )
    return ExperimentResult(
        name=(
            f"Figure 4 - processing time (s) vs access ratio "
            f"({num_nodes} nodes, closure {closure_size} B)"
            f"{_over(transport)}"
        ),
        headers=["ratio", "fully eager", "fully lazy", "proposed"],
        rows=rows,
        chart=chart,
        notes=[
            "paper: eager flat ~2.1 s; lazy linear to ~12 s; proposed "
            "best below ~0.6 and modestly above eager at 1.0",
        ],
    )


# -- Figure 5 -----------------------------------------------------------------


def fig5_callback_counts(
    num_nodes: int = calibration.FIG4_NODES,
    ratios: Optional[Sequence[float]] = None,
    closure_size: int = calibration.FIG4_CLOSURE,
    policy: Optional[str] = None,
    closure_order: Optional[str] = None,
    transport: str = SIMNET,
) -> ExperimentResult:
    """Figure 5: number of callbacks vs access ratio, lazy vs proposed."""
    if ratios is None:
        ratios = calibration.ACCESS_RATIOS
    rows = []
    for ratio in ratios:
        counts: Dict[str, int] = {}
        for method in (FULLY_LAZY, PROPOSED):
            with _world(
                method,
                policy,
                transport,
                closure_size=closure_size,
                closure_order=closure_order,
            ) as world:
                run = run_tree_call(world, num_nodes, "search", ratio=ratio)
            counts[method] = run.callbacks
        rows.append((ratio, counts[FULLY_LAZY], counts[PROPOSED]))
    return ExperimentResult(
        name=(
            f"Figure 5 - callbacks vs access ratio ({num_nodes} nodes, "
            f"closure {closure_size} B){_over(transport)}"
        ),
        headers=["ratio", "fully lazy", "proposed"],
        rows=rows,
        notes=[
            "paper: lazy callbacks equal the number of visited nodes; "
            "the proposed method needs orders of magnitude fewer",
        ],
    )


# -- Figure 6 -----------------------------------------------------------------


def fig6_closure_size(
    node_counts: Optional[Sequence[int]] = None,
    closure_sizes: Optional[Sequence[int]] = None,
    repeats: int = calibration.FIG6_REPEATS,
    policy: Optional[str] = None,
    closure_order: Optional[str] = None,
    transport: str = SIMNET,
) -> ExperimentResult:
    """Figure 6: processing time vs closure size, three tree sizes.

    The subject is the paper's: the tree is depth-first searched from
    the root to the leaves ``repeats`` times in one RPC; upper-level
    nodes are reused from the cache in every search after the first.
    """
    if node_counts is None:
        node_counts = calibration.FIG6_NODE_COUNTS
    if closure_sizes is None:
        closure_sizes = calibration.FIG6_CLOSURE_SIZES
    rows = []
    optima: Dict[int, int] = {}
    for num_nodes in node_counts:
        best: Tuple[float, int] = (float("inf"), -1)
        for closure_size in closure_sizes:
            with _world(
                PROPOSED,
                policy,
                transport,
                closure_size=closure_size,
                closure_order=closure_order,
            ) as world:
                run = run_tree_call(
                    world, num_nodes, "search_repeat", repeats=repeats
                )
            rows.append(
                (num_nodes, closure_size, run.seconds, run.callbacks)
            )
            if run.seconds < best[0]:
                best = (run.seconds, closure_size)
        optima[num_nodes] = best[1]
    notes = [
        f"measured optima: "
        + ", ".join(f"{n}: {c} B" for n, c in optima.items()),
        "paper: optima at 4096 / 8192 / 16384 B for 16383 / 32767 / "
        "65535 nodes; high at closure 0, rising again past the optimum",
    ]
    chart = render_chart(
        {
            str(num_nodes): [
                (row[1] / 1024, row[2])
                for row in rows
                if row[0] == num_nodes
            ]
            for num_nodes in node_counts
        },
        y_label="processing time (s) vs closure size (KB)",
    )
    return ExperimentResult(
        name=(
            f"Figure 6 - processing time (s) vs closure size "
            f"({repeats} repeated searches){_over(transport)}"
        ),
        headers=["nodes", "closure B", "seconds", "callbacks"],
        rows=rows,
        chart=chart,
        notes=notes,
    )


# -- Figure 7 -----------------------------------------------------------------


def fig7_update_performance(
    num_nodes: int = calibration.FIG4_NODES,
    ratios: Optional[Sequence[float]] = None,
    closure_size: int = calibration.FIG4_CLOSURE,
    policy: Optional[str] = None,
    closure_order: Optional[str] = None,
    transport: str = SIMNET,
) -> ExperimentResult:
    """Figure 7: update vs visit-only processing time per ratio."""
    if ratios is None:
        ratios = calibration.ACCESS_RATIOS
    rows = []
    for ratio in ratios:
        seconds: Dict[str, float] = {}
        for procedure in ("search", "search_update"):
            with _world(
                PROPOSED,
                policy,
                transport,
                closure_size=closure_size,
                closure_order=closure_order,
            ) as world:
                run = run_tree_call(world, num_nodes, procedure, ratio=ratio)
            seconds[procedure] = run.seconds
        visit, update = seconds["search"], seconds["search_update"]
        quotient = update / visit if visit > 0 else 0.0
        rows.append((ratio, visit, update, quotient))
    chart = render_chart(
        {
            "visited only": [(row[0], row[1]) for row in rows],
            "updated": [(row[0], row[2]) for row in rows],
        },
        y_label="processing time (s) vs update ratio",
    )
    return ExperimentResult(
        name=(
            f"Figure 7 - update performance ({num_nodes} nodes, "
            f"closure {closure_size} B){_over(transport)}"
        ),
        headers=["ratio", "not updated (s)", "updated (s)", "updated/not"],
        rows=rows,
        chart=chart,
        notes=[
            "paper: the updated curve is scalable in the update ratio "
            "and each point is about twice the not-updated one (read "
            "page-in plus write-back)",
        ],
    )


# -- Table 1 ------------------------------------------------------------------


def table1_allocation_table() -> ExperimentResult:
    """Table 1: a data allocation table just after two swizzles.

    Reproduces the paper's scenario: two pointers, A and B, are passed
    from the caller to the callee; the callee's table then maps one
    protected page's offsets to the two long pointers, before any data
    has been transferred.
    """
    from repro.rpc.interface import InterfaceDef, Param, ProcedureDef
    from repro.rpc.stubgen import ClientStub, bind_server
    from repro.xdr.types import int32

    record = StructType(
        "record",
        [
            XField("payload", OpaqueType(24)),
            XField("link", PointerType("record")),
        ],
    )
    interface = InterfaceDef(
        "table1",
        [
            ProcedureDef(
                "swizzle_only",
                [
                    Param("a", PointerType("record")),
                    Param("b", PointerType("record")),
                ],
                returns=int32,
            )
        ],
    )
    captured: List[tuple] = []

    def swizzle_only(ctx, a: int, b: int) -> int:
        # Both pointers are swizzled by now; capture the table before
        # any access transfers data.
        captured.extend(table_rows(ctx.state.cache.rows.values()))
        return len(ctx.state.cache.rows)

    with make_world(PROPOSED) as world:
        for runtime in (world.caller, world.callee):
            runtime.resolver.register("record", record)
        a_address = world.caller.heap.malloc(
            record.sizeof(world.caller.arch), "record"
        )
        b_address = world.caller.heap.malloc(
            record.sizeof(world.caller.arch), "record"
        )
        bind_server(world.callee, interface, {"swizzle_only": swizzle_only})
        stub = ClientStub(world.caller, interface, CALLEE)
        with world.caller.session() as session:
            count = stub.swizzle_only(session, a_address, b_address)
    rows = [
        (page, offset, repr(pointer))
        for page, offset, pointer in captured
    ]
    return ExperimentResult(
        name="Table 1 - the data allocation table after swizzling A and B",
        headers=["page #", "offset within the page", "long pointer"],
        rows=rows,
        notes=[
            f"{count} entries; both pointers share one protected page, "
            "as in the paper's Figure 2 / Table 1",
        ],
    )


# -- ablations (paper section 6 design discussions) ---------------------------


def ablation_alloc_strategy(
    num_nodes: int = calibration.FIG4_NODES,
    ratio: float = 0.5,
    closure_size: int = calibration.FIG4_CLOSURE,
) -> ExperimentResult:
    """Placeholder-page allocation strategies (paper §6).

    ``single_home`` (per-datum sibling groups) is the paper's
    heuristic; ``packed`` fills pages across a whole batch (smaller
    working set, coarser fills); ``isolated`` is one datum per page
    (the lazy extreme).
    """
    rows = []
    for strategy in (SINGLE_HOME, PACKED, ISOLATED):
        with _world(
            PROPOSED, closure_size=closure_size, allocation_strategy=strategy
        ) as world:
            run = run_tree_call(world, num_nodes, "search", ratio=ratio)
        rows.append(
            (
                strategy,
                run.seconds,
                run.callbacks,
                run.bytes_moved,
                run.page_faults,
            )
        )
    return ExperimentResult(
        name=(
            f"Ablation - placeholder allocation strategy "
            f"({num_nodes} nodes, ratio {ratio})"
        ),
        headers=["strategy", "seconds", "callbacks", "bytes", "faults"],
        rows=rows,
        notes=[
            "the paper's §6 calls the allocation method an open "
            "tradeoff between working-set size and communication count",
        ],
    )


def ablation_closure_order(
    num_nodes: int = calibration.FIG4_NODES,
    ratios: Sequence[float] = (0.25, 0.5, 1.0),
    closure_size: int = calibration.FIG4_CLOSURE,
    policy: Optional[str] = None,
) -> ExperimentResult:
    """Breadth-first (paper) vs depth-first closure traversal (§6)."""
    rows = []
    for ratio in ratios:
        times = {}
        for order in (BREADTH_FIRST, DEPTH_FIRST):
            with _world(
                PROPOSED,
                policy,
                closure_size=closure_size,
                closure_order=order,
            ) as world:
                times[order] = run_tree_call(
                    world, num_nodes, "search", ratio=ratio
                )
        rows.append(
            (
                ratio,
                times[BREADTH_FIRST].seconds,
                times[DEPTH_FIRST].seconds,
                times[BREADTH_FIRST].callbacks,
                times[DEPTH_FIRST].callbacks,
            )
        )
    return ExperimentResult(
        name=(
            f"Ablation - closure traversal order ({num_nodes} nodes, "
            f"closure {closure_size} B)"
        ),
        headers=["ratio", "bfs (s)", "dfs (s)", "bfs cb", "dfs cb"],
        rows=rows,
        notes=[
            "the paper uses breadth-first and leaves 'shape' "
            "optimisation to future work; depth-first matches a "
            "depth-first consumer better at partial ratios",
        ],
    )


def ablation_batched_malloc(counts: Sequence[int] = (50, 200, 800)) -> (
    ExperimentResult
):
    """Batched vs immediate remote allocation (paper §3.5).

    The callee appends nodes to a caller-resident list; with batching
    every allocation in the call flushes in one message per activity
    transfer, without it each allocation is its own round trip.
    """
    from repro.workloads.linked_list import build_list

    rows = []
    for count in counts:
        per_mode = {}
        for batched in (True, False):
            with _world(PROPOSED, batch_memory_ops=batched) as world:
                head = build_list(world.caller, [1, 2, 3])
                client = list_client(world.caller, CALLEE)
                world.stats.reset()
                clock = world.network.clock
                start = clock.now
                with world.caller.session() as session:
                    client.append_range(session, head, 100, count)
                per_mode[batched] = (
                    clock.now - start,
                    world.stats.messages_by_kind,
                )
        batched_s, batched_msgs = per_mode[True]
        immediate_s, immediate_msgs = per_mode[False]
        from repro.simnet.message import MessageKind

        rows.append(
            (
                count,
                batched_s,
                immediate_s,
                batched_msgs[MessageKind.MEMORY_BATCH],
                immediate_msgs[MessageKind.MEMORY_BATCH],
            )
        )
    return ExperimentResult(
        name="Ablation - batched vs immediate extended_malloc",
        headers=[
            "allocations",
            "batched (s)",
            "immediate (s)",
            "batch msgs",
            "immediate msgs",
        ],
        rows=rows,
        notes=[
            "paper §3.5: issuing each allocation remotely 'would "
            "degrade the runtime performance terribly'; batching sends "
            "one message per home per activity transfer",
        ],
    )


def ablation_closure_hints(
    num_keys: int = 2000, lookups: int = 6
) -> ExperimentResult:
    """Programmer closure hints on sparse hash retrieval (paper §6).

    "One promising solution is to use suggestions provided by the
    programmer": hinting that retrieval follows only the bucket chain
    (and never fans out of the table header) removes the prefetch
    waste of sparse access.  Paired with isolated placeholders, where
    page-grain fills cannot mask the hint.
    """
    def run(hints):
        policy = make_policy(
            "paper", allocation_strategy=ISOLATED, closure_hints=hints
        )
        with make_world(policy) as world:
            table, _ = build_hash_table(world.caller, list(range(num_keys)))
            stub = hash_client(world.caller, CALLEE)
            world.stats.reset()
            clock = world.network.clock
            start = clock.now
            with world.caller.session() as session:
                stub.lookup_many(session, table, 17, lookups)
            return (
                clock.now - start,
                world.stats.total_bytes,
                world.stats.entries_transferred,
            )

    rows = []
    for label, configured in (
        ("unhinted", None),
        ("hinted", standard_workload_hints()),
    ):
        seconds, total_bytes, entries = run(configured)
        rows.append((label, seconds, total_bytes, entries))
    return ExperimentResult(
        name=(
            f"Ablation - programmer closure hints "
            f"({lookups} lookups in a {num_keys}-entry hash table)"
        ),
        headers=["configuration", "seconds", "bytes", "entries"],
        rows=rows,
        notes=[
            "the hint declares that retrieval follows only the bucket "
            "chain; prefetch waste on sparse access disappears",
        ],
    )


def ablation_adaptive_closure(
    num_keys: int = 2000,
    lookups: int = 40,
    policies: Sequence[str] = ("paper", "adaptive", "hinted", "lazy"),
    closure_order: Optional[str] = None,
) -> ExperimentResult:
    """Adaptive vs fixed closure budgets on sparse hash retrieval.

    The workload the adaptive policy targets: chained lookups in a big
    hash table touch a handful of bucket chains, so a fixed 8 KB
    closure ships mostly-untouched neighbourhoods.  The adaptive policy
    watches the shipped-vs-touched ratio per session and shrinks the
    budget until prefetch pays for itself, undercutting the paper's
    fixed 8192 B default in total bytes on the wire at the same result.
    """
    rows = []
    baseline: Dict[str, int] = {}
    for name in policies:
        with _world(name, closure_order=closure_order) as world:
            run = run_hash_call(world, num_keys, lookups)
        baseline[name] = run.bytes_moved
        rows.append(
            (
                name,
                round(run.seconds, 4),
                run.callbacks,
                run.bytes_moved,
                run.prefetch_shipped,
                run.prefetch_touched,
                run.result,
            )
        )
    notes = [
        "prefetch columns count closure bytes beyond the demanded "
        "roots: shipped-but-never-touched bytes are pure waste",
    ]
    if "paper" in baseline and "adaptive" in baseline:
        saved = baseline["paper"] - baseline["adaptive"]
        notes.insert(
            0,
            f"adaptive moves {saved} fewer bytes than the fixed "
            f"8192 B default on this workload",
        )
    return ExperimentResult(
        name=(
            f"Ablation - adaptive closure budget "
            f"({lookups} lookups in a {num_keys}-entry hash table)"
        ),
        headers=[
            "policy",
            "seconds",
            "callbacks",
            "bytes",
            "prefetch shipped",
            "prefetch touched",
            "result",
        ],
        rows=rows,
        notes=notes,
    )


ALL_EXPERIMENTS = {
    "table1": table1_allocation_table,
    "fig4": fig4_methods_comparison,
    "fig5": fig5_callback_counts,
    "fig6": fig6_closure_size,
    "fig7": fig7_update_performance,
    "ablation_alloc": ablation_alloc_strategy,
    "ablation_closure": ablation_closure_order,
    "ablation_malloc": ablation_batched_malloc,
    "ablation_hints": ablation_closure_hints,
    "ablation_adaptive": ablation_adaptive_closure,
}
"""Registry used by ``python -m repro.bench``."""
