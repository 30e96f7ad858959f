"""Spans recorded from outside the program under test.

``src/`` has no timing primitive yet (ROADMAP item 1), so the traced
run wraps the public callables at each layer boundary by attribute
replacement: :func:`install` swaps every target in :func:`targets` for
a recording wrapper, :func:`uninstall` puts the original objects back.
Only the traced worker subprocess ever installs them.

A span is ``[name, start, end, parent, op, n]``: ``parent`` is the
index of the span that caused it (-1 for a root), ``op`` the index of
the benchmark operation it belongs to and ``n`` a per-span work count
(items walked, bytes encoded, items applied).  Spans live in one list
in memory until the run ends.

The parent of a new span is the innermost span still open *anywhere in
the process*, not on the calling thread.  A smart-RPC session has
exactly one active thread of control (paper §3.1): while a handler
runs on a carrier's service thread the caller is blocked inside
``Endpoint.send``, so open spans nest strictly in time even though
they cross threads, and one process-wide stack links a handler to the
send that caused it.  That holds for the policies the benchmark runs
(``paper``, ``lazy``); a policy with asynchronous prefetch would need
per-exchange parent ids instead.
"""

from __future__ import annotations

from collections import defaultdict
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

NAME, START, END, PARENT, OP, N = range(6)

#: The span the worker opens around each whole operation.
OP_SPAN = "op"
APPLY_BATCH = "smartrpc.transfer.apply_batch"
PIGGYBACK = "smartrpc.coherency.piggyback"


class Recorder:
    """In-memory span store plus the process-wide open-span stack."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self._open: List[int] = []
        self.op = -1

    def wrap(
        self,
        name: str,
        fn: Callable[..., Any],
        count: Optional[Callable[[Any], int]] = None,
        only: Optional[Callable[..., bool]] = None,
    ) -> Callable[..., Any]:
        """``fn`` recording one span per call.

        ``count`` maps the call's result to the span's work count;
        ``only`` (given the call's arguments) selects which calls are
        recorded at all — the rest pass straight through.
        """
        spans = self.spans
        open_spans = self._open

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if only is not None and not only(*args, **kwargs):
                return fn(*args, **kwargs)
            span = [
                name,
                0.0,
                0.0,
                open_spans[-1] if open_spans else -1,
                self.op,
                0,
            ]
            open_spans.append(len(spans))
            spans.append(span)
            span[START] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = perf_counter()
                open_spans.pop()
            if count is not None:
                span[N] = count(result)
            return result

        wrapper.__wrapped__ = fn  # type: ignore[attr-defined]
        return wrapper


def targets() -> List[Tuple[object, str, str, dict]]:
    """``(owner, attribute, span name, wrap options)`` per boundary.

    Module-level functions are patched on the module every caller
    reaches them through (``transfer.encode_batch`` is looked up as a
    module attribute by ``coherency`` and as a global by ``transfer``
    itself — the same dict), methods on the class that defines them.
    ``linked_list.total`` is looked up when ``bind_list_server`` runs,
    so spans must be installed before the world is built.
    """
    from repro.rpc import marshal
    from repro.rpc.runtime import RpcRuntime
    from repro.simnet.message import MessageKind
    from repro.simnet.network import Site
    from repro.smartrpc import coherency, transfer
    from repro.smartrpc.cache import CacheManager
    from repro.smartrpc.closure import ClosureWalker
    from repro.transport.base import Endpoint
    from repro.transport.shm import ShmEndpoint
    from repro.transport.tcp import TcpEndpoint
    from repro.workloads import linked_list, traversal

    def is_call(_endpoint: object, message: Any) -> bool:
        return message.kind is MessageKind.CALL

    found: List[Tuple[object, str, str, dict]] = [
        (RpcRuntime, "call", "rpc.call", {}),
        # Server half of a call; the other message kinds dispatch to
        # functions that carry their own spans below.
        (Endpoint, "handle", "rpc.dispatch", {"only": is_call}),
        (linked_list, "total", "workload.body", {}),
        (traversal, "local_tree_checksum", "workload.body", {}),
        (ClosureWalker, "walk", "smartrpc.closure.walk", {"count": len}),
        (
            transfer,
            "encode_batch",
            "smartrpc.transfer.encode_batch",
            {"count": len},
        ),
        (
            transfer,
            "apply_batch",
            APPLY_BATCH,
            {"count": int},
        ),
        (transfer, "request_data", "smartrpc.transfer.request_data", {}),
        (
            transfer,
            "handle_data_request",
            "smartrpc.transfer.handle_data_request",
            {},
        ),
        (CacheManager, "handle_fault", "smartrpc.cache.handle_fault", {}),
        (coherency, "end_session", "smartrpc.coherency.end_session", {}),
    ]
    for name in ("pack_args", "unpack_args", "pack_result", "unpack_result"):
        found.append((marshal, name, "rpc.marshal", {}))
    for name in ("encode_piggyback", "apply_piggyback"):
        found.append((coherency, name, PIGGYBACK, {}))
    for name in (
        "handle_writeback_prepare",
        "handle_writeback_commit",
        "handle_invalidate",
    ):
        found.append(
            (coherency, name, "smartrpc.coherency.writeback_handlers", {})
        )
    for endpoint in (Site, TcpEndpoint, ShmEndpoint):
        found.append((endpoint, "send", "transport.send", {}))
    return found


Patch = Tuple[object, str, object]


def install(recorder: Recorder) -> List[Patch]:
    """Replace every target with its recording wrapper."""
    patches: List[Patch] = []
    for owner, attribute, name, options in targets():
        original = vars(owner)[attribute]
        setattr(owner, attribute, recorder.wrap(name, original, **options))
        patches.append((owner, attribute, original))
    return patches


def uninstall(patches: Sequence[Patch]) -> None:
    """Put back the exact objects :func:`install` replaced."""
    for owner, attribute, original in reversed(patches):
        setattr(owner, attribute, original)


def self_times(spans: Sequence[Sequence[Any]]) -> List[float]:
    """Per span: its duration minus the part its child spans cover.

    Children are clipped to the parent's interval and overlapping
    siblings are counted once, so the self times of a tree always sum
    to the root's duration.
    """
    children: Dict[int, List[Tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span[PARENT] >= 0:
            children[span[PARENT]].append((span[START], span[END]))
    result: List[float] = []
    for index, span in enumerate(spans):
        start, end = span[START], span[END]
        covered = 0.0
        cursor = start
        for child_start, child_end in sorted(children.get(index, ())):
            child_start = max(child_start, cursor)
            child_end = min(child_end, end)
            if child_end > child_start:
                covered += child_end - child_start
                cursor = child_end
        result.append((end - start) - covered)
    return result


def per_op(
    spans: Sequence[Sequence[Any]],
) -> List[Dict[str, Dict[str, float]]]:
    """Per operation: span name -> summed ``self_s``, ``count``, ``n``.

    A piggyback span returns no item count of its own, so the items an
    ``apply_batch`` applied directly under one are added to its ``n``.
    """
    ops: Dict[int, Dict[str, Dict[str, float]]] = {}
    for span, self_s in zip(spans, self_times(spans)):
        if span[OP] < 0:
            continue
        names = ops.setdefault(span[OP], {})
        entry = names.setdefault(
            span[NAME], {"self_s": 0.0, "count": 0, "n": 0}
        )
        entry["self_s"] += self_s
        entry["count"] += 1
        entry["n"] += span[N]
        if span[NAME] == APPLY_BATCH and span[PARENT] >= 0:
            parent = spans[span[PARENT]]
            if parent[NAME] == PIGGYBACK and parent[OP] == span[OP]:
                names[PIGGYBACK]["n"] += span[N]
    return [ops[index] for index in sorted(ops)]
