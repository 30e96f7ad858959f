"""Pluggable transfer policies: the eagerness spectrum as one layer.

The paper treats eagerness as a *spectrum* — closure size 0 is the
fully lazy method, an unbounded closure is the fully eager one (§3.3,
Figure 6) — yet early versions of this repo hard-coded the endpoints as
separate runtime subclasses.  A :class:`TransferPolicy` collects every
transfer/eagerness decision in one object consulted by the runtime:

* how pointers are marshalled (:data:`SWIZZLE` long pointers vs
  :data:`GRAPHCOPY` deep copies),
* whether the session coherency protocol runs at all,
* how placeholder pages are allocated,
* the closure budget and traversal order of each data request,
* which programmer hints restrict the traversal,
* whether remote malloc/free operations batch per activity transfer.

Presets map onto the paper's systems:

========== ==================================================
``paper``    the proposed method, fixed 8192-byte closure
``lazy``     closure 0 + isolated placeholders (§2 lazy method)
``eager``    unbounded closure (the spectrum's eager endpoint)
``graphcopy`` rpcgen-style deep copy (§2 eager method)
``hinted``   fixed closure restricted by programmer hints (§6)
``adaptive`` per-session budget tuned from live waste feedback
``pipelined`` fixed closure + fault-coalescing/prefetching pipeline
========== ==================================================

The ``adaptive`` policy closes the loop the paper leaves open in §6
("it is necessary to determine the adequate size of closure"): each
session tracks how many prefetched closure bytes the program actually
touched, and the budget is halved when most prefetch was waste or
doubled when nearly all of it was used.
"""

from __future__ import annotations

import copy
from typing import TYPE_CHECKING, Dict, Optional

from repro.smartrpc.cache import ISOLATED, SINGLE_HOME, STRATEGIES
from repro.smartrpc.closure import BREADTH_FIRST, DEPTH_FIRST
from repro.smartrpc.errors import SmartRpcError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.smartrpc.hints import ClosureHints
    from repro.smartrpc.runtime import SmartSessionState

DEFAULT_CLOSURE_SIZE = 8192
"""The paper's experimental default (§4.1, §4.3)."""

SWIZZLE = "swizzle"
GRAPHCOPY = "graphcopy"

UNBOUNDED = 0xFFFFFFFF
"""The eager endpoint's closure budget (fills the uint32 wire slot)."""


def _check_knobs(allocation_strategy: str, closure_order: str) -> None:
    """Reject a placeholder strategy or traversal order no code runs."""
    if allocation_strategy not in STRATEGIES:
        raise SmartRpcError(
            f"unknown allocation strategy {allocation_strategy!r}"
        )
    if closure_order not in (BREADTH_FIRST, DEPTH_FIRST):
        raise SmartRpcError(f"unknown closure order {closure_order!r}")


class TransferPolicy:
    """Every transfer/eagerness decision of one runtime, in one object.

    Class attributes are the static decisions; :meth:`request_budget`
    is the per-data-request one (and the only method adaptive policies
    override).  Policies are cheap value objects: each runtime gets its
    own copy via :meth:`fresh` so mutating one (``set_budget``,
    adaptive feedback) never leaks across runtimes.
    """

    name: str = "custom"
    #: ``swizzle`` (long pointers + cache) or ``graphcopy`` (deep copy).
    marshalling: str = SWIZZLE
    #: Whether the session coherency protocol runs (piggybacks,
    #: write-back, invalidation).  Graphcopy has private copies and
    #: therefore no coherency to maintain.
    coherency: bool = True
    allocation_strategy: str = SINGLE_HOME
    closure_order: str = BREADTH_FIRST
    hints: Optional["ClosureHints"] = None
    batch_memory_ops: bool = True
    #: The budget every request uses, or ``None`` when it varies per
    #: request (adaptive).  Trace conformance (SRPC300) checks recorded
    #: decisions against this declaration.
    declared_budget: Optional[int] = None

    #: Fetch-pipeline knobs (see :mod:`repro.smartrpc.pipeline`).  All
    #: zero means the pipeline is a pass-through: one demand request per
    #: fault, byte-identical wire behaviour to the pre-pipeline runtime
    #: (what the ``paper``/``lazy`` presets promise).
    #:
    #: ``batch_window``: how many additional known-but-not-resident
    #: long-pointer targets a demand request may coalesce as extra
    #: roots.  ``max_inflight``: how many asynchronous prefetch
    #: exchanges may be outstanding at once.  ``prefetch_depth``: how
    #: many closure slices (multiples of the request budget) one
    #: prefetch exchange asks for.
    batch_window: int = 0
    max_inflight: int = 0
    prefetch_depth: int = 0

    #: Fault-tolerance knobs (see DESIGN.md §12).  All zero disables
    #: them: no deadline, no per-exchange timeout cap, no orphan
    #: reaping — exactly the pre-fault-tolerance behaviour, so default
    #: traces and the byte-parity tests are unchanged.
    #:
    #: ``session_deadline``: wall/sim seconds a session may stay open
    #: before its next exchange aborts it.  ``exchange_timeout``: cap
    #: in seconds on one exchange's cumulative retries before the
    #: session aborts (instead of the transport's full retry schedule).
    #: ``orphan_grace``: heartbeat age in seconds beyond which a peer
    #: counts as dead and its sessions are reaped.
    session_deadline: float = 0.0
    exchange_timeout: float = 0.0
    orphan_grace: float = 0.0

    def fresh(self) -> "TransferPolicy":
        """A per-runtime copy of this policy."""
        return copy.copy(self)

    def request_budget(self, state: "SmartSessionState") -> int:
        """The closure budget for one data request in ``state``."""
        raise NotImplementedError

    def describe(self) -> Dict[str, object]:
        """The trace-declaration payload (one ``policy`` event)."""
        return {
            "policy": self.name,
            "budget": self.declared_budget,
            "marshalling": self.marshalling,
            "coherency": self.coherency,
            "order": self.closure_order,
            "strategy": self.allocation_strategy,
            "batch_window": self.batch_window,
            "max_inflight": self.max_inflight,
            "prefetch_depth": self.prefetch_depth,
            "session_deadline": self.session_deadline,
            "exchange_timeout": self.exchange_timeout,
            "orphan_grace": self.orphan_grace,
        }


class FixedPolicy(TransferPolicy):
    """A constant closure budget — the paper's construction-time knob."""

    def __init__(
        self,
        budget: int = DEFAULT_CLOSURE_SIZE,
        name: str = "fixed",
        allocation_strategy: str = SINGLE_HOME,
        closure_order: str = BREADTH_FIRST,
        hints: Optional["ClosureHints"] = None,
        batch_memory_ops: bool = True,
    ) -> None:
        if budget < 0:
            raise SmartRpcError(f"bad closure size {budget!r}")
        if budget > UNBOUNDED:
            raise SmartRpcError(
                f"closure size {budget!r} exceeds the wire maximum"
            )
        _check_knobs(allocation_strategy, closure_order)
        self.name = name
        self.budget = budget
        self.allocation_strategy = allocation_strategy
        self.closure_order = closure_order
        self.hints = hints
        self.batch_memory_ops = batch_memory_ops

    @property
    def declared_budget(self) -> int:
        return self.budget

    #: Presets that *are* their budget (lazy, eager) pin it: changing
    #: the budget would silently change which system is being measured.
    pinned: bool = False

    def set_budget(self, budget: int) -> None:
        """Change the fixed budget mid-run (closure-size sweeps)."""
        if self.pinned:
            raise SmartRpcError(
                f"the {self.name!r} policy pins its closure budget; "
                "build a 'paper'/'fixed' policy to sweep it"
            )
        if budget < 0:
            raise SmartRpcError(f"bad closure size {budget!r}")
        self.budget = budget

    def request_budget(self, state: "SmartSessionState") -> int:
        return self.budget


class GraphcopyPolicy(TransferPolicy):
    """Deep-copy marshalling: the paper's fully eager method (§2).

    No long pointers, no cache, no data plane, no coherency — the whole
    closure crosses the wire inside the call message and the callee
    works on a private copy.
    """

    name = "graphcopy"
    marshalling = GRAPHCOPY
    coherency = False

    def request_budget(self, state: "SmartSessionState") -> int:
        raise SmartRpcError(
            "graphcopy marshalling has no data plane to budget"
        )


class AdaptivePolicy(TransferPolicy):
    """Tune the per-session budget from live shipped-vs-touched feedback.

    Each data request reads the session's waste ledger: of the closure
    bytes *prefetched* (shipped beyond the demanded roots) since the
    last adjustment, what fraction did the program actually touch?
    Once at least ``window`` prefetched bytes have accrued, a fraction
    below ``low_water`` halves the budget (most prefetch was waste —
    drift toward lazy) and one above ``high_water`` doubles it (the
    prefetch all got used — drift toward eager).
    """

    name = "adaptive"
    declared_budget = None

    def __init__(
        self,
        initial: int = DEFAULT_CLOSURE_SIZE,
        min_budget: int = 256,
        max_budget: int = 1 << 20,
        window: int = 2048,
        low_water: float = 0.25,
        high_water: float = 0.75,
    ) -> None:
        if initial < 0:
            raise SmartRpcError(f"bad closure size {initial!r}")
        if not 0 < min_budget <= max_budget:
            raise SmartRpcError(
                f"bad adaptive bounds [{min_budget}, {max_budget}]"
            )
        self.initial = initial
        self.min_budget = min_budget
        self.max_budget = max_budget
        self.window = window
        self.low_water = low_water
        self.high_water = high_water

    def request_budget(self, state: "SmartSessionState") -> int:
        data = state.policy_data
        budget = data.get("budget", self.initial)
        ledger = state.transfer_stats
        shipped = ledger.prefetch_bytes_shipped - data.get("mark_shipped", 0)
        if shipped >= self.window:
            touched = (
                ledger.prefetch_bytes_touched - data.get("mark_touched", 0)
            )
            ratio = touched / shipped
            if ratio < self.low_water:
                budget = max(self.min_budget, budget // 2)
            elif ratio > self.high_water:
                budget = min(self.max_budget, budget * 2)
            data["mark_shipped"] = ledger.prefetch_bytes_shipped
            data["mark_touched"] = ledger.prefetch_bytes_touched
        data["budget"] = budget
        return budget


class PipelinedPolicy(FixedPolicy):
    """Fixed closure budget driving an active fetch pipeline.

    Demand requests use the fixed budget like ``paper``; on top of
    that, each demand coalesces up to ``batch_window`` other pending
    placeholders homed at the same space, and after a fill the pipeline
    keeps up to ``max_inflight`` asynchronous prefetch exchanges in
    flight, each asking for ``prefetch_depth`` budgets' worth of the
    remaining frontier.  The declared budget is ``None`` because the
    prefetch exchanges legitimately request more than the demand
    budget (SRPC300 only binds fixed declarations).
    """

    #: Prefetch requests scale the budget, so no fixed declaration.
    declared_budget = None

    def __init__(
        self,
        budget: int = DEFAULT_CLOSURE_SIZE,
        name: str = "pipelined",
        batch_window: int = 32,
        max_inflight: int = 1,
        prefetch_depth: int = 4,
        **overrides,
    ) -> None:
        super().__init__(budget, name=name, **overrides)
        for knob, value in (
            ("batch_window", batch_window),
            ("max_inflight", max_inflight),
            ("prefetch_depth", prefetch_depth),
        ):
            if value < 0:
                raise SmartRpcError(f"bad {knob} {value!r}")
        self.batch_window = batch_window
        self.max_inflight = max_inflight
        self.prefetch_depth = prefetch_depth


def _lazy(budget: Optional[int] = None, **overrides) -> TransferPolicy:
    if budget not in (None, 0):
        raise SmartRpcError(
            f"the 'lazy' policy pins closure size 0, not {budget!r}"
        )
    overrides.setdefault("allocation_strategy", ISOLATED)
    policy = FixedPolicy(0, name="lazy", **overrides)
    policy.pinned = True
    return policy


def _eager(budget: Optional[int] = None, **overrides) -> TransferPolicy:
    if budget not in (None, UNBOUNDED):
        raise SmartRpcError(
            f"the 'eager' policy pins an unbounded closure, not {budget!r}"
        )
    policy = FixedPolicy(UNBOUNDED, name="eager", **overrides)
    policy.pinned = True
    return policy


def _paper(budget: Optional[int] = None, **overrides) -> TransferPolicy:
    return FixedPolicy(
        DEFAULT_CLOSURE_SIZE if budget is None else budget,
        name="paper",
        **overrides,
    )


def _hinted(budget: Optional[int] = None, **overrides) -> TransferPolicy:
    if overrides.get("hints") is None:
        raise SmartRpcError(
            "the 'hinted' policy needs closure hints (pass closure_hints=)"
        )
    return FixedPolicy(
        DEFAULT_CLOSURE_SIZE if budget is None else budget,
        name="hinted",
        **overrides,
    )


def _graphcopy(budget: Optional[int] = None, **overrides) -> TransferPolicy:
    for knob, value in overrides.items():
        if value is not None:
            raise SmartRpcError(
                f"graphcopy policy does not take {knob!r}"
            )
    return GraphcopyPolicy()


def _adaptive(budget: Optional[int] = None, **overrides) -> TransferPolicy:
    policy = AdaptivePolicy(
        initial=DEFAULT_CLOSURE_SIZE if budget is None else budget
    )
    for knob, value in overrides.items():
        setattr(policy, knob, value)
    _check_knobs(policy.allocation_strategy, policy.closure_order)
    return policy


def _pipelined(budget: Optional[int] = None, **overrides) -> TransferPolicy:
    return PipelinedPolicy(
        DEFAULT_CLOSURE_SIZE if budget is None else budget,
        **overrides,
    )


_PRESETS = {
    "lazy": _lazy,
    "eager": _eager,
    "paper": _paper,
    "hinted": _hinted,
    "graphcopy": _graphcopy,
    "adaptive": _adaptive,
    "pipelined": _pipelined,
    "fixed": lambda budget=None, **kw: FixedPolicy(
        DEFAULT_CLOSURE_SIZE if budget is None else budget, **kw
    ),
}

POLICY_NAMES = tuple(sorted(_PRESETS))


def make_policy(
    name: str,
    closure_size: Optional[int] = None,
    allocation_strategy: Optional[str] = None,
    closure_order: Optional[str] = None,
    batch_memory_ops: Optional[bool] = None,
    closure_hints: Optional["ClosureHints"] = None,
) -> TransferPolicy:
    """Build a preset policy by name, with optional knob overrides.

    Unknown names raise :class:`ValueError` (CLI-friendly); invalid
    knob values raise :class:`SmartRpcError` here, for every preset,
    before any runtime or session sees them.
    """
    factory = _PRESETS.get(name)
    if factory is None:
        raise ValueError(
            f"unknown policy {name!r} (choose from {', '.join(POLICY_NAMES)})"
        )
    if name == "graphcopy":
        if closure_size is not None:
            raise SmartRpcError("graphcopy policy does not take a budget")
        return _graphcopy(
            allocation_strategy=allocation_strategy,
            closure_order=closure_order,
            hints=closure_hints,
            batch_memory_ops=batch_memory_ops,
        )
    kwargs: Dict[str, object] = {}
    if allocation_strategy is not None:
        kwargs["allocation_strategy"] = allocation_strategy
    if closure_order is not None:
        kwargs["closure_order"] = closure_order
    if batch_memory_ops is not None:
        kwargs["batch_memory_ops"] = batch_memory_ops
    if closure_hints is not None or name == "hinted":
        kwargs["hints"] = closure_hints
    return factory(budget=closure_size, **kwargs)
