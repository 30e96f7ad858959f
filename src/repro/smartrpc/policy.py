"""Transfer policies: the eagerness spectrum as one value.

The paper treats eagerness as a *spectrum* — closure size 0 is the
fully lazy method, an unbounded closure is the fully eager one (§3.3,
Figure 6).  A :class:`TransferPolicy` is one frozen value holding every
transfer/eagerness decision the runtime consults: marshalling (and with
it coherency), placeholder allocation, each data request's closure
budget, order and hints, malloc/free batching, and the fetch pipeline's
and fault-tolerance layer's knobs.  Presets (:func:`make_policy`) map
onto the paper's systems:

============= ===================================================
``paper``     the proposed method, fixed 8192-byte closure
``lazy``      closure 0 + isolated placeholders (§2 lazy method)
``eager``     unbounded closure (the spectrum's eager endpoint)
``graphcopy`` rpcgen-style deep copy (§2 eager method)
``hinted``    fixed closure restricted by programmer hints (§6)
``adaptive``  per-session budget tuned from live waste feedback
``pipelined`` fixed closure + fault-coalescing/prefetching pipeline
``fixed``     the bare default value, for sweeps
============= ===================================================

The ``adaptive`` policy closes the loop the paper leaves open in §6
("it is necessary to determine the adequate size of closure"): each
session tracks how many prefetched closure bytes the program actually
touched, and the budget is halved when most prefetch was waste or
doubled when nearly all of it was used.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, FrozenSet, Optional, Tuple

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

#: Adaptive feedback: once ``ADAPTIVE_WINDOW`` prefetched bytes have
#: accrued since the last verdict, a touched share below the low water
#: mark halves the budget and one above the high water mark doubles
#: it, within ``[ADAPTIVE_MIN_BUDGET, ADAPTIVE_MAX_BUDGET]``.
ADAPTIVE_WINDOW = 2048
ADAPTIVE_LOW_WATER = 0.25
ADAPTIVE_HIGH_WATER = 0.75
ADAPTIVE_MIN_BUDGET = 256
ADAPTIVE_MAX_BUDGET = 1 << 20

_PIPELINE_COUNTS = ("batch_window", "max_inflight", "prefetch_depth")
_SECONDS = ("session_deadline", "exchange_timeout", "orphan_grace")


@dataclass(frozen=True)
class TransferPolicy:
    """Every transfer/eagerness decision of one runtime, in one value.

    Frozen: a sweep builds a new value (:func:`dataclasses.replace`)
    rather than mutating one a runtime already holds.  Per-session
    state (the adaptive budget) lives in the session, not here.
    """

    name: str = "custom"
    #: The closure budget of every data request; the adaptive policy's
    #: starting budget.
    closure_size: int = DEFAULT_CLOSURE_SIZE
    #: Tune the budget per session from shipped-vs-touched feedback.
    adaptive: bool = False
    #: ``swizzle`` (long pointers + cache) or ``graphcopy`` (deep copy).
    marshalling: str = SWIZZLE
    allocation_strategy: str = SINGLE_HOME
    closure_order: str = BREADTH_FIRST
    closure_hints: Optional["ClosureHints"] = None
    batch_memory_ops: bool = True
    #: Fetch-pipeline counts (:mod:`repro.smartrpc.pipeline`; all zero
    #: is a pass-through): extra pending roots one demand request may
    #: coalesce, asynchronous prefetch exchanges in flight, and budgets
    #: per prefetch exchange.
    batch_window: int = 0
    max_inflight: int = 0
    prefetch_depth: int = 0
    #: Fault-tolerance seconds (DESIGN.md §12; zero disables each): a
    #: session's lifetime before its next exchange aborts it, one
    #: exchange's retry cap, and the heartbeat age past which a peer
    #: counts as dead and its sessions are reaped.
    session_deadline: float = 0.0
    exchange_timeout: float = 0.0
    orphan_grace: float = 0.0

    def __post_init__(self) -> None:
        if not 0 <= self.closure_size <= UNBOUNDED:
            raise SmartRpcError(
                f"closure size {self.closure_size!r} outside "
                f"[0, {UNBOUNDED}] (the uint32 wire slot)"
            )
        if self.marshalling not in (SWIZZLE, GRAPHCOPY):
            raise SmartRpcError(f"unknown marshalling {self.marshalling!r}")
        if self.allocation_strategy not in STRATEGIES:
            raise SmartRpcError(
                f"unknown allocation strategy {self.allocation_strategy!r}"
            )
        if self.closure_order not in (BREADTH_FIRST, DEPTH_FIRST):
            raise SmartRpcError(
                f"unknown closure order {self.closure_order!r}"
            )
        for knob in _PIPELINE_COUNTS + _SECONDS:
            value = getattr(self, knob)
            if not value >= 0:
                raise SmartRpcError(f"bad {knob} {value!r}")

    @property
    def coherency(self) -> bool:
        """Whether the session coherency protocol runs (piggybacks,
        write-back, invalidation).  Graphcopy has private copies and
        therefore no coherency to maintain."""
        return self.marshalling == SWIZZLE

    @property
    def declared_budget(self) -> Optional[int]:
        """The budget every request uses, or ``None`` when it varies.

        Adaptive budgets vary per request, pipeline prefetches scale
        the budget, and graphcopy has no data plane.  Trace conformance
        (SRPC300) checks recorded decisions against this declaration.
        """
        if (
            self.adaptive
            or self.marshalling == GRAPHCOPY
            or self.batch_window
            or self.max_inflight
            or self.prefetch_depth
        ):
            return None
        return self.closure_size

    def request_budget(self, state: "SmartSessionState") -> int:
        """The closure budget for one data request in ``state``."""
        if self.marshalling == GRAPHCOPY:
            raise SmartRpcError(
                "graphcopy marshalling has no data plane to budget"
            )
        if not self.adaptive:
            return self.closure_size
        data = state.policy_data
        budget = data.get("budget", self.closure_size)
        ledger = state.transfer_stats
        shipped = ledger.prefetch_bytes_shipped - data.get("mark_shipped", 0)
        if shipped >= ADAPTIVE_WINDOW:
            touched = (
                ledger.prefetch_bytes_touched - data.get("mark_touched", 0)
            )
            ratio = touched / shipped
            if ratio < ADAPTIVE_LOW_WATER:
                budget = max(ADAPTIVE_MIN_BUDGET, budget // 2)
            elif ratio > ADAPTIVE_HIGH_WATER:
                budget = min(ADAPTIVE_MAX_BUDGET, budget * 2)
            data["mark_shipped"] = ledger.prefetch_bytes_shipped
            data["mark_touched"] = ledger.prefetch_bytes_touched
        data["budget"] = budget
        return budget

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


_CLOSURE_SIZE = frozenset({"closure_size"})
_DATA_PLANE = frozenset({
    "closure_size", "adaptive", "marshalling", "allocation_strategy",
    "closure_order", "closure_hints", "batch_memory_ops", *_PIPELINE_COUNTS,
})

#: Preset name -> (its field values, the fields it pins).  A preset
#: that *is* its budget (lazy, eager) pins it: changing the budget
#: would silently change which system is being measured.  Graphcopy has
#: no data plane, so it pins every data-plane field.
_PRESETS: Dict[str, Tuple[Dict[str, object], FrozenSet[str]]] = {
    "paper": ({}, frozenset()),
    "fixed": ({}, frozenset()),
    "hinted": ({}, frozenset()),
    "lazy": ({"closure_size": 0, "allocation_strategy": ISOLATED},
             _CLOSURE_SIZE),
    "eager": ({"closure_size": UNBOUNDED}, _CLOSURE_SIZE),
    "graphcopy": ({"marshalling": GRAPHCOPY}, _DATA_PLANE),
    "adaptive": ({"adaptive": True}, frozenset()),
    "pipelined": (
        {"batch_window": 32, "max_inflight": 1, "prefetch_depth": 4},
        frozenset(),
    ),
}

POLICY_NAMES = tuple(sorted(_PRESETS))


def pinned_fields(name: str) -> FrozenSet[str]:
    """The fields the preset ``name`` pins (:func:`make_policy` refuses
    them); empty for a name that is no preset."""
    return _PRESETS[name][1] if name in _PRESETS else frozenset()


def make_policy(name: str, **fields) -> TransferPolicy:
    """Build a preset policy by name, with optional field overrides.

    Unknown names raise :class:`ValueError` (CLI-friendly); a field the
    preset pins, ``hinted`` without hints, or an invalid value raises
    :class:`SmartRpcError` here, before any runtime or session sees it.
    """
    if name not in _PRESETS:
        raise ValueError(
            f"unknown policy {name!r} (choose from {', '.join(POLICY_NAMES)})"
        )
    values, pinned = _PRESETS[name]
    for knob in fields:
        if knob in pinned:
            raise SmartRpcError(f"the {name!r} policy pins {knob}")
    if name == "hinted" and fields.get("closure_hints") is None:
        raise SmartRpcError(
            "the 'hinted' policy needs closure hints (pass closure_hints=)"
        )
    return TransferPolicy(name=name, **{**values, **fields})
