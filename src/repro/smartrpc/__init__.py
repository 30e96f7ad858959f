"""Smart RPC: transparent treatment of remote pointers.

This is the paper's contribution, layered on the conventional RPC
substrate (:mod:`repro.rpc`):

* :class:`~repro.smartrpc.long_pointer.LongPointer` — the
  ``(address-space id, address, data-type specifier)`` triple that
  extends pointers across the distributed system;
* :class:`~repro.smartrpc.cache.CacheManager` — protected page areas,
  fill-on-fault, read-only remap and page-grain dirty detection; its
  pages and rows are the paper's Table 1, the data allocation table
  (which long pointer each (page, offset) of the cache area stands
  for), each row an :class:`~repro.smartrpc.alloc_table.AllocEntry`;
* :class:`~repro.smartrpc.swizzle.Swizzler` — long pointer <-> ordinary
  pointer translation;
* :class:`~repro.smartrpc.closure.ClosureWalker` — bounded breadth-first
  transitive closure for eager transfer, packed into a batch in the
  same pass (and the one packer of every batch);
* :mod:`repro.smartrpc.transfer` — the data-plane wire protocol
  (requests, batch layout and apply, write-back);
* :mod:`repro.smartrpc.remote_heap` — ``extended_malloc`` /
  ``extended_free`` with batched remote operations;
* :class:`~repro.smartrpc.runtime.SmartRpcRuntime` — the runtime tying
  everything together, including the session coherency protocol;
* :mod:`repro.smartrpc.policy` — the transfer policy, one frozen
  value: the eagerness spectrum (lazy/eager/paper/hinted/graphcopy
  presets) plus the adaptive closure budget tuned from
  shipped-vs-touched feedback;
* :mod:`repro.smartrpc.graphcopy` — rpcgen-style deep-copy marshalling
  (the ``graphcopy`` policy's encoder/decoder).
"""

from repro.smartrpc.alloc_table import AllocEntry
from repro.smartrpc.errors import (
    DanglingPointerError,
    SmartRpcError,
    SwizzleError,
)
from repro.smartrpc.long_pointer import NULL_POINTER, LongPointer
from repro.smartrpc.policy import (
    POLICY_NAMES,
    TransferPolicy,
    make_policy,
)
from repro.smartrpc.runtime import SmartRpcRuntime, SmartSessionState

__all__ = [
    "AllocEntry",
    "DanglingPointerError",
    "LongPointer",
    "NULL_POINTER",
    "POLICY_NAMES",
    "SmartRpcError",
    "SmartRpcRuntime",
    "SmartSessionState",
    "SwizzleError",
    "TransferPolicy",
    "make_policy",
]
