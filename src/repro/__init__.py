"""Smart Remote Procedure Calls: transparent treatment of remote pointers.

A from-scratch reproduction of Kono, Kato & Masuda (ICDCS 1994) as a
simulated distributed system:

* :mod:`repro.simnet` — simulated clock, cost model, network, sites;
* :mod:`repro.memory` — paged virtual memory with page protection and
  user-level fault handling (the MMU substrate);
* :mod:`repro.xdr` — the canonical data representation, type system and
  per-architecture layouts (the heterogeneity substrate);
* :mod:`repro.namesvc` — the type name server;
* :mod:`repro.rpc` — the conventional RPC substrate (stubs, sessions,
  nested calls, callbacks);
* :mod:`repro.smartrpc` — the paper's contribution: long pointers,
  pointer swizzling, the data allocation table, fault-driven caching
  with eager closures, the session coherency protocol, and
  ``extended_malloc`` / ``extended_free``;
* :mod:`repro.workloads` — the evaluation's subjects;
* :mod:`repro.bench` — the harness that regenerates every figure and
  table in the paper's evaluation.

Quickstart::

    from repro.simnet import Network
    from repro.smartrpc import SmartRpcRuntime
    from repro.xdr import SPARC32

    network = Network()
    caller = SmartRpcRuntime(network, network.add_site("A"), SPARC32)
    callee = SmartRpcRuntime(network, network.add_site("B"), SPARC32)
    # ... define an interface with PointerType parameters, bind_server
    # on the callee, and call through a ClientStub inside a session.

See ``examples/quickstart.py`` for the complete version.
"""

from repro.memory import AddressSpace, Heap, Mem, Protection
from repro.namesvc import TypeNameServer, TypeResolver
from repro.rpc import (
    CallContext,
    ClientStub,
    InterfaceDef,
    Param,
    ProcedureDef,
    RpcRuntime,
    RpcSession,
    bind_server,
)
from repro.simnet import CostModel, Network, SimClock
from repro.smartrpc import LongPointer, SmartRpcRuntime

__version__ = "1.0.0"

__all__ = [
    "AddressSpace",
    "CallContext",
    "ClientStub",
    "CostModel",
    "Heap",
    "InterfaceDef",
    "LongPointer",
    "Mem",
    "Network",
    "Param",
    "ProcedureDef",
    "Protection",
    "RpcRuntime",
    "RpcSession",
    "SimClock",
    "SmartRpcRuntime",
    "TypeNameServer",
    "TypeResolver",
    "bind_server",
    "__version__",
]
