"""Shared fixtures for the test suite."""

from __future__ import annotations

import pytest

from repro.namesvc.client import TypeResolver
from repro.namesvc.server import TypeNameServer
from repro.simnet.network import Network
from repro.smartrpc.runtime import SmartRpcRuntime
from repro.workloads.hashtable import register_hash_types
from repro.workloads.linked_list import register_list_types
from repro.workloads.trees import register_tree_types
from repro.xdr.arch import SPARC32, X86_64
from repro.xdr.registry import TypeRegistry


@pytest.fixture
def network() -> Network:
    """A fresh simulated network with default costs."""
    return Network()


class SmartPair:
    """Two smart runtimes (A holds data, B serves procedures) plus NS."""

    def __init__(self, network: Network, policy="paper") -> None:
        self.network = network
        self.name_server = TypeNameServer(
            network.add_site("NS"), TypeRegistry()
        )
        self.a = self._runtime("A", SPARC32, policy)
        self.b = self._runtime("B", X86_64, policy)

    def _runtime(self, site_id, arch, policy) -> SmartRpcRuntime:
        site = self.network.add_site(site_id)
        runtime = SmartRpcRuntime(
            self.network,
            site,
            arch,
            resolver=TypeResolver(site, "NS"),
            policy=policy,
        )
        register_tree_types(runtime)
        register_list_types(runtime)
        register_hash_types(runtime)
        return runtime

    def add_runtime(self, site_id: str, arch=SPARC32) -> SmartRpcRuntime:
        """Attach one more smart runtime to the same network."""
        site = self.network.add_site(site_id)
        runtime = SmartRpcRuntime(
            self.network, site, arch, resolver=TypeResolver(site, "NS")
        )
        register_tree_types(runtime)
        register_list_types(runtime)
        register_hash_types(runtime)
        return runtime


@pytest.fixture
def smart_pair(network: Network) -> SmartPair:
    """Two heterogeneous smart runtimes on one network."""
    return SmartPair(network)
