"""Tests for the site directory, over the simulator with a fixed clock."""

import pytest

from repro.namesvc.directory import (
    DirectoryClient,
    DirectoryError,
    SiteDirectory,
)
from repro.simnet.network import Network


class FakeNow:
    """The directory's time source, advanced by hand."""

    def __init__(self, start: float = 100.0) -> None:
        self.value = start

    def __call__(self) -> float:
        return self.value


@pytest.fixture
def deployment():
    network = Network()
    now = FakeNow()
    directory = SiteDirectory(network.add_site("NS"), now=now)

    def client(site_id):
        return DirectoryClient(network.add_site(site_id), "NS")

    return now, directory, client


class TestRegistration:
    def test_lookup_returns_address_and_age(self, deployment):
        now, _directory, client = deployment
        a = client("A")
        a.register("10.0.0.1", 7001)
        now.value += 3.0
        assert a.lookup("A") == ("10.0.0.1", 7001, 3.0)

    def test_heartbeat_refreshes_age(self, deployment):
        now, _directory, client = deployment
        a = client("A")
        a.register("10.0.0.1", 7001)
        now.value += 5.0
        assert a.heartbeat() is True
        now.value += 1.0
        assert a.lookup("A")[2] == 1.0

    def test_unknown_site(self, deployment):
        _now, _directory, client = deployment
        stranger = client("Z")
        assert stranger.heartbeat() is False
        with pytest.raises(DirectoryError):
            stranger.lookup("Z")

    def test_deregister_forgets_the_site(self, deployment):
        _now, directory, client = deployment
        a = client("A")
        a.register("10.0.0.1", 7001)
        assert a.deregister() is True
        assert "A" not in directory.records
        assert a.deregister() is False
        with pytest.raises(DirectoryError):
            a.lookup("A")


class TestListing:
    def test_list_is_sorted_by_site_id(self, deployment):
        now, _directory, client = deployment
        clients = {}
        for port, site_id in enumerate(("C", "A", "B"), start=7001):
            clients[site_id] = client(site_id)
            clients[site_id].register("10.0.0.1", port)
            now.value += 1.0
        assert clients["A"].list() == {
            "A": ("10.0.0.1", 7002, 2.0),
            "B": ("10.0.0.1", 7003, 1.0),
            "C": ("10.0.0.1", 7001, 3.0),
        }
        assert list(clients["A"].list()) == ["A", "B", "C"]

    def test_liveness_ages(self, deployment):
        now, _directory, client = deployment
        a, b = client("A"), client("B")
        a.register("10.0.0.1", 7001)
        b.register("10.0.0.2", 7002)
        now.value += 4.0
        b.heartbeat()
        now.value += 0.5
        assert a.liveness_ages() == {"A": 4.5, "B": 0.5}
