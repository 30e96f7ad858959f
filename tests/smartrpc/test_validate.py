"""Tests for the session invariant validator."""

import pytest

from repro.memory.page import Protection
from repro.smartrpc.long_pointer import LongPointer
from repro.smartrpc.validate import (
    InvariantViolation,
    session_diagnostics,
    validate_session,
)
from repro.workloads.traversal import bind_tree_server, tree_client
from repro.workloads.trees import TREE_NODE_TYPE_ID, build_complete_tree


@pytest.fixture
def active(smart_pair):
    """A session mid-flight with cached and dirty data on B."""
    root = build_complete_tree(smart_pair.a, 15)
    bind_tree_server(smart_pair.b)
    stub = tree_client(smart_pair.a, "B")
    session = smart_pair.a.session()
    session.__enter__()
    stub.search_update(session, root, 15)
    state_b = smart_pair.b.session_state(session.session_id)
    yield smart_pair, state_b
    session.__exit__(None, None, None)


class TestCleanStates:
    def test_fresh_session_valid(self, smart_pair):
        state = smart_pair.b.ensure_smart_session("s", "A")
        checks = validate_session(smart_pair.b, state)
        assert "rows-within-owned-pages" in checks

    def test_session_with_cache_and_dirt_valid(self, active):
        pair, state = active
        checks = validate_session(pair.b, state)
        assert "protection-matches-residency" in checks
        assert "single-home-pages" in checks

    def test_all_examples_of_usage_stay_valid(self, smart_pair):
        state = smart_pair.b.ensure_smart_session("s", "A")
        state.cache.ensure_entry(
            LongPointer("A", 0x1000, TREE_NODE_TYPE_ID)
        )
        validate_session(smart_pair.b, state)


class TestViolationsDetected:
    def test_wrong_protection_detected(self, active):
        pair, state = active
        dirty_page = next(iter(state.cache.dirty_pages))
        pair.b.space.protect(dirty_page, Protection.READ)
        with pytest.raises(InvariantViolation):
            validate_session(pair.b, state)

    def test_incomplete_page_unprotected_detected(self, smart_pair):
        state = smart_pair.b.ensure_smart_session("s", "A")
        entry = state.cache.ensure_entry(
            LongPointer("A", 0x1000, TREE_NODE_TYPE_ID)
        )
        smart_pair.b.space.protect(
            entry.page_number, Protection.READ_WRITE
        )
        with pytest.raises(InvariantViolation):
            validate_session(smart_pair.b, state)

    def test_mixed_home_page_detected(self, smart_pair):
        state = smart_pair.b.ensure_smart_session("s", "A")
        entry = state.cache.ensure_entry(
            LongPointer("A", 0x1000, TREE_NODE_TYPE_ID)
        )
        # Forge a second-entry row on the same page with another home.
        from repro.smartrpc.alloc_table import AllocEntry

        forged = AllocEntry(
            pointer=LongPointer("Z", 0x2000, TREE_NODE_TYPE_ID),
            local_address=entry.local_address + entry.size,
            size=entry.size,
            page_number=entry.page_number,
            offset=entry.offset + entry.size,
        )
        state.cache.table.add(forged)
        # One list: the table's row lands in the page's entries too.
        assert forged in state.cache.page_state(entry.page_number)
        with pytest.raises(InvariantViolation):
            validate_session(smart_pair.b, state)

    def test_dead_relayed_entry_detected(self, active):
        pair, state = active
        entry = next(iter(state.cache.table))
        state.relayed_dirty.add(entry)
        state.cache.table.remove(entry)
        with pytest.raises(InvariantViolation):
            validate_session(pair.b, state)


class TestStructuredDiagnostics:
    def test_clean_session_yields_no_diagnostics(self, active):
        pair, state = active
        assert session_diagnostics(pair.b, state) == []

    def test_violation_reported_under_rule_code(self, active):
        pair, state = active
        dirty_page = next(iter(state.cache.dirty_pages))
        pair.b.space.protect(dirty_page, Protection.READ)
        findings = session_diagnostics(pair.b, state)
        assert [d.code for d in findings] == ["SRPC203"]
        assert findings[0].data["page"] == dirty_page

    def test_all_violations_collected_not_just_first(self, active):
        pair, state = active
        # Break two independent invariants at once.
        dirty_page = next(iter(state.cache.dirty_pages))
        pair.b.space.protect(dirty_page, Protection.READ)
        entry = next(iter(state.cache.table))
        state.relayed_dirty.add(entry)
        state.cache.table.remove(entry)
        findings = session_diagnostics(pair.b, state)
        assert {d.code for d in findings} >= {"SRPC203", "SRPC206"}

    def test_raised_violation_carries_diagnostics(self, active):
        pair, state = active
        dirty_page = next(iter(state.cache.dirty_pages))
        pair.b.space.protect(dirty_page, Protection.READ)
        with pytest.raises(InvariantViolation) as excinfo:
            validate_session(pair.b, state)
        assert excinfo.value.diagnostics
        assert excinfo.value.diagnostics[0].code == "SRPC203"

    def test_feeds_external_collector(self, active):
        from repro.analysis.diagnostics import DiagnosticCollector

        pair, state = active
        dirty_page = next(iter(state.cache.dirty_pages))
        pair.b.space.protect(dirty_page, Protection.READ)
        collector = DiagnosticCollector()
        returned = session_diagnostics(pair.b, state, collector)
        assert collector.diagnostics == returned

    def test_suppression_applies_to_session_rules(self, active):
        from repro.analysis.diagnostics import DiagnosticCollector

        pair, state = active
        dirty_page = next(iter(state.cache.dirty_pages))
        pair.b.space.protect(dirty_page, Protection.READ)
        collector = DiagnosticCollector(suppress=["SRPC203"])
        assert session_diagnostics(pair.b, state, collector) == []
