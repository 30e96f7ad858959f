"""Tests for the session invariant validator."""

import pytest

from repro.memory.page import Protection
from repro.smartrpc.alloc_table import alloc_entry
from repro.smartrpc.cache import STRATEGIES
from repro.smartrpc.long_pointer import LongPointer
from repro.smartrpc.validate import session_diagnostics
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
        assert session_diagnostics(smart_pair.b, state) == []

    def test_session_with_cache_and_dirt_valid(self, active):
        pair, state = active
        assert state.cache.dirty_pages
        assert session_diagnostics(pair.b, state) == []

    def test_all_examples_of_usage_stay_valid(self, smart_pair):
        state = smart_pair.b.ensure_smart_session("s", "A")
        state.cache.ensure_entry(
            LongPointer("A", 0x1000, TREE_NODE_TYPE_ID)
        )
        assert session_diagnostics(smart_pair.b, state) == []


def assert_violation(runtime, state, code):
    """The one rule that fired is ``code``."""
    assert [d.code for d in session_diagnostics(runtime, state)] == [code]


def cold_entry(runtime):
    """A fresh session on ``runtime`` holding one unfilled placeholder."""
    state = runtime.ensure_smart_session("s", "A")
    entry = state.cache.ensure_entry(
        LongPointer("A", 0x1000, TREE_NODE_TYPE_ID)
    )
    return state, entry


def forge_other_home(state, entry):
    """Add a row homed at another space right after ``entry``."""
    forged = alloc_entry(
        pointer=LongPointer("Z", 0x2000, TREE_NODE_TYPE_ID),
        local_address=entry.local_address + entry.size,
        size=entry.size,
        page_number=entry.page_number,
        offset=entry.offset + entry.size,
    )
    state.cache.table.add(forged)
    return forged


class TestViolationsDetected:
    def test_row_on_unowned_page_detected(self, smart_pair):
        state, entry = cold_entry(smart_pair.b)
        page_size = smart_pair.b.space.page_size
        stray = max(state.cache.pages) + 100
        forged = alloc_entry(
            pointer=LongPointer("A", 0x2000, TREE_NODE_TYPE_ID),
            local_address=stray * page_size,
            size=entry.size,
            page_number=stray,
            offset=0,
        )
        # Behind the table's back: the row exists, no page was mapped.
        state.cache.table._by_pointer[forged.pointer] = forged
        assert_violation(smart_pair.b, state, "SRPC201")

    def test_row_missing_from_its_page_detected(self, smart_pair):
        state, entry = cold_entry(smart_pair.b)
        state.cache.page_state(entry.page_number).remove(entry)
        assert_violation(smart_pair.b, state, "SRPC202")

    def test_overlapping_placeholders_detected(self, smart_pair):
        state, entry = cold_entry(smart_pair.b)
        forged = alloc_entry(
            pointer=LongPointer("A", 0x2000, TREE_NODE_TYPE_ID),
            local_address=entry.local_address + 1,
            size=entry.size,
            page_number=entry.page_number,
            offset=entry.offset + 1,
        )
        state.cache.table.add(forged)
        assert_violation(smart_pair.b, state, "SRPC204")

    def test_wrong_protection_detected(self, active):
        pair, state = active
        dirty_page = next(iter(state.cache.dirty_pages))
        pair.b.space.protect(dirty_page, Protection.READ_WRITE)
        assert_violation(pair.b, state, "SRPC203")

    def test_incomplete_page_unprotected_detected(self, smart_pair):
        state, entry = cold_entry(smart_pair.b)
        smart_pair.b.space.protect(
            entry.page_number, Protection.READ_WRITE
        )
        assert_violation(smart_pair.b, state, "SRPC203")

    def test_mixed_home_page_detected(self, smart_pair):
        state, entry = cold_entry(smart_pair.b)
        forged = forge_other_home(state, entry)
        # One list: the table's row lands in the page's entries too.
        assert forged in state.cache.page_state(entry.page_number)
        assert_violation(smart_pair.b, state, "SRPC205")

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_every_strategy_keeps_pages_single_home(
        self, smart_pair, strategy
    ):
        state, entry = cold_entry(smart_pair.b)
        state.cache.strategy = strategy
        forge_other_home(state, entry)
        assert_violation(smart_pair.b, state, "SRPC205")

    def test_dead_relayed_entry_detected(self, active):
        pair, state = active
        entry = next(iter(state.cache.table))
        state.relayed_dirty[entry] = state.epoch
        state.cache.table.remove(entry)
        assert_violation(pair.b, state, "SRPC206")


class TestStructuredDiagnostics:
    def test_clean_session_yields_no_diagnostics(self, active):
        pair, state = active
        assert session_diagnostics(pair.b, state) == []

    def test_violation_reported_under_rule_code(self, active):
        pair, state = active
        dirty_page = next(iter(state.cache.dirty_pages))
        pair.b.space.protect(dirty_page, Protection.READ_WRITE)
        findings = session_diagnostics(pair.b, state)
        assert [d.code for d in findings] == ["SRPC203"]
        assert findings[0].data["page"] == dirty_page

    def test_all_violations_collected_not_just_first(self, active):
        pair, state = active
        # Break two independent invariants at once.
        dirty_page = next(iter(state.cache.dirty_pages))
        pair.b.space.protect(dirty_page, Protection.READ_WRITE)
        entry = next(iter(state.cache.table))
        state.relayed_dirty[entry] = state.epoch
        state.cache.table.remove(entry)
        findings = session_diagnostics(pair.b, state)
        assert {d.code for d in findings} >= {"SRPC203", "SRPC206"}

    def test_feeds_external_collector(self, active):
        from repro.analysis.diagnostics import DiagnosticCollector

        pair, state = active
        dirty_page = next(iter(state.cache.dirty_pages))
        pair.b.space.protect(dirty_page, Protection.READ_WRITE)
        collector = DiagnosticCollector()
        returned = session_diagnostics(pair.b, state, collector)
        assert collector.diagnostics == returned

    def test_suppression_applies_to_session_rules(self, active):
        from repro.analysis.diagnostics import DiagnosticCollector

        pair, state = active
        dirty_page = next(iter(state.cache.dirty_pages))
        pair.b.space.protect(dirty_page, Protection.READ_WRITE)
        collector = DiagnosticCollector(suppress=["SRPC203"])
        assert session_diagnostics(pair.b, state, collector) == []
