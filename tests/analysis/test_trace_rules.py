"""Trace conformance tests over the recorded fixture traces.

``fixtures/traces/ok/tree_session.trace`` is a real recorded session
(see ``fixtures/record_traces.py``); each bad trace is that session
with one protocol obligation removed, so exactly one rule fires.
"""

from pathlib import Path

import pytest

from repro.analysis.diagnostics import DiagnosticCollector
from repro.analysis.trace_rules import (
    PROTOCOL_CATEGORIES,
    analyze_trace_file,
    check_events,
)
from repro.simnet.tracefmt import (
    TraceFormatError,
    dump_trace,
    load_trace,
    parse_trace,
    save_trace,
)

TRACES = Path(__file__).parent / "fixtures" / "traces"


def lint_trace(path):
    collector = DiagnosticCollector()
    analyze_trace_file(path, collector)
    return collector


def codes(collector):
    return sorted({d.code for d in collector})


class TestRoundTrip:
    def test_saved_trace_loads_identically(self, tmp_path):
        events = load_trace(TRACES / "ok" / "tree_session.trace")
        copy = tmp_path / "copy.trace"
        save_trace(events, copy)
        assert load_trace(copy) == events

    def test_dump_parse_round_trip(self):
        events = load_trace(TRACES / "ok" / "tree_session.trace")
        assert parse_trace(dump_trace(events)) == events

    def test_malformed_line_rejected_with_line_number(self):
        with pytest.raises(TraceFormatError, match="line 2"):
            parse_trace('{"t": 0, "category": "x", "detail": "d"}\nnope')


class TestRecordedSession:
    def test_good_trace_is_clean(self):
        assert codes(lint_trace(TRACES / "ok" / "tree_session.trace")) == []

    def test_good_trace_covers_every_protocol_category(self):
        events = load_trace(TRACES / "ok" / "tree_session.trace")
        seen = {event.category for event in events}
        assert {
            "transfer", "fault", "write",
            "session-end", "write-back", "invalidate",
            "policy", "policy-decision",
        } <= seen


class TestRecordedCrashSession:
    """``ok/crash_session.trace`` (see ``record_crash_traces.py``): a
    clean two-phase write-back session followed by one a peer crash
    aborts — the fault-tolerance obligations all discharge."""

    def test_good_crash_trace_is_clean(self):
        assert codes(lint_trace(TRACES / "ok" / "crash_session.trace")) == []

    def test_crash_trace_covers_fault_tolerance_categories(self):
        events = load_trace(TRACES / "ok" / "crash_session.trace")
        seen = {event.category for event in events}
        assert {
            "session-abort", "orphan-reaped", "writeback-phase",
        } <= seen
        phases = {
            (event.data or {}).get("phase")
            for event in events
            if event.category == "writeback-phase"
        }
        assert phases == {"prepare", "commit"}


class TestRecordedShmSession:
    """``ok/shm_session.trace`` (see ``record_shm_trace.py``): two
    bulk sessions over the shm carrier, each ending in a two-phase
    write-back of every node."""

    def test_good_shm_trace_is_clean(self):
        assert codes(lint_trace(TRACES / "ok" / "shm_session.trace")) == []

    def test_shm_trace_records_both_writeback_phases(self):
        events = load_trace(TRACES / "ok" / "shm_session.trace")
        phases = [
            (event.data or {}).get("phase")
            for event in events
            if event.category == "writeback-phase"
        ]
        assert phases == ["prepare", "commit"] * 2
        # Every category the trace holds is one the rules interpret
        # (or a plain message record): nothing carrier-specific.
        categories = {event.category for event in events} - {"message"}
        assert categories <= set(PROTOCOL_CATEGORIES)

    def test_shm_trace_passes_the_sanitizer(self):
        # analyze_trace_file runs the SRPC4xx rules too.
        found = lint_trace(TRACES / "ok" / "shm_session.trace")
        assert list(found) == [], [d.render() for d in found]


@pytest.mark.parametrize(
    "trace, code",
    [
        ("empty_piggyback.trace", "SRPC101"),
        ("no_write_back.trace", "SRPC102"),
        ("no_invalidate.trace", "SRPC103"),
        ("no_write_fault.trace", "SRPC104"),
        ("no_session_end.trace", "SRPC105"),
        ("malformed.trace", "SRPC100"),
        ("budget_mismatch.trace", "SRPC300"),
        ("mislabelled_lazy.trace", "SRPC301"),
        ("mislabelled_graphcopy.trace", "SRPC302"),
        ("batch_uncovered_fault.trace", "SRPC310"),
        ("batch_overlapping_prefetch.trace", "SRPC310"),
        ("batch_absorb_unissued.trace", "SRPC310"),
        ("abort_without_reap.trace", "SRPC320"),
        ("commit_without_prepare.trace", "SRPC321"),
        ("activity_after_reap.trace", "SRPC322"),
    ],
)
class TestMutatedTraces:
    def test_each_mutant_trips_exactly_its_rule(self, trace, code):
        assert codes(lint_trace(TRACES / "bad" / trace)) == [code]


class TestDroppedInvalidation:
    """The ISSUE's smoke test: removing the invalidation record from a
    recorded session must produce SRPC errors."""

    def test_dropping_invalidation_is_an_error(self):
        events = [
            event
            for event in load_trace(TRACES / "ok" / "tree_session.trace")
            if event.category != "invalidate"
        ]
        collector = DiagnosticCollector()
        check_events(events, collector, filename="mutated.trace")
        assert collector.has_errors
        assert codes(collector) == ["SRPC103"]

    def test_diagnostic_points_at_session_end_line(self):
        events = load_trace(TRACES / "ok" / "tree_session.trace")
        end_index = next(
            i
            for i, event in enumerate(events)
            if event.category == "session-end"
        )
        mutated = [e for e in events if e.category != "invalidate"]
        collector = DiagnosticCollector()
        check_events(mutated, collector, filename="mutated.trace")
        finding = collector.diagnostics[0]
        # The session-end keeps its index: invalidates only follow it.
        assert finding.location.line == end_index + 1
        assert finding.location.file == "mutated.trace"


class TestPipelineConformance:
    """SRPC310: data-batch records against the pipeline discipline."""

    def test_recorded_pipelined_session_is_clean(self):
        trace = TRACES / "ok" / "pipelined_session.trace"
        assert codes(lint_trace(trace)) == []

    def test_recorded_session_exercises_every_batch_kind(self):
        events = load_trace(TRACES / "ok" / "pipelined_session.trace")
        kinds = {
            (event.data or {}).get("kind")
            for event in events
            if event.category == "data-batch"
        }
        assert {"demand", "prefetch", "absorb"} <= kinds

    def test_uncovered_fault_names_the_page(self):
        collector = lint_trace(
            TRACES / "bad" / "batch_uncovered_fault.trace"
        )
        assert collector.has_errors
        finding = collector.diagnostics[0]
        assert "9999" in finding.message

    def test_overlap_names_the_contested_pages(self):
        collector = lint_trace(
            TRACES / "bad" / "batch_overlapping_prefetch.trace"
        )
        assert collector.has_errors
        assert "already covered" in collector.diagnostics[0].message


class TestPolicyConformance:
    """SRPC3xx: recorded decisions against the session's declaration."""

    def _events(self):
        return load_trace(TRACES / "ok" / "tree_session.trace")

    def test_undeclared_trace_skips_policy_rules(self):
        # A pre-policy (or conventional) trace has decisions stripped of
        # their declarations; the SRPC3xx rules make no claim about it.
        events = [e for e in self._events() if e.category != "policy"]
        collector = DiagnosticCollector()
        check_events(events, collector, filename="legacy.trace")
        assert codes(collector) == []

    def test_mislabelled_lazy_trace_is_caught(self):
        # The ISSUE's smoke test: an eager run whose trace declares the
        # lazy policy is flagged — the prefetched bytes betray it.
        collector = lint_trace(TRACES / "bad" / "mislabelled_lazy.trace")
        assert collector.has_errors
        assert codes(collector) == ["SRPC301"]
        finding = collector.diagnostics[0]
        assert "prefetched" in finding.message

    def test_budget_mismatch_names_both_budgets(self):
        collector = lint_trace(TRACES / "bad" / "budget_mismatch.trace")
        finding = collector.diagnostics[0]
        assert finding.code == "SRPC300"
        assert "8192" in finding.message

    def test_graphcopy_declaration_forbids_data_plane(self):
        collector = lint_trace(
            TRACES / "bad" / "mislabelled_graphcopy.trace"
        )
        assert collector.has_errors
        assert set(codes(collector)) == {"SRPC302"}


class TestConventionalTraces:
    def test_no_piggyback_expected_means_no_srpc101(self):
        events = parse_trace(
            '{"t": 0.0, "category": "transfer", "detail": "call", '
            '"data": {"dir": "call", "session": "s", "src": "A", '
            '"dst": "B", "piggyback": null}}\n'
            '{"t": 0.1, "category": "session-end", "detail": "end", '
            '"data": {"session": "s", "participants": [], '
            '"dirty_homes": {}}}\n'
        )
        collector = DiagnosticCollector()
        check_events(events, collector, filename="conv.trace")
        assert codes(collector) == []

    def test_unreadable_file_reports_srpc100(self, tmp_path):
        collector = DiagnosticCollector()
        analyze_trace_file(tmp_path / "absent.trace", collector)
        assert codes(collector) == ["SRPC100"]

    def test_binary_garbage_reports_srpc100(self, tmp_path):
        garbage = tmp_path / "garbage.trace"
        garbage.write_bytes(bytes([0xFC, 0x00, 0xFF, 0x80]) * 16)
        collector = DiagnosticCollector()
        assert analyze_trace_file(garbage, collector) is None
        assert codes(collector) == ["SRPC100"]
