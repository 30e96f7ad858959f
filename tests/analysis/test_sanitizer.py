"""Tests for the coherency sanitizer (SRPC4xx happens-before rules)."""

import dataclasses
import json
from pathlib import Path

import pytest

from repro.analysis.cli import main
from repro.analysis.diagnostics import DiagnosticCollector
from repro.analysis.sanitizer import check_events
from repro.simnet.stats import TraceEvent
from repro.simnet.tracefmt import (
    SESSION_CATEGORIES,
    TraceFormatError,
    load_trace,
)
from tests.analysis.test_cli import BAD_TRACE_CODES

FIXTURES = Path(__file__).parent / "fixtures"
RACES_OK = FIXTURES / "races" / "ok"
RACES_BAD = FIXTURES / "races" / "bad"
TRACES_OK = FIXTURES / "traces" / "ok"

#: Every race mutant and the one rule it must raise.
MUTANT_CODES = {
    "concurrent_write.trace": "SRPC400",
    "stale_read.trace": "SRPC401",
    "early_invalidate.trace": "SRPC402",
    "use_after_invalidate.trace": "SRPC403",
    "lost_commit.trace": "SRPC404",
    "late_write.trace": "SRPC404",
    "deadlock_cycle.trace": "SRPC405",
}


def sanitize(events):
    collector = DiagnosticCollector()
    check_events(events, collector)
    return collector


def codes(collector):
    return {d.code for d in collector}


class TestRecordedFixtures:
    def test_good_race_trace_is_clean(self):
        events = load_trace(RACES_OK / "race_session.trace")
        assert codes(sanitize(events)) == set()

    def test_every_recorded_good_trace_is_clean(self):
        for path in sorted(TRACES_OK.glob("*.trace")):
            events = load_trace(path)
            assert codes(sanitize(events)) == set(), path.name

    @pytest.mark.parametrize(
        "name,expected", sorted(MUTANT_CODES.items())
    )
    def test_every_mutant_raises_exactly_its_rule(self, name, expected):
        events = load_trace(RACES_BAD / name)
        assert codes(sanitize(events)) == {expected}

    def test_every_mutant_fixture_is_covered(self):
        recorded = {p.name for p in RACES_BAD.glob("*.trace")}
        assert recorded == set(MUTANT_CODES)

    def test_all_srpc4xx_rules_have_a_mutant(self):
        covered = set(MUTANT_CODES.values())
        assert covered == {
            "SRPC400", "SRPC401", "SRPC402",
            "SRPC403", "SRPC404", "SRPC405",
        }


class TestUnstampedTraces:
    """Causal order comes only from recorded ``vc`` stamps."""

    def test_stamp_stripped_trace_is_rejected(self):
        events = load_trace(RACES_OK / "race_session.trace")
        first = next(
            index
            for index, event in enumerate(events)
            if event.category in SESSION_CATEGORIES
        )
        stripped = [
            dataclasses.replace(
                event,
                data={
                    key: value
                    for key, value in event.data.items()
                    if key not in ("vc", "seq")
                },
            )
            if event.data is not None
            else event
            for event in events
        ]
        with pytest.raises(TraceFormatError, match=f"line {first + 1}:"):
            check_events(stripped, DiagnosticCollector())


class TestCrashTraces:
    """Crash semantics must not read as races."""

    def test_crash_trace_is_clean(self):
        events = load_trace(TRACES_OK / "crash_session.trace")
        assert codes(sanitize(events)) == set()

    def test_deadlock_skipped_when_session_aborted(self):
        events = load_trace(RACES_BAD / "deadlock_cycle.trace")
        abort = TraceEvent(99.0, "session-abort", "boom", {
            "session": "other", "space": "A",
            "site": "A", "seq": 950, "vc": {"A": 999},
        })
        assert "SRPC405" not in codes(sanitize(events + [abort]))


class TestCli:
    """The sanitizer through the one CLI entry point, which runs it
    after the conformance rules over the same parse."""

    def run(self, capsys, *argv):
        status = main([str(a) for a in argv])
        captured = capsys.readouterr()
        return status, captured.out, captured.err

    def test_race_clean_trace_exits_zero(self, capsys):
        status, out, _ = self.run(capsys, RACES_OK / "race_session.trace")
        assert status == 0
        assert "0 error(s)" in out

    @pytest.mark.parametrize(
        "name,expected", sorted(MUTANT_CODES.items())
    )
    def test_race_mutant_exits_one(self, capsys, name, expected):
        status, out, _ = self.run(capsys, "--json", RACES_BAD / name)
        assert status == 1
        found = {
            d["code"] for d in json.loads(out)["diagnostics"]
        }
        assert expected in found
        assert found == BAD_TRACE_CODES[name]

    def test_race_directory_scan(self, capsys):
        status, _, _ = self.run(capsys, RACES_OK)
        assert status == 0

    def test_race_suppress(self, capsys):
        status, _, _ = self.run(
            capsys,
            "--suppress",
            "SRPC401",
            RACES_BAD / "stale_read.trace",
        )
        assert status == 0

    def test_race_unreadable_trace_reports_srpc100(self, capsys, tmp_path):
        bogus = tmp_path / "bogus.trace"
        bogus.write_text("{not json}\n", encoding="utf-8")
        status, out, _ = self.run(capsys, "--json", bogus)
        assert status == 1
        assert {
            d["code"] for d in json.loads(out)["diagnostics"]
        } == {"SRPC100"}

    def test_race_missing_file_exits_two(self, capsys):
        status, _, err = self.run(capsys, RACES_OK / "absent.trace")
        assert status == 2
        assert "no such file" in err

    def test_race_no_paths_is_usage_error(self, capsys):
        # ``race`` is no subcommand: it is a path, and there is none.
        status, _, err = self.run(capsys, "race")
        assert status == 2
        assert "no such file: race" in err

    def test_plain_self_check_covers_sanitizer(self, capsys):
        # The repository-wide self-check must include the race
        # fixtures' good traces (and stay clean on them).
        status, out, _ = self.run(
            capsys, "--self-check", "--root", Path(__file__).parents[2]
        )
        assert status == 0
        assert "skipped missing" not in out
