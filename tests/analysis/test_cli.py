"""End-to-end tests for the ``python -m repro.analysis`` CLI."""

import dataclasses
import json
import sys
from pathlib import Path

import pytest

from repro.analysis.cli import SELF_CHECK_PATHS, main
from repro.simnet.tracefmt import load_trace, save_trace

FIXTURES = Path(__file__).parent / "fixtures"
REPO_ROOT = Path(__file__).parents[2]

#: Every conformance and race mutant, and the codes it raises when
#: both rule families check it.
BAD_TRACES = sorted(
    (FIXTURES / "traces" / "bad").glob("*.trace")
) + sorted((FIXTURES / "races" / "bad").glob("*.trace"))
BAD_TRACE_CODES = {
    "abort_without_reap.trace": {"SRPC320"},
    "activity_after_reap.trace": {"SRPC322"},
    "batch_absorb_unissued.trace": {"SRPC310"},
    "batch_overlapping_prefetch.trace": {"SRPC310"},
    "batch_uncovered_fault.trace": {"SRPC310"},
    "budget_mismatch.trace": {"SRPC300"},
    "commit_without_prepare.trace": {"SRPC321"},
    "empty_piggyback.trace": {"SRPC101"},
    "malformed.trace": {"SRPC100"},
    "mislabelled_graphcopy.trace": {"SRPC302"},
    "mislabelled_lazy.trace": {"SRPC301"},
    "no_invalidate.trace": {"SRPC103"},
    "no_session_end.trace": {"SRPC105"},
    "no_write_back.trace": {"SRPC102"},
    "no_write_fault.trace": {"SRPC104"},
    # The racing second write also lands without a write fault of its
    # own, so the conformance rules see it too.
    "concurrent_write.trace": {"SRPC104", "SRPC400"},
    "deadlock_cycle.trace": {"SRPC405"},
    "early_invalidate.trace": {"SRPC402"},
    "late_write.trace": {"SRPC404"},
    "lost_commit.trace": {"SRPC404"},
    "stale_read.trace": {"SRPC401"},
    "use_after_invalidate.trace": {"SRPC403"},
}


def run(capsys, *argv):
    status = main([str(a) for a in argv])
    captured = capsys.readouterr()
    return status, captured.out, captured.err


class TestExitStatus:
    def test_clean_file_exits_zero(self, capsys):
        status, out, _ = run(capsys, FIXTURES / "idl" / "srpc001_ok.x")
        assert status == 0
        assert "0 error(s)" in out

    def test_error_exits_one(self, capsys):
        status, out, _ = run(capsys, FIXTURES / "idl" / "srpc001_bad.x")
        assert status == 1
        assert "SRPC001" in out

    def test_warning_also_fails_the_lint(self, capsys):
        status, out, _ = run(capsys, FIXTURES / "idl" / "srpc003_bad.x")
        assert status == 1
        assert "SRPC003" in out

    @pytest.mark.parametrize(
        "fixture",
        [
            "srpc001_bad.x", "srpc003_bad.x", "srpc005_bad.x",
            "srpc006_bad.x", "srpc007_bad.x",
        ],
    )
    def test_every_bad_idl_fixture_exits_nonzero(self, capsys, fixture):
        status, out, _ = run(
            capsys, "--json", FIXTURES / "idl" / fixture
        )
        assert status == 1
        expected = fixture[:7].upper()
        assert expected in {
            d["code"] for d in json.loads(out)["diagnostics"]
        }

    @pytest.mark.parametrize(
        "trace", BAD_TRACES, ids=[path.name for path in BAD_TRACES]
    )
    def test_every_bad_trace_fixture_exits_nonzero(self, capsys, trace):
        status, out, _ = run(capsys, "--json", trace)
        assert status == 1
        found = {d["code"] for d in json.loads(out)["diagnostics"]}
        assert found == BAD_TRACE_CODES[trace.name]

    def test_every_bad_trace_fixture_is_pinned(self):
        assert {path.name for path in BAD_TRACES} == set(BAD_TRACE_CODES)

    def test_missing_file_exits_two(self, capsys):
        status, _, err = run(capsys, FIXTURES / "idl" / "absent.x")
        assert status == 2
        assert "no such file" in err

    def test_no_paths_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main([])
        assert excinfo.value.code == 2

    def test_race_subcommand_is_gone(self, capsys):
        trace = FIXTURES / "races" / "ok" / "race_session.trace"
        status, _, err = run(capsys, "race", trace)
        assert status == 2
        assert "no such file: race" in err


class TestDispatch:
    def test_trace_files_route_to_conformance_rules(self, capsys):
        status, out, _ = run(
            capsys, FIXTURES / "traces" / "bad" / "no_invalidate.trace"
        )
        assert status == 1
        assert "SRPC103" in out

    def test_mixed_inputs_lint_together(self, capsys):
        status, out, _ = run(
            capsys,
            FIXTURES / "idl" / "srpc001_bad.x",
            FIXTURES / "traces" / "bad" / "no_invalidate.trace",
        )
        assert status == 1
        assert "SRPC001" in out and "SRPC103" in out

    def test_directory_scanned_recursively(self, capsys):
        status, out, _ = run(capsys, FIXTURES / "traces" / "bad")
        assert status == 1
        for code in (
            "SRPC100", "SRPC101", "SRPC102", "SRPC103", "SRPC104",
        ):
            assert code in out

    def test_stamp_stripped_trace_is_one_srpc100(self, capsys, tmp_path):
        # A revision-1 trace (no ``vc`` stamps) has no causal order to
        # judge, so it is rejected outright, not passed as clean.
        events = load_trace(FIXTURES / "traces" / "ok" / "tree_session.trace")
        stripped = tmp_path / "stripped.trace"
        save_trace(
            [
                dataclasses.replace(
                    event,
                    data={k: v for k, v in event.data.items() if k != "vc"},
                )
                if event.data is not None
                else event
                for event in events
            ],
            stripped,
            validate=False,
        )
        status, out, _ = run(capsys, "--json", stripped)
        assert status == 1
        assert [d["code"] for d in json.loads(out)["diagnostics"]] == [
            "SRPC100"
        ]


class TestFlags:
    def test_json_report_is_machine_readable(self, capsys):
        _, out, _ = run(
            capsys, "--json", FIXTURES / "idl" / "srpc003_bad.x"
        )
        report = json.loads(out)
        assert report["summary"]["warning"] == 1
        assert report["diagnostics"][0]["code"] == "SRPC003"

    def test_suppress_drops_rule_and_fixes_exit(self, capsys):
        status, out, _ = run(
            capsys,
            "--suppress",
            "SRPC001",
            FIXTURES / "idl" / "srpc001_bad.x",
        )
        assert status == 0
        assert "SRPC001" not in out

    def test_closure_size_reconfigures_srpc005(self, capsys):
        status, out, _ = run(
            capsys,
            "--closure-size",
            "64",
            FIXTURES / "idl" / "srpc005_ok.x",
        )
        assert status == 1
        assert "SRPC005" in out


class TestSelfCheck:
    def test_self_check_passes_on_this_repo(self, capsys):
        status, out, _ = run(capsys, "--self-check", "--root", REPO_ROOT)
        assert status == 0
        assert "self-check" in out

    def test_self_check_parses_each_trace_once(self, capsys, monkeypatch):
        parsed = []

        def counting_load_trace(path):
            parsed.append(Path(path).name)
            return load_trace(path)

        # Wherever ``repro`` holds the loader, count through it.
        for module in list(sys.modules.values()):
            if getattr(module, "__name__", "").startswith("repro.") and (
                getattr(module, "load_trace", None) is load_trace
            ):
                monkeypatch.setattr(module, "load_trace", counting_load_trace)
        status, _, _ = run(capsys, "--self-check", "--root", REPO_ROOT)
        assert status == 0
        recorded = [
            path.name
            for relative in SELF_CHECK_PATHS
            for path in (REPO_ROOT / relative).rglob("*.trace")
        ]
        assert recorded
        assert sorted(parsed) == sorted(recorded)

    def test_self_check_rejects_positional_paths(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--self-check", "whatever.x"])
        assert excinfo.value.code == 2

    def test_self_check_fails_on_dirty_root(self, tmp_path, capsys):
        bad = tmp_path / "examples" / "interfaces"
        bad.mkdir(parents=True)
        (bad / "broken.x").write_text("struct oops {", encoding="utf-8")
        status, out, _ = run(capsys, "--self-check", "--root", tmp_path)
        assert status == 1
        assert "SRPC001" in out
