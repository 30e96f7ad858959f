"""Tests for the ``python -m repro.bench`` command line."""

import functools

import pytest

from repro.bench import __main__ as cli
from repro.bench.__main__ import main
from repro.bench.experiments import ALL_EXPERIMENTS, fig5_callback_counts


class TestListing:
    def test_no_arguments_lists_experiments(self, capsys):
        assert main([]) == 0
        out = capsys.readouterr().out
        for name in ALL_EXPERIMENTS:
            assert name in out

    def test_unknown_experiment_fails(self, capsys):
        assert main(["does_not_exist"]) == 2
        assert "unknown experiment" in capsys.readouterr().err


class TestRunning:
    def test_table1_runs_and_prints(self, capsys):
        assert main(["table1"]) == 0
        out = capsys.readouterr().out
        assert "Table 1" in out
        assert "LongPointer" in out

    def test_quick_fig4_runs(self, capsys):
        assert main(["fig4", "--quick"]) == 0
        out = capsys.readouterr().out
        assert "Figure 4" in out
        assert "fully lazy" in out

    def test_quick_fig7_runs(self, capsys):
        assert main(["fig7", "--quick"]) == 0
        out = capsys.readouterr().out
        assert "updated/not" in out

    def test_ablation_malloc_runs(self, capsys):
        assert main(["ablation_malloc"]) == 0
        out = capsys.readouterr().out
        assert "batched" in out

    def test_registry_complete(self):
        assert set(ALL_EXPERIMENTS) == {
            "table1",
            "fig4",
            "fig5",
            "fig6",
            "fig7",
            "ablation_alloc",
            "ablation_closure",
            "ablation_malloc",
            "ablation_hints",
            "ablation_adaptive",
        }

    def test_policy_flag_reaches_the_experiment(self, capsys):
        assert main(["fig5", "--quick", "--policy", "adaptive"]) == 0
        assert "Figure 5" in capsys.readouterr().out

    def test_closure_order_flag_reaches_the_experiment(self, capsys):
        assert main(["fig5", "--quick", "--closure-order", "dfs"]) == 0
        assert "Figure 5" in capsys.readouterr().out

    def test_unsupported_flag_is_skipped_with_a_note(self, capsys):
        assert main(["table1", "--policy", "adaptive"]) == 0
        captured = capsys.readouterr()
        assert "Table 1" in captured.out
        assert "policy" in captured.err

    def test_transport_flag_reaches_a_figure(self, capsys, monkeypatch):
        small_fig5 = functools.partial(
            fig5_callback_counts, num_nodes=255, ratios=(0.5,)
        )
        monkeypatch.setitem(cli.ALL_EXPERIMENTS, "fig5", small_fig5)
        assert main(["fig5", "--transport", "tcp"]) == 0
        captured = capsys.readouterr()
        assert "over tcp (wall seconds)" in captured.out
        assert captured.err == ""

    def test_transport_flag_is_ignored_for_table1(self, capsys):
        assert main(["table1", "--transport", "tcp"]) == 0
        captured = capsys.readouterr()
        assert "Table 1" in captured.out
        assert "does not take --transport; ignored" in captured.err
