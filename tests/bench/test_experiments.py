"""Shape tests: the reproduced experiments must show the paper's trends.

These run the real experiment code at reduced scale, then assert the
qualitative findings of the paper's evaluation — who wins, roughly by
how much, and where the regimes change.  Full-scale numbers are in
EXPERIMENTS.md and regenerate via ``python -m repro.bench all``.
"""

import threading

import pytest

from repro.bench.experiments import (
    ablation_adaptive_closure,
    ablation_alloc_strategy,
    ablation_batched_malloc,
    ablation_closure_hints,
    ablation_closure_order,
    fig4_methods_comparison,
    fig5_callback_counts,
    fig6_closure_size,
    fig7_update_performance,
    table1_allocation_table,
)

NODES = 4095
RATIOS = [0.0, 0.25, 0.5, 1.0]


@pytest.fixture(scope="module")
def fig4():
    return fig4_methods_comparison(num_nodes=NODES, ratios=RATIOS)


class TestFig4Shapes:
    def test_eager_is_flat(self, fig4):
        eager = [row[1] for row in fig4.rows]
        assert max(eager) < 1.25 * min(eager)

    def test_lazy_is_linear_and_worst_at_full_access(self, fig4):
        by_ratio = {row[0]: row for row in fig4.rows}
        lazy_full = by_ratio[1.0][2]
        assert lazy_full > by_ratio[1.0][1]  # worse than eager
        assert lazy_full > by_ratio[1.0][3]  # worse than proposed
        # linearity: half the access, about half the time
        assert by_ratio[0.5][2] == pytest.approx(lazy_full / 2, rel=0.2)

    def test_proposed_wins_at_low_ratio(self, fig4):
        by_ratio = {row[0]: row for row in fig4.rows}
        assert by_ratio[0.25][3] < by_ratio[0.25][1]
        assert by_ratio[0.25][3] < by_ratio[0.25][2]

    def test_proposed_scales_with_access_ratio(self, fig4):
        proposed = [row[3] for row in fig4.rows]
        assert proposed == sorted(proposed)

    def test_render_mentions_figure(self, fig4):
        assert "Figure 4" in fig4.render()


class TestFig5Shapes:
    @pytest.fixture(scope="class")
    def fig5(self):
        return fig5_callback_counts(num_nodes=NODES, ratios=RATIOS)

    def test_lazy_callbacks_equal_visited_nodes(self, fig5):
        for ratio, lazy, proposed in fig5.rows:
            assert lazy == int(round(ratio * NODES))

    def test_proposed_needs_far_fewer_callbacks(self, fig5):
        for ratio, lazy, proposed in fig5.rows:
            if ratio >= 0.5:
                assert proposed < lazy / 10


class TestFig6Shapes:
    @pytest.fixture(scope="class")
    def fig6(self):
        return fig6_closure_size(
            node_counts=[2047],
            closure_sizes=[0, 1024, 8192, 16384],
            repeats=2,
        )

    def test_zero_closure_is_much_slower_than_optimum(self, fig6):
        times = {row[1]: row[2] for row in fig6.rows}
        assert times[0] > 1.5 * min(times.values())

    def test_callbacks_fall_from_zero_closure(self, fig6):
        callbacks = {row[1]: row[3] for row in fig6.rows}
        assert callbacks[8192] < callbacks[0]


class TestFig7Shapes:
    @pytest.fixture(scope="class")
    def fig7(self):
        return fig7_update_performance(
            num_nodes=NODES, ratios=[0.25, 0.5, 1.0]
        )

    def test_update_roughly_twice_visit(self, fig7):
        for ratio, visit, update, quotient in fig7.rows:
            assert 1.4 <= quotient <= 2.6

    def test_update_time_scales_with_ratio(self, fig7):
        updates = [row[2] for row in fig7.rows]
        assert updates == sorted(updates)
        assert updates[-1] > 2 * updates[0]


class TestTable1:
    def test_two_rows_on_one_page(self):
        result = table1_allocation_table()
        assert len(result.rows) == 2
        pages = {row[0] for row in result.rows}
        assert len(pages) == 1  # both pointers share one protected page
        offsets = sorted(row[1] for row in result.rows)
        assert offsets[0] == 0 and offsets[1] > 0


class TestAblations:
    def test_alloc_strategy_rows_cover_strategies(self):
        result = ablation_alloc_strategy(num_nodes=1023, ratio=0.5)
        strategies = [row[0] for row in result.rows]
        assert strategies == ["single_home", "packed", "isolated"]
        by_strategy = {row[0]: row for row in result.rows}
        # isolated degrades toward lazy: markedly more callbacks (one
        # datum per page means every group fetch becomes per-datum)
        assert (
            by_strategy["isolated"][2]
            >= 1.5 * by_strategy["single_home"][2]
        )
        assert (
            by_strategy["isolated"][4]
            >= by_strategy["single_home"][4]
        )

    def test_closure_order_rows(self):
        result = ablation_closure_order(
            num_nodes=1023, ratios=(0.5,), closure_size=2048
        )
        assert len(result.rows) == 1
        ratio, bfs_s, dfs_s, bfs_cb, dfs_cb = result.rows[0]
        assert bfs_s > 0 and dfs_s > 0

    def test_batched_malloc_beats_immediate(self):
        result = ablation_batched_malloc(counts=(40,))
        count, batched_s, immediate_s, batched_msgs, immediate_msgs = (
            result.rows[0]
        )
        assert batched_s < immediate_s
        assert batched_msgs == 1
        assert immediate_msgs == 40

    def test_hints_ship_fewer_bytes(self):
        result = ablation_closure_hints(num_keys=500, lookups=6)
        by_label = {row[0]: row for row in result.rows}
        assert by_label["hinted"][2] < by_label["unhinted"][2]

    def test_adaptive_ships_no_more_than_paper(self):
        result = ablation_adaptive_closure(
            num_keys=500, lookups=20, policies=("paper", "adaptive")
        )
        by_policy = {row[0]: row for row in result.rows}
        paper, adaptive = by_policy["paper"], by_policy["adaptive"]
        assert adaptive[3] <= paper[3]
        assert adaptive[6] == paper[6]


class TestRealCarriers:
    """A figure over tcp or shm counts what it counts over simnet."""

    @pytest.fixture(scope="class")
    def simnet_rows(self):
        return fig5_callback_counts(num_nodes=1023, ratios=(0.5, 1.0)).rows

    @pytest.mark.parametrize("transport", ["tcp", "shm"])
    def test_fig5_rows_match_simnet(self, simnet_rows, transport):
        before = set(threading.enumerate())
        result = fig5_callback_counts(
            num_nodes=1023, ratios=(0.5, 1.0), transport=transport
        )
        assert result.rows == simnet_rows
        assert f"over {transport} (wall seconds)" in result.name
        leaked = [
            thread
            for thread in set(threading.enumerate()) - before
            if not thread.daemon
        ]
        assert leaked == []
