"""Experiment harness: regenerates every table and figure of the paper.

* :mod:`repro.bench.calibration` — the cost model approximating the
  paper's testbed, plus the paper's own reported curves (digitised off
  the figures) for side-by-side comparison;
* :mod:`repro.bench.harness` — world construction (network + name
  server + caller/callee runtimes for each method) and single-run
  experiment drivers;
* :mod:`repro.bench.experiments` — one function per table, figure and
  ablation, each returning the rows the paper plots;
* :mod:`repro.bench.reporting` — fixed-width table rendering.

``python -m repro.bench`` is the one runner of every one of them::

    python -m repro.bench fig4
    python -m repro.bench fig5 --transport shm
    python -m repro.bench all
"""

from repro.bench.calibration import PAPER_COST_MODEL
from repro.bench.harness import ExperimentRun, make_world, run_tree_call
from repro.bench.experiments import (
    ablation_alloc_strategy,
    ablation_batched_malloc,
    ablation_closure_order,
    fig4_methods_comparison,
    fig5_callback_counts,
    fig6_closure_size,
    fig7_update_performance,
    table1_allocation_table,
)

__all__ = [
    "ExperimentRun",
    "PAPER_COST_MODEL",
    "ablation_alloc_strategy",
    "ablation_batched_malloc",
    "ablation_closure_order",
    "fig4_methods_comparison",
    "fig5_callback_counts",
    "fig6_closure_size",
    "fig7_update_performance",
    "make_world",
    "run_tree_call",
    "table1_allocation_table",
]
