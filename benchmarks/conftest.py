"""Benchmark-suite plumbing for the pytest-benchmark micro-benchmarks.

The paper's tables, figures and ablations are not here: ``python -m
repro.bench <name>`` is their one runner.  What runs through pytest
are the micro-benchmarks (``bench_xdr.py``): pytest-benchmark measures
their wall time, and each records its reproduced figures here.  A
terminal-summary hook prints them after the benchmark table, so a
plain ``pytest benchmarks/bench_xdr.py`` leaves them visible in its
output.
"""

from __future__ import annotations

from typing import List

_SIM_RESULTS: List[str] = []


def record_sim_result(line: str) -> None:
    """Queue one reproduced-measurement line for the summary."""
    _SIM_RESULTS.append(line)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _SIM_RESULTS:
        return
    terminalreporter.section("reproduced paper measurements (simulated)")
    for line in _SIM_RESULTS:
        terminalreporter.write_line(line)
