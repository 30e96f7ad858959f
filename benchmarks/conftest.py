"""Benchmark-suite plumbing for the pytest-benchmark micro-benchmarks.

The paper's tables, figures and ablations are not here: ``python -m
repro.bench <name>`` is their one runner.  What runs through pytest
are the micro-benchmarks (``bench_xdr.py``): pytest-benchmark measures
their wall time, and each records its reproduced figures here.  A
terminal-summary hook prints them after the benchmark table, so a
plain ``pytest benchmarks/bench_xdr.py`` leaves them visible in its
output.

``--transport`` selects the carrier a ``transport_mode`` benchmark
runs over: ``simnet`` (default), ``tcp``, ``shm``, or ``all`` — which
parametrizes it over every carrier so their rows land side by side in
the pytest-benchmark JSON.
"""

from __future__ import annotations

from typing import List

from repro.bench.harness import SIMNET, TRANSPORTS

_SIM_RESULTS: List[str] = []


def pytest_addoption(parser):
    parser.addoption(
        "--transport",
        choices=(*TRANSPORTS, "all"),
        default=SIMNET,
        help="run benchmarks over simnet, tcp, shm, or all of them",
    )


def pytest_generate_tests(metafunc):
    if "transport_mode" in metafunc.fixturenames:
        choice = metafunc.config.getoption("--transport")
        modes = list(TRANSPORTS) if choice == "all" else [choice]
        metafunc.parametrize("transport_mode", modes)


def record_sim_result(line: str) -> None:
    """Queue one reproduced-measurement line for the summary."""
    _SIM_RESULTS.append(line)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _SIM_RESULTS:
        return
    terminalreporter.section("reproduced paper measurements (simulated)")
    for line in _SIM_RESULTS:
        terminalreporter.write_line(line)
