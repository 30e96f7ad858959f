"""Tests of the benchmark's own machinery.

Run with ``PYTHONPATH=src python -m pytest benchmarks/srpcbench``;
tier-1's ``testpaths`` does not include this directory.
"""

from __future__ import annotations

import json
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import spans  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402


def span(name, start, end, parent=-1, op=0, n=0):
    return [name, start, end, parent, op, n]


def test_self_time_of_nested_and_sibling_spans():
    tree = [
        span("root", 0.0, 10.0),
        span("a", 1.0, 4.0, parent=0),
        span("a.inner", 2.0, 3.0, parent=1),
        span("b", 5.0, 7.0, parent=0),
    ]
    assert spans.self_times(tree) == [5.0, 2.0, 1.0, 2.0]
    # Nothing is lost or counted twice: self times sum to the root.
    assert sum(spans.self_times(tree)) == 10.0


def test_overlapping_and_overhanging_children_are_counted_once():
    tree = [
        span("root", 0.0, 10.0),
        span("a", 1.0, 6.0, parent=0),
        span("b", 4.0, 8.0, parent=0),  # overlaps a
        span("c", 9.0, 12.0, parent=0),  # ends after its parent
    ]
    assert spans.self_times(tree)[0] == 10.0 - (8.0 - 1.0) - (10.0 - 9.0)


def test_child_on_another_thread_is_charged_to_the_waiting_span():
    recorder = spans.Recorder()
    serve = recorder.wrap("handler", lambda: time.sleep(0.02))

    def exchange():
        service = threading.Thread(target=serve)
        service.start()
        service.join(timeout=5)
        assert not service.is_alive()

    recorder.op = 0
    recorder.wrap("send", exchange)()
    send, handler = recorder.spans
    assert (send[spans.NAME], handler[spans.NAME]) == ("send", "handler")
    assert handler[spans.PARENT] == 0
    send_self, handler_self = spans.self_times(recorder.spans)
    assert handler_self >= 0.02
    assert send_self == pytest.approx(
        (send[spans.END] - send[spans.START]) - handler_self
    )
    (op,) = spans.per_op(recorder.spans)
    assert op["send"]["count"] == op["handler"]["count"] == 1


def test_piggyback_items_come_from_the_batches_applied_under_it():
    tree = [
        span("op", 0.0, 9.0),
        span(spans.PIGGYBACK, 1.0, 4.0, parent=0),
        span(spans.APPLY_BATCH, 2.0, 3.0, parent=1, n=7),
        span(spans.APPLY_BATCH, 5.0, 6.0, parent=0, n=100),  # a fill
    ]
    (op,) = spans.per_op(tree)
    assert op[spans.PIGGYBACK]["n"] == 7
    assert op[spans.APPLY_BATCH]["n"] == 107


def test_install_then_uninstall_restores_the_original_objects():
    targets = spans.targets()
    originals = [vars(owner)[attribute] for owner, attribute, _, _ in targets]
    patches = spans.install(spans.Recorder())
    try:
        for (owner, attribute, _, _), original in zip(targets, originals):
            patched = vars(owner)[attribute]
            assert patched is not original
            assert patched.__wrapped__ is original
    finally:
        spans.uninstall(patches)
    for (owner, attribute, _, _), original in zip(targets, originals):
        assert vars(owner)[attribute] is original


def test_oracle_accepts_equal_results_and_equal_traffic():
    seen = {"round_trips": 4, "messages": 11, "bytes": 115140}
    assert not workloads.op_failed(10, 10, seen, dict(seen))
    assert workloads.op_failed(10, 11, seen, dict(seen))
    # A retransmission double-counts bytes: a failure, not a sample.
    assert workloads.op_failed(10, 10, {**seen, "bytes": 115240}, seen)


def test_wrong_expected_value_fails_every_op(monkeypatch):
    def build(world, rng, wrap):
        workload = workloads.ListTotal(world, rng, wrap, nodes=64)
        workload.want += 1
        return workload

    monkeypatch.setitem(
        workloads.WORKLOADS,
        "wrong",
        workloads.Spec("paper", "simnet", False, build),
    )
    result, _factors, problems = worker.run_round("wrong", 1, 0.05, None)
    assert not problems
    assert result["attempted"] >= 1
    assert result["failed"] == result["attempted"]


@pytest.mark.parametrize("trace", ["0", "1"])
def test_quick_run_prints_exactly_the_declared_names(trace):
    benchmark = json.loads((HERE.parents[1] / "BENCHMARK.json").read_text())
    section = "per_layer" if trace == "1" else "end_to_end"
    declared = [metric["name"] for metric in benchmark[section]]
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--quick", "--seed", "5",
         "--trace", trace],
        stdout=subprocess.PIPE,
        text=True,
        timeout=300,
    )
    assert done.returncode == 0
    blocks = done.stdout.strip().split("# ")[1:]
    assert [block.split()[0] for block in blocks] == [
        workload["name"] for workload in benchmark["workloads"]
    ]
    for block in blocks:
        *table, result = block.splitlines()[1:]
        assert [line.split()[0] for line in table] == declared
        result = json.loads(result)
        assert list(result["metrics"]) == declared
        assert result["correct"] and result["failed"] == 0
