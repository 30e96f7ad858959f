"""The memory hot-path gate (``benchmarks/bench_hotpath.py``) can fail.

``compare`` is fed synthetic records, never timings: each of its four
checks must reject a record that violates it and only it, and the
committed ``BENCH_hotpath.json`` must pass against itself.
"""

import copy
import importlib.util
import json
from pathlib import Path

import pytest

BENCHMARKS = Path(__file__).resolve().parents[2] / "benchmarks"


def _load_bench_hotpath():
    spec = importlib.util.spec_from_file_location(
        "bench_hotpath", BENCHMARKS / "bench_hotpath.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


bench_hotpath = _load_bench_hotpath()
COMMITTED = json.loads(bench_hotpath.HOTPATH_BASELINE.read_text())


def passing_record():
    """A record comfortably inside every bound."""
    return {
        "per_access_ns": {
            "checked": 1000.0,
            "tokenized": 500.0,
            "bulk_amortized": 50.0,
        },
        "linked_list_4096_total": {
            "first_call_ms": 60.0,
            "hotpath_ms": 6.0,
            "checked_ms": 6.0 * (bench_hotpath.WALK_FLOOR + 1),
            "speedup_checked_over_hotpath": bench_hotpath.WALK_FLOOR + 1,
            "first_call_over_hotpath": 10.0,
        },
    }


def check(record):
    return bench_hotpath.compare(passing_record(), record, "synthetic")


def test_committed_baseline_passes_against_itself():
    assert bench_hotpath.compare(COMMITTED, COMMITTED, "committed") == []


def test_passing_record_passes():
    assert check(passing_record()) == []


def test_tokenized_slower_than_checked_is_rejected():
    record = passing_record()
    record["per_access_ns"]["tokenized"] = 1000.5
    problems = check(record)
    assert len(problems) == 1 and "slower than checked" in problems[0]


def test_bulk_not_under_its_share_of_checked_is_rejected():
    record = passing_record()
    access = record["per_access_ns"]
    access["bulk_amortized"] = (
        access["checked"] * bench_hotpath.BULK_VS_CHECKED + 0.5
    )
    problems = check(record)
    assert len(problems) == 1 and "bulk access" in problems[0]


def test_walk_speedup_under_the_floor_is_rejected():
    record = passing_record()
    record["linked_list_4096_total"]["speedup_checked_over_hotpath"] = (
        bench_hotpath.WALK_FLOOR - 0.01
    )
    problems = check(record)
    assert len(problems) == 1 and "floor" in problems[0]


def test_first_call_over_the_ceiling_is_rejected():
    record = passing_record()
    record["linked_list_4096_total"]["first_call_over_hotpath"] = (
        bench_hotpath.FIRST_CALL_CEILING + 0.01
    )
    problems = check(record)
    assert len(problems) == 1 and "ceiling" in problems[0]


@pytest.mark.parametrize(
    "field", ["per_access_ns", "linked_list_4096_total"]
)
def test_a_lost_field_is_rejected(field):
    record = copy.deepcopy(COMMITTED)
    record[field].popitem()
    problems = bench_hotpath.compare(COMMITTED, record, "committed")
    assert len(problems) == 1 and "lost fields" in problems[0]
