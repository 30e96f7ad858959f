"""Endpoint parity: the Figure 6 sweep's extremes ARE the presets.

The paper's claim (§3.3) is that the eagerness spectrum subsumes both
baselines: closure size 0 is the fully lazy method and an unbounded
closure the eager endpoint.  These regressions pin the claim down
byte-for-byte — sweeping the proposed method to an extreme must
reproduce the corresponding preset's every transfer counter, so the
collapse of the baseline classes into policies lost nothing.
"""

import itertools

import pytest

import repro.rpc.session as rpc_session
from repro.bench.harness import (
    PROPOSED,
    make_world,
    resolve_policy,
    run_hash_call,
    run_tree_call,
)
from repro.smartrpc.cache import ISOLATED
from repro.smartrpc.policy import UNBOUNDED

#: Every ExperimentRun field that must match, including the
#: shipped-vs-touched ledger — only the method label and time differ.
PARITY_FIELDS = (
    "callbacks",
    "messages",
    "bytes_moved",
    "page_faults",
    "write_faults",
    "entries",
    "result",
    "closure_shipped",
    "closure_touched",
    "prefetch_shipped",
    "prefetch_touched",
)


def _align_session_ids():
    """Pin the process-global session counter for one compared pair
    (session-id strings pad to XDR words; crossing from ``A#zz`` to
    ``A#100``, the 1 296th session, would shift ``bytes_moved``)."""
    rpc_session._session_numbers = itertools.count(100)


def _sweep(**knobs):
    """A world running the proposed method swept to ``knobs``."""
    return make_world(resolve_policy(PROPOSED, **knobs))


def _assert_parity(sweep, preset):
    for name in PARITY_FIELDS:
        assert getattr(sweep, name) == getattr(preset, name), name


class TestLazyEndpoint:
    """Closure 0 + isolated placeholders == the ``lazy`` preset."""

    @pytest.mark.parametrize("ratio", [0.1, 1.0])
    def test_tree_search_matches(self, ratio):
        _align_session_ids()
        sweep = run_tree_call(
            _sweep(closure_size=0, allocation_strategy=ISOLATED),
            63,
            "search",
            ratio=ratio,
        )
        preset = run_tree_call(
            make_world("lazy"), 63, "search", ratio=ratio
        )
        _assert_parity(sweep, preset)
        assert sweep.prefetch_shipped == 0

    def test_tree_update_matches(self):
        _align_session_ids()
        sweep = run_tree_call(
            _sweep(closure_size=0, allocation_strategy=ISOLATED),
            31,
            "search_update",
            ratio=0.5,
        )
        preset = run_tree_call(
            make_world("lazy"), 31, "search_update", ratio=0.5
        )
        _assert_parity(sweep, preset)

    def test_hash_lookup_matches(self):
        _align_session_ids()
        sweep = run_hash_call(
            _sweep(closure_size=0, allocation_strategy=ISOLATED),
            60,
            4,
        )
        preset = run_hash_call(make_world("lazy"), 60, 4)
        _assert_parity(sweep, preset)


class TestEagerEndpoint:
    """An unbounded closure == the ``eager`` preset."""

    @pytest.mark.parametrize("ratio", [0.1, 1.0])
    def test_tree_search_matches(self, ratio):
        _align_session_ids()
        sweep = run_tree_call(
            _sweep(closure_size=UNBOUNDED),
            63,
            "search",
            ratio=ratio,
        )
        preset = run_tree_call(
            make_world("eager"), 63, "search", ratio=ratio
        )
        _assert_parity(sweep, preset)
        assert sweep.callbacks <= 1

    def test_hash_lookup_matches(self):
        _align_session_ids()
        sweep = run_hash_call(_sweep(closure_size=UNBOUNDED), 60, 4)
        preset = run_hash_call(make_world("eager"), 60, 4)
        _assert_parity(sweep, preset)
