"""Tests for the simulated clock and cost model."""

import dataclasses

import pytest

from repro.simnet.clock import CostModel, SimClock, Stopwatch
from repro.transport.wallclock import WallClock

NAN = float("nan")


class TestSimClock:
    def test_starts_at_zero(self):
        assert SimClock().now == 0.0

    def test_advance_accumulates(self):
        clock = SimClock()
        clock.advance(1.5)
        clock.advance(0.25)
        assert clock.now == pytest.approx(1.75)

    def test_advance_zero_is_allowed(self):
        clock = SimClock()
        clock.advance(0.0)
        assert clock.now == 0.0

    def test_negative_advance_rejected(self):
        clock = SimClock()
        with pytest.raises(ValueError):
            clock.advance(-0.1)

    def test_reset_rewinds(self):
        clock = SimClock()
        clock.advance(3.0)
        clock.reset()
        assert clock.now == 0.0

    def test_nan_advance_rejected_and_time_kept(self):
        clock = SimClock()
        clock.advance(1.0)
        with pytest.raises(ValueError):
            clock.advance(NAN)
        assert clock.now == 1.0

    def test_it_models_time(self):
        assert SimClock.models_time


class TestWallClock:
    def test_it_models_no_time(self):
        assert not WallClock.models_time

    def test_it_takes_no_charge(self):
        assert not hasattr(WallClock(), "advance")
        assert not hasattr(WallClock(), "bill")


class TestStopwatch:
    def test_measures_interval(self):
        clock = SimClock()
        watch = Stopwatch(clock)
        clock.advance(2.0)
        assert watch.elapsed == pytest.approx(2.0)

    def test_restart_begins_new_interval(self):
        clock = SimClock()
        watch = Stopwatch(clock)
        clock.advance(1.0)
        watch.restart()
        clock.advance(0.5)
        assert watch.elapsed == pytest.approx(0.5)


class TestCostModel:
    def test_message_cost_includes_latency_and_bytes(self):
        model = CostModel(message_latency=1e-3, byte_wire=1e-6)
        assert model.message_cost(0) == pytest.approx(1e-3)
        assert model.message_cost(1000) == pytest.approx(2e-3)

    def test_codec_cost_is_per_byte(self):
        model = CostModel(byte_codec=2e-6)
        assert model.codec_cost(500) == pytest.approx(1e-3)

    def test_defaults_are_positive(self):
        model = CostModel()
        assert model.message_latency > 0
        assert model.byte_wire > 0
        assert model.byte_codec > 0
        assert model.page_fault > 0

    def test_frozen(self):
        model = CostModel()
        with pytest.raises(AttributeError):
            model.message_latency = 1.0

    @pytest.mark.parametrize(
        "name", [field.name for field in dataclasses.fields(CostModel)]
    )
    @pytest.mark.parametrize(
        "value", [-1.0, -1e-12, NAN, float("inf"), "1e-6", None]
    )
    def test_a_bad_field_is_refused_at_construction(self, name, value):
        with pytest.raises(ValueError, match=name):
            CostModel(**{name: value})

    def test_zero_fields_are_allowed(self):
        model = CostModel(page_fault=0.0, byte_codec=0)
        assert model.codec_cost(100) == 0
