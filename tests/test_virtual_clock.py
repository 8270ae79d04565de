"""Unit tests for the fair-queuing virtual clock."""

import pytest

from repro.core.virtual_time import VirtualClock
from repro.errors import ConfigurationError, SchedulerError


class TestConstruction:
    def test_requires_positive_capacity(self):
        with pytest.raises(ConfigurationError):
            VirtualClock(0.0)
        with pytest.raises(ConfigurationError):
            VirtualClock(-5.0)

    def test_initial_state(self):
        clock = VirtualClock(100.0)
        assert clock.value == 0.0
        assert clock.active_weight == 0.0
        assert clock.rate == 0.0


class TestAdvance:
    def test_frozen_without_active_tenants(self):
        clock = VirtualClock(100.0)
        assert clock.advance(10.0) == 0.0

    def test_paper_rate_example_two_threads(self):
        # Paper §2: 4 tenants sharing two 100-unit/s threads -> dv/dt = 50.
        clock = VirtualClock(200.0)
        for _ in range(4):
            clock.add_weight(1.0, 0.0)
        assert clock.rate == pytest.approx(50.0)
        assert clock.advance(1.0) == pytest.approx(50.0)

    def test_paper_rate_example_one_thread(self):
        # 4 tenants sharing one 100-unit/s thread -> dv/dt = 25.
        clock = VirtualClock(100.0)
        for _ in range(4):
            clock.add_weight(1.0, 0.0)
        assert clock.advance(2.0) == pytest.approx(50.0)

    def test_rate_changes_with_active_set(self):
        clock = VirtualClock(100.0)
        clock.add_weight(1.0, 0.0)
        clock.advance(1.0)  # v = 100
        clock.add_weight(1.0, 1.0)
        clock.advance(2.0)  # +50
        assert clock.value == pytest.approx(150.0)
        clock.remove_weight(1.0, 2.0)
        clock.advance(3.0)  # +100
        assert clock.value == pytest.approx(250.0)

    def test_weighted_tenants(self):
        clock = VirtualClock(100.0)
        clock.add_weight(3.0, 0.0)
        clock.add_weight(1.0, 0.0)
        assert clock.rate == pytest.approx(25.0)

    def test_backwards_time_rejected(self):
        clock = VirtualClock(10.0)
        clock.advance(5.0)
        with pytest.raises(SchedulerError):
            clock.advance(4.0)

    def test_small_backwards_jitter_tolerated(self):
        clock = VirtualClock(10.0)
        clock.advance(5.0)
        clock.advance(5.0 - 1e-13)  # float noise must not raise


class TestWeightAccounting:
    def test_negative_weight_rejected(self):
        clock = VirtualClock(10.0)
        with pytest.raises(ConfigurationError):
            clock.add_weight(0.0, 0.0)

    def test_over_removal_rejected(self):
        clock = VirtualClock(10.0)
        clock.add_weight(1.0, 0.0)
        clock.remove_weight(1.0, 0.0)
        with pytest.raises(SchedulerError):
            clock.remove_weight(1.0, 0.0)

    def test_float_residue_snapped_to_zero(self):
        clock = VirtualClock(10.0)
        for _ in range(10):
            clock.add_weight(0.1, 0.0)
        for _ in range(10):
            clock.remove_weight(0.1, 0.0)
        assert clock.active_weight == 0.0
        assert clock.rate == 0.0
