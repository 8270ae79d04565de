"""Unit tests for cost estimators (paper §5)."""

import pytest

from repro.errors import ConfigurationError
from repro.estimation import (
    EMAEstimator,
    LastValueEstimator,
    OracleEstimator,
    PessimisticEstimator,
)

from conftest import make_request


class TestOracle:
    def test_returns_true_cost(self):
        est = OracleEstimator()
        assert est.estimate(make_request(cost=42.0)) == 42.0

    def test_observe_is_noop(self):
        est = OracleEstimator()
        r = make_request(cost=7.0)
        est.observe(r, 100.0)
        assert est.estimate(r) == 7.0


class TestEMA:
    def test_cold_start_uses_initial(self):
        est = EMAEstimator(alpha=0.9, initial_estimate=5.0)
        assert est.estimate(make_request()) == 5.0

    def test_first_observation_seeds_state(self):
        est = EMAEstimator(alpha=0.9)
        r = make_request(tenant="T", api="A")
        est.observe(r, 100.0)
        assert est.estimate(r) == pytest.approx(100.0)

    def test_ema_update_rule(self):
        est = EMAEstimator(alpha=0.9)
        r = make_request(tenant="T", api="A")
        est.observe(r, 100.0)
        est.observe(r, 200.0)
        # 0.9 * 100 + 0.1 * 200 = 110
        assert est.estimate(r) == pytest.approx(110.0)

    def test_state_keyed_per_tenant_per_api(self):
        est = EMAEstimator()
        est.observe(make_request(tenant="T1", api="A"), 10.0)
        est.observe(make_request(tenant="T1", api="B"), 1000.0)
        est.observe(make_request(tenant="T2", api="A"), 99.0)
        assert est.peek("T1", "A") == pytest.approx(10.0)
        assert est.peek("T1", "B") == pytest.approx(1000.0)
        assert est.peek("T2", "A") == pytest.approx(99.0)

    def test_alpha_validation(self):
        with pytest.raises(ConfigurationError):
            EMAEstimator(alpha=1.0)
        with pytest.raises(ConfigurationError):
            EMAEstimator(alpha=-0.1)

    def test_reset(self):
        est = EMAEstimator(initial_estimate=3.0)
        r = make_request()
        est.observe(r, 50.0)
        est.reset()
        assert est.estimate(r) == 3.0

    def test_slow_adaptation_with_high_alpha(self):
        # alpha = 0.99 adapts slowly -- the paper's feedback-delay story.
        est = EMAEstimator(alpha=0.99)
        r = make_request(tenant="T", api="K")
        est.observe(r, 1.0)
        for _ in range(10):
            est.observe(r, 1000.0)
        assert est.estimate(r) < 120.0  # still far below the new regime


class TestPessimistic:
    def test_tracks_maximum(self):
        est = PessimisticEstimator(alpha=0.99)
        r = make_request(tenant="T", api="G")
        est.observe(r, 10.0)
        est.observe(r, 1000.0)
        assert est.estimate(r) == pytest.approx(1000.0)

    def test_alpha_decay_below_maximum(self):
        est = PessimisticEstimator(alpha=0.9)
        r = make_request(tenant="T", api="G")
        est.observe(r, 1000.0)
        est.observe(r, 1.0)  # max(0.9 * 1000, 1) = 900
        assert est.estimate(r) == pytest.approx(900.0)

    def test_immediate_jump_on_larger_cost(self):
        # Figure 7 line 30: a bigger measurement replaces L_max at once.
        est = PessimisticEstimator(alpha=0.99)
        r = make_request(tenant="T", api="G")
        est.observe(r, 5.0)
        est.observe(r, 5000.0)
        assert est.estimate(r) == pytest.approx(5000.0)

    def test_estimate_stays_pessimistic_for_bimodal_costs(self):
        # An unpredictable tenant alternating cheap/expensive keeps a
        # near-maximum estimate -- the isolation mechanism of 2DFQ^E.
        est = PessimisticEstimator(alpha=0.99)
        r = make_request(tenant="T10", api="G")
        est.observe(r, 1.0e6)
        for _ in range(20):
            est.observe(r, 1000.0)
        assert est.estimate(r) >= 0.99**20 * 1.0e6

    def test_alpha_validation(self):
        with pytest.raises(ConfigurationError):
            PessimisticEstimator(alpha=0.0)
        PessimisticEstimator(alpha=1.0)  # 1.0 = never decay, allowed


class TestLastValue:
    def test_predicts_previous_cost(self):
        est = LastValueEstimator()
        r = make_request(tenant="T", api="A")
        est.observe(r, 3.0)
        est.observe(r, 9.0)
        assert est.estimate(r) == 9.0


class TestRegistry:
    def test_negative_cost_rejected(self):
        est = EMAEstimator()
        with pytest.raises(ConfigurationError):
            est.observe(make_request(), -1.0)
