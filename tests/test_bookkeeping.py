"""Retroactive and refresh charging (paper §5).

Includes the paper's gaming scenario: with naive last-value estimation
and no reconciliation, a tenant alternating one small request with n
concurrent large ones gets ~n times its fair share; retroactive charging
restores long-run fairness.
"""

import pytest

from repro.core import TwoDFQScheduler, WFQScheduler
from repro.core.scheduler import MIN_COST
from repro.estimation import LastValueEstimator, PessimisticEstimator

from conftest import check_every_pick, make_request


class TestRetroactiveCharging:
    def test_exact_estimate_leaves_no_residue(self):
        s = WFQScheduler(num_threads=1)
        r = make_request("A", 10.0)
        s.enqueue(r, 0.0)
        out = s.dequeue(0, 0.0)
        tag_after_dispatch = s.tenant_state("A").start_tag
        s.complete(out, 10.0, 10.0)
        assert s.tenant_state("A").start_tag == pytest.approx(tag_after_dispatch)

    def test_undercharge_is_collected(self):
        # Estimator says 1, actual cost 100: the tenant's start tag must
        # end up advanced by the full 100.
        est = LastValueEstimator(initial_estimate=1.0)
        s = WFQScheduler(num_threads=1, estimator=est)
        r = make_request("A", 100.0)
        s.enqueue(r, 0.0)
        out = s.dequeue(0, 0.0)
        assert out.charged_cost == 1.0
        s.complete(out, 100.0, 100.0)
        assert s.tenant_state("A").start_tag == pytest.approx(100.0)

    def test_overcharge_is_refunded(self):
        est = LastValueEstimator(initial_estimate=1000.0)
        s = WFQScheduler(num_threads=1, estimator=est)
        r = make_request("A", 10.0)
        s.enqueue(r, 0.0)
        out = s.dequeue(0, 0.0)
        assert out.charged_cost == 1000.0
        assert s.tenant_state("A").start_tag == pytest.approx(1000.0)
        s.complete(out, 10.0, 10.0)
        # Refund: only the true cost remains charged.
        assert s.tenant_state("A").start_tag == pytest.approx(10.0)

    def test_weight_scales_charge(self):
        s = WFQScheduler(num_threads=1)
        r = make_request("A", 10.0, weight=2.0)
        s.enqueue(r, 0.0)
        s.dequeue(0, 0.0)
        assert s.tenant_state("A").start_tag == pytest.approx(5.0)


class TestRefreshCharging:
    def test_usage_consumes_credit_first(self):
        # Figure 7, Refresh: measurements are absorbed by the pre-paid
        # credit before the tenant's clock moves.
        est = LastValueEstimator(initial_estimate=50.0)
        s = WFQScheduler(num_threads=1, estimator=est)
        r = make_request("A", 100.0)
        s.enqueue(r, 0.0)
        out = s.dequeue(0, 0.0)
        tag = s.tenant_state("A").start_tag
        s.refresh(out, 20.0, 1.0)
        assert out.credit == pytest.approx(30.0)
        assert s.tenant_state("A").start_tag == pytest.approx(tag)

    def test_excess_usage_charged_immediately(self):
        est = LastValueEstimator(initial_estimate=10.0)
        s = WFQScheduler(num_threads=1, estimator=est)
        r = make_request("A", 100.0)
        s.enqueue(r, 0.0)
        out = s.dequeue(0, 0.0)
        tag = s.tenant_state("A").start_tag
        s.refresh(out, 30.0, 1.0)  # 10 credit, 20 excess
        assert out.credit == 0.0
        assert s.tenant_state("A").start_tag == pytest.approx(tag + 20.0)

    def test_refresh_then_complete_totals_actual_cost(self):
        est = LastValueEstimator(initial_estimate=10.0)
        s = WFQScheduler(num_threads=1, estimator=est)
        r = make_request("A", 100.0)
        s.enqueue(r, 0.0)
        out = s.dequeue(0, 0.0)
        for _ in range(9):
            s.refresh(out, 10.0, 1.0)
        s.complete(out, 10.0, 10.0)
        assert s.tenant_state("A").start_tag == pytest.approx(100.0)
        assert out.reported_usage == pytest.approx(100.0)

    def test_estimator_learns_total_not_increment(self):
        est = PessimisticEstimator()
        s = TwoDFQScheduler(num_threads=1, estimator=est)
        r = make_request("A", 100.0, api="G")
        s.enqueue(r, 0.0)
        out = s.dequeue(0, 0.0)
        s.refresh(out, 60.0, 1.0)
        s.complete(out, 40.0, 2.0)
        assert est.peek("A", "G") == pytest.approx(100.0)


class TestChargeReconciliation:
    """Refresh increments are wallclock-delta products whose float sum
    can drift from the true cost; complete() must reconcile the final
    increment so every request charges exactly ``cost / weight``."""

    def test_refresh_drift_reconciled_at_complete(self):
        # Azure-scale request driven by awkward refresh intervals whose
        # increments (interval * rate) do not sum to the cost exactly.
        est = LastValueEstimator(initial_estimate=2.5e5)
        s = WFQScheduler(num_threads=1, thread_rate=1.0e6, estimator=est)
        cost, weight, rate = 1.0e6, 3.0, 1.0e6
        r = make_request("A", cost, weight=weight)
        s.enqueue(r, 0.0)
        out = s.dequeue(0, 0.0)
        now = last = 0.0
        for _ in range(97):
            now += 0.0103
            s.refresh(out, (now - last) * rate, now)
            last = now
        end = cost / rate
        s.complete(out, (end - last) * rate, end)
        # The estimator observes the exact cost, not the drifted sum...
        assert out.reported_usage == cost
        assert est.peek("A", "api") == cost
        # ...and the tenant was charged exactly cost / weight.
        assert s.tenant_state("A").start_tag == pytest.approx(
            cost / weight, rel=1e-12
        )

    def test_total_charged_virtual_time_matches_costs(self):
        """Over many requests with interleaved refreshes, total charged
        virtual time equals sum(cost) / weight within 1e-9 relative --
        no residual accumulates."""
        est = LastValueEstimator(initial_estimate=1.0e3)
        s = WFQScheduler(num_threads=1, thread_rate=1.0e6, estimator=est)
        weight, rate = 2.0, 1.0e6
        costs = [1.0e6 / 3.0, 7.7e5, 1.23456e4, 9.9e5, 3.333e5] * 40
        for cost in costs:
            s.enqueue(make_request("A", cost, weight=weight), 0.0)
        now = 0.0
        for _ in costs:
            out = s.dequeue(0, now)
            last = now
            end = now + out.cost / rate
            # Three interim reports at awkward fractions, then complete.
            for frac in (0.31, 0.57, 0.93):
                t = now + frac * (end - now)
                s.refresh(out, (t - last) * rate, t)
                last = t
            s.complete(out, (end - last) * rate, end)
            now = end
        expected = sum(costs) / weight
        assert s.tenant_state("A").start_tag == pytest.approx(expected, rel=1e-9)
        per_request = s.tenant_state("A").start_tag - expected
        assert abs(per_request) / len(costs) < 1e-9 * (sum(costs) / len(costs))


class TestZeroChargeCompletion:
    """A completion whose reconciliation charges exactly 0.0 leaves the
    start tag where it was, but a learning estimator's ``observe`` can
    still move the head estimate: the tenant's cached head key must be
    invalidated then too."""

    @staticmethod
    def assert_head_keys_fresh(scheduler):
        for state in scheduler.tenants().values():
            if state.head_key is None or not state.queue:
                continue
            head = state.queue[0]
            estimate = max(scheduler.estimator.estimate(head), MIN_COST)
            fresh = (state.start_tag + estimate / state.weight, estimate, head.seqno)
            assert state.head_key == fresh, state.tenant_id

    @pytest.mark.parametrize("linear", [True, False], ids=["linear", "indexed"])
    def test_decayed_estimate_reaches_the_cached_head_key(self, linear):
        # ``linear`` also checks every dequeue against the linear-scan
        # reference, which recomputes each key instead of reading the
        # cached one; ``indexed`` runs the sorted-list pick alone.
        est = PessimisticEstimator(alpha=0.99, initial_estimate=1.0)
        s = TwoDFQScheduler(num_threads=2, estimator=est)
        picks = check_every_pick(s) if linear else None
        large, exact, queued = (make_request("T", cost) for cost in (5.0, 1.0, 1.0))
        other = make_request("U", 1.0)
        steps = [
            lambda: s.enqueue(large, 0.0),
            lambda: s.enqueue(exact, 0.0),
            lambda: s.enqueue(queued, 0.0),
            # Both in flight, both charged the cold estimate 1.0.
            lambda: s.dequeue(0, 0.0),
            lambda: s.dequeue(1, 0.0),
            # Charges 4.0 and raises L_max to 5.0.
            lambda: s.complete(large, 5.0, 0.0),
            # U is picked; T's key was re-filed at estimate 5.0 by the
            # completion.
            lambda: s.enqueue(other, 0.0),
            lambda: s.dequeue(0, 0.0),
            # Charges exactly 0.0; observe decays L_max to 4.95.
            lambda: s.complete(exact, 1.0, 0.0),
            lambda: s.dequeue(1, 0.0),
        ]
        results = []
        for step in steps:
            results.append(step())
            self.assert_head_keys_fresh(s)
        assert results[3:5] == [large, exact]
        assert [large.charged_cost, exact.charged_cost] == [1.0, 1.0]
        assert results[7] is other
        assert results[9] is queued
        assert queued.charged_cost == 0.99 * 5.0
        if linear:
            assert len(picks) == 4


class TestGamingAttack:
    """§5: without retroactive charging, last-value estimation lets a
    tenant earn ~n times its fair share on n threads.  With it, the
    attacker's long-run share stays fair."""

    def _run_attack(self, horizon: float = 4000.0) -> float:
        n = 4
        est = LastValueEstimator(initial_estimate=1.0)
        s = WFQScheduler(num_threads=n, thread_rate=1.0, estimator=est)
        import heapq

        # Victim: honest tenant with size-10 requests.  Attacker:
        # alternates 1 small request with n large ones of size 100
        # (the large ones get estimated at ~1 by the preceding small).
        attack_cycle = [1.0] + [100.0] * n
        attack_index = [0]

        def next_attack_cost() -> float:
            cost = attack_cycle[attack_index[0] % len(attack_cycle)]
            attack_index[0] += 1
            return cost

        for _ in range(2 * n):
            s.enqueue(make_request("victim", 10.0), 0.0)
            s.enqueue(make_request("attacker", next_attack_cost()), 0.0)
        free = [(0.0, i) for i in range(n)]
        heapq.heapify(free)
        completions: list = []
        service = {"victim": 0.0, "attacker": 0.0}
        while free:
            now, thread = heapq.heappop(free)
            if now >= horizon:
                continue
            while completions and completions[0][0] <= now:
                end, _, done = heapq.heappop(completions)
                s.complete(done, done.cost, end)
            request = s.dequeue(thread, now)
            end = now + request.cost
            if end <= horizon:
                service[request.tenant_id] += request.cost
            if request.tenant_id == "victim":
                s.enqueue(make_request("victim", 10.0), now)
            else:
                s.enqueue(make_request("attacker", next_attack_cost()), now)
            heapq.heappush(completions, (end, request.seqno, request))
            heapq.heappush(free, (end, thread))
        return service["attacker"] / service["victim"]

    def test_attacker_held_to_fair_share(self):
        ratio = self._run_attack()
        # Without retroactive charging the ratio approaches ~n (the
        # paper's (kn+1)/(n+k) bound); with it the attacker stays near
        # its fair share.
        assert ratio < 1.5, f"attacker got {ratio}x the victim's service"
