"""Ablation: the shape of 2DFQ's eligibility stagger.

DESIGN.md decision 2: request ``r`` is eligible on thread ``i`` at
``S(r) - g(i/n) * l(r)``.  The paper uses the uniform (linear) spreading
``g(x) = x``.  This ablation compares:

* ``none``      -- g(x) = 0 (exactly WF2Q);
* ``linear``    -- g(x) = x (2DFQ as published);
* ``quadratic`` -- g(x) = x^2 (small requests squeezed onto fewer,
  higher threads);
* ``sqrt``      -- g(x) = sqrt(x) (small requests spread over more
  threads).

Metric: sigma(service lag) of a small tenant on the Figure 8 workload.
Expectation: any stagger beats none by a large factor; the precise
shape is a second-order effect.
"""

from typing import Optional

from repro.core import TenantState, VirtualTimeScheduler
from repro.core import registry as registry_module
from repro.experiments.expensive_requests import (
    SMALL_PROBE,
    expensive_requests_config,
    run_expensive_requests,
)
from repro.experiments.report import format_table

from conftest import emit, once


def _stagger_class(name: str, g):
    class Stagger2DFQ(VirtualTimeScheduler):
        def _select(self, thread_id: int, vnow: float) -> Optional[TenantState]:
            return self._min_eligible_finish(g(thread_id / self._num_threads), vnow)

    Stagger2DFQ.name = name
    return Stagger2DFQ


SHAPES = {
    "stagger-none": lambda x: 0.0,
    "stagger-linear": lambda x: x,
    "stagger-quadratic": lambda x: x * x,
    "stagger-sqrt": lambda x: x ** 0.5,
}


def test_ablation_stagger_shape(benchmark, capsys):
    for name, g in SHAPES.items():
        registry_module._FACTORIES[name] = _stagger_class(name, g)

    def run():
        config = expensive_requests_config(
            schedulers=tuple(SHAPES), duration=5.0
        )
        return run_expensive_requests(
            num_expensive=50, total_tenants=100, config=config
        )

    result = once(benchmark, run)
    fair = result.fair_rate()
    rows = [
        (name, result[name].lag_sigma(SMALL_PROBE, reference_rate=fair))
        for name in SHAPES
    ]
    text = "sigma(service lag) of a small tenant by stagger shape:\n"
    text += format_table(["stagger", "sigma(lag) [s]"], rows)

    sigma = dict(rows)
    # Every stagger shape improves dramatically on no stagger (WF2Q).
    for name in ("stagger-linear", "stagger-quadratic", "stagger-sqrt"):
        assert sigma[name] < sigma["stagger-none"] / 2
    emit(capsys, "ablation: 2DFQ eligibility stagger shape", text)
