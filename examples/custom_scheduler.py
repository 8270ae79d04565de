#!/usr/bin/env python3
"""Extending the framework: write and evaluate your own scheduler.

The virtual-time machinery (tags, retroactive charging, refresh
charging, estimators and the sorted selection index, its one selection
path) lives in :class:`VirtualTimeScheduler`; a new policy only declares its
per-thread eligibility staggers and a tag order.  This example
implements "2DFQ-quadratic", a variant whose eligibility stagger grows
quadratically with the thread index instead of linearly -- concentrating
small requests on fewer, higher threads -- and races it against standard
2DFQ on the Figure 8 synthetic workload.

Run:  python examples/custom_scheduler.py
"""

from typing import Sequence

from repro.core import VirtualTimeScheduler
from repro.experiments import ExperimentConfig, run_comparison
from repro.experiments.expensive_requests import SMALL_PROBE
from repro.workloads import expensive_requests_population

# Registering by subclassing: any VirtualTimeScheduler works with the
# simulator, the metrics collector, and the experiment runner.


class QuadraticStagger2DFQ(VirtualTimeScheduler):
    """2DFQ with eligibility offset ``(i/n)^2 * l`` instead of ``(i/n) * l``."""

    name = "2dfq-quadratic"

    def _staggers(self, num_threads: int) -> Sequence[float]:
        # Thread i runs the smallest finish tag among tenants with
        # S - stagger_i * l <= v(now); the default finish order picks
        # the work-conserving fallback when none is eligible.
        return [(i / num_threads) ** 2 for i in range(num_threads)]


def main() -> None:
    # Plug the custom class into the registry for this process, then use
    # the standard experiment harness.
    from repro.core import registry

    registry._FACTORIES["2dfq-quadratic"] = QuadraticStagger2DFQ

    config = ExperimentConfig(
        name="custom-scheduler-demo",
        schedulers=("wf2q", "2dfq", "2dfq-quadratic"),
        num_threads=16,
        thread_rate=1000.0,
        duration=8.0,
        refresh_interval=None,
        seed=0,
    )
    specs = expensive_requests_population(num_small=50, total=100)
    result = run_comparison(specs, config)
    fair_rate = result.fair_rate()

    print("sigma(service lag) of a small tenant, Figure 8 workload:\n")
    sigmas = {
        name: run.lag_sigma(SMALL_PROBE, reference_rate=fair_rate)
        for name, run in result.runs.items()
    }
    for name, sigma in sigmas.items():
        print(f"  {name:>15}: {sigma:8.4f} s")
    smoothest = min(sigmas, key=sigmas.__getitem__)
    print(
        f"\nSmoothest on this run: {smoothest}; WF2Q's sigma is "
        f"{sigmas['wf2q'] / sigmas[smoothest]:.1f}x larger."
    )


if __name__ == "__main__":
    main()
