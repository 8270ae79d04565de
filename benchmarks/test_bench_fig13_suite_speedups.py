"""Figure 13: the randomized experiment suite with unknown costs.

The paper runs 150 randomized experiments (threads 2-64, replay tenants
0-400, speed 0.5-4x, backlogged/expensive/unpredictable tenants 0-100)
and reports the distribution of 2DFQ^E's 99th-percentile-latency speedup
over WFQ^E and WF2Q^E for each reference tenant.  Expected shape: strong
median speedups for the small predictable tenants (T1..T4), near-parity
or losses for the large/unpredictable ones (T10, T12).

CI scale: fewer experiments over reduced ranges (the fig13 entry of
``repro.figures``); EXPERIMENTS.md records the scaling.
"""

import numpy as np

from repro.figures import FIGURES

from conftest import emit_figure, once


def test_fig13_suite_speedups(benchmark, capsys):
    result = once(benchmark, FIGURES["fig13"].run)

    # Shape assertions: across the suite, the small predictable tenants'
    # median speedup is at least parity against both baselines, and the
    # best observed speedup for them is clearly positive.
    for baseline in ("wfq-e", "wf2q-e"):
        small_medians = [
            result.median_speedup(baseline, t) for t in ("T1", "T2", "T4")
        ]
        small_medians = [m for m in small_medians if not np.isnan(m)]
        assert small_medians, "no speedup data for small tenants"
        assert np.median(small_medians) >= 1.0
        best_t1 = max(result.ratios(baseline, tenants=("T1",))["T1"])
        assert best_t1 > 1.2
    emit_figure(capsys, "fig13", result)
