"""Figure 11: unknown costs with unpredictable workloads.

(a) T1's service received under WFQ^E / WF2Q^E / 2DFQ^E at 0% / 33% /
    66% scrambled replay tenants: 2DFQ^E serves the predictable tenant
    far more smoothly than both baselines at every level;
(b) 2DFQ^E's thread occupancy: size partitioning persists (coarser as
    unpredictability rises).

Known divergence from the paper, documented in EXPERIMENTS.md: our
synthetic random population natively contains unpredictable tenants
(as the paper's Figure 3 shows real populations do), so scrambling
*redistributes* rather than strictly adds unpredictability, and the
baselines' absolute deterioration with the scrambled fraction is
flatter than in the paper.  2DFQ^E's advantage at every level -- the
paper's core claim -- reproduces clearly.
"""

import numpy as np

from repro.figures import FIGURES

from conftest import emit_figure, once


def test_fig11_unpredictable_service(benchmark, capsys):
    sweep, sigma_table = data = once(benchmark, FIGURES["fig11"].run)

    # Shape assertions: 2DFQ^E beats WFQ^E clearly at every level and
    # never loses to WF2Q^E; at the predictable end the gap is large
    # (paper: 10-15x at full scale).
    for fraction in sweep.fractions:
        assert sigma_table[(fraction, "2dfq-e")] < sigma_table[(fraction, "wfq-e")] / 2
        assert (
            sigma_table[(fraction, "2dfq-e")]
            <= sigma_table[(fraction, "wf2q-e")] * 1.05
        )
    first = sweep.fractions[0]
    assert sigma_table[(first, "2dfq-e")] < sigma_table[(first, "wfq-e")] / 3
    assert sigma_table[(first, "2dfq-e")] < sigma_table[(first, "wf2q-e")] / 3
    # 2DFQ^E partitions by size crisply while the workload is mostly
    # predictable; the partitioning coarsens as tenants are scrambled
    # (paper: "the partitioning becomes more coarse grained").
    threads = sweep.results[0].config.num_threads
    partition0 = sweep.results[0]["2dfq-e"].thread_cost_partition(threads)
    valid0 = partition0[~np.isnan(partition0)]
    assert valid0[:4].mean() > valid0[-4:].mean() + 0.3
    contrast = []
    for result in sweep.results:
        p = result["2dfq-e"].thread_cost_partition(threads)
        v = p[~np.isnan(p)]
        contrast.append(float(v[: len(v) // 2].mean() - v[len(v) // 2:].mean()))
    assert contrast[-1] < contrast[0]  # coarser under unpredictability
    emit_figure(capsys, "fig11", data)
