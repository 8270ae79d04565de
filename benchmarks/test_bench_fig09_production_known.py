"""Figure 9: known costs on the production-like workload (32 threads).

(a) T1's service rate and service lag under WFQ / WF2Q / 2DFQ, plus the
    Gini fairness index across all tenants;
(b) per-thread request-size partitioning.

Expected shapes: WFQ runs seconds ahead with oscillations; WF2Q tracks
GPS but dips when expensive requests occupy the pool; 2DFQ hugs GPS.
WFQ's Gini index is clearly worse; 2DFQ partitions request sizes across
threads.  The production run is shared with Figure 10.
"""

import numpy as np

from repro.figures import FIGURES

from conftest import emit_figure, once


def test_fig09_production_known_costs(benchmark, capsys):
    result, rows = data = once(benchmark, FIGURES["fig09"].run)

    sigma = {row[0]: row[1] for row in rows}
    gini = {row[0]: row[4] for row in rows}
    # T1's service is far steadier under 2DFQ than WFQ (paper: 1-2
    # orders of magnitude; >= 5x at this reduced scale) and WF2Q sits
    # in between.
    assert sigma["2dfq"] < sigma["wfq"] / 5
    assert sigma["wf2q"] < sigma["wfq"] / 3
    assert sigma["2dfq"] <= sigma["wf2q"] * 1.5
    # WFQ is the least fair in aggregate; 2DFQ and WF2Q comparable.
    assert gini["wfq"] > gini["2dfq"]
    assert gini["wfq"] > gini["wf2q"]
    # 2DFQ's per-thread cost profile is ordered (size partitioning):
    # the low-index threads run costlier requests than the top ones.
    partition = result["2dfq"].thread_cost_partition(result.config.num_threads)
    valid = partition[~np.isnan(partition)]
    assert valid[0] > valid[-1] + 0.5
    emit_figure(capsys, "fig09", data)
