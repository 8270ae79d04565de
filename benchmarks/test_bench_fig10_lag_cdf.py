"""Figure 10: distributions of service-lag variation, known costs.

(left)  CDF across all tenants of sigma(service lag): the lower quartile
        of tenants -- the ones with small requests -- has orders of
        magnitude lower sigma under 2DFQ than WFQ/WF2Q;
(right) service-lag (p1, p99) ranges of the fixed-cost probe tenants
        t1..t7 (costs 2^8..2^20): ranges shrink with request size, and
        shrink dramatically more under 2DFQ.

The production run is shared with Figure 9.
"""

from repro.figures import FIGURES

from conftest import emit_figure, once


def test_fig10_lag_distributions(benchmark, capsys):
    _, cdfs, ranges = data = once(benchmark, FIGURES["fig10"].run)

    # The upper quartile (the tenants that receive substantial service)
    # improves by ~10x under 2DFQ vs WFQ; the paper reports 50-100x for
    # the first quartile at full scale.
    q75 = {name: cdf.quantile(0.75) for name, cdf in cdfs.items()}
    assert q75["2dfq"] < q75["wfq"] / 5
    assert q75["wf2q"] < q75["wfq"] / 5

    # t1's lag range is far tighter under 2DFQ/WF2Q than WFQ, and grows
    # with request size.
    def span(name, tenant):
        p1, p99 = ranges[name][tenant]
        return p99 - p1

    assert span("2dfq", "t1") < span("wfq", "t1") / 5
    assert span("wf2q", "t1") < span("wfq", "t1") / 4
    assert span("2dfq", "t7") > span("2dfq", "t1")
    assert span("wfq", "t7") > 10 * span("2dfq", "t1")
    emit_figure(capsys, "fig10", data)
