"""Figure 4: 30-second time series of three reference tenants.

T2 -- stable rate, small predictable costs (Figure 4a);
T3 -- a large burst tapering off over four APIs (Figure 4b);
T10 -- bursts and lulls with costs spanning >3 decades (Figure 4c).
"""

from repro.figures import FIGURES

from conftest import emit_figure, once


def test_fig04_tenant_timeseries(benchmark, capsys):
    _, rates = data = once(benchmark, FIGURES["fig04"].run)
    t2, t3, t10 = (rates[t] for t in ("T2", "T3", "T10"))
    # T2 stable: modest variation around its mean.
    assert t2.std() / t2.mean() < 0.3
    # T3 tapering burst: first five seconds >> last five.
    assert t3[:5].sum() > 2 * t3[-5:].sum()
    # T10 bursts AND lulls: some silent seconds, some busy ones.
    assert (t10 == 0).any() and (t10 > 20).any()
    emit_figure(capsys, "fig04", data)
