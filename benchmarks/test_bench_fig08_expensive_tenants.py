"""Figure 8: known costs with increasingly many expensive tenants.

(a) service rate and service lag of one small tenant at n=50% expensive;
(b) thread occupancy (2DFQ partitions by size, the baselines do not);
(c) sigma(service lag) of the small tenant as the expensive-tenant count
    sweeps -- WFQ grows, WF2Q plateaus near its worst case, 2DFQ stays
    about an order of magnitude lower.

Scale: the fig08 entry of ``repro.figures`` (16 threads as in the
paper; shorter horizons than its 15 s, as the shapes are stationary
well before that).
"""

from repro.experiments.expensive_requests import occupancy_expensive_fraction
from repro.figures import FIGURES

from conftest import emit_figure, once


def test_fig08_expensive_tenants(benchmark, capsys):
    half, sweep = data = once(benchmark, FIGURES["fig08"].run)

    sigma_at_50 = {name: sweep.sigmas[name][2] for name in sweep.sigmas}
    assert sigma_at_50["2dfq"] < sigma_at_50["wfq"] / 4
    assert sigma_at_50["2dfq"] < sigma_at_50["wf2q"] / 2
    frac_2dfq = occupancy_expensive_fraction(half["2dfq"], half.config.num_threads)
    assert frac_2dfq.max() > 0.8 and frac_2dfq.min() < 0.1
    # WFQ roughly grows with n; 2DFQ stays low throughout.
    assert max(sweep.sigmas["2dfq"]) < max(sweep.sigmas["wfq"]) / 3
    emit_figure(capsys, "fig08", data)
