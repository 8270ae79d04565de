"""Figure 1: bursty vs smooth schedules, 4 tenants / 2 threads.

Paper: A and B send 1-second requests, C and D 10-second requests.  WFQ
produces the bursty schedule (A and B starve for ~10s periods); 2DFQ
produces the smooth schedule (~1s gaps).  Both are long-run fair.
"""

from repro.experiments.schedule_examples import gap_statistics
from repro.figures import FIGURES

from conftest import emit_figure, once


def test_fig01_bursty_vs_smooth(benchmark, capsys):
    schedules = once(benchmark, FIGURES["fig01"].run)
    # Reproduction checks (Figure 1 caption).
    assert gap_statistics(schedules["wfq"], "A")[1] >= 10.0
    assert gap_statistics(schedules["2dfq"], "A")[1] <= 2.0
    emit_figure(capsys, "fig01", schedules)
