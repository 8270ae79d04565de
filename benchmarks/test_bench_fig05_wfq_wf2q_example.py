"""Figure 5: WFQ and WF2Q schedules on the worked example.

Four backlogged tenants share two threads; A and B send size-1 requests,
C and D size-4.  Expected (paper §4): WFQ runs four A/B rounds then
blocks both threads with C and D at t=4; WF2Q interleaves one large
block per small burst starting at t=1.
"""

from repro.figures import FIGURES

from conftest import emit_figure, once


def test_fig05_wfq_wf2q_schedules(benchmark, capsys):
    schedules = once(benchmark, FIGURES["fig05"].run)
    wfq_w0 = [s.label for s in schedules["wfq"] if s.thread_id == 0]
    assert wfq_w0[:5] == ["a1", "a2", "a3", "a4", "c1"]
    wf2q_w0 = [s.label for s in schedules["wf2q"] if s.thread_id == 0]
    assert wf2q_w0[:2] == ["a1", "c1"]
    emit_figure(capsys, "fig05", schedules)
