"""Figure 6: the 2DFQ schedule on the worked example.

Expected (paper Figure 6b): W0 = a1 c1 d1 c2 ... (larges partitioned to
the low-index thread), W1 = b1 a2 b2 a3 b3 ... (smalls alternate
smoothly on the high-index thread).
"""

from repro.experiments.schedule_examples import gap_statistics
from repro.figures import FIGURES

from conftest import emit_figure, once


def test_fig06_twodfq_schedule(benchmark, capsys):
    slots = once(benchmark, FIGURES["fig06"].run)
    w0 = [s.label for s in slots if s.thread_id == 0]
    w1 = [s.label for s in slots if s.thread_id == 1]
    assert w0[:4] == ["a1", "c1", "d1", "c2"]
    assert w1[:5] == ["b1", "a2", "b2", "a3", "b3"]
    _, max_gap = gap_statistics(slots, "A")
    assert max_gap <= 2.0
    emit_figure(capsys, "fig06", slots)
