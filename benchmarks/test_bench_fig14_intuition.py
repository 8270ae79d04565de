"""Figure 14: quality of service vs workload unpredictability (§7).

The discussion figure: moving from fully predictable (left) to fully
unpredictable (right) workloads, every scheduler's quality of service
falls, but 2DFQ^E degrades much more slowly than WFQ^E / WF2Q^E --
opening the gap in the middle where typical workloads live.

QoS score = normalized 1 / median(sigma(service lag) of the
predictable small tenants T1..T4).
"""

from repro.figures import FIGURES

from conftest import emit_figure, once


def test_fig14_intuition_curve(benchmark, capsys):
    curve = once(benchmark, FIGURES["fig14"].run)

    # Shape (paper Figure 14): 2DFQ^E's quality-of-service curve sits
    # above both baselines at every unpredictability level, with a
    # clear gap in the middle ground where typical workloads live.
    for i in range(len(curve.fractions)):
        assert curve.qos["2dfq-e"][i] >= curve.qos["wfq-e"][i]
        assert curve.qos["2dfq-e"][i] >= curve.qos["wf2q-e"][i]
    middle = len(curve.fractions) // 2
    assert curve.qos["2dfq-e"][middle] > 2.0 * curve.qos["wfq-e"][middle]
    assert curve.qos["2dfq-e"][middle] > 2.0 * curve.qos["wf2q-e"][middle]
    emit_figure(capsys, "fig14", curve)
