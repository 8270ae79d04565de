"""Figure 3: mean request cost vs coefficient of variation per
(tenant, API) pair.

The paper's point: conditioning on the tenant collapses each API's
population spread for *most* tenants (predictable, low CoV), but every
API also has tenants using it unpredictably (high CoV).  We regenerate
the scatter for a population of random tenants and report, per API, how
many tenants fall in each class.
"""

import numpy as np

from repro.figures import FIGURES

from conftest import emit_figure, once


def test_fig03_mean_vs_cov(benchmark, capsys):
    points = once(benchmark, FIGURES["fig03"].run)
    all_covs = np.array([cov for _, _, cov in points])
    # The paper's qualitative claim: both classes exist.
    assert (all_covs < 0.5).mean() > 0.4
    assert (all_covs > 1.0).mean() > 0.05
    emit_figure(capsys, "fig03", points)
