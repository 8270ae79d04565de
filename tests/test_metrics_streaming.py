"""Sample-by-sample recording of service curves.

``ServiceRecorder`` takes one sample at a time from the collector and
keeps every one of them; these checks pin that a short series comes back
exactly as observed and that a tenant appearing mid-run is zero-filled
for the samples before it.
"""

import numpy as np
import pytest

from repro.metrics import ServiceRecorder


class TestBoundedServiceSeries:
    def test_below_capacity_is_exact(self):
        series = ServiceRecorder()
        for i in range(10):
            series.observe(i * 0.1, {"A": float(i)}, {"A": float(i) * 0.9})
        times, actual, gps = series.columns("A")
        assert times == pytest.approx(np.arange(10) * 0.1)
        assert actual == pytest.approx(np.arange(10, dtype=float))
        assert gps == pytest.approx(np.arange(10) * 0.9)

    def test_late_tenant_backfilled(self):
        series = ServiceRecorder()
        series.observe(0.1, {"A": 1.0}, {})
        series.observe(0.2, {"A": 2.0, "B": 5.0}, {})
        _, actual_b, _ = series.columns("B")
        assert actual_b == pytest.approx([0.0, 5.0])
