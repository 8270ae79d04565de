"""Static-analyzer runtime benchmark and budget gate.

The full ``repro.analysis`` catalogue runs as a pre-commit / CI gate,
so its wall-clock must stay interactive.  This bench times one cold run
over ``src/repro`` under the complete rule set, records the measurement
into the ``analysis`` section of ``BENCH_manifest.json``, and fails if
the run exceeds the 10-second budget.
"""

from __future__ import annotations

import os
import time

from repro.analysis import Analyzer

from conftest import emit, merge_bench_manifest

#: Hard wall-clock budget (seconds) for one cold full-catalogue run.
ANALYSIS_BUDGET_SECONDS = 10.0

SRC_REPRO = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "src",
    "repro",
)


def test_analysis_runtime_budget(capsys):
    started = time.perf_counter()  # repro: ignore[RPR001] -- host timing of the analyzer itself
    result = Analyzer().run([SRC_REPRO])
    cold_seconds = time.perf_counter() - started  # repro: ignore[RPR001] -- host timing of the analyzer itself

    assert result.findings == []  # the tree gate, enforced here too

    section = {
        "budget_seconds": ANALYSIS_BUDGET_SECONDS,
        "cold_seconds": round(cold_seconds, 3),
        "files_analyzed": result.files_analyzed,
        "rules": len(Analyzer().rules),
    }
    merge_bench_manifest(analysis=section)
    emit(
        capsys,
        "analysis: static-analyzer runtime",
        "\n".join(
            [
                f"cold full catalogue  {cold_seconds:8.3f} s "
                f"(budget {ANALYSIS_BUDGET_SECONDS:.0f} s)",
                f"files analyzed       {result.files_analyzed:8d}",
            ]
        ),
    )

    assert cold_seconds < ANALYSIS_BUDGET_SECONDS
