"""Experiment harness: one module per figure of the paper's evaluation.

==============================  =============================================
Module                          Paper figures
==============================  =============================================
``schedule_examples``           Figures 1, 5, 6 (worked schedules)
``expensive_requests``          Figure 8 (known costs, synthetic)
``production``                  Figures 9, 10 (known costs, production-like)
``unpredictable``               Figures 11, 12 (unknown costs)
``suite``                       Figure 13 (randomized 150-experiment suite)
``intuition``                   Figure 14 (QoS vs unpredictability curve)
``degradation``                 Fairness under injected faults (figfault)
==============================  =============================================
"""

from .config import ExperimentConfig
from .degradation import (
    DegradationResult,
    degradation_config,
    degradation_plan,
    run_degradation,
)
from .expensive_requests import (
    run_expensive_requests,
    sigma_vs_expensive,
    small_tenant_series,
)
from .intuition import IntuitionCurve, run_intuition_sweep
from .production import (
    fixed_cost_lag_ranges,
    lag_sigma_cdfs,
    production_specs,
    run_production,
)
from .report import format_table, sparkline
from .runner import ComparisonResult, run_comparison, run_single
from .schedule_examples import (
    ScheduledSlot,
    gap_statistics,
    render_schedule,
    worked_example,
)
from .suite import SuiteParameters, SuiteResult, run_suite, sample_experiment
from .unpredictable import (
    UnpredictableSweep,
    run_unpredictable,
    run_unpredictable_sweep,
)

__all__ = [
    "ExperimentConfig",
    "run_single",
    "run_comparison",
    "ComparisonResult",
    "worked_example",
    "render_schedule",
    "gap_statistics",
    "ScheduledSlot",
    "run_expensive_requests",
    "sigma_vs_expensive",
    "small_tenant_series",
    "run_production",
    "production_specs",
    "lag_sigma_cdfs",
    "fixed_cost_lag_ranges",
    "run_unpredictable",
    "run_unpredictable_sweep",
    "UnpredictableSweep",
    "run_degradation",
    "degradation_config",
    "degradation_plan",
    "DegradationResult",
    "run_suite",
    "sample_experiment",
    "SuiteParameters",
    "SuiteResult",
    "run_intuition_sweep",
    "IntuitionCurve",
    "format_table",
    "sparkline",
]
