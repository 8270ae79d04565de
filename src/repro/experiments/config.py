"""Experiment configuration.

An :class:`ExperimentConfig` pins down everything needed to run one
workload against several schedulers under identical conditions: pool
shape, duration, sampling, refresh charging, seeding, and per-scheduler
construction arguments.  The same workload trace is materialized once
and replayed against every scheduler (the paper's controlled-comparison
methodology).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from ..errors import ConfigurationError
from ..faults.plan import FaultPlan

__all__ = ["ExperimentConfig"]


@dataclass
class ExperimentConfig:
    """Shared parameters of one experiment.

    Parameters
    ----------
    schedulers:
        Registry names to compare (see :mod:`repro.core.registry`).
    num_threads, thread_rate:
        Worker pool shape; aggregate capacity is the product.
    duration:
        Simulated seconds per run.
    sample_interval:
        Metric sampling period; the paper uses 100 ms.
    refresh_interval:
        Refresh-charging period (paper: 10 ms); ``None`` disables it.
    warmup:
        Initial seconds excluded from metrics (estimators settling).
    scheduler_kwargs:
        Extra constructor arguments per scheduler name (e.g.
        ``{"2dfq-e": {"alpha": 0.95}}``).
    initial_estimate:
        Cold-start cost estimate applied to every ^E scheduler unless
        overridden in ``scheduler_kwargs``.
    fault_plan:
        Optional :class:`~repro.faults.plan.FaultPlan` injected into
        every run of this experiment (a plain dict is coerced, so
        JSON-loaded configs work).  Faults change results, so the plan
        is part of the config -- and therefore of run-cache keys.
    validate:
        Wrap every run's scheduler in the
        :class:`~repro.validate.ValidatingScheduler` invariant watchdog
        (also switchable process-wide via ``REPRO_VALIDATE=1``).
    """

    name: str
    schedulers: Tuple[str, ...]
    num_threads: int
    thread_rate: float
    duration: float
    sample_interval: float = 0.1
    refresh_interval: Optional[float] = 0.01
    warmup: float = 0.0
    seed: int = 0
    scheduler_kwargs: Dict[str, dict] = field(default_factory=dict)
    initial_estimate: Optional[float] = None
    record_dispatches: bool = True
    fault_plan: Optional[FaultPlan] = None
    validate: bool = False

    def __post_init__(self) -> None:
        if isinstance(self.fault_plan, dict):
            self.fault_plan = FaultPlan.from_dict(self.fault_plan)
        if self.num_threads < 1:
            raise ConfigurationError(f"num_threads must be >= 1, got {self.num_threads}")
        for name in ("thread_rate", "duration", "sample_interval"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ConfigurationError(
                    f"{name} must be positive and finite, got {value}"
                )
        for name in ("warmup", "refresh_interval"):
            value = getattr(self, name)
            if value is not None and not math.isfinite(value):
                raise ConfigurationError(f"{name} must be finite, got {value}")
        if not self.schedulers:
            raise ConfigurationError("at least one scheduler required")
        if self.warmup < 0 or self.warmup >= self.duration:
            raise ConfigurationError(
                f"warmup must be in [0, duration), got {self.warmup}"
            )

    @property
    def capacity(self) -> float:
        return self.num_threads * self.thread_rate

    def kwargs_for(self, scheduler_name: str) -> dict:
        """Constructor kwargs for one scheduler, with the shared
        ``initial_estimate`` applied to estimated variants."""
        kwargs = dict(self.scheduler_kwargs.get(scheduler_name, {}))
        if (
            self.initial_estimate is not None
            and scheduler_name.endswith("-e")
            and "initial_estimate" not in kwargs
            and "estimator" not in kwargs
        ):
            kwargs["initial_estimate"] = self.initial_estimate
        return kwargs
