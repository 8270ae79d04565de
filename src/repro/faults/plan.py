"""The fault-plan DSL: a declarative, seeded description of every fault
injected into one run.

The paper's thesis is that 2DFQ/2DFQ^E preserve fairness exactly when
the real world misbehaves (PAPER.md §3, §5.3); a :class:`FaultPlan`
makes "the real world misbehaves" a first-class, reproducible input.
Plans are plain frozen dataclasses -- picklable, JSON round-trippable,
and canonicalizable -- so a plan embedded in an
:class:`~repro.experiments.config.ExperimentConfig` participates in the
content-addressed run-cache key exactly like every other parameter
(DESIGN.md §10 purity contract: faulted and fault-free runs can never
collide in the cache).

Determinism contract (DESIGN.md §11): every fault fires at a plan-fixed
simulated time through the discrete-event loop, and the only randomness
-- retry jitter -- comes from a :func:`~repro.simulator.rng.make_rng`
stream keyed on ``plan.seed``.  Same plan + same workload seed = same
run, event for event.

Fault vocabulary:

* :class:`WorkerSlowdown` -- a worker runs at ``factor`` times its rate
  during ``[start, end)``; ``factor=0`` is a full stall.
* :class:`WorkerCrash` -- a worker dies at ``at`` (its in-flight request
  loses all progress and is re-dispatched) and optionally restarts.
* :class:`DeadlinePolicy` -- client-side request deadlines with bounded
  retries under exponential backoff + jitter (the Cake/Retro-style SLO
  client, PAPERS.md).
* :class:`EstimatorFault` -- during ``[start, end)`` the cost estimator
  suffers an outage (estimates pinned to a pessimistic fallback,
  observations lost) or a multiplicative bias.
* :class:`ServerCrash` / :class:`ServerSlowdown` -- fleet-granularity
  faults: an entire :class:`~repro.simulator.server.ThreadPoolServer`
  in a :class:`~repro.fleet.Fleet` dies (optionally restarting) or runs
  degraded during a window.  Only the fleet-level injector
  (:class:`~repro.fleet.FleetInjector`) can execute these; the
  single-server :class:`~repro.faults.injector.FaultInjector` rejects
  plans containing them instead of silently ignoring a whole fault
  tier.
"""

from __future__ import annotations

import dataclasses
import json
import math
import numbers
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, Optional, Tuple, Type, Union

from ..errors import ConfigurationError

__all__ = [
    "WorkerSlowdown",
    "WorkerCrash",
    "DeadlinePolicy",
    "EstimatorFault",
    "ServerCrash",
    "ServerSlowdown",
    "FaultPlan",
    "retry_delay",
]


def retry_delay(
    backoff: float, growth: float, jitter: float, attempt: int, u: float
) -> float:
    """Exponential-backoff retry delay with bounded jitter.

    ``backoff * growth**attempt`` stretched by up to ``jitter`` via the
    caller-supplied uniform draw ``u`` in ``[0, 1)`` (seeded upstream,
    so the delay is deterministic per run).  This single formula is the
    client backoff of :class:`DeadlinePolicy` *and* the failover
    re-route backoff of :class:`repro.fleet.FailoverPolicy` -- sharing
    it keeps the two retry tiers comparable in figures.
    """
    delay = backoff * (growth ** attempt)
    return delay * (1.0 + jitter * u)


def _check_number(value: Any, what: str) -> None:
    # NaN passes every ``<``/``<=`` check below, so it must be caught
    # here or it surfaces mid-run as a SimulationError.
    if (
        isinstance(value, bool)
        or not isinstance(value, numbers.Real)
        or math.isnan(value)
    ):
        raise ConfigurationError(f"{what} must be a number, got {value!r}")


def _check_integer(value: Any, what: str) -> None:
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ConfigurationError(f"{what} must be an integer, got {value!r}")


def _check_window(start: float, end: float, what: str) -> None:
    _check_number(start, f"{what} start")
    _check_number(end, f"{what} end")
    if start < 0:
        raise ConfigurationError(f"{what} start must be >= 0, got {start}")
    if end <= start:
        raise ConfigurationError(
            f"{what} window must have end > start, got [{start}, {end})"
        )


@dataclass(frozen=True)
class WorkerSlowdown:
    """Worker ``worker`` runs at ``factor`` x nominal rate in ``[start, end)``.

    ``factor = 0.0`` stalls the worker completely: its current request
    freezes (resuming where it left off when the window closes) and any
    request dispatched to it meanwhile freezes too -- modelling a
    degraded-but-alive thread, not a dead one (that is
    :class:`WorkerCrash`).
    """

    worker: int
    start: float
    end: float
    factor: float

    def __post_init__(self) -> None:
        _check_integer(self.worker, "worker index")
        if self.worker < 0:
            raise ConfigurationError(f"worker index must be >= 0, got {self.worker}")
        _check_window(self.start, self.end, "slowdown")
        _check_number(self.factor, "slowdown factor")
        if self.factor < 0:
            raise ConfigurationError(
                f"slowdown factor must be >= 0, got {self.factor}"
            )


@dataclass(frozen=True)
class WorkerCrash:
    """Worker ``worker`` crashes at ``at``; optionally restarts.

    The in-flight request (if any) loses all progress; with
    ``redispatch`` (default) it immediately re-enters the scheduler with
    its identity intact -- the charge already applied for it is refunded
    through the :meth:`~repro.core.scheduler.Scheduler.cancel` path, so
    the tenant is eventually charged only for the work it receives.
    """

    worker: int
    at: float
    restart_at: Optional[float] = None
    redispatch: bool = True

    def __post_init__(self) -> None:
        _check_integer(self.worker, "worker index")
        if self.worker < 0:
            raise ConfigurationError(f"worker index must be >= 0, got {self.worker}")
        _check_number(self.at, "crash time")
        if self.restart_at is not None:
            _check_number(self.restart_at, "restart_at")
        if self.at < 0:
            raise ConfigurationError(f"crash time must be >= 0, got {self.at}")
        if self.restart_at is not None and self.restart_at <= self.at:
            raise ConfigurationError(
                f"restart_at must be after the crash, got {self.restart_at} <= {self.at}"
            )


@dataclass(frozen=True)
class DeadlinePolicy:
    """Client-side deadline + retry behaviour for submitted requests.

    A request not completed within ``deadline`` seconds of its (latest)
    submission is aborted and, while attempts remain, re-submitted after
    ``backoff * growth**attempt`` seconds stretched by up to ``jitter``
    (seeded, uniform).  An exhausted request is abandoned: its closed-
    loop source is notified so backlogged tenants keep issuing work.

    ``tenants = None`` applies the policy to every tenant; otherwise
    only to the listed tenant ids.
    """

    deadline: float
    max_retries: int = 0
    backoff: float = 0.05
    growth: float = 2.0
    jitter: float = 0.1
    tenants: Optional[Tuple[str, ...]] = None

    def __post_init__(self) -> None:
        _check_number(self.deadline, "deadline")
        _check_integer(self.max_retries, "max_retries")
        for name in ("backoff", "growth", "jitter"):
            _check_number(getattr(self, name), name)
        if self.deadline <= 0:
            raise ConfigurationError(
                f"deadline must be positive, got {self.deadline}"
            )
        if self.max_retries < 0:
            raise ConfigurationError(
                f"max_retries must be >= 0, got {self.max_retries}"
            )
        if self.backoff < 0 or self.growth < 1.0 or self.jitter < 0:
            raise ConfigurationError(
                "backoff must be >= 0, growth >= 1, jitter >= 0; got "
                f"backoff={self.backoff}, growth={self.growth}, "
                f"jitter={self.jitter}"
            )
        if self.tenants is not None:
            object.__setattr__(self, "tenants", tuple(self.tenants))

    def applies_to(self, tenant_id: str) -> bool:
        return self.tenants is None or tenant_id in self.tenants


@dataclass(frozen=True)
class EstimatorFault:
    """Estimator misbehaviour during ``[start, end)``.

    ``mode = "outage"``: estimates are pinned to ``fallback`` (or, when
    ``fallback`` is ``None``, to the largest cost observed before the
    window opened -- the pessimistic fallback of paper §5.3's spirit:
    when in doubt, assume expensive) and observations inside the window
    are lost.

    ``mode = "bias"``: estimates are multiplied by ``bias``;
    observations still flow, so the estimator keeps learning while its
    output is skewed (systematic mis-estimation).
    """

    start: float
    end: float
    mode: str = "outage"
    bias: float = 1.0
    fallback: Optional[float] = None

    def __post_init__(self) -> None:
        _check_window(self.start, self.end, "estimator fault")
        _check_number(self.bias, "bias")
        if self.fallback is not None:
            _check_number(self.fallback, "fallback")
        if self.mode not in ("outage", "bias"):
            raise ConfigurationError(
                f"estimator fault mode must be 'outage' or 'bias', got {self.mode!r}"
            )
        if self.bias <= 0:
            raise ConfigurationError(f"bias must be positive, got {self.bias}")
        if self.fallback is not None and self.fallback <= 0:
            raise ConfigurationError(
                f"fallback must be positive, got {self.fallback}"
            )

    def active_at(self, now: float) -> bool:
        return self.start <= now < self.end


@dataclass(frozen=True)
class ServerCrash:
    """Server ``server`` of a fleet dies at ``at``; optionally restarts.

    A crashed server freezes: every worker stops (in-flight requests
    hold their progress but never advance) and dispatch halts.  What
    happens next is the fleet's failover policy's business -- with
    failover enabled the health monitor detects the death and drains
    the dead server's queued + in-flight requests through the
    exact-refund ``cancel()`` path, re-routing them to survivors; with
    failover disabled the requests stay stuck (the degradation the
    ``figfleet`` figure contrasts).  ``restart_at`` brings the server
    back; a drained server restarts empty, an undrained one resumes
    its frozen requests.
    """

    server: int
    at: float
    restart_at: Optional[float] = None

    def __post_init__(self) -> None:
        _check_integer(self.server, "server index")
        if self.server < 0:
            raise ConfigurationError(
                f"server index must be >= 0, got {self.server}"
            )
        _check_number(self.at, "crash time")
        if self.restart_at is not None:
            _check_number(self.restart_at, "restart_at")
        if self.at < 0:
            raise ConfigurationError(f"crash time must be >= 0, got {self.at}")
        if self.restart_at is not None and self.restart_at <= self.at:
            raise ConfigurationError(
                f"restart_at must be after the crash, "
                f"got {self.restart_at} <= {self.at}"
            )


@dataclass(frozen=True)
class ServerSlowdown:
    """Server ``server`` runs every worker at ``factor`` x nominal rate
    in ``[start, end)`` -- a degraded-but-alive machine (thermal
    throttling, a noisy neighbour), not a dead one.  ``factor = 0.0``
    stalls the whole server; unlike :class:`ServerCrash` it stays
    routable, so the figure for it shows queueing, not loss."""

    server: int
    start: float
    end: float
    factor: float

    def __post_init__(self) -> None:
        _check_integer(self.server, "server index")
        if self.server < 0:
            raise ConfigurationError(
                f"server index must be >= 0, got {self.server}"
            )
        _check_window(self.start, self.end, "server slowdown")
        _check_number(self.factor, "slowdown factor")
        if self.factor < 0:
            raise ConfigurationError(
                f"slowdown factor must be >= 0, got {self.factor}"
            )


_KIND_CLASSES = {
    "slowdowns": WorkerSlowdown,
    "crashes": WorkerCrash,
    "deadlines": DeadlinePolicy,
    "estimator_faults": EstimatorFault,
    "server_crashes": ServerCrash,
    "server_slowdowns": ServerSlowdown,
}


def _entry(cls: Type[Any], where: str, item: Any) -> Any:
    """Build one plan entry from a dict, naming it (``crashes[1]``) in
    every error."""
    if not isinstance(item, dict):
        raise ConfigurationError(
            f"{where}: expected an object, got {type(item).__name__}"
        )
    fields = dataclasses.fields(cls)
    unknown = sorted(set(item) - {f.name for f in fields})
    missing = [
        f.name
        for f in fields
        if f.name not in item
        and f.default is dataclasses.MISSING
        and f.default_factory is dataclasses.MISSING
    ]
    if unknown:
        raise ConfigurationError(f"{where}: unknown fields {unknown}")
    if missing:
        raise ConfigurationError(f"{where}: missing fields {missing}")
    try:
        return cls(**item)
    except ConfigurationError as exc:
        raise ConfigurationError(f"{where}: {exc}") from None


@dataclass(frozen=True)
class FaultPlan:
    """Every fault injected into one run, plus the jitter seed.

    An empty plan (the default) is inert: the injector installs nothing
    and the run is bit-identical to an unfaulted one (the differential
    tests pin this).
    """

    slowdowns: Tuple[WorkerSlowdown, ...] = ()
    crashes: Tuple[WorkerCrash, ...] = ()
    deadlines: Tuple[DeadlinePolicy, ...] = ()
    estimator_faults: Tuple[EstimatorFault, ...] = ()
    server_crashes: Tuple[ServerCrash, ...] = ()
    server_slowdowns: Tuple[ServerSlowdown, ...] = ()
    seed: int = 0

    def __post_init__(self) -> None:
        _check_integer(self.seed, "fault plan seed")
        for name, cls in _KIND_CLASSES.items():
            entries = getattr(self, name)
            if not isinstance(entries, (list, tuple)):
                raise ConfigurationError(
                    f"{name} must be a list, got {type(entries).__name__}"
                )
            items = tuple(
                item if isinstance(item, cls) else _entry(cls, f"{name}[{i}]", item)
                for i, item in enumerate(entries)
            )
            object.__setattr__(self, name, items)

    @property
    def is_empty(self) -> bool:
        return not (
            self.slowdowns
            or self.crashes
            or self.deadlines
            or self.estimator_faults
            or self.server_crashes
            or self.server_slowdowns
        )

    @property
    def has_fleet_faults(self) -> bool:
        """True when the plan contains fleet-granularity faults, which
        only :class:`repro.fleet.FleetInjector` can execute."""
        return bool(self.server_crashes or self.server_slowdowns)

    def policy_for(self, tenant_id: str) -> Optional[DeadlinePolicy]:
        """The first deadline policy applying to ``tenant_id``."""
        for policy in self.deadlines:
            if policy.applies_to(tenant_id):
                return policy
        return None

    # -- JSON round trip ------------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: Any) -> "FaultPlan":
        if not isinstance(data, dict):
            raise ConfigurationError(
                f"a fault plan must be an object, got {type(data).__name__}"
            )
        unknown = set(data) - {"seed", *_KIND_CLASSES}
        if unknown:
            raise ConfigurationError(
                f"unknown fault plan keys: {sorted(unknown)}"
            )
        return cls(**data)

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    @classmethod
    def from_json(cls, text: str) -> "FaultPlan":
        return cls.from_dict(json.loads(text))

    @classmethod
    def load(cls, path: Union[str, Path]) -> "FaultPlan":
        """Read a plan from a JSON file (the ``--faults PLAN.json`` CLI path)."""
        try:
            return cls.from_json(Path(path).read_text())
        except (OSError, json.JSONDecodeError, ConfigurationError) as exc:
            raise ConfigurationError(f"cannot load fault plan {path}: {exc}") from exc

    def dump(self, path: Union[str, Path]) -> None:
        Path(path).write_text(self.to_json() + "\n")
