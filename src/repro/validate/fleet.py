"""Cross-server request-conservation ledger (DESIGN.md §16).

The per-server watchdog (:class:`~repro.validate.watchdog
.ValidatingScheduler`) checks scheduler invariants *inside* one server;
it cannot see a request vanish between servers.  The ledger closes that
gap: it subscribes to the fleet's logical-request listeners and checks
that every admitted request reaches **exactly one** terminal outcome --

* completed once (a second completion for the same seqno raises
  immediately: the no-duplication half of the invariant);
* abandoned once (failover retry budget or fleet-level deadline policy
  exhausted);
* or is verifiably still in flight at :meth:`verify` time -- live on a
  server (including frozen on a crashed one) or awaiting a failover
  retry.

Anything else is a lost request (the no-loss half).  The ledger also
checks the charge side on every completion: the request's reported
usage must not exceed its true cost beyond float tolerance -- a request
drained from a dead server is refunded before it is re-routed, so an
overshoot means a double charge.

Enable wherever the fleet runs under ``REPRO_VALIDATE=1`` (the
experiment runner and the property tests do).
"""

from __future__ import annotations

from typing import Dict, List, Set

from ..core.request import Request
from ..errors import InvariantViolation
from ..fleet.fleet import Fleet

__all__ = ["FleetConservationLedger"]

#: Relative tolerance for the charge-reconciliation check.
_CHARGE_RTOL = 1e-6


class FleetConservationLedger:
    """No-lost / no-duplicated-requests invariant across a fleet.

    Parameters
    ----------
    fleet:
        The fleet to audit; listeners are registered at construction,
        so build the ledger *before* starting sources.
    strict:
        Raise :class:`~repro.errors.InvariantViolation` at the offending
        event (duplicates, over-charges) and from :meth:`verify`;
        ``strict=False`` only records into :attr:`errors`.
    """

    def __init__(self, fleet: Fleet, strict: bool = True) -> None:
        self._fleet = fleet
        self._strict = bool(strict)
        self._admitted: Dict[int, Request] = {}
        self._completions: Dict[int, int] = {}
        self._abandoned: Set[int] = set()
        self._rejections = 0
        self.errors: List[str] = []
        fleet.on_admit(self._on_admit)
        fleet.on_complete(self._on_complete)
        fleet.on_abandon(self._on_abandon)
        fleet.on_reject(self._on_reject)

    # -- listeners ---------------------------------------------------------

    def _on_admit(self, request: Request) -> None:
        self._admitted[request.seqno] = request

    def _on_complete(self, request: Request) -> None:
        seqno = request.seqno
        count = self._completions.get(seqno, 0) + 1
        self._completions[seqno] = count
        if count > 1:
            self._flag(
                f"request {request.tenant_id}/{request.api}#{seqno} "
                f"completed {count} times"
            )
        if request.reported_usage > request.cost * (1.0 + _CHARGE_RTOL):
            self._flag(
                f"request {request.tenant_id}/{request.api}#{seqno} "
                f"over-charged: reported {request.reported_usage:g} "
                f"for cost {request.cost:g}"
            )
        if seqno in self._abandoned:
            self._flag(
                f"request {request.tenant_id}/{request.api}#{seqno} "
                "completed after being abandoned"
            )

    def _on_abandon(self, request: Request) -> None:
        seqno = request.seqno
        if seqno in self._abandoned:
            self._flag(
                f"request {request.tenant_id}/{request.api}#{seqno} "
                "abandoned twice"
            )
        if seqno in self._completions:
            self._flag(
                f"request {request.tenant_id}/{request.api}#{seqno} "
                "abandoned after completing"
            )
        self._abandoned.add(seqno)

    def _on_reject(self, request: Request) -> None:
        self._rejections += 1

    # -- verdict -----------------------------------------------------------

    @property
    def admitted(self) -> int:
        return len(self._admitted)

    @property
    def completed(self) -> int:
        return len(self._completions)

    @property
    def rejections(self) -> int:
        return self._rejections

    def verify(self) -> None:
        """End-of-run audit: every admitted request must be completed,
        abandoned, or verifiably still pending in the fleet."""
        pending = self._fleet.pending_seqnos()
        for seqno in sorted(self._admitted):
            terminal = (seqno in self._completions) + (seqno in self._abandoned)
            if terminal == 0 and seqno not in pending:
                request = self._admitted[seqno]
                self._flag(
                    f"request {request.tenant_id}/{request.api}#{seqno} "
                    "lost: admitted but neither completed, abandoned, "
                    "nor pending anywhere in the fleet"
                )
        if self.errors and not self._strict:
            return
        # strict mode raised at flag time; nothing more to do

    def _flag(self, message: str) -> None:
        self.errors.append(message)
        if self._strict:
            raise InvariantViolation("fleet-conservation", message)
