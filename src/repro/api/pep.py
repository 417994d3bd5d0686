"""The Policy Enforcement Point: the side-effect layer.

:class:`EnforcementPoint` is the single owner of everything the decision
pipeline must never do: writing the audit log, emitting alerts, and feeding
movement observations to the continuous monitor.  These concerns live
behind one object, apart from the decision logic, so a deployment can swap
the PDP pipeline without touching enforcement, and vice versa.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, List, Optional

from repro.core.requests import AccessRequest
from repro.core.subjects import subject_name
from repro.engine.alerts import Alert, AlertKind, AlertSink
from repro.engine.audit import AuditLog
from repro.locations.location import location_name
from repro.storage.ingest import (
    DEFAULT_BATCH_SIZE,
    DEFAULT_MAX_LATENCY,
    DEFAULT_QUEUE_SIZE,
    CheckpointPolicy,
    MovementIngestor,
)
from repro.api.decision import Decision
from repro.api.pdp import DecisionPoint

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.engine.monitor import MovementMonitor
    from repro.storage.movement_db import MovementDatabase, MovementRecord

__all__ = ["EnforcementPoint"]


class EnforcementPoint:
    """Enforce decisions: audit, alert, and record observed movements.

    Parameters
    ----------
    decision_point:
        The PDP consulted for every enforcement.
    monitor:
        The continuous movement monitor fed by ``observe_entry``/``observe_exit``.
    movement_db:
        The movement database (read back for audit records after an
        observation).
    audit:
        Audit log; created when omitted.
    alerts:
        Alert sink for denied-request alerts; created when omitted.
    """

    def __init__(
        self,
        decision_point: DecisionPoint,
        monitor: "MovementMonitor",
        movement_db: "MovementDatabase",
        *,
        audit: Optional[AuditLog] = None,
        alerts: Optional[AlertSink] = None,
    ) -> None:
        self._pdp = decision_point
        self._monitor = monitor
        self._movement_db = movement_db
        self._audit = audit if audit is not None else AuditLog()
        self._alerts = alerts if alerts is not None else AlertSink()

    # ------------------------------------------------------------------ #
    # Accessors
    # ------------------------------------------------------------------ #
    @property
    def decision_point(self) -> DecisionPoint:
        """The PDP this PEP enforces."""
        return self._pdp

    @property
    def audit(self) -> AuditLog:
        """The audit log this PEP writes."""
        return self._audit

    @property
    def alert_sink(self) -> AlertSink:
        """The sink receiving denied-request alerts."""
        return self._alerts

    # ------------------------------------------------------------------ #
    # Enforcement
    # ------------------------------------------------------------------ #
    def enforce(self, request: AccessRequest) -> Decision:
        """Decide *request*, audit the outcome, and alert on denial."""
        decision = self._pdp.decide(request)
        return self._record(decision)

    def enforce_many(self, requests: Iterable[AccessRequest]) -> List[Decision]:
        """Batch :meth:`enforce`: decide via the batch PDP path, then audit each."""
        decisions = self._pdp.decide_many(requests)
        for decision in decisions:
            self._record(decision)
        return decisions

    def enforce_and_enter(self, request: AccessRequest) -> Decision:
        """Enforce *request* and, when granted, record the entry observation."""
        decision = self.enforce(request)
        if decision.granted:
            self.observe_entry(request.time, request.subject, request.location)
        return decision

    def attest(self, decision: Decision, *, cached_generation=None) -> Decision:
        """Audit an already-computed decision exactly as :meth:`enforce` would.

        The network server's ``enforce`` op serves repeated requests from
        its decision cache; an audited deployment must still see **every**
        enforcement in the log, so a cache hit is re-audited here — the
        decision entry plus, with *cached_generation*, a ``CACHED`` note
        naming the invalidation-generation token the entry was computed
        under.  An auditor can thereby distinguish a freshly evaluated
        decision from a re-served one and tell exactly which invalidation
        era produced it.  Denials re-emit their alert too: each enforcement
        of a denied request is an event the guards should see, cached or
        not.
        """
        self._record(decision)
        if cached_generation is not None:
            request = decision.request
            self._audit.record_note(
                request.time,
                request.subject,
                f"CACHED decision for {request.location!r} re-served from cache "
                f"generation {tuple(cached_generation)!r}",
            )
        return decision

    def _record(self, decision: Decision) -> Decision:
        self._audit.record_decision(decision)
        if not decision.granted:
            request = decision.request
            alert = self._alerts.emit(
                Alert(
                    request.time,
                    AlertKind.DENIED_REQUEST,
                    request.subject,
                    request.location,
                    str(decision.reason),
                )
            )
            self._audit.record_alert(alert)
        return decision

    # ------------------------------------------------------------------ #
    # Movement observation (continuous monitoring)
    # ------------------------------------------------------------------ #
    def observe_entry(self, time: int, subject: str, location: str) -> List[Alert]:
        """Record that *subject* was observed entering *location* at *time*."""
        alerts = self._monitor.observe_entry(time, subject, location)
        self._audit_movement(time, subject, location)
        for alert in alerts:
            self._audit.record_alert(alert)
        return alerts

    def observe_exit(self, time: int, subject: str, location: str) -> List[Alert]:
        """Record that *subject* was observed leaving *location* at *time*."""
        alerts = self._monitor.observe_exit(time, subject, location)
        self._audit_movement(time, subject, location)
        for alert in alerts:
            self._audit.record_alert(alert)
        return alerts

    def observe_many(self, records: Iterable["MovementRecord"]) -> List[Alert]:
        """Batch observation path: one storage transaction for the whole trace.

        Audit entries are written only after the batch commits (movements
        first, then alerts): if a mid-batch failure rolls the transaction
        back, the audit log never attests to movements that were undone —
        the per-record path does not need this because each observation
        commits before it is audited.
        """
        observed: List["MovementRecord"] = []
        alerts = self._monitor.observe_many(records, on_record=observed.append)
        for record in observed:
            self._audit.record_movement(record)
        for alert in alerts:
            self._audit.record_alert(alert)
        return alerts

    def ingestor(
        self,
        *,
        batch_size: int = DEFAULT_BATCH_SIZE,
        max_latency: float = DEFAULT_MAX_LATENCY,
        queue_size: int = DEFAULT_QUEUE_SIZE,
        checkpoint_policy: Optional[CheckpointPolicy] = None,
    ) -> MovementIngestor:
        """A streaming observe path: queue-fed group commits into this PEP.

        The returned :class:`~repro.storage.ingest.MovementIngestor` feeds
        :meth:`observe_many` from a background writer — tracker adapters
        ``submit()`` records at line rate and batches land as one storage
        transaction each (flushed by size or by ``max_latency``), with the
        monitor's alerting and the audit trail intact.  Close the ingestor
        (or use it as a context manager) to flush everything accepted.

        With a :class:`~repro.storage.ingest.CheckpointPolicy`, the writer
        thread additionally checkpoints the movement database every N
        written events and/or M seconds (compaction + archive retention per
        the policy) — between batches, never inside one.
        """
        knobs = {
            "batch_size": batch_size,
            "max_latency": max_latency,
            "queue_size": queue_size,
        }
        if checkpoint_policy is not None:
            knobs["checkpoint_policy"] = checkpoint_policy
            # The alert sink rides along so archive prunes retire the alerts
            # of the pruned era (VIOLATIONS never outlives its movements).
            knobs["checkpoint"] = checkpoint_policy.bound(self._movement_db, self._alerts)
        return MovementIngestor(self.observe_many, **knobs)

    def _audit_movement(self, time: int, subject: str, location: str) -> None:
        """Audit the latest movement record, tolerating an empty history.

        A movement database may legitimately have recorded nothing (a
        filtering or sampling backend, a replica that dropped the write); the
        seed engine crashed with ``IndexError`` here.  The miss itself is
        worth auditing, so it is recorded as a note instead.

        The read is the O(1) ``last_movement`` projection lookup, not a
        history scan — this runs on every observation, making it the
        hottest read of the enforcement path.
        """
        last = self._movement_db.last_movement(subject, location)
        if last is not None:
            self._audit.record_movement(last)
        else:
            self._audit.record_note(
                time,
                subject_name(subject),
                f"movement observed at {location_name(location)!r} "
                "but the movement database recorded nothing for it",
            )
