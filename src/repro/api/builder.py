"""The fluent construction layer and the :class:`Ltam` facade.

Two builders make deployments and authorizations read like the sentences
they describe::

    engine = (
        Ltam.builder()
        .hierarchy(campus)
        .backend("sqlite", "/var/lib/ltam.db")
        .stage(CapacityStage())
        .rule(supervisor_rule)
        .build()
    )
    engine.grant(grant("alice").at("meeting-room").during(9, 17).entries(3))

:class:`Ltam` is the primary engine of the redesigned API: it wires the
Figure 3 databases, the continuous monitor and the clock to a
:class:`~repro.api.pdp.DecisionPoint` (decisions) and an
:class:`~repro.api.pep.EnforcementPoint` (side effects), and layers the
administrative operations (grant/revoke/rules/derivation) on top.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

from repro.errors import EnforcementError
from repro.core.accessibility import AccessibilityReport, find_inaccessible
from repro.core.authorization import (
    UNLIMITED_ENTRIES,
    LocationAuthorization,
    LocationTemporalAuthorization,
)
from repro.core.derivation import DerivationEngine, DerivationResult
from repro.core.requests import AccessRequest
from repro.core.rules import AuthorizationRule
from repro.core.subjects import subject_name
from repro.engine.alerts import AlertSink
from repro.engine.audit import AuditLog
from repro.engine.monitor import MovementMonitor
from repro.locations.graph import LocationGraph
from repro.locations.location import location_name
from repro.locations.multilevel import LocationHierarchy, MultilevelLocationGraph
from repro.storage.authorization_db import (
    AuthorizationDatabase,
    InMemoryAuthorizationDatabase,
    SqliteAuthorizationDatabase,
)
from repro.storage.movement_db import (
    InMemoryMovementDatabase,
    MovementDatabase,
    SqliteMovementDatabase,
)
from repro.storage.profile_db import (
    InMemoryUserProfileDatabase,
    SqliteUserProfileDatabase,
    UserProfileDatabase,
)
from repro.temporal.chronon import Clock, TimePoint
from repro.temporal.interval import TimeInterval
from repro.api.decision import Decision
from repro.api.pdp import DecisionPoint, PolicyInformationPoint
from repro.api.pep import EnforcementPoint
from repro.api.stages import DecisionStage, EntryBudgetStage, default_pipeline

__all__ = ["Ltam", "LtamBuilder", "AuthorizationBuilder", "grant"]

#: Anything :meth:`Ltam.decide` accepts as a request.
RequestLike = Union[AccessRequest, Tuple[int, str, str]]


def _coerce_request(request: RequestLike) -> AccessRequest:
    if isinstance(request, AccessRequest):
        return request
    if isinstance(request, tuple) and len(request) == 3:
        time, subject, location = request
        return AccessRequest(time, subject, location)
    raise EnforcementError(
        f"cannot interpret {request!r} as an access request; "
        "pass an AccessRequest or a (time, subject, location) triple"
    )


def _coerce_hierarchy(
    layout: Union[LocationHierarchy, MultilevelLocationGraph, LocationGraph]
) -> LocationHierarchy:
    if isinstance(layout, LocationHierarchy):
        return layout
    return LocationHierarchy(layout)


class Ltam:
    """PDP/PEP engine over a protected location hierarchy.

    Composes the three Figure 3 databases, the continuous movement monitor,
    a :class:`~repro.api.pdp.DecisionPoint` evaluating requests through a
    pluggable stage pipeline, and an
    :class:`~repro.api.pep.EnforcementPoint` owning audit/alerts/recording.

    Prefer :meth:`Ltam.builder` for construction; the constructor mirrors the
    seed engine's keyword arguments for drop-in use.
    """

    def __init__(
        self,
        hierarchy: Union[LocationHierarchy, MultilevelLocationGraph, LocationGraph],
        *,
        authorization_db: Optional[AuthorizationDatabase] = None,
        movement_db: Optional[MovementDatabase] = None,
        profile_db: Optional[UserProfileDatabase] = None,
        clock: Optional[Clock] = None,
        alert_sink: Optional[AlertSink] = None,
        audit_log: Optional[AuditLog] = None,
        stages: Optional[Sequence[DecisionStage]] = None,
    ) -> None:
        self.hierarchy = _coerce_hierarchy(hierarchy)
        self.authorization_db = (
            authorization_db if authorization_db is not None else InMemoryAuthorizationDatabase()
        )
        self.movement_db = (
            movement_db if movement_db is not None else InMemoryMovementDatabase(self.hierarchy)
        )
        self.profile_db = profile_db if profile_db is not None else InMemoryUserProfileDatabase()
        self.clock = clock if clock is not None else Clock()
        self.alerts = alert_sink if alert_sink is not None else AlertSink()
        self.audit = audit_log if audit_log is not None else AuditLog()
        self.monitor = MovementMonitor(self.authorization_db, self.movement_db, self.alerts)
        self.pdp = DecisionPoint.for_components(
            self.hierarchy,
            self.authorization_db,
            self.movement_db,
            stages=stages,
            capacity_of=self.monitor.capacity_of,
        )
        self.pep = EnforcementPoint(
            self.pdp,
            self.monitor,
            self.movement_db,
            audit=self.audit,
            alerts=self.alerts,
        )
        self._rules: List[AuthorizationRule] = []
        self._derivation: Optional[DerivationEngine] = None
        self._derivation_directory = None
        self._cache_unsubscribe = None
        self._occupancy_base = None
        # Overstay checks run automatically as simulation time advances.
        self.clock.subscribe(self.monitor.check_overstays)

    @staticmethod
    def builder() -> "LtamBuilder":
        """Start a fluent engine definition."""
        return LtamBuilder()

    # ------------------------------------------------------------------ #
    # Administration
    # ------------------------------------------------------------------ #
    def grant(
        self, authorization: Union[LocationTemporalAuthorization, "AuthorizationBuilder"]
    ) -> LocationTemporalAuthorization:
        """Store an authorization (or a fluent builder thereof), validating its location."""
        if isinstance(authorization, AuthorizationBuilder):
            authorization = authorization.build()
        if not self.hierarchy.is_primitive(authorization.location):
            raise EnforcementError(
                f"authorization {authorization.auth_id!r} references {authorization.location!r}, "
                "which is not a primitive location of the protected hierarchy"
            )
        stored = self.authorization_db.add(authorization)
        self.pdp.invalidate_cached(stored.subject, stored.location)
        return stored

    def grant_all(
        self,
        authorizations: Iterable[Union[LocationTemporalAuthorization, "AuthorizationBuilder"]],
    ) -> List[LocationTemporalAuthorization]:
        """Store several authorizations."""
        return [self.grant(authorization) for authorization in authorizations]

    def revoke(self, auth_id: str, *, cascade: bool = True) -> List[LocationTemporalAuthorization]:
        """Revoke an authorization, cascading to derived authorizations by default."""
        if cascade:
            revoked = self.authorization_db.revoke_cascading(auth_id)
        else:
            revoked = [self.authorization_db.revoke(auth_id)]
        for authorization in revoked:
            self.pdp.invalidate_cached(authorization.subject, authorization.location)
        return revoked

    def add_rule(self, rule: AuthorizationRule, *, derive_now: bool = True) -> DerivationResult:
        """Register an authorization rule and (by default) derive immediately.

        Section 5: *"When the administrator specifies new rules, the access
        control engine will evaluate the new rules on the existing
        authorizations and user profiles.  The derived authorizations are
        then added to the authorization database."*
        """
        self._derivation_engine().add_rule(rule)
        self._rules.append(rule)
        if not derive_now:
            return DerivationResult((), (), ())
        return self.derive_authorizations(rules=[rule])

    @property
    def rules(self) -> Tuple[AuthorizationRule, ...]:
        """Every rule registered with the engine."""
        return tuple(self._rules)

    @property
    def derivation(self) -> DerivationEngine:
        """The derivation engine, rebuilt only when the profile directory changes."""
        return self._derivation_engine()

    def _derivation_engine(self) -> DerivationEngine:
        # The directory may change after construction (profile updates).  The
        # in-memory backend mutates one directory in place — the cached
        # derivation engine sees those changes through its reference — while
        # the SQLite backend hands out a fresh directory object after every
        # write, which is exactly the signal to rebuild.
        directory = self.profile_db.directory()
        if self._derivation is None or self._derivation_directory is not directory:
            self._derivation = DerivationEngine(directory, self.hierarchy)
            self._derivation_directory = directory
            for rule in self._rules:
                self._derivation.add_rule(rule)
        return self._derivation

    def derive_authorizations(
        self, *, rules: Optional[Sequence[AuthorizationRule]] = None
    ) -> DerivationResult:
        """Run (selected) rules against the stored authorizations and persist the results."""
        engine = self._derivation_engine()
        selected = list(rules) if rules is not None else list(self._rules)
        result = engine.derive(self.authorization_db.all(), now=self.clock.now, rules=selected)
        existing = set(self.authorization_db.all())
        for authorization in result.derived:
            if authorization in existing:
                continue
            self.authorization_db.add(authorization)
            self.pdp.invalidate_cached(authorization.subject, authorization.location)
            existing.add(authorization)
        for batch in result.batches:
            self.audit.record_derivation(
                self.clock.now,
                batch.base.subject,
                f"rule {batch.rule_id} derived {len(batch.derived)} authorization(s)",
            )
        return result

    # ------------------------------------------------------------------ #
    # Decisions (PDP) and enforcement (PEP)
    # ------------------------------------------------------------------ #
    def decide(self, request: RequestLike) -> Decision:
        """Evaluate a request without side effects; the decision carries its trace."""
        return self.pdp.decide(_coerce_request(request))

    def decide_many(self, requests: Iterable[RequestLike]) -> List[Decision]:
        """Batch-evaluate requests (no side effects); see :meth:`DecisionPoint.decide_many`."""
        return self.pdp.decide_many([_coerce_request(request) for request in requests])

    def enforce(self, request: RequestLike) -> Decision:
        """Evaluate a request and record the outcome (audit + denial alerts)."""
        return self.pep.enforce(_coerce_request(request))

    def enforce_many(self, requests: Iterable[RequestLike]) -> List[Decision]:
        """Batch :meth:`enforce` via the batch decision path."""
        return self.pep.enforce_many([_coerce_request(request) for request in requests])

    def enforce_and_enter(self, request: RequestLike) -> Decision:
        """Enforce a request and, when granted, record the entry observation."""
        return self.pep.enforce_and_enter(_coerce_request(request))

    # ------------------------------------------------------------------ #
    # Movement observation (continuous monitoring)
    # ------------------------------------------------------------------ #
    def observe_entry(self, time: int, subject: str, location: str):
        """Record that *subject* was observed entering *location* at *time*."""
        return self.pep.observe_entry(time, subject, location)

    def observe_exit(self, time: int, subject: str, location: str):
        """Record that *subject* was observed leaving *location* at *time*."""
        return self.pep.observe_exit(time, subject, location)

    def observe_many(self, records):
        """Feed a whole movement trace to the monitor in one storage transaction.

        Accepts an iterable of
        :class:`~repro.storage.movement_db.MovementRecord` (e.g. a
        :class:`~repro.simulation.movement.SimulatedTrace`); on the SQLite
        backend the entire trace commits once instead of per observation.
        """
        return self.pep.observe_many(records)

    def observe_stream(self, **knobs):
        """Open a streaming observe path (queue-fed group commit) into the PEP.

        Returns a :class:`~repro.storage.ingest.MovementIngestor`; tracker
        adapters ``submit()`` observations at line rate, a background writer
        lands them in batched storage transactions (monitoring and audit
        included), and closing the stream flushes everything accepted::

            with engine.observe_stream(batch_size=512) as stream:
                for record in tracker_feed:
                    stream.submit(record)

        Keyword arguments are those of
        :meth:`~repro.api.pep.EnforcementPoint.ingestor` (``batch_size``,
        ``max_latency``, ``queue_size``, and ``checkpoint_policy`` for
        scheduled checkpointing piggybacked on the writer thread).
        """
        return self.pep.ingestor(**knobs)

    def checkpoint(self, *, compact: bool = True):
        """Checkpoint the movement database (see :meth:`MovementDatabase.checkpoint`)."""
        return self.movement_db.checkpoint(compact=compact)

    def attach_decision_cache(self, cache=None):
        """Attach a decision cache to the PDP and connect its invalidation.

        With no argument a fresh
        :class:`~repro.service.cache.DecisionCache` is created.  The cache
        is subscribed to the movement database's mutation notifications
        (event-wise eviction on every observation/ingest), and the
        administrative paths (:meth:`grant`, :meth:`revoke`, rule
        derivation, :meth:`set_capacity`) invalidate through the PDP hooks —
        so repeated :meth:`decide` calls on hot keys skip the pipeline while
        staying parity-correct.  A previously attached cache is detached
        (and unsubscribed) first.  Returns the cache.
        """
        self.detach_decision_cache()
        if cache is None:
            from repro.service.cache import DecisionCache  # avoid a circular import

            cache = DecisionCache()
        self.pdp.attach_cache(cache)
        connect = getattr(cache, "connect", None)
        if callable(connect):
            self._cache_unsubscribe = connect(self.movement_db)
        return cache

    def detach_decision_cache(self):
        """Detach the PDP's decision cache and unsubscribe its invalidation.

        Without this, a replaced cache would stay subscribed to movement
        notifications forever — held alive and paying its eviction lock on
        every write.  Returns the detached cache (``None`` when absent).
        """
        cache = self.pdp.detach_cache()
        if self._cache_unsubscribe is not None:
            self._cache_unsubscribe()
            self._cache_unsubscribe = None
        return cache

    def attach_occupancy_overlay(self, occupancy_of):
        """Swap the PIP's ``occupancy_of`` for *occupancy_of* (global counts).

        The partitioned serving fabric uses this to make
        :class:`~repro.api.stages.CapacityStage` see *fabric-wide*
        occupancy: the overlay sums the local projection with the
        :class:`~repro.service.capacity.CapacityLedger`'s replicated remote
        counts.  The previous function is kept and restored by
        :meth:`detach_occupancy_overlay`; attaching twice replaces the
        overlay without losing the original.  Batch evaluation's memoizing
        PIP snapshots (SQLite-backed engines) resolve ``occupancy_of``
        through the live PIP at lookup time, so the overlay applies there
        too.
        """
        if self._occupancy_base is None:
            self._occupancy_base = self.pdp.info.occupancy_of
        self.pdp.info.occupancy_of = occupancy_of
        return occupancy_of

    def detach_occupancy_overlay(self):
        """Restore the PIP's original ``occupancy_of`` (local projection).

        Returns the removed overlay (``None`` when none was attached).
        """
        if self._occupancy_base is None:
            return None
        overlay = self.pdp.info.occupancy_of
        self.pdp.info.occupancy_of = self._occupancy_base
        self._occupancy_base = None
        return overlay

    def set_capacity(self, location: str, limit: int) -> None:
        """Set an occupancy limit for *location* (monitored continuously)."""
        if not self.hierarchy.is_primitive(location):
            raise EnforcementError(
                f"{location!r} is not a primitive location of the protected hierarchy"
            )
        self.monitor.set_capacity(location, limit)
        self.pdp.invalidate_cached(location=location)

    def tick(self, delta: int = 1) -> int:
        """Advance the clock (overstay checks run via the clock subscription)."""
        return self.clock.advance(delta)

    def advance_to(self, time: int) -> int:
        """Advance the clock to an absolute time."""
        return self.clock.advance_to(time)

    # ------------------------------------------------------------------ #
    # Reasoning
    # ------------------------------------------------------------------ #
    def inaccessible_locations(self, subject: str) -> AccessibilityReport:
        """Run Algorithm 1 for *subject* against the stored authorizations."""
        return find_inaccessible(self.hierarchy, subject, self.authorization_db)

    def where_is(self, subject: str) -> Optional[str]:
        """The location the subject is currently inside, or ``None``."""
        return self.movement_db.current_location(subject)

    def occupants(self, location: str) -> List[str]:
        """Subjects currently inside *location*."""
        return self.movement_db.occupants(location)

    def occupancy(self, location: str) -> int:
        """Number of subjects currently inside *location* (O(1) projection read)."""
        return self.movement_db.occupancy(location)


class LtamBuilder:
    """Fluent definition of an :class:`Ltam` deployment.

    Every method returns the builder, so a deployment reads top-to-bottom::

        Ltam.builder().hierarchy(h).backend("sqlite", path).stage(...).build()
    """

    _BACKENDS = ("memory", "sqlite")

    def __init__(self) -> None:
        self._hierarchy: Optional[LocationHierarchy] = None
        self._backend = "memory"
        self._backend_path: Optional[str] = None
        self._stages: Optional[List[DecisionStage]] = None
        self._rules: List[AuthorizationRule] = []
        self._grants: List[Union[LocationTemporalAuthorization, AuthorizationBuilder]] = []
        self._capacities: Dict[str, int] = {}
        self._clock: Optional[Clock] = None
        self._alert_sink: Optional[AlertSink] = None
        self._audit_log: Optional[AuditLog] = None

    def hierarchy(
        self, layout: Union[LocationHierarchy, MultilevelLocationGraph, LocationGraph]
    ) -> "LtamBuilder":
        """Protect *layout* (a hierarchy, or a graph that will be wrapped in one)."""
        self._hierarchy = _coerce_hierarchy(layout)
        return self

    def backend(self, kind: str, path: Optional[str] = None) -> "LtamBuilder":
        """Choose the storage backend: ``"memory"`` (default) or ``"sqlite"``.

        For ``"sqlite"``, *path* names the database file shared by the three
        stores (``":memory:"`` when omitted — each store then gets its own
        private in-memory SQLite database).
        """
        if kind not in self._BACKENDS:
            raise EnforcementError(
                f"unknown backend {kind!r}; expected one of {', '.join(self._BACKENDS)}"
            )
        if kind == "memory" and path is not None:
            raise EnforcementError("the in-memory backend does not take a path")
        self._backend = kind
        self._backend_path = path
        return self

    def pipeline(self, *stages: DecisionStage) -> "LtamBuilder":
        """Replace the whole decision pipeline (evaluation order = argument order)."""
        self._stages = list(stages)
        return self

    def stage(self, stage: DecisionStage) -> "LtamBuilder":
        """Insert an extra stage into the pipeline.

        The stage is placed immediately before the terminal granting stage
        (:class:`~repro.api.stages.EntryBudgetStage`) of the current
        pipeline, so extensions such as ``CapacityStage`` filter requests
        before the budget is consulted.  With a custom :meth:`pipeline`, the
        stage is appended instead when no terminal stage is found.
        """
        stages = self._stages if self._stages is not None else list(default_pipeline())
        for index, existing in enumerate(stages):
            if isinstance(existing, EntryBudgetStage):
                stages.insert(index, stage)
                break
        else:
            stages.append(stage)
        self._stages = stages
        return self

    def rule(self, rule: AuthorizationRule) -> "LtamBuilder":
        """Register an authorization rule, derived as soon as the engine is built."""
        self._rules.append(rule)
        return self

    def grant(
        self, authorization: Union[LocationTemporalAuthorization, "AuthorizationBuilder"]
    ) -> "LtamBuilder":
        """Install an authorization (or fluent builder thereof) at build time."""
        self._grants.append(authorization)
        return self

    def capacity(self, location: str, limit: int) -> "LtamBuilder":
        """Configure an occupancy limit for *location*."""
        self._capacities[location_name(location)] = limit
        return self

    def clock(self, clock: Clock) -> "LtamBuilder":
        """Drive the engine from an existing simulation clock."""
        self._clock = clock
        return self

    def alert_sink(self, sink: AlertSink) -> "LtamBuilder":
        """Send alerts to an existing sink."""
        self._alert_sink = sink
        return self

    def audit_log(self, log: AuditLog) -> "LtamBuilder":
        """Write audit entries to an existing log."""
        self._audit_log = log
        return self

    def build(self) -> Ltam:
        """Materialize the engine."""
        if self._hierarchy is None:
            raise EnforcementError("a hierarchy is required; call .hierarchy(...) before .build()")
        authorization_db: Optional[AuthorizationDatabase] = None
        movement_db: Optional[MovementDatabase] = None
        profile_db: Optional[UserProfileDatabase] = None
        if self._backend == "sqlite":
            path = self._backend_path if self._backend_path is not None else ":memory:"
            authorization_db = SqliteAuthorizationDatabase(path)
            movement_db = SqliteMovementDatabase(path, self._hierarchy)
            profile_db = SqliteUserProfileDatabase(path)
        engine = Ltam(
            self._hierarchy,
            authorization_db=authorization_db,
            movement_db=movement_db,
            profile_db=profile_db,
            clock=self._clock,
            alert_sink=self._alert_sink,
            audit_log=self._audit_log,
            stages=self._stages,
        )
        for location, limit in self._capacities.items():
            engine.set_capacity(location, limit)
        for authorization in self._grants:
            engine.grant(authorization)
        for rule in self._rules:
            engine.add_rule(rule)
        return engine


class AuthorizationBuilder:
    """Fluent definition of a location-temporal authorization (Definition 4).

    ::

        grant("alice").at("meeting-room").during(9, 17).entries(3).build()

    Unset windows keep Definition 4's defaults: an unspecified entry duration
    means "any time from creation onwards"; an unspecified exit duration
    defaults to ``[entry_start, ∞]``; the default entry budget is unlimited.
    :meth:`Ltam.grant` and :meth:`LtamBuilder.grant` accept the builder
    directly, so calling :meth:`build` is only needed for standalone use.
    """

    def __init__(self, subject: str) -> None:
        self._subject = subject_name(subject)
        self._location: Optional[str] = None
        self._entry: Optional[Tuple[TimePoint, TimePoint]] = None
        self._exit: Optional[Tuple[TimePoint, TimePoint]] = None
        self._until: Optional[TimePoint] = None
        self._max_entries: TimePoint = UNLIMITED_ENTRIES
        self._created_at: int = 0
        self._auth_id: Optional[str] = None

    def at(self, location: str) -> "AuthorizationBuilder":
        """The primitive location being authorized."""
        self._location = location_name(location)
        return self

    def during(self, start: int, end: TimePoint) -> "AuthorizationBuilder":
        """The entry duration ``[start, end]`` (end may be ``FOREVER``)."""
        self._entry = (start, end)
        return self

    def exit_between(self, start: int, end: TimePoint) -> "AuthorizationBuilder":
        """The exit duration ``[start, end]`` (end may be ``FOREVER``)."""
        self._exit = (start, end)
        self._until = None
        return self

    def until(self, deadline: TimePoint) -> "AuthorizationBuilder":
        """Shorthand: the stay must end by *deadline* (exit window starts with entry).

        The anchor is resolved at :meth:`build` time, so the clause order
        does not matter — ``.until(100).during(30, 60)`` and
        ``.during(30, 60).until(100)`` build the same authorization.
        """
        self._exit = None
        self._until = deadline
        return self

    def entries(self, count: int) -> "AuthorizationBuilder":
        """Bound the number of entries within the entry duration."""
        self._max_entries = count
        return self

    def unlimited_entries(self) -> "AuthorizationBuilder":
        """Reset the entry budget to the paper's default ``∞``."""
        self._max_entries = UNLIMITED_ENTRIES
        return self

    def created_at(self, time: int) -> "AuthorizationBuilder":
        """Creation time, used to resolve an unspecified entry duration."""
        self._created_at = time
        return self

    def with_id(self, auth_id: str) -> "AuthorizationBuilder":
        """Use a stable authorization id instead of a generated one."""
        self._auth_id = auth_id
        return self

    def build(self) -> LocationTemporalAuthorization:
        """Materialize the authorization, validating Definition 4's constraints."""
        if self._location is None:
            raise EnforcementError(
                f"authorization for {self._subject!r} needs a location; call .at(...)"
            )
        exit_ = self._exit
        if self._until is not None:
            start = self._entry[0] if self._entry is not None else self._created_at
            exit_ = (start, self._until)
        return LocationTemporalAuthorization(
            LocationAuthorization(self._subject, self._location),
            self._entry,
            exit_,
            self._max_entries,
            created_at=self._created_at,
            auth_id=self._auth_id,
        )


def grant(subject: str) -> AuthorizationBuilder:
    """Start a fluent authorization for *subject* (see :class:`AuthorizationBuilder`)."""
    return AuthorizationBuilder(subject)
