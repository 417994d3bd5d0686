"""The Policy Decision Point: pipeline evaluation and batch decisions.

:class:`DecisionPoint` is the XACML-style PDP of the redesigned API.  It owns
an ordered pipeline of :class:`~repro.api.stages.DecisionStage` objects and
evaluates access requests against them, producing
:class:`~repro.api.decision.Decision` objects whose traces name the stage
that granted or denied each request.  It performs **no side effects** — audit
and alerting belong to the :class:`~repro.api.pep.EnforcementPoint`.

There is one evaluator, and every decision carries its trace; ``trace=`` is a
hint, and eliding traces from a response is the wire encoder's job.

Attribute access is abstracted behind a :class:`PolicyInformationPoint` (the
XACML PIP): the stages never see the databases directly, only the lookup
functions, which :meth:`DecisionPoint.decide_many` memoizes where that pays.
"""

from __future__ import annotations

from contextlib import nullcontext
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.errors import EnforcementError
from repro.core.authorization import LocationTemporalAuthorization
from repro.core.requests import AccessRequest, DenialReason
from repro.storage.authorization_db import SqliteAuthorizationDatabase
from repro.storage.movement_db import SqliteMovementDatabase
from repro.temporal.interval import TimeInterval
from repro.api.decision import Decision, StageOutcome, StageResult, _assemble
from repro.api.stages import DecisionStage, EvaluationContext, default_pipeline

__all__ = ["PolicyInformationPoint", "DecisionPoint"]


# The service layer's telemetry is bound lazily at first use: the API layer
# must not import :mod:`repro.service` at module time (the service package
# imports the API back).  An embedded engine that never traces pays one
# thread-local read per decision, nothing more.
_active_trace = None
_current_span_id = None

_GRANT, _DENY = StageOutcome.GRANT, StageOutcome.DENY


def _bind_telemetry():
    global _active_trace, _current_span_id
    from repro.service.telemetry import active_trace, current_span_id

    _current_span_id = current_span_id
    _active_trace = active_trace
    return active_trace


class PolicyInformationPoint:
    """The attribute services the decision stages consult (XACML's PIP).

    Parameters
    ----------
    is_primitive:
        ``location -> bool`` — membership in the protected hierarchy.
    candidates_for:
        ``(subject, location) -> sequence of authorizations``.
    entry_count:
        ``(subject, location, window) -> int`` — entries consumed within a
        window (Definition 7's counter).
    capacity_of:
        ``location -> Optional[int]`` — configured occupancy limit, if any.
    occupancy_of:
        ``location -> int`` — current number of occupants.
    enterable_candidates:
        ``(subject, location, time) -> sequence of authorizations`` whose
        entry duration contains *time*, in the same storage order
        ``candidates_for`` uses — the time-first lookup
        :class:`~repro.api.stages.CandidateLookupStage` can use to skip
        expired grants.  ``None`` when the attribute source cannot answer
        time-first queries (stages fall back to ``candidates_for``).
    """

    __slots__ = (
        "is_primitive",
        "candidates_for",
        "entry_count",
        "capacity_of",
        "occupancy_of",
        "enterable_candidates",
        "snapshot_pays",
    )

    def __init__(
        self,
        *,
        is_primitive: Callable[[str], bool],
        candidates_for: Callable[[str, str], Sequence[LocationTemporalAuthorization]],
        entry_count: Callable[[str, str, TimeInterval], int],
        capacity_of: Optional[Callable[[str], Optional[int]]] = None,
        occupancy_of: Optional[Callable[[str], int]] = None,
        enterable_candidates: Optional[
            Callable[[str, str, int], Sequence[LocationTemporalAuthorization]]
        ] = None,
    ) -> None:
        self.is_primitive = is_primitive
        self.candidates_for = candidates_for
        self.entry_count = entry_count
        self.capacity_of = capacity_of if capacity_of is not None else lambda location: None
        self.occupancy_of = occupancy_of if occupancy_of is not None else lambda location: 0
        self.enterable_candidates = enterable_candidates
        # Whether every batch should read through a cached() snapshot: true
        # for hand-wired lookups; for_components sets it for SQLite stores.
        self.snapshot_pays = True

    @classmethod
    def for_components(
        cls,
        hierarchy,
        authorization_db,
        movement_db,
        *,
        capacity_of: Optional[Callable[[str], Optional[int]]] = None,
        occupancy_of: Optional[Callable[[str], int]] = None,
    ) -> "PolicyInformationPoint":
        """Wire a PIP from the hierarchy and the Figure 3 databases.

        Every movement-database lookup goes through the backend's
        event-indexed :class:`~repro.storage.occupancy.OccupancyService`
        projection: ``entry_count`` is O(1) unwindowed / O(log n) windowed,
        and ``occupancy_of`` defaults to the O(1) occupancy counter instead
        of materializing (and counting) the occupant list.
        """
        occupancy_counter = getattr(movement_db, "occupancy", None)
        if occupancy_of is None:
            if callable(occupancy_counter):
                occupancy_of = occupancy_counter
            else:  # duck-typed movement stores without the O(1) counter
                occupancy_of = lambda location: len(movement_db.occupants(location))
        enterable_candidates = None
        enterable_at = getattr(authorization_db, "enterable_at", None)
        if callable(enterable_at):
            enterable_candidates = lambda subject, location, time: enterable_at(
                time, subject=subject, location=location
            )
        info = cls(
            is_primitive=hierarchy.is_primitive,
            candidates_for=authorization_db.for_subject_location,
            entry_count=movement_db.entry_count,
            capacity_of=capacity_of,
            occupancy_of=occupancy_of,
            enterable_candidates=enterable_candidates,
        )
        info.snapshot_pays = isinstance(
            authorization_db, SqliteAuthorizationDatabase
        ) or isinstance(movement_db, SqliteMovementDatabase)
        return info

    def cached(self) -> "PolicyInformationPoint":
        """A memoizing snapshot of this PIP for batch evaluation.

        Safe only while the underlying databases do not change — decisions
        are pure, so a batch of them satisfies that by construction.
        """
        return PolicyInformationPoint(
            is_primitive=_memoized(self, "is_primitive"),
            candidates_for=_memoized(self, "candidates_for", materialize=True),
            entry_count=_memoized(self, "entry_count"),
            capacity_of=self.capacity_of,
            occupancy_of=_memoized(self, "occupancy_of"),
            enterable_candidates=(
                _memoized(self, "enterable_candidates", materialize=True)
                if self.enterable_candidates is not None
                else None
            ),
        )


def _memoized(base: PolicyInformationPoint, attribute: str, *, materialize: bool = False):
    """Memoize ``base.<attribute>`` per argument tuple.

    The lookup is resolved on *base* at call time, so an attribute swapped
    on the live PIP (an occupancy overlay) applies to the snapshot too;
    *materialize* freezes sequence results into tuples.
    """
    table: Dict[tuple, object] = {}

    def lookup(*key):
        try:
            return table[key]
        except KeyError:
            result = getattr(base, attribute)(*key)
            table[key] = result = tuple(result) if materialize else result
            return result

    return lookup


class DecisionPoint:
    """Evaluate access requests through an ordered, pluggable stage pipeline.

    Parameters
    ----------
    info:
        The :class:`PolicyInformationPoint` supplying attributes to stages.
    stages:
        The pipeline, in evaluation order; defaults to the classic
        Definition 7 pipeline of :func:`~repro.api.stages.default_pipeline`.
        The final stage must produce a GRANT or DENY for every request.
    """

    def __init__(
        self,
        info: PolicyInformationPoint,
        stages: Optional[Sequence[DecisionStage]] = None,
        *,
        cache=None,
    ) -> None:
        self._info = info
        self._cache = cache
        self._stages: Tuple[DecisionStage, ...] = (
            tuple(stages) if stages is not None else default_pipeline()
        )
        if not self._stages:
            raise EnforcementError("a decision pipeline needs at least one stage")
        for stage in self._stages:
            if not hasattr(stage, "name") or not callable(getattr(stage, "evaluate", None)):
                raise EnforcementError(
                    f"{stage!r} is not a decision stage (needs a .name and an evaluate(context) method)"
                )

    @classmethod
    def for_components(
        cls,
        hierarchy,
        authorization_db,
        movement_db,
        *,
        stages: Optional[Sequence[DecisionStage]] = None,
        capacity_of: Optional[Callable[[str], Optional[int]]] = None,
        occupancy_of: Optional[Callable[[str], int]] = None,
    ) -> "DecisionPoint":
        """Build a PDP directly from the hierarchy and databases."""
        info = PolicyInformationPoint.for_components(
            hierarchy,
            authorization_db,
            movement_db,
            capacity_of=capacity_of,
            occupancy_of=occupancy_of,
        )
        return cls(info, stages)

    @property
    def stages(self) -> Tuple[DecisionStage, ...]:
        """The pipeline, in evaluation order."""
        return self._stages

    @property
    def info(self) -> PolicyInformationPoint:
        """The policy-information point backing this PDP."""
        return self._info

    # ------------------------------------------------------------------ #
    # Decision cache hook points
    # ------------------------------------------------------------------ #
    @property
    def cache(self):
        """The attached decision cache, or ``None``."""
        return self._cache

    def attach_cache(self, cache):
        """Attach a decision cache consulted by :meth:`decide`/:meth:`decide_many`.

        *cache* is duck-typed: it needs ``lookup(request) -> Optional[Decision]``
        and ``store(request, decision)`` (plus, for the administrative
        invalidation hooks, ``invalidate_pair``/``invalidate_location``/
        ``clear``) — :class:`repro.service.cache.DecisionCache` is the
        reference implementation.  The caller owns invalidation: connect the
        cache to the movement database's mutation notifications (or accept
        stale decisions).  Returns the cache for chaining.
        """
        self._cache = cache
        return cache

    def detach_cache(self):
        """Detach and return the decision cache (``None`` when absent)."""
        cache, self._cache = self._cache, None
        return cache

    def invalidate_cached(self, subject: Optional[str] = None, location: Optional[str] = None) -> int:
        """Evict cached decisions after an administrative mutation.

        With a (subject, location) pair, only that pair's keys; with just a
        location, every key of the location; with neither, everything.
        No-op (0) without an attached cache.
        """
        cache = self._cache
        if cache is None:
            return 0
        if location is None:
            return cache.clear()
        if subject is None:
            return cache.invalidate_location(location)
        return cache.invalidate_pair(subject, location)

    # ------------------------------------------------------------------ #
    # Evaluation
    # ------------------------------------------------------------------ #
    def decide(
        self,
        request: AccessRequest,
        *,
        info: Optional[PolicyInformationPoint] = None,
        trace: bool = True,
    ) -> Decision:
        """Evaluate one request; pure (no audit, no alerts, no recording).

        With an attached cache (and no explicit *info* snapshot) a repeated
        key is answered from the cache — the returned decision is the one
        computed for the equal earlier request, traces and all.

        The decision always carries its per-stage trace (one tuple per stage,
        detail text rendered only when read); *trace* is an ignored hint.
        """
        cache = self._cache
        token = None
        flight = None
        if cache is not None and info is None:
            cached = cache.lookup(request)
            if cached is not None:
                return cached
            # Single-flight the miss (when the cache supports it): N
            # concurrent identical misses — a cold cache's thundering herd —
            # elect one leader that runs the pipeline while the others wait
            # for its store and re-read the cache.
            claim = getattr(cache, "flight", None)
            if callable(claim):
                flight = claim(request.subject, request.location, request.time)
                if not flight.leader:
                    flight.wait()
                    cached = cache.lookup(request)
                    if cached is not None:
                        return cached
                    # The leader died or its store raced an invalidation and
                    # was dropped: evaluate ourselves rather than livelock.
                    flight = None
            # Capture the invalidation token BEFORE evaluating: a mutation
            # landing mid-evaluation must make the store a no-op, or a
            # decision computed from pre-mutation state would be cached
            # after its eviction already ran.
            token = self._generation_token(cache, request)
        try:
            decision = self._evaluate(request, info if info is not None else self._info)
            if cache is not None and info is None:
                self._store_cached(cache, request, decision, token)
        finally:
            if flight is not None:
                # Leader only: wake the followers whether the store landed,
                # was generation-dropped, or the evaluation raised.
                flight.done()
        return decision

    @staticmethod
    def _generation_token(cache, request: AccessRequest):
        generation_of = getattr(cache, "generation", None)
        return generation_of(request.location) if callable(generation_of) else None

    @staticmethod
    def _store_cached(cache, request: AccessRequest, decision: Decision, token) -> None:
        if token is not None:
            cache.store(request, decision, generation=token)
        else:  # duck-typed caches without invalidation generations
            cache.store(request, decision)

    def _evaluate(self, request: AccessRequest, active: PolicyInformationPoint) -> Decision:
        """One decision, inside a ``pipeline.evaluate`` span when tracing."""
        tracing = (_active_trace or _bind_telemetry())()
        if tracing is None:
            return self._run(request, active, None)
        with tracing.span("pipeline.evaluate"):
            return self._run(request, active, tracing)

    def _run(self, request: AccessRequest, active: PolicyInformationPoint, tracing) -> Decision:
        """The stage loop; *tracing* (the active trace or ``None``) gets one
        ``pipeline.stage`` event per stage run."""
        context = EvaluationContext(request, active)
        results: List[StageResult] = []
        for stage in self._stages:
            result = stage.evaluate(context)
            results.append(result)
            outcome = result.outcome
            if tracing is not None:
                tracing.event(
                    "pipeline.stage",
                    _current_span_id(),
                    {"stage": result.stage, "outcome": outcome.value},
                )
            if outcome is _GRANT:
                if result.authorization is None:
                    raise EnforcementError("a granted decision must carry the matching authorization")
                return _assemble(
                    request, True, result.authorization, None, result.entries_used, tuple(results)
                )
            if outcome is _DENY:
                reason = result.reason if result.reason is not None else DenialReason.NO_AUTHORIZATION
                return _assemble(request, False, None, reason, result.entries_used, tuple(results))
        raise EnforcementError(
            f"decision pipeline fell through without a verdict for {request} — "
            "the final stage must GRANT or DENY every request it sees"
        )

    def decide_many(
        self, requests: Iterable[AccessRequest], *, trace: bool = True
    ) -> List[Decision]:
        """Evaluate a batch of requests; decisions come back in request order.

        Decisions are identical to what per-request :meth:`decide` calls
        would produce (*trace* is the same ignored hint).  The evaluated
        requests share one memoizing snapshot — each distinct lookup runs
        once — on SQLite-backed stores or when a tenth of them repeat a
        ``(subject, location)`` pair; otherwise they read the live PIP.  With
        an attached cache, hits are served first and only misses evaluated.
        """
        requests = list(requests)
        cache = self._cache
        if cache is None:
            info = self._batch_info(requests)
            if (_active_trace or _bind_telemetry())() is None:
                run = self._run
                return [run(request, info, None) for request in requests]
            evaluate = self._evaluate
            return [evaluate(request, info) for request in requests]
        decisions: List[Optional[Decision]] = [None] * len(requests)
        misses: List[int] = []
        for index, request in enumerate(requests):
            cached = cache.lookup(request)
            if cached is not None:
                decisions[index] = cached
            else:
                misses.append(index)
        if misses:
            # Tokens for every miss are captured before any is evaluated:
            # with a snapshot, the batch may read any miss's state at any
            # point of the loop below.
            tokens = {
                index: self._generation_token(cache, requests[index]) for index in misses
            }
            info = self._batch_info([requests[index] for index in misses])
            tracing = (_active_trace or _bind_telemetry())()
            with (
                tracing.span("pipeline.evaluate_many", misses=len(misses))
                if tracing is not None
                else nullcontext()
            ):
                for index in misses:
                    decisions[index] = decision = self._run(requests[index], info, tracing)
                    self._store_cached(cache, requests[index], decision, tokens[index])
        return decisions  # type: ignore[return-value]

    def _batch_info(self, requests: List[AccessRequest]) -> PolicyInformationPoint:
        # In memory the memo's key build, probe and copy cost more than the
        # lookups they save until pairs repeat: on the embedded perfbench
        # engine it read ~5% slower per request with every pair distinct
        # and ~4% faster with a fifth repeated.
        info = self._info
        if info.snapshot_pays or (
            len({(request.subject, request.location) for request in requests})
            <= 0.9 * len(requests)
        ):
            return info.cached()
        return info
