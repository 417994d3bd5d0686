"""The pluggable stages of the decision pipeline.

Definition 7's monolithic check is decomposed into small, ordered stages —
each one a tiny object with a ``name`` and an ``evaluate(context)`` method.
The classic pipeline reproduces the seed engine's behavior exactly:

1. :class:`KnownLocationStage` — the requested location must be a primitive
   location of the protected hierarchy;
2. :class:`CandidateLookupStage` — at least one authorization must exist for
   the ``(subject, location)`` pair;
3. :class:`EntryWindowStage` — at least one candidate's entry duration must
   contain the request time;
4. :class:`EntryBudgetStage` — the first admissible candidate with budget
   remaining grants the request (terminal stage).

Two extension stages cover scenarios the seed engine hard-coded around:
:class:`CapacityStage` (deny when the location is full, instead of merely
alerting after the fact) and :class:`ConflictResolutionStage` (collapse
conflicting candidate authorizations with a Section 4 resolution strategy
before the budget check).

Stages communicate through an :class:`EvaluationContext` that carries the
request, the attribute services (a policy-information view, see
:class:`~repro.api.pdp.PolicyInformationPoint`) and the candidate sets
produced so far.

Cost model: every movement-database attribute a stage consults resolves
against the event-indexed
:class:`~repro.storage.occupancy.OccupancyService` projection —
``occupancy_of`` is O(1) (:class:`CapacityStage`) and ``entry_count`` is
O(1) unwindowed / O(log n) windowed (:class:`EntryBudgetStage`) — so a
stage evaluation never scales with the length of the movement history.
"""

from __future__ import annotations

from typing import List, Protocol, Tuple, runtime_checkable

from repro.core.authorization import UNLIMITED_ENTRIES, LocationTemporalAuthorization
from repro.core.conflicts import ResolutionStrategy, resolve_conflicts
from repro.core.requests import DenialReason
from repro.api.decision import StageOutcome, StageResult

__all__ = [
    "EvaluationContext",
    "DecisionStage",
    "KnownLocationStage",
    "CandidateLookupStage",
    "EntryWindowStage",
    "EntryBudgetStage",
    "CapacityStage",
    "ConflictResolutionStage",
    "default_pipeline",
]


# Details are ``str.format`` templates plus arguments, rendered (equal to the
# matching f-string) only when a trace is explained or encoded.
_result = StageResult.deferred
_GRANT, _DENY = StageOutcome.GRANT, StageOutcome.DENY
_CONTINUE, _SKIP = StageOutcome.CONTINUE, StageOutcome.SKIP


class EvaluationContext:
    """Mutable scratchpad threaded through the pipeline for one request.

    Attributes
    ----------
    request:
        The access request under evaluation.
    info:
        The attribute services (candidate lookup, entry counting, capacity)
        the stages consult — a
        :class:`~repro.api.pdp.PolicyInformationPoint` or anything
        duck-compatible with it.
    candidates:
        Authorizations stored for the request's ``(subject, location)`` pair,
        populated by :class:`CandidateLookupStage` and possibly rewritten by
        :class:`ConflictResolutionStage`.
    admissible:
        The candidates whose entry duration contains the request time,
        populated by :class:`EntryWindowStage`.
    """

    __slots__ = ("request", "info", "candidates", "admissible")

    def __init__(self, request, info) -> None:
        self.request = request
        self.info = info
        self.candidates: List[LocationTemporalAuthorization] = []
        self.admissible: List[LocationTemporalAuthorization] = []


@runtime_checkable
class DecisionStage(Protocol):
    """Protocol every pipeline stage implements."""

    name: str

    def evaluate(self, context: EvaluationContext) -> StageResult:
        """Judge the request, returning this stage's verdict."""
        ...  # pragma: no cover - protocol


class KnownLocationStage:
    """Deny requests for locations outside the protected hierarchy."""

    name = "known-location"

    def evaluate(self, context: EvaluationContext) -> StageResult:
        location = context.request.location
        if not context.info.is_primitive(location):
            return _result(
                self.name,
                _DENY,
                "{!r} is not a primitive location of the protected hierarchy",
                (location,),
                DenialReason.UNKNOWN_LOCATION,
            )
        return _result(self.name, _CONTINUE, "{!r} is a protected primitive location", (location,))


class CandidateLookupStage:
    """Fetch the stored authorizations for the ``(subject, location)`` pair.

    With ``time_first=True`` (and a PIP exposing ``enterable_candidates``)
    the lookup stabs the interval index with the request time instead of
    fetching every stored grant: a subject carrying many *expired* grants
    for a location gets only the time-valid candidates — the dead ones are
    pruned by the index, never materialized, and :class:`EntryWindowStage`
    has nothing left to filter.  Decisions are unchanged for the default
    pipeline shape: candidates come back in storage order, and an empty
    stab falls back to the full fetch so the denial reason still
    distinguishes "no grant at all" (``NO_AUTHORIZATION``) from "none
    valid now" (``OUTSIDE_ENTRY_DURATION``).

    Caveat: a :class:`ConflictResolutionStage` placed *before*
    :class:`EntryWindowStage` is documented to operate on the raw
    candidate pool, expired grants included — time-first pruning removes
    those grants from its merge input and can change what the merged
    authorization permits.  Keep ``time_first=False`` in pipelines that
    resolve conflicts ahead of the window filter.
    """

    name = "candidate-lookup"

    def __init__(self, *, time_first: bool = False) -> None:
        self._time_first = time_first

    def evaluate(self, context: EvaluationContext) -> StageResult:
        request = context.request
        if self._time_first:
            enterable = getattr(context.info, "enterable_candidates", None)
            if enterable is not None:
                live = list(enterable(request.subject, request.location, request.time))
                if live:
                    context.candidates = live
                    return _result(
                        self.name,
                        _CONTINUE,
                        "{} candidate(s) enterable at t={} (time-first interval lookup)",
                        (len(live), request.time),
                    )
                # Nothing live: fall through to the full fetch, which tells
                # "no authorization" apart from "all outside their windows".
                context.candidates = list(
                    context.info.candidates_for(request.subject, request.location)
                )
                if context.candidates:
                    return _result(
                        self.name,
                        _DENY,
                        "none of {} candidate(s) permits entry at t={} (time-first interval lookup)",
                        (len(context.candidates), request.time),
                        DenialReason.OUTSIDE_ENTRY_DURATION,
                    )
                return self._deny_no_authorization(request)
        context.candidates = candidates = list(context.info.candidates_for(request.subject, request.location))
        if not candidates:
            return self._deny_no_authorization(request)
        return _result(self.name, _CONTINUE, "{} candidate authorization(s)", (len(candidates),))

    def _deny_no_authorization(self, request) -> StageResult:
        return _result(
            self.name,
            _DENY,
            "no authorization stored for ({}, {})",
            (request.subject, request.location),
            DenialReason.NO_AUTHORIZATION,
        )


class ConflictResolutionStage:
    """Collapse conflicting candidates with a Section 4 resolution strategy.

    Works on whichever candidate pool is current — the raw candidates when
    placed before :class:`EntryWindowStage`, the admissible (in-window) set
    when placed after it — so that, e.g., two overlapping grants merge into
    one authorization spanning both windows instead of being budget-checked
    independently.
    """

    name = "conflict-resolution"

    def __init__(
        self,
        strategy: ResolutionStrategy = ResolutionStrategy.MERGE,
        *,
        include_adjacent: bool = False,
    ) -> None:
        self._strategy = ResolutionStrategy(strategy)
        self._include_adjacent = include_adjacent

    def evaluate(self, context: EvaluationContext) -> StageResult:
        pool_name = "admissible" if context.admissible else "candidates"
        pool = getattr(context, pool_name)
        if len(pool) < 2:
            return StageResult(self.name, _SKIP, "fewer than two candidates")
        resolved, conflicts = resolve_conflicts(
            pool,
            strategy=self._strategy,
            include_adjacent=self._include_adjacent,
        )
        if not conflicts:
            return _result(self.name, _CONTINUE, "no conflicts among {} candidate(s)", (len(pool),))
        setattr(context, pool_name, list(resolved))
        return _result(
            self.name,
            _CONTINUE,
            "resolved {} conflict(s) via {}; {} candidate(s) remain",
            (len(conflicts), self._strategy.value, len(resolved)),
        )


class EntryWindowStage:
    """Keep only the candidates whose entry duration contains the request time."""

    name = "entry-window"

    def evaluate(self, context: EvaluationContext) -> StageResult:
        time = context.request.time
        candidates = context.candidates
        context.admissible = admissible = [auth for auth in candidates if auth.permits_entry_at(time)]
        if not admissible:
            return _result(
                self.name,
                _DENY,
                "none of {} candidate(s) permits entry at t={}",
                (len(candidates), time),
                DenialReason.OUTSIDE_ENTRY_DURATION,
            )
        return _result(self.name, _CONTINUE, "{} candidate(s) enterable at t={}", (len(admissible), time))


class CapacityStage:
    """Deny admission when the location is already at its occupancy limit.

    The seed engine only *alerted* on over-capacity after the entry happened;
    putting this stage in the pipeline turns the limit into an admission
    constraint.  Skips when no limit is configured for the location.
    """

    name = "capacity"

    def evaluate(self, context: EvaluationContext) -> StageResult:
        location = context.request.location
        limit = context.info.capacity_of(location)
        if limit is None:
            return _result(self.name, _SKIP, "no capacity limit configured for {!r}", (location,))
        occupants = context.info.occupancy_of(location)
        if occupants >= limit:
            return _result(
                self.name,
                _DENY,
                "{} occupant(s) already inside; limit is {}",
                (occupants, limit),
                DenialReason.OVER_CAPACITY,
            )
        return _result(self.name, _CONTINUE, "occupancy {}/{}", (occupants, limit))


class EntryBudgetStage:
    """Terminal stage: grant via the first admissible candidate with budget left.

    Mirrors Definition 7's entry counting — entries are counted within each
    authorization's entry duration, and the first candidate (in storage
    order) with remaining budget admits the request.  In a custom pipeline
    without :class:`EntryWindowStage` the raw candidates are judged instead
    (an empty admissible set here can only mean the window stage never ran —
    when it runs and filters everything out, it denies by itself).
    """

    name = "entry-budget"

    def evaluate(self, context: EvaluationContext) -> StageResult:
        request = context.request
        subject, location = request.subject, request.location
        entry_count = context.info.entry_count
        pool = context.admissible if context.admissible else context.candidates
        exhausted_used = 0
        for authorization in pool:
            used = entry_count(subject, location, authorization.entry_duration)
            remaining = authorization.entries_remaining(used)
            if remaining is UNLIMITED_ENTRIES or int(remaining) > 0:
                return _result(
                    self.name,
                    _GRANT,
                    "granted via {}; {} entr(y/ies) used, {} remaining",
                    (
                        authorization.auth_id,
                        used,
                        "unlimited" if remaining is UNLIMITED_ENTRIES else int(remaining),
                    ),
                    None,
                    authorization,
                    used,
                )
            if used > exhausted_used:
                exhausted_used = used
        return _result(
            self.name,
            _DENY,
            "entry budget exhausted on all {} admissible candidate(s)",
            (len(pool),),
            DenialReason.ENTRY_LIMIT_EXHAUSTED,
            None,
            exhausted_used,
        )


def default_pipeline() -> Tuple["DecisionStage", ...]:
    """The classic Definition 7 pipeline, byte-for-byte compatible with the seed engine."""
    return (
        KnownLocationStage(),
        CandidateLookupStage(),
        EntryWindowStage(),
        EntryBudgetStage(),
    )
