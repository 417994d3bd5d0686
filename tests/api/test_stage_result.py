"""StageResult: an immutable value whose detail text renders on demand.

Every built-in stage hands its detail over as a ``str.format`` template plus
arguments.  The rendered text appears in conformance transcripts, so it must
equal, byte for byte, the f-string each stage used to build eagerly; the
expected strings below are those f-strings.
"""

import copy
import pickle

import pytest

from repro.api import (
    CandidateLookupStage,
    CapacityStage,
    ConflictResolutionStage,
    EntryBudgetStage,
    EntryWindowStage,
    EvaluationContext,
    KnownLocationStage,
    PolicyInformationPoint,
    StageOutcome,
    StageResult,
    grant,
)
from repro.core.requests import AccessRequest, DenialReason


def _context(request, *, candidates=(), enterable=None, used=0, limit=None, occupants=0):
    info = PolicyInformationPoint(
        is_primitive=lambda location: location != "Nowhere",
        candidates_for=lambda subject, location: list(candidates),
        entry_count=lambda subject, location, window: used,
        capacity_of=lambda location: limit,
        occupancy_of=lambda location: occupants,
        enterable_candidates=(
            None if enterable is None else lambda subject, location, time: list(enterable)
        ),
    )
    return EvaluationContext(request, info)


REQUEST = AccessRequest(15, "alice", "CAIS")
LIMITED = grant("alice").at("CAIS").during(10, 20).entries(2).with_id("g-limited").build()
UNLIMITED = grant("alice").at("CAIS").during(0, 30).unlimited_entries().with_id("g-open").build()


class TestValueSemantics:
    def test_constructor_signature_and_fields(self):
        result = StageResult(
            "s",
            StageOutcome.DENY,
            detail="why",
            reason=DenialReason.NO_AUTHORIZATION,
            entries_used=3,
        )
        assert (result.stage, result.outcome, result.detail) == ("s", StageOutcome.DENY, "why")
        assert result.reason is DenialReason.NO_AUTHORIZATION
        assert result.authorization is None and result.entries_used == 3
        positional = StageResult("s", StageOutcome.GRANT, "d", None, LIMITED, 1)
        assert positional.authorization is LIMITED and positional.entries_used == 1
        assert StageResult("s", StageOutcome.SKIP).detail == ""

    @pytest.mark.parametrize(
        "field", ["stage", "outcome", "detail", "reason", "authorization", "entries_used", "extra"]
    )
    def test_immutable(self, field):
        result = StageResult("s", StageOutcome.CONTINUE, detail="d")
        with pytest.raises(AttributeError):
            setattr(result, field, "changed")
        assert result.stage == "s" and result.detail == "d"

    def test_deferred_equals_eager_with_the_same_text(self):
        eager = StageResult("s", StageOutcome.CONTINUE, detail="3 candidate(s) at t=7")
        deferred = StageResult.deferred(
            "s", StageOutcome.CONTINUE, "{} candidate(s) at t={}", (3, 7)
        )
        assert deferred == eager and not (deferred != eager)
        assert hash(deferred) == hash(eager)
        assert len({eager, deferred}) == 1

    def test_inequality_on_every_field(self):
        base = StageResult("s", StageOutcome.DENY, "d", DenialReason.NO_AUTHORIZATION, None, 0)
        variants = [
            StageResult("t", StageOutcome.DENY, "d", DenialReason.NO_AUTHORIZATION, None, 0),
            StageResult("s", StageOutcome.CONTINUE, "d", DenialReason.NO_AUTHORIZATION, None, 0),
            StageResult("s", StageOutcome.DENY, "e", DenialReason.NO_AUTHORIZATION, None, 0),
            StageResult("s", StageOutcome.DENY, "d", DenialReason.OVER_CAPACITY, None, 0),
            StageResult("s", StageOutcome.DENY, "d", DenialReason.NO_AUTHORIZATION, LIMITED, 0),
            StageResult("s", StageOutcome.DENY, "d", DenialReason.NO_AUTHORIZATION, None, 1),
        ]
        for variant in variants:
            assert variant != base and not (variant == base)

    def test_not_equal_to_a_plain_tuple(self):
        result = StageResult("s", StageOutcome.SKIP)
        assert result != ("s", StageOutcome.SKIP, "", None, None, None, 0)
        assert not result == ("s", StageOutcome.SKIP, "", None, None, None, 0)

    def test_repr_shows_the_rendered_fields(self):
        deferred = StageResult.deferred(
            "capacity", StageOutcome.CONTINUE, "occupancy {}/{}", (1, 4)
        )
        assert repr(deferred) == (
            "StageResult(stage='capacity', outcome=<StageOutcome.CONTINUE: 'continue'>, "
            "detail='occupancy 1/4', reason=None, authorization=None, entries_used=0)"
        )

    def test_str(self):
        assert str(StageResult("capacity", StageOutcome.SKIP)) == "[capacity] skip"
        deferred = StageResult.deferred(
            "capacity", StageOutcome.CONTINUE, "occupancy {}/{}", (1, 4)
        )
        assert str(deferred) == "[capacity] continue: occupancy 1/4"

    def test_eager_detail_is_not_a_template(self):
        assert StageResult("s", StageOutcome.SKIP, detail="{braces} {}").detail == "{braces} {}"
        deferred = StageResult.deferred("s", StageOutcome.SKIP, "{{braces}}", ())
        assert deferred.detail == "{braces}"
        assert deferred == StageResult("s", StageOutcome.SKIP, detail="{braces}")

    def test_copy_and_pickle_keep_the_value(self):
        deferred = StageResult.deferred(
            "entry-budget",
            StageOutcome.GRANT,
            "granted via {}; {} entr(y/ies) used, {} remaining",
            ("g-limited", 1, 1),
            None,
            LIMITED,
            1,
        )
        for clone in (copy.copy(deferred), copy.deepcopy(deferred), pickle.loads(pickle.dumps(deferred))):
            assert type(clone) is StageResult
            assert clone == deferred and clone.detail == deferred.detail


class TestBuiltInDetailsMatchTheEagerText:
    def test_known_location(self):
        stage = KnownLocationStage()
        location = "CAIS"
        assert stage.evaluate(_context(REQUEST)).detail == (
            f"{location!r} is a protected primitive location"
        )
        location = "Nowhere"
        denied = stage.evaluate(_context(AccessRequest(15, "alice", location)))
        assert denied.reason is DenialReason.UNKNOWN_LOCATION
        assert denied.detail == (
            f"{location!r} is not a primitive location of the protected hierarchy"
        )

    def test_candidate_lookup(self):
        stage = CandidateLookupStage()
        request = REQUEST
        found = stage.evaluate(_context(request, candidates=[LIMITED, UNLIMITED]))
        assert found.detail == f"{2} candidate authorization(s)"
        missing = stage.evaluate(_context(request))
        assert missing.reason is DenialReason.NO_AUTHORIZATION
        assert missing.detail == (
            f"no authorization stored for ({request.subject}, {request.location})"
        )

    def test_time_first_lookup_and_its_two_denials(self):
        stage = CandidateLookupStage(time_first=True)
        request = REQUEST
        live = stage.evaluate(_context(request, candidates=[LIMITED], enterable=[LIMITED]))
        assert live.detail == (
            f"{1} candidate(s) enterable at t={request.time} (time-first interval lookup)"
        )
        outside = stage.evaluate(
            _context(request, candidates=[LIMITED, UNLIMITED], enterable=[])
        )
        assert outside.reason is DenialReason.OUTSIDE_ENTRY_DURATION
        assert outside.detail == (
            f"none of {2} candidate(s) permits entry"
            f" at t={request.time} (time-first interval lookup)"
        )
        none = stage.evaluate(_context(request, enterable=[]))
        assert none.reason is DenialReason.NO_AUTHORIZATION
        assert none.detail == (
            f"no authorization stored for ({request.subject}, {request.location})"
        )

    def test_entry_window(self):
        stage = EntryWindowStage()
        context = _context(REQUEST)
        context.candidates = [LIMITED, UNLIMITED]
        time = REQUEST.time
        assert stage.evaluate(context).detail == f"{2} candidate(s) enterable at t={time}"
        late = _context(AccessRequest(25, "alice", "CAIS"))
        late.candidates = [LIMITED]
        time = 25
        denied = stage.evaluate(late)
        assert denied.detail == f"none of {1} candidate(s) permits entry at t={time}"

    def test_capacity(self):
        stage = CapacityStage()
        location = "CAIS"
        assert stage.evaluate(_context(REQUEST)).detail == (
            f"no capacity limit configured for {location!r}"
        )
        occupants, limit = 2, 4
        assert stage.evaluate(
            _context(REQUEST, limit=limit, occupants=occupants)
        ).detail == f"occupancy {occupants}/{limit}"
        occupants = 4
        full = stage.evaluate(_context(REQUEST, limit=limit, occupants=occupants))
        assert full.reason is DenialReason.OVER_CAPACITY
        assert full.detail == f"{occupants} occupant(s) already inside; limit is {limit}"

    def test_conflict_resolution(self):
        stage = ConflictResolutionStage()
        single = _context(REQUEST)
        single.candidates = [LIMITED]
        assert stage.evaluate(single).detail == "fewer than two candidates"
        disjoint = _context(REQUEST)
        disjoint.candidates = [
            grant("alice").at("CAIS").during(0, 5).with_id("early").build(),
            grant("alice").at("CAIS").during(50, 60).with_id("late").build(),
        ]
        assert stage.evaluate(disjoint).detail == f"no conflicts among {2} candidate(s)"
        overlapping = _context(REQUEST)
        overlapping.candidates = [
            grant("alice").at("CAIS").during(0, 10).entries(1).with_id("a").build(),
            grant("alice").at("CAIS").during(5, 20).entries(1).with_id("b").build(),
        ]
        result = stage.evaluate(overlapping)
        strategy = "merge"
        assert result.detail == (
            f"resolved {1} conflict(s) via {strategy}; "
            f"{len(overlapping.candidates)} candidate(s) remain"
        )

    def test_entry_budget(self):
        stage = EntryBudgetStage()
        context = _context(REQUEST, used=1)
        context.admissible = [LIMITED]
        used, left = 1, str(int(1))
        granted = stage.evaluate(context)
        assert granted.authorization is LIMITED and granted.entries_used == 1
        assert granted.detail == (
            f"granted via {LIMITED.auth_id}; {used} entr(y/ies) used, {left} remaining"
        )
        open_context = _context(REQUEST, used=7)
        open_context.admissible = [UNLIMITED]
        used, left = 7, "unlimited"
        assert stage.evaluate(open_context).detail == (
            f"granted via {UNLIMITED.auth_id}; {used} entr(y/ies) used, {left} remaining"
        )
        spent = _context(REQUEST, used=2)
        spent.admissible = [LIMITED]
        denied = stage.evaluate(spent)
        assert denied.reason is DenialReason.ENTRY_LIMIT_EXHAUSTED and denied.entries_used == 2
        assert denied.detail == f"entry budget exhausted on all {1} admissible candidate(s)"
