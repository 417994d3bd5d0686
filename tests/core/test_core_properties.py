"""Property-based tests for the core authorization semantics (hypothesis)."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.authorization import (
    UNLIMITED_ENTRIES,
    LocationTemporalAuthorization,
    departure_duration,
    grant_duration,
)
from repro.core.conflicts import ResolutionStrategy, detect_conflicts, merge_pair, resolve_conflicts
from repro.core.grant import AuthorizationIndex, authorize_route
from repro.api import Ltam
from repro.locations.layouts import figure4_hierarchy
from repro.temporal.chronon import FOREVER
from repro.temporal.interval import TimeInterval

MAX_T = 150


@st.composite
def authorizations(draw, subjects=("Alice",), locations=("A", "B", "C", "D")):
    """Random authorizations satisfying Definition 4's constraints."""
    subject = draw(st.sampled_from(subjects))
    location = draw(st.sampled_from(locations))
    entry_start = draw(st.integers(min_value=0, max_value=MAX_T))
    entry_len = draw(st.integers(min_value=0, max_value=60))
    entry_end_unbounded = draw(st.integers(0, 9)) == 0
    entry_end = FOREVER if entry_end_unbounded else entry_start + entry_len
    exit_start = draw(st.integers(min_value=entry_start, max_value=entry_start + entry_len))
    exit_extra = draw(st.integers(min_value=0, max_value=60))
    exit_end = FOREVER if entry_end_unbounded or draw(st.integers(0, 9)) == 0 else entry_start + entry_len + exit_extra
    budget = draw(st.sampled_from([1, 2, 3, UNLIMITED_ENTRIES]))
    return LocationTemporalAuthorization(
        (subject, location), (entry_start, entry_end), (exit_start, exit_end), budget
    )


@st.composite
def windows(draw):
    start = draw(st.integers(min_value=0, max_value=MAX_T))
    if draw(st.booleans()):
        return TimeInterval(start, FOREVER)
    return TimeInterval(start, start + draw(st.integers(min_value=0, max_value=80)))


class TestGrantAndDepartureDurations:
    @given(authorizations(), windows())
    def test_grant_duration_is_inside_entry_duration_and_window(self, auth, window):
        grant = grant_duration(auth, window)
        if grant is not None:
            assert auth.entry_duration.contains_interval(grant)
            assert window.contains_interval(grant)

    @given(authorizations(), windows())
    def test_grant_is_null_iff_no_overlap(self, auth, window):
        grant = grant_duration(auth, window)
        assert (grant is None) == (not auth.entry_duration.overlaps(window))

    @given(authorizations(), windows())
    def test_departure_duration_is_inside_exit_duration(self, auth, window):
        departure = departure_duration(auth, window)
        if departure is not None:
            assert auth.exit_duration.contains_interval(departure)

    @given(authorizations(), windows())
    def test_nonnull_grant_implies_nonnull_departure(self, auth, window):
        # Follows from Definition 4's t_o_e >= t_i_e constraint (see Section 6).
        if grant_duration(auth, window) is not None:
            assert departure_duration(auth, window) is not None


class TestConflictProperties:
    @given(st.lists(authorizations(), min_size=0, max_size=8))
    def test_resolution_always_terminates_without_conflicts(self, pool):
        for strategy in ResolutionStrategy:
            resolved, _ = resolve_conflicts(pool, strategy=strategy)
            assert detect_conflicts(resolved) == []
            assert len(resolved) <= len(pool) or not pool

    @given(st.lists(authorizations(), min_size=0, max_size=8))
    def test_merge_preserves_every_granted_entry_chronon(self, pool):
        """Merging never removes a chronon at which some authorization allowed entry."""
        resolved, _ = resolve_conflicts(pool, strategy=ResolutionStrategy.MERGE)
        for auth in pool:
            for probe in (auth.entry_duration.start,
                          auth.entry_duration.start if auth.entry_duration.is_unbounded else int(auth.entry_duration.end)):
                assert any(
                    other.subject == auth.subject
                    and other.location == auth.location
                    and other.permits_entry_at(probe)
                    for other in resolved
                )

    @given(authorizations(), authorizations())
    def test_merge_pair_covers_both_inputs(self, first, second):
        if first.subject != second.subject or first.location != second.location:
            return
        merged = merge_pair(first, second)
        for auth in (first, second):
            assert merged.entry_duration.contains_interval(auth.entry_duration) or auth.entry_duration.is_unbounded == merged.entry_duration.is_unbounded


class TestDecisionProperties:
    @given(st.lists(authorizations(), min_size=0, max_size=6), st.integers(0, MAX_T))
    @settings(max_examples=50, deadline=None)
    def test_definition7_equivalence(self, pool, time):
        """The engine grants iff some authorization admits the subject at that time."""
        engine = Ltam(figure4_hierarchy())
        engine.grant_all(pool)
        decision = engine.decide((time, "Alice", "A"))
        admits = any(
            auth.subject == "Alice" and auth.location == "A" and auth.permits_entry_at(time)
            for auth in pool
        )
        assert decision.granted == admits  # no entries consumed yet

    @given(st.lists(authorizations(), min_size=1, max_size=6))
    @settings(max_examples=50, deadline=None)
    def test_route_authorization_monotone_in_window(self, pool):
        """Widening the request duration never turns an authorized route unauthorized."""
        index = AuthorizationIndex(pool)
        narrow = authorize_route(["A", "B"], "Alice", index, request_duration=TimeInterval(10, 60))
        wide = authorize_route(["A", "B"], "Alice", index, request_duration=TimeInterval(0, 200))
        if narrow.authorized:
            assert wide.authorized
