"""The Query Engine of Figure 3.

*"The query engine evaluates queries by the system administrators and the
access control engine based on the information stored in all of the
databases."*  :class:`QueryEngine` executes parsed queries (or raw query
strings) against an :class:`~repro.api.builder.Ltam` engine — its
authorization, movement and profile databases, its audit log/alert
sink, and the location hierarchy — and returns tabular
:class:`~repro.engine.query.ast.QueryResult` objects.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional, Tuple, Union

from repro.errors import QueryError
from repro.core.authorization import UNLIMITED_ENTRIES
from repro.engine.query.ast import (
    AccessibleQuery,
    AuthorizationsQuery,
    CanEnterQuery,
    EntriesQuery,
    HistoryScope,
    InaccessibleQuery,
    Query,
    QueryResult,
    RouteQuery,
    ViolationsQuery,
    WhereIsQuery,
    WhoIsInQuery,
)
from repro.engine.query.parser import parse
from repro.locations.routes import find_route
from repro.core.grant import authorize_route
from repro.storage.movement_db import MovementKind

from repro.temporal.interval import TimeInterval

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.api.builder import Ltam

__all__ = ["QueryEngine"]


class QueryEngine:
    """Evaluate LTAM queries against an :class:`~repro.api.builder.Ltam` engine's state."""

    def __init__(self, engine: "Ltam") -> None:
        self._engine = engine

    # ------------------------------------------------------------------ #
    # Entry point
    # ------------------------------------------------------------------ #
    def evaluate(self, query: Union[str, Query]) -> QueryResult:
        """Evaluate a query given as text or as an AST node."""
        node = parse(query) if isinstance(query, str) else query
        handler = self._HANDLERS.get(type(node))
        if handler is None:
            raise QueryError(f"unsupported query type {type(node).__name__}")
        return handler(self, node)

    def explain(self, query: Union[str, Query]) -> str:
        """Return the parsed AST representation of a query (for debugging)."""
        node = parse(query) if isinstance(query, str) else query
        return repr(node)

    # ------------------------------------------------------------------ #
    # Handlers
    # ------------------------------------------------------------------ #
    def _who_is_in(self, query: WhoIsInQuery) -> QueryResult:
        if query.time is None:
            occupants = self._engine.occupants(query.location)
        else:
            occupants = self._occupants_at(query.location, query.time, query.scope)
        rows = tuple((subject,) for subject in occupants)
        return QueryResult("who_is_in", ("subject",), rows)

    def _occupants_at(self, location: str, time: int, scope: HistoryScope) -> List[str]:
        """Replay the movement history up to *time* to find occupants then.

        The statement's scope chooses the replay span: the default
        ``ARCHIVED`` reads the full log (archive included), ``LIVE`` only
        the events since the last compaction — bounded, but blind to state
        established before the checkpoint.
        """
        inside: Dict[str, str] = {}
        for record in self._engine.movement_db.history(
            include_archived=scope.include_archived
        ):
            if record.time > time:
                # Filter, don't stop: the history is only guaranteed
                # time-ordered *per subject* — a partition that adopted a
                # migrated subject's past holds it after native records, and
                # occupancy replay depends on per-subject order alone.
                continue
            if record.kind is MovementKind.ENTER:
                inside[record.subject] = record.location
            else:
                if inside.get(record.subject) == record.location:
                    del inside[record.subject]
        return sorted(subject for subject, loc in inside.items() if loc == location)

    def _where_is(self, query: WhereIsQuery) -> QueryResult:
        if query.time is None:
            location = self._engine.where_is(query.subject)
        else:
            location = self._location_at(query.subject, query.time, query.scope)
        rows = ((query.subject, location),) if location is not None else ()
        return QueryResult("where_is", ("subject", "location"), rows, scalar=location)

    def _location_at(self, subject: str, time: int, scope: HistoryScope) -> Optional[str]:
        location: Optional[str] = None
        for record in self._engine.movement_db.history(
            subject=subject, include_archived=scope.include_archived
        ):
            if record.time > time:
                break
            location = record.location if record.kind is MovementKind.ENTER else None
        return location

    def _can_enter(self, query: CanEnterQuery) -> QueryResult:
        decision = self._engine.decide((query.time, query.subject, query.location))
        reason = "" if decision.granted else str(decision.reason)
        rows = ((query.subject, query.location, query.time, decision.granted, reason),)
        return QueryResult(
            "can_enter",
            ("subject", "location", "time", "granted", "reason"),
            rows,
            scalar=decision.granted,
        )

    def _authorizations(self, query: AuthorizationsQuery) -> QueryResult:
        if query.location is not None:
            auths = self._engine.authorization_db.for_subject_location(query.subject, query.location)
        else:
            auths = self._engine.authorization_db.for_subject(query.subject)
        rows = tuple(
            (
                auth.auth_id,
                auth.location,
                str(auth.entry_duration),
                str(auth.exit_duration),
                "∞" if auth.max_entries is UNLIMITED_ENTRIES else int(auth.max_entries),
                auth.derived_from or "",
            )
            for auth in auths
        )
        return QueryResult(
            "authorizations",
            ("auth_id", "location", "entry_duration", "exit_duration", "max_entries", "derived_from"),
            rows,
        )

    def _inaccessible(self, query: InaccessibleQuery) -> QueryResult:
        report = self._engine.inaccessible_locations(query.subject)
        rows = tuple((location,) for location in sorted(report.inaccessible))
        return QueryResult("inaccessible", ("location",), rows)

    def _accessible(self, query: AccessibleQuery) -> QueryResult:
        report = self._engine.inaccessible_locations(query.subject)
        rows = tuple((location,) for location in sorted(report.accessible))
        return QueryResult("accessible", ("location",), rows)

    def _violations(self, query: ViolationsQuery) -> QueryResult:
        alerts = list(self._engine.alerts.alerts)
        if query.scope is HistoryScope.LIVE:
            # Only alerts raised after the archived era: the ones whose
            # underlying movements are still in the live log.  The boundary
            # is the movement store's archived_through time; with no
            # compaction yet, everything is live.  Boundary-time alerts are
            # *included*: movement times may repeat, so an alert at exactly
            # archived_through can belong to a live-era movement — for a
            # security surface, over-reporting the boundary chronon beats
            # hiding a live violation.
            boundary = getattr(self._engine.movement_db, "archived_through", None)
            if boundary is not None:
                alerts = [alert for alert in alerts if alert.time >= boundary]
        if query.subject is not None:
            alerts = [alert for alert in alerts if alert.subject == query.subject]
        if query.window is not None:
            alerts = [alert for alert in alerts if query.window.contains(alert.time)]
        rows = tuple(
            (alert.time, str(alert.kind), alert.subject, alert.location, alert.message)
            for alert in alerts
        )
        return QueryResult("violations", ("time", "kind", "subject", "location", "message"), rows)

    def _entries(self, query: EntriesQuery) -> QueryResult:
        if query.scope is HistoryScope.LIVE:
            # Count the ENTER rows still in the live log — bounded by the
            # last compaction, blind to archived entries.  The default
            # (ARCHIVED) stays the projection's O(1) lifetime counter, which
            # is exact even past archive pruning.
            count = sum(
                1
                for record in self._engine.movement_db.history(
                    subject=query.subject, location=query.location
                )
                if record.kind is MovementKind.ENTER
            )
        else:
            count = self._engine.movement_db.entry_count(query.subject, query.location)
        rows = ((query.subject, query.location, count),)
        return QueryResult("entries", ("subject", "location", "entries"), rows, scalar=count)

    def _route(self, query: RouteQuery) -> QueryResult:
        route = find_route(self._engine.hierarchy, query.source, query.destination)
        if route is None:
            return QueryResult("route", ("step", "location", "authorized"), (), scalar=False)
        authorized: Optional[bool] = None
        if query.subject is not None:
            check = authorize_route(route, query.subject, self._engine.authorization_db)
            authorized = check.authorized
        rows = tuple(
            (index, location, "" if authorized is None else authorized)
            for index, location in enumerate(route)
        )
        return QueryResult("route", ("step", "location", "authorized"), rows, scalar=authorized)

    _HANDLERS = {
        WhoIsInQuery: _who_is_in,
        WhereIsQuery: _where_is,
        CanEnterQuery: _can_enter,
        AuthorizationsQuery: _authorizations,
        InaccessibleQuery: _inaccessible,
        AccessibleQuery: _accessible,
        ViolationsQuery: _violations,
        EntriesQuery: _entries,
        RouteQuery: _route,
    }
