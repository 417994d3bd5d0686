"""Unit tests for the query engine (Figure 3's Query Engine)."""

import pytest

from repro.errors import QueryError
from repro.api import Ltam
from repro.engine.query.ast import QueryResult, WhoIsInQuery
from repro.engine.query.evaluator import QueryEngine
from repro.locations.layouts import figure4_hierarchy, ntu_campus_hierarchy
from repro.paper import fixtures as paper


@pytest.fixture
def engine():
    engine = Ltam(ntu_campus_hierarchy())
    engine.grant_all(paper.section5_authorizations())
    # Replay the Section 5 timeline so the databases have content.
    for step in paper.section5_timeline():
        if step.action == "request":
            decision = engine.enforce((step.time, step.subject, step.location))
            if decision.granted:
                engine.observe_entry(step.time, step.subject, step.location)
        else:
            engine.observe_exit(step.time, step.subject, step.location)
    return engine


@pytest.fixture
def queries(engine):
    return QueryEngine(engine)


class TestOccupancyQueries:
    def test_who_is_in_now(self, queries):
        result = queries.evaluate("WHO IS IN CAIS")
        assert result.rows == (("Alice",),)
        assert result.kind == "who_is_in"

    def test_who_is_in_historical(self, queries):
        # At t=18 Bob was still inside CHIPES (he left at 20).
        assert queries.evaluate("WHO IS IN CHIPES AT 18").rows == (("Bob",),)
        assert queries.evaluate("WHO IS IN CHIPES AT 25").rows == ()

    def test_where_is(self, queries):
        assert queries.evaluate("WHERE IS Alice").scalar == "CAIS"
        assert queries.evaluate("WHERE IS Bob").scalar is None

    def test_where_is_historical(self, queries):
        assert queries.evaluate("WHERE IS Bob AT 18").scalar == "CHIPES"
        assert queries.evaluate("WHERE IS Bob AT 30").scalar is None
        assert queries.evaluate("WHERE IS Bob AT 5").scalar is None


class TestDecisionQueries:
    def test_can_enter(self, queries):
        assert queries.evaluate("CAN Alice ENTER CAIS AT 12").scalar is True
        assert queries.evaluate("CAN Bob ENTER CHIPES AT 30").scalar is False
        denied = queries.evaluate("CAN Bob ENTER CAIS AT 15")
        assert denied.scalar is False
        assert denied.rows[0][4] == "no_authorization"

    def test_can_enter_does_not_pollute_audit(self, queries, engine):
        before = len(engine.audit)
        queries.evaluate("CAN Bob ENTER CAIS AT 15")
        assert len(engine.audit) == before

    def test_entries(self, queries):
        assert queries.evaluate("ENTRIES OF Bob INTO CHIPES").scalar == 1
        assert queries.evaluate("ENTRIES OF Alice INTO CHIPES").scalar == 0

    def test_authorizations(self, queries):
        result = queries.evaluate("AUTHORIZATIONS FOR Alice")
        assert len(result) == 1
        assert result.rows[0][1] == "CAIS"
        scoped = queries.evaluate("AUTHORIZATIONS FOR Alice AT CHIPES")
        assert len(scoped) == 0


class TestReasoningQueries:
    def test_inaccessible_and_accessible(self):
        engine = Ltam(figure4_hierarchy())
        engine.grant_all(paper.table1_authorizations())
        queries = QueryEngine(engine)
        assert queries.evaluate("INACCESSIBLE FOR Alice").rows == (("C",),)
        assert queries.evaluate("ACCESSIBLE FOR Alice").rows == (("A",), ("B",), ("D",))

    def test_route_query(self, queries):
        result = queries.evaluate("ROUTE FROM SCE.GO TO CAIS")
        assert [row[1] for row in result.rows] == ["SCE.GO", "SCE.SectionA", "SCE.SectionB", "CAIS"]
        assert result.scalar is None  # no subject given

    def test_route_query_with_subject(self, queries):
        result = queries.evaluate("ROUTE FROM SCE.GO TO CAIS FOR Alice")
        # Alice has no authorization on SCE.GO so the route is unauthorized.
        assert result.scalar is False

    def test_violations(self, queries):
        all_violations = queries.evaluate("VIOLATIONS")
        assert len(all_violations) == 2  # two denied requests in the timeline
        bob_only = queries.evaluate("VIOLATIONS FOR Bob")
        assert all(row[2] == "Bob" for row in bob_only.rows)
        windowed = queries.evaluate("VIOLATIONS BETWEEN 0 AND 20")
        assert len(windowed) == 1


class TestResultObjectAndErrors:
    def test_result_rendering(self, queries):
        result = queries.evaluate("AUTHORIZATIONS FOR Alice")
        text = result.to_text()
        assert "auth_id" in text
        assert "CAIS" in text
        scalar_only = QueryResult("demo", ("x",), (), scalar=42)
        assert "42" in scalar_only.to_text()

    def test_result_helpers(self, queries):
        result = queries.evaluate("WHO IS IN CAIS")
        assert result.first() == ("Alice",)
        assert len(result) == 1
        assert list(result) == [("Alice",)]
        empty = queries.evaluate("WHO IS IN Lab1")
        assert empty.first() is None

    def test_evaluate_accepts_ast_nodes(self, queries):
        assert queries.evaluate(WhoIsInQuery("CAIS")).rows == (("Alice",),)

    def test_explain(self, queries):
        assert "WhoIsInQuery" in queries.explain("WHO IS IN CAIS")

    def test_unsupported_query_type(self, queries):
        class Weird:
            pass

        with pytest.raises(QueryError):
            queries.evaluate(Weird())
