"""Wire-codec round trips: every payload the protocol carries survives it."""

from __future__ import annotations

import pytest

import repro.errors as errors_module
from repro.core.authorization import UNLIMITED_ENTRIES, LocationTemporalAuthorization
from repro.core.requests import AccessRequest, DenialReason
from repro.engine.alerts import Alert, AlertKind
from repro.engine.query.ast import QueryResult
from repro.errors import IngestError, LTAMError, QuerySyntaxError, StorageError
from repro.temporal.chronon import FOREVER
from repro.api.decision import Decision, StageOutcome, StageResult
from repro.service import protocol
from repro.service.errors import ProtocolError, RemoteServiceError
from repro.storage.ingest import BatchFailure
from repro.storage.movement_db import Checkpoint, MovementKind, MovementRecord


@pytest.fixture
def authorization():
    return LocationTemporalAuthorization(
        ("Alice", "CAIS"), (10, 20), (10, 50), 2, created_at=5, auth_id="A1"
    )


@pytest.fixture
def unbounded_authorization():
    return LocationTemporalAuthorization(
        ("Bob", "Lab"), (0, FOREVER), None, UNLIMITED_ENTRIES, auth_id="A2", derived_from="A1"
    )


# --------------------------------------------------------------------- #
# Frames
# --------------------------------------------------------------------- #
def test_frame_round_trip():
    message = {"op": "decide", "id": 7, "request": {"time": 1}}
    assert protocol.decode_frame(protocol.encode_frame(message)) == message


def test_frame_is_one_line():
    line = protocol.encode_frame({"op": "health", "id": 1, "note": "a\nb"})
    assert line.endswith(b"\n") and line.count(b"\n") == 1


def test_malformed_frame_raises_protocol_error():
    with pytest.raises(ProtocolError):
        protocol.decode_frame(b"{not json\n")
    with pytest.raises(ProtocolError):
        protocol.decode_frame(b"[1, 2, 3]\n")  # not an object


# --------------------------------------------------------------------- #
# Requests and movement records
# --------------------------------------------------------------------- #
def test_request_round_trip_preserves_identity():
    request = AccessRequest(15, "Alice", "CAIS")
    back = protocol.request_from_dict(protocol.request_to_dict(request))
    assert back == request
    assert back.request_id == request.request_id


def test_request_missing_field_raises():
    with pytest.raises(ProtocolError):
        protocol.request_from_dict({"time": 1, "subject": "Alice"})


@pytest.mark.parametrize("kind", list(MovementKind))
def test_record_round_trip(kind):
    record = MovementRecord(9, "Alice", "CAIS", kind)
    assert protocol.record_from_wire(protocol.record_to_wire(record)) == record


def test_record_batch_round_trip():
    records = [
        MovementRecord(1, "Alice", "CAIS", MovementKind.ENTER),
        MovementRecord(2, "Bob", "Lab", MovementKind.ENTER),
        MovementRecord(3, "Alice", "CAIS", MovementKind.EXIT),
    ]
    assert protocol.records_from_wire(protocol.records_to_wire(records)) == records


def test_record_batch_decodes_like_one_record_at_a_time():
    # Repeated names take the batch decoder's memoized path; tuples, a
    # location-object name and fresh names take the full one.
    items = [
        [1, "Alice", "CAIS", "enter"],
        (2, "Alice", "CAIS", "exit"),
        [3, "Bob", "CAIS", "enter"],
        [4, "Alice", "Lab", "enter"],
        [5, "Bob", "CAIS", "exit"],
        [6, "Alice", "Lab", MovementKind.EXIT],
    ]
    decoded = protocol.records_from_wire(items)
    assert decoded == [protocol.record_from_wire(item) for item in items]
    assert all(type(record.kind) is MovementKind for record in decoded)
    assert hash(decoded[4]) == hash(MovementRecord(5, "Bob", "CAIS", MovementKind.EXIT))


@pytest.mark.parametrize(
    "bad",
    [
        [True, "Alice", "CAIS", "enter"],  # a bool is not a chronon
        [-1, "Alice", "CAIS", "enter"],
        [1.5, "Alice", "CAIS", "enter"],
        [2, " Alice", "CAIS", "enter"],
        [2, "Alice", "", "enter"],
        [2, "Alice", "CAIS", "teleport"],
        [2, ["Alice"], "CAIS", "enter"],  # unhashable: must not reach the memo
        [2, "Alice", "CAIS"],
    ],
)
def test_record_batch_rejects_what_one_record_rejects(bad):
    # The bad record comes after valid ones, so its subject, location and
    # kind may already be memoized: the batch must still reject it, with
    # the single-record decoder's message.
    valid = [[1, "Alice", "CAIS", "enter"], [1, "Alice", "CAIS", "exit"]]
    with pytest.raises(ProtocolError) as single:
        protocol.record_from_wire(bad)
    with pytest.raises(ProtocolError) as batch:
        protocol.records_from_wire(valid + [bad])
    assert str(batch.value) == str(single.value)


def test_invalid_record_wire_raises():
    with pytest.raises(ProtocolError):
        protocol.record_from_wire([1, "Alice", "CAIS"])  # not 4 fields
    with pytest.raises(ProtocolError):
        protocol.record_from_wire([-1, "Alice", "CAIS", "enter"])  # invalid time
    with pytest.raises(ProtocolError):
        protocol.record_from_wire([1, "Alice", "CAIS", "teleport"])  # invalid kind


# --------------------------------------------------------------------- #
# Decisions and traces
# --------------------------------------------------------------------- #
def _full_trace(authorization):
    return (
        StageResult("known-location", StageOutcome.CONTINUE, detail="known"),
        StageResult("candidate-lookup", StageOutcome.CONTINUE, detail="2 candidate(s)"),
        StageResult("capacity", StageOutcome.SKIP, detail="no limit"),
        StageResult(
            "entry-budget",
            StageOutcome.GRANT,
            detail="granted",
            authorization=authorization,
            entries_used=1,
        ),
    )


def test_granted_decision_round_trip(authorization):
    request = AccessRequest(15, "Alice", "CAIS")
    decision = Decision.granted_by(
        request, authorization, entries_used=1, trace=_full_trace(authorization)
    )
    back = protocol.decision_from_dict(protocol.decision_to_dict(decision))
    assert back.granted and back.authorization == authorization
    assert back.request == request
    assert back.entries_used == 1
    assert back.trace == decision.trace
    assert back.deciding_stage == "entry-budget"
    assert back.explain() == decision.explain()


@pytest.mark.parametrize("reason", list(DenialReason))
def test_denied_decision_round_trip_every_reason(reason):
    request = AccessRequest(15, "Alice", "CAIS")
    trace = (
        StageResult("entry-window", StageOutcome.DENY, detail="nope", reason=reason, entries_used=3),
    )
    decision = Decision.denied_by(request, reason, entries_used=3, trace=trace)
    back = protocol.decision_from_dict(protocol.decision_to_dict(decision))
    assert not back.granted and back.reason is reason
    assert back.entries_used == 3
    assert back.trace == trace


def test_decision_with_unbounded_authorization(unbounded_authorization):
    request = AccessRequest(0, "Bob", "Lab")
    decision = Decision.granted_by(request, unbounded_authorization)
    back = protocol.decision_from_dict(protocol.decision_to_dict(decision))
    assert back.authorization == unbounded_authorization
    assert back.authorization.max_entries is UNLIMITED_ENTRIES


def test_decision_without_trace():
    request = AccessRequest(15, "Alice", "CAIS")
    decision = Decision.denied_by(request, DenialReason.NO_AUTHORIZATION)
    encoded = protocol.decision_to_dict(decision, include_trace=False)
    assert "trace" not in encoded
    back = protocol.decision_from_dict(encoded)
    assert back.trace == () and back.reason is DenialReason.NO_AUTHORIZATION


def test_strip_trace_copies():
    request = AccessRequest(15, "Alice", "CAIS")
    decision = Decision.denied_by(
        request,
        DenialReason.NO_AUTHORIZATION,
        trace=(StageResult("s", StageOutcome.DENY, reason=DenialReason.NO_AUTHORIZATION),),
    )
    encoded = protocol.decision_to_dict(decision)
    stripped = protocol.strip_trace(encoded)
    assert "trace" in encoded and "trace" not in stripped
    assert stripped["granted"] == encoded["granted"]


# --------------------------------------------------------------------- #
# Alerts, checkpoints, query results
# --------------------------------------------------------------------- #
@pytest.mark.parametrize("kind", list(AlertKind))
def test_alert_round_trip_every_kind(kind):
    alert = Alert(4, kind, "Alice", "CAIS", "something happened", authorization_id="A1")
    assert protocol.alert_from_dict(protocol.alert_to_dict(alert)) == alert


def test_checkpoint_round_trip():
    receipt = Checkpoint(120, 100, 7, 42)
    assert protocol.checkpoint_from_dict(protocol.checkpoint_to_dict(receipt)) == receipt


def test_query_result_round_trip():
    result = QueryResult(
        "can_enter",
        ("subject", "location", "time", "granted", "reason"),
        (("Alice", "CAIS", 15, True, ""),),
        scalar=True,
    )
    back = protocol.query_result_from_dict(protocol.query_result_to_dict(result))
    assert back == result


def test_query_result_round_trip_empty_and_scalarless():
    result = QueryResult("who_is_in", ("subject",), ())
    back = protocol.query_result_from_dict(protocol.query_result_to_dict(result))
    assert back == result and back.scalar is None


# --------------------------------------------------------------------- #
# Typed errors
# --------------------------------------------------------------------- #
def _library_error_classes():
    return sorted(
        (
            value
            for value in vars(errors_module).values()
            if isinstance(value, type) and issubclass(value, LTAMError)
        ),
        key=lambda cls: cls.__name__,
    )


@pytest.mark.parametrize("cls", _library_error_classes(), ids=lambda cls: cls.__name__)
def test_every_typed_error_round_trips(cls):
    error = cls("it broke")
    back = protocol.error_from_dict(protocol.error_to_dict(error))
    assert type(back) is cls
    assert str(back) == "it broke"


def test_unknown_error_type_becomes_remote_service_error():
    back = protocol.error_from_dict({"type": "ZeroDivisionError", "message": "boom"})
    assert isinstance(back, RemoteServiceError)
    assert "ZeroDivisionError" in str(back) and "boom" in str(back)


def test_ingest_error_round_trips_failed_records():
    records = (
        MovementRecord(1, "Alice", "CAIS", MovementKind.EXIT),
        MovementRecord(2, "Bob", "Lab", MovementKind.ENTER),
    )
    error = IngestError("1 ingest batch(es) were rejected")
    error.failures = [BatchFailure(StorageError("inconsistent exit"), len(records), records)]
    back = protocol.error_from_dict(protocol.error_to_dict(error))
    assert type(back) is IngestError
    (failure,) = back.failures
    assert isinstance(failure.error, StorageError)
    assert failure.dropped == 2
    assert failure.records == records  # retry/dead-letter material survives the wire


def test_query_syntax_error_round_trips():
    back = protocol.error_from_dict(protocol.error_to_dict(QuerySyntaxError("bad token")))
    assert type(back) is QuerySyntaxError
