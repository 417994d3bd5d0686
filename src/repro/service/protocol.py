"""The wire codec of the authorization service.

One frame = one line of compact JSON, UTF-8, ``\\n``-terminated (NDJSON) —
or, after a per-connection ``hello`` negotiation, one length-prefixed
binary frame carrying the *same* message tree through the compact codec in
:mod:`repro.service.wire`.  Everything in this module is framing-agnostic:
it maps library objects to plain JSON-compatible trees and back, and both
framings ship those trees verbatim.
Requests are envelopes ``{"op": ..., "id": ..., **payload}``; responses are
``{"id": ..., "ok": true, "result": ...}`` or
``{"id": ..., "ok": false, "error": {...}}``.  The codec round-trips every
payload the protocol carries:

* access requests and :class:`~repro.api.decision.Decision` objects —
  including the full per-stage trace (stage, outcome, detail, denial
  reason, admitting authorization, entries used), so a remote caller can
  ``decision.explain()`` exactly like an embedded one;
* movement records (compact ``[time, subject, location, kind]`` arrays —
  the ingest hot path ships tens of thousands per frame);
* alerts, checkpoint receipts, and tabular query results;
* **typed errors**: the server serializes the error class name and the
  client re-raises the matching class from :mod:`repro.errors` /
  :mod:`repro.service.errors` — ``except StorageError`` works the same
  embedded and remote.  An :class:`~repro.errors.IngestError` additionally
  carries its rejected batches *with their records*, so remote submitters
  can retry or dead-letter exactly what was dropped.
"""

from __future__ import annotations

import json
from typing import Any, Dict, Iterable, List, Optional, Sequence

import repro.errors as _errors
from repro.core.requests import AccessRequest, DenialReason
from repro.core.serialization import authorization_from_dict, authorization_to_dict
from repro.engine.alerts import Alert, AlertKind
from repro.engine.query.ast import QueryResult
from repro.api.decision import Decision, StageOutcome, StageResult
from repro.storage.ingest import BatchFailure
from repro.storage.movement_db import Checkpoint, MovementRecord
from repro.service.errors import (
    ProtocolError,
    RemoteServiceError,
    ServiceAuthError,
    ServiceBusyError,
    ServiceConnectionError,
    ServiceError,
)

__all__ = [
    "OPS",
    "encode_frame",
    "decode_frame",
    "request_to_dict",
    "request_from_dict",
    "record_to_wire",
    "record_from_wire",
    "records_to_wire",
    "records_from_wire",
    "stage_result_to_dict",
    "stage_result_from_dict",
    "decision_to_dict",
    "decision_from_dict",
    "alert_to_dict",
    "alert_from_dict",
    "checkpoint_to_dict",
    "checkpoint_from_dict",
    "query_result_to_dict",
    "query_result_from_dict",
    "error_to_dict",
    "error_from_dict",
    "strip_trace",
    "elide_decision",
]

#: The operations the service understands.
OPS = (
    # wire-format negotiation (always answered in the current framing)
    "hello",
    "decide",
    "decide_many",
    "enforce",
    "observe",
    "observe_batch",
    "query",
    "checkpoint",
    "sync",
    "health",
    # the telemetry registry as structured JSON (see repro.service.telemetry)
    "metrics",
    # partition handoff (the fabric's reshard path)
    "export_subjects",
    "import_archive",
    "forget_subjects",
    "list_subjects",
    # router-only: install a new partition map (live migration)
    "reshard",
)


# --------------------------------------------------------------------- #
# Frames
# --------------------------------------------------------------------- #
def encode_frame(message: Dict[str, Any]) -> bytes:
    """Serialize one protocol message as a compact JSON line."""
    return json.dumps(message, separators=(",", ":"), ensure_ascii=False).encode("utf-8") + b"\n"


def decode_frame(line: bytes) -> Dict[str, Any]:
    """Parse one received line into a message dictionary."""
    try:
        message = json.loads(line)
    except (ValueError, UnicodeDecodeError) as exc:
        raise ProtocolError(f"malformed frame: {exc}") from None
    if not isinstance(message, dict):
        raise ProtocolError(f"a frame must be a JSON object, got {type(message).__name__}")
    return message


def _require(payload: Dict[str, Any], field: str) -> Any:
    try:
        return payload[field]
    except (KeyError, TypeError):
        raise ProtocolError(f"payload misses required field {field!r}") from None


# --------------------------------------------------------------------- #
# Access requests
# --------------------------------------------------------------------- #
def request_to_dict(request: AccessRequest) -> Dict[str, Any]:
    """The wire form of one access request."""
    return {
        "time": request.time,
        "subject": request.subject,
        "location": request.location,
        "request_id": request.request_id,
    }


def request_from_dict(payload: Dict[str, Any]) -> AccessRequest:
    """Rebuild an access request (the request id is preserved when present)."""
    if not isinstance(payload, dict):
        raise ProtocolError(f"an access request must be an object, got {payload!r}")
    request_id = payload.get("request_id")
    kwargs = {} if request_id is None else {"request_id": request_id}
    return AccessRequest(
        _require(payload, "time"),
        _require(payload, "subject"),
        _require(payload, "location"),
        **kwargs,
    )


# --------------------------------------------------------------------- #
# Movement records (compact arrays: the ingest hot path)
# --------------------------------------------------------------------- #
def record_to_wire(record: MovementRecord) -> List[Any]:
    """``[time, subject, location, kind]`` — compact, order-defined."""
    return [record.time, record.subject, record.location, record.kind.value]


def record_from_wire(item: Sequence[Any]) -> MovementRecord:
    """Rebuild (and re-validate) one movement record from its wire array."""
    if not isinstance(item, (list, tuple)) or len(item) != 4:
        raise ProtocolError(f"a movement record must be a [time, subject, location, kind] array, got {item!r}")
    time, subject, location, kind = item
    try:
        return MovementRecord(time, subject, location, kind)
    except (ValueError, _errors.LTAMError) as exc:
        raise ProtocolError(f"invalid movement record {item!r}: {exc}") from None


def records_to_wire(records: Iterable[MovementRecord]) -> List[List[Any]]:
    """Encode a whole batch of movement records."""
    return [[r.time, r.subject, r.location, r.kind.value] for r in records]


def records_from_wire(items: Sequence[Sequence[Any]]) -> List[MovementRecord]:
    """Decode a whole batch, validating every record.

    A tracker batch repeats a few hundred subject and location names and
    two kinds, so each distinct string is validated once, by a full
    :func:`record_from_wire` (which also raises the error for a bad
    record); a record whose time is a non-negative ``int`` and whose
    strings were all accepted earlier in the batch is then built without
    re-running the checks.  The result equals ``[record_from_wire(item)
    for item in items]``.
    """
    records: List[MovementRecord] = []
    append = records.append
    build = MovementRecord._from_checked
    subjects = set()
    locations = set()
    kinds: Dict[str, Any] = {}
    for item in items:
        if isinstance(item, (list, tuple)) and len(item) == 4:
            time, subject, location, kind = item
            if (
                type(time) is int
                and time >= 0
                and type(subject) is str
                and subject in subjects
                and type(location) is str
                and location in locations
                and type(kind) is str
                and kind in kinds
            ):
                append(build(time, subject, location, kinds[kind]))
                continue
        record = record_from_wire(item)
        subjects.add(record.subject)
        locations.add(record.location)
        if type(item[3]) is str:
            kinds[item[3]] = record.kind
        append(record)
    return records


# --------------------------------------------------------------------- #
# Decisions and their traces
# --------------------------------------------------------------------- #
def stage_result_to_dict(result: StageResult) -> Dict[str, Any]:
    """The wire form of one trace entry."""
    return {
        "stage": result.stage,
        "outcome": result.outcome.value,
        "detail": result.detail,
        "reason": result.reason.value if result.reason is not None else None,
        "authorization": (
            authorization_to_dict(result.authorization) if result.authorization is not None else None
        ),
        "entries_used": result.entries_used,
    }


def stage_result_from_dict(payload: Dict[str, Any]) -> StageResult:
    """Rebuild one trace entry."""
    reason = payload.get("reason")
    authorization = payload.get("authorization")
    return StageResult(
        _require(payload, "stage"),
        StageOutcome(_require(payload, "outcome")),
        detail=payload.get("detail", ""),
        reason=DenialReason(reason) if reason is not None else None,
        authorization=authorization_from_dict(authorization) if authorization is not None else None,
        entries_used=payload.get("entries_used", 0),
    )


def decision_to_dict(decision: Decision, *, include_trace: bool = True) -> Dict[str, Any]:
    """The wire form of a decision, per-stage trace included by default."""
    payload: Dict[str, Any] = {
        "request": request_to_dict(decision.request),
        "granted": decision.granted,
        "authorization": (
            authorization_to_dict(decision.authorization)
            if decision.authorization is not None
            else None
        ),
        "reason": decision.reason.value if decision.reason is not None else None,
        "entries_used": decision.entries_used,
    }
    if include_trace:
        payload["trace"] = [stage_result_to_dict(result) for result in decision.trace]
    return payload


def decision_from_dict(
    payload: Dict[str, Any], *, request: Optional[AccessRequest] = None
) -> Decision:
    """Rebuild a decision (an absent trace yields an empty one).

    Trace-elided responses do not echo the request; callers that know which
    request they sent pass it as ``request`` and the decision is rebuilt
    around it.  A payload that carries an echo wins over the fallback.
    """
    if not isinstance(payload, dict):
        raise ProtocolError(f"a decision must be an object, got {payload!r}")
    reason = payload.get("reason")
    authorization = payload.get("authorization")
    echoed = payload.get("request")
    if echoed is not None:
        request = request_from_dict(echoed)
    elif request is None:
        request = request_from_dict(_require(payload, "request"))
    return Decision(
        request,
        bool(_require(payload, "granted")),
        authorization_from_dict(authorization) if authorization is not None else None,
        DenialReason(reason) if reason is not None else None,
        payload.get("entries_used", 0),
        tuple(stage_result_from_dict(entry) for entry in payload.get("trace", ())),
    )


# --------------------------------------------------------------------- #
# Alerts, checkpoint receipts, query results
# --------------------------------------------------------------------- #
def alert_to_dict(alert: Alert) -> Dict[str, Any]:
    """The wire form of one alert."""
    return {
        "time": alert.time,
        "kind": alert.kind.value,
        "subject": alert.subject,
        "location": alert.location,
        "message": alert.message,
        "authorization_id": alert.authorization_id,
    }


def alert_from_dict(payload: Dict[str, Any]) -> Alert:
    """Rebuild one alert."""
    return Alert(
        _require(payload, "time"),
        AlertKind(_require(payload, "kind")),
        _require(payload, "subject"),
        _require(payload, "location"),
        payload.get("message", ""),
        authorization_id=payload.get("authorization_id"),
    )


def checkpoint_to_dict(receipt: Checkpoint) -> Dict[str, Any]:
    """The wire form of a checkpoint receipt."""
    return {
        "position": receipt.position,
        "archived": receipt.archived,
        "subjects_inside": receipt.subjects_inside,
        "pairs": receipt.pairs,
    }


def checkpoint_from_dict(payload: Dict[str, Any]) -> Checkpoint:
    """Rebuild a checkpoint receipt."""
    return Checkpoint(
        _require(payload, "position"),
        _require(payload, "archived"),
        _require(payload, "subjects_inside"),
        _require(payload, "pairs"),
    )


def query_result_to_dict(result: QueryResult) -> Dict[str, Any]:
    """The wire form of a tabular query result."""
    return {
        "kind": result.kind,
        "columns": list(result.columns),
        "rows": [list(row) for row in result.rows],
        "scalar": result.scalar,
    }


def query_result_from_dict(payload: Dict[str, Any]) -> QueryResult:
    """Rebuild a query result (rows come back as tuples, like the original)."""
    return QueryResult(
        _require(payload, "kind"),
        tuple(_require(payload, "columns")),
        tuple(tuple(row) for row in payload.get("rows", ())),
        scalar=payload.get("scalar"),
    )


# --------------------------------------------------------------------- #
# Typed errors
# --------------------------------------------------------------------- #
def _error_registry() -> Dict[str, type]:
    registry: Dict[str, type] = {}
    for value in vars(_errors).values():
        if isinstance(value, type) and issubclass(value, _errors.LTAMError):
            registry[value.__name__] = value
    for value in (
        ServiceError,
        ProtocolError,
        ServiceAuthError,
        ServiceBusyError,
        ServiceConnectionError,
        RemoteServiceError,
    ):
        registry[value.__name__] = value
    return registry


_ERROR_REGISTRY = _error_registry()


def error_to_dict(error: BaseException) -> Dict[str, Any]:
    """Serialize an error: class name, message, and any failed ingest batches."""
    payload: Dict[str, Any] = {"type": type(error).__name__, "message": str(error)}
    failures = getattr(error, "failures", None)
    if failures:
        payload["failures"] = [
            {
                "error": {"type": type(f.error).__name__, "message": str(f.error)},
                "records": records_to_wire(f.records),
            }
            for f in failures
        ]
    return payload


def error_from_dict(payload: Dict[str, Any]) -> Exception:
    """Rebuild the typed error a server reported.

    Unknown error types (including server-side non-library exceptions)
    become :class:`RemoteServiceError` with the original type in the
    message.  Failed ingest batches are re-attached as ``.failures``
    (:class:`~repro.storage.ingest.BatchFailure` objects with their
    records), mirroring what a local flush would have raised.
    """
    name = payload.get("type", "RemoteServiceError")
    message = payload.get("message", "(no message)")
    cls = _ERROR_REGISTRY.get(name)
    if cls is None:
        error: Exception = RemoteServiceError(f"{name}: {message}")
    else:
        error = cls(message)
    raw_failures = payload.get("failures")
    if raw_failures:
        failures = []
        for item in raw_failures:
            inner = item.get("error", {})
            inner_cls = _ERROR_REGISTRY.get(inner.get("type", ""), RemoteServiceError)
            records = tuple(records_from_wire(item.get("records", ())))
            failures.append(
                BatchFailure(inner_cls(inner.get("message", "(no message)")), len(records), records)
            )
        error.failures = failures  # type: ignore[attr-defined]
    return error


def strip_trace(encoded_decision: Dict[str, Any]) -> Dict[str, Any]:
    """A copy of an encoded decision without its trace (bandwidth knob)."""
    return {key: value for key, value in encoded_decision.items() if key != "trace"}


def elide_decision(encoded_decision: Dict[str, Any]) -> Dict[str, Any]:
    """The trace-elided wire form: no trace, no request echo.

    Outcome, denial reason, entries used and the admitting authorization
    stay (a granted decision without its authorization would not be a valid
    :class:`~repro.core.requests.AccessDecision`); the caller knows which
    request it sent, so the echo is pure bandwidth.
    """
    return {
        key: value
        for key, value in encoded_decision.items()
        if key != "trace" and key != "request"
    }
