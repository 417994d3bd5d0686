"""Enforcement layer: monitor, alerts, audit, queries.

Implements the system architecture of Figure 3 on top of the storage layer:
the continuous movement monitor with its security alerts, occupancy sessions,
the audit log, and the Query Engine with its small query language.  The
access control engine itself — the decision/enforcement split (PDP/PEP) and
the :class:`~repro.api.builder.Ltam` facade over it — lives in
:mod:`repro.api`.
"""

from repro.engine.alerts import Alert, AlertKind, AlertSink
from repro.engine.audit import AuditEntry, AuditEntryKind, AuditLog
from repro.engine.monitor import MovementMonitor
from repro.engine.query import QueryEngine, QueryResult, parse
from repro.engine.session import OccupancySession, SessionTable

__all__ = [
    "MovementMonitor",
    "Alert",
    "AlertKind",
    "AlertSink",
    "AuditLog",
    "AuditEntry",
    "AuditEntryKind",
    "OccupancySession",
    "SessionTable",
    "QueryEngine",
    "QueryResult",
    "parse",
]
