"""repro — a reproduction of LTAM: A Location-Temporal Authorization Model.

Yu & Lim, Secure Data Management (SDM 2004), VLDB 2004 Workshop, LNCS 3178.

The public entry point is :mod:`repro.api`, which splits Figure 3's access
control engine XACML-style:

* :class:`~repro.api.pdp.DecisionPoint` (PDP) evaluates access requests
  through an ordered, pluggable pipeline of decision stages
  (known-location, candidate-lookup, entry-window, entry-budget, plus
  extension stages for capacity limits and conflict resolution); every
  :class:`~repro.api.decision.Decision` carries a per-stage trace naming
  the stage that granted or denied it.
* :class:`~repro.api.pep.EnforcementPoint` (PEP) owns the side effects:
  audit entries, denial alerts, and movement observations feeding the
  continuous monitor.
* :class:`~repro.api.builder.Ltam` composes both over the Figure 3
  databases, built fluently::

      from repro.api import Ltam, grant

      engine = Ltam.builder().hierarchy(campus).backend("sqlite", path).build()
      engine.grant(grant("alice").at("meeting-room").during(9, 17).entries(3))
      decision = engine.decide((10, "alice", "meeting-room"))
      decisions = engine.decide_many(requests)   # batched, shared lookups

Supporting packages, as described in DESIGN.md:

* :mod:`repro.temporal` — chronons, time intervals, interval sets, calendars;
* :mod:`repro.locations` — location graphs, multilevel graphs, routes, layouts;
* :mod:`repro.spatial` — geometry, boundaries, simulated positioning;
* :mod:`repro.core` — authorizations, rules, derivation, conflicts,
  grant durations, the inaccessible-location algorithm;
* :mod:`repro.storage` — the authorization, movement and profile databases;
* :mod:`repro.api` — the PDP/PEP decision pipeline and fluent builders;
* :mod:`repro.service` — the network boundary: an asyncio authorization
  server with a decision cache, remote PDP/PEP clients, and the NDJSON
  wire codec (``repro serve`` on the CLI);
* :mod:`repro.engine` — monitor, alerts, audit log and query engine;
* :mod:`repro.privacy` — location-privacy policies and anonymization;
* :mod:`repro.simulation` — synthetic buildings, workloads and movement traces;
* :mod:`repro.baselines` — card-reader, TAM and brute-force baselines;
* :mod:`repro.analysis` — reachability matrices and violation reports;
* :mod:`repro.paper` — the paper's worked examples as fixtures.

The most common entry points are re-exported here.
"""

from repro.core import (
    AccessRequest,
    AccessDecision,
    AuthorizationRule,
    DenialReason,
    LocationAuthorization,
    LocationTemporalAuthorization,
    OperatorTuple,
    Subject,
    SubjectDirectory,
    UNLIMITED_ENTRIES,
    authorize_route,
    find_inaccessible,
)
from repro.api import (
    Decision,
    DecisionPoint,
    EnforcementPoint,
    Ltam,
    grant,
)
from repro.engine import AlertKind, QueryEngine
from repro.locations import (
    LocationGraph,
    LocationGraphBuilder,
    LocationHierarchy,
    MultilevelGraphBuilder,
    MultilevelLocationGraph,
    Route,
    find_route,
    ntu_campus_hierarchy,
)
from repro.temporal import FOREVER, Clock, IntervalSet, TimeInterval

__version__ = "0.2.0"

__all__ = [
    "__version__",
    # temporal
    "FOREVER",
    "Clock",
    "TimeInterval",
    "IntervalSet",
    # locations
    "LocationGraph",
    "MultilevelLocationGraph",
    "LocationHierarchy",
    "LocationGraphBuilder",
    "MultilevelGraphBuilder",
    "Route",
    "find_route",
    "ntu_campus_hierarchy",
    # core
    "Subject",
    "SubjectDirectory",
    "LocationAuthorization",
    "LocationTemporalAuthorization",
    "UNLIMITED_ENTRIES",
    "AccessRequest",
    "AccessDecision",
    "DenialReason",
    "AuthorizationRule",
    "OperatorTuple",
    "authorize_route",
    "find_inaccessible",
    # api (PDP/PEP)
    "Ltam",
    "Decision",
    "DecisionPoint",
    "EnforcementPoint",
    "grant",
    # engine
    "AlertKind",
    "QueryEngine",
]
