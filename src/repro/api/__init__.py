"""repro.api — the PDP/PEP public API of the LTAM reproduction.

The enforcement architecture of Figure 3 is split XACML-style:

* :class:`DecisionPoint` (PDP) — evaluates access requests through an
  ordered, pluggable pipeline of :class:`DecisionStage` objects and returns
  :class:`Decision` objects carrying a per-stage trace;
* :class:`EnforcementPoint` (PEP) — owns every side effect: audit entries,
  denial alerts, and feeding movement observations to the monitor;
* :class:`PolicyInformationPoint` (PIP) — the attribute services the stages
  consult (candidate lookup, entry counting, capacity), memoized by the
  batch API :meth:`DecisionPoint.decide_many` where that pays;
* :class:`Ltam` — the facade composing all of the above, with fluent
  construction via :meth:`Ltam.builder` and :func:`grant`.

Typical use::

    from repro.api import CapacityStage, Ltam, grant

    engine = (
        Ltam.builder()
        .hierarchy(campus)
        .backend("sqlite", "/var/lib/ltam.db")
        .stage(CapacityStage())
        .build()
    )
    engine.grant(grant("alice").at("meeting-room").during(9, 17).entries(3))
    decision = engine.decide((10, "alice", "meeting-room"))
    print(decision.explain())          # per-stage trace
    decisions = engine.decide_many(requests)   # batched
"""

from repro.api.decision import Decision, StageOutcome, StageResult
from repro.api.stages import (
    CandidateLookupStage,
    CapacityStage,
    ConflictResolutionStage,
    DecisionStage,
    EntryBudgetStage,
    EntryWindowStage,
    EvaluationContext,
    KnownLocationStage,
    default_pipeline,
)
from repro.api.pdp import DecisionPoint, PolicyInformationPoint
from repro.api.pep import EnforcementPoint
from repro.api.builder import AuthorizationBuilder, Ltam, LtamBuilder, grant

__all__ = [
    # decisions
    "Decision",
    "StageOutcome",
    "StageResult",
    # stages
    "DecisionStage",
    "EvaluationContext",
    "KnownLocationStage",
    "CandidateLookupStage",
    "EntryWindowStage",
    "EntryBudgetStage",
    "CapacityStage",
    "ConflictResolutionStage",
    "default_pipeline",
    # PDP / PEP / PIP
    "DecisionPoint",
    "PolicyInformationPoint",
    "EnforcementPoint",
    # construction
    "Ltam",
    "LtamBuilder",
    "AuthorizationBuilder",
    "grant",
]
