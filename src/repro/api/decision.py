"""Decisions with per-stage evaluation traces.

The decision pipeline (:mod:`repro.api.pdp`) evaluates an access request by
running it through an ordered list of stages.  Each stage reports a
:class:`StageResult`; the sequence of results forms the **trace** of the
final :class:`Decision`, so every grant or denial can be explained by naming
the stage that produced it (XACML-style explainability on top of the paper's
Definition 7).

:class:`Decision` subclasses the seed's
:class:`~repro.core.requests.AccessDecision`, so everything that consumed an
``AccessDecision`` (the audit log, the query engine, the benchmarks) keeps
working unchanged while new callers can inspect ``decision.trace``.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from operator import itemgetter
from typing import Optional, Tuple

from repro.core.authorization import LocationTemporalAuthorization
from repro.core.requests import AccessDecision, AccessRequest, DenialReason

__all__ = ["StageOutcome", "StageResult", "Decision"]


class StageOutcome(str, Enum):
    """What a pipeline stage concluded about the request."""

    #: The stage authorizes the request; evaluation stops with a grant.
    GRANT = "grant"
    #: The stage rejects the request; evaluation stops with a denial.
    DENY = "deny"
    #: The stage passed; evaluation continues with the next stage.
    CONTINUE = "continue"
    #: The stage does not apply to this request (e.g. no capacity configured).
    SKIP = "skip"

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.value


_tuple_new = tuple.__new__


class StageResult(tuple):
    """One stage's verdict, kept in the decision trace.

    Parameters
    ----------
    stage:
        Name of the stage that produced this result.
    outcome:
        The stage's verdict.
    detail:
        Human-readable explanation of the verdict.
    reason:
        The denial reason when ``outcome`` is :data:`StageOutcome.DENY`.
    authorization:
        The admitting authorization when ``outcome`` is
        :data:`StageOutcome.GRANT`.
    entries_used:
        Entry count consumed under the matching authorization (grant), or the
        largest count seen among exhausted candidates (denial).

    Every decision builds one per stage run, so it is an immutable tuple
    (one allocation); :meth:`deferred` keeps the detail as a ``str.format``
    template plus arguments, rendered only when read.  Equality, hashing,
    ``repr`` and pickling see the rendered fields.
    """

    __slots__ = ()

    def __new__(cls, stage, outcome, detail="", reason=None, authorization=None, entries_used=0):
        return _tuple_new(cls, (stage, outcome, detail, None, reason, authorization, entries_used))

    @staticmethod
    def deferred(stage, outcome, template, args, reason=None, authorization=None, entries_used=0):
        """A result whose detail is ``template.format(*args)``, rendered on read."""
        return _tuple_new(
            StageResult, (stage, outcome, template, args, reason, authorization, entries_used)
        )

    stage = property(itemgetter(0), doc="Name of the stage that produced this result.")
    outcome = property(itemgetter(1), doc="The stage's verdict.")
    reason = property(itemgetter(4), doc="The denial reason of a DENY, else ``None``.")
    authorization = property(itemgetter(5), doc="The admitting authorization of a GRANT.")
    entries_used = property(itemgetter(6), doc="Entry count behind the verdict.")

    @property
    def detail(self) -> str:
        """Human-readable explanation of the verdict."""
        args = self[3]
        return self[2] if args is None else self[2].format(*args)

    def _fields(self) -> tuple:
        return (self[0], self[1], self.detail, self[4], self[5], self[6])

    # A plain tuple holding the raw (template, args) layout is not equal.
    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._fields() == other._fields()  # type: ignore[union-attr]
        return False if isinstance(other, tuple) else NotImplemented

    def __ne__(self, other: object) -> bool:
        equal = self.__eq__(other)
        return equal if equal is NotImplemented else not equal

    def __hash__(self) -> int:
        return hash(self._fields())

    def __getnewargs__(self) -> tuple:  # pickle/copy rebuild via __new__
        return self._fields()

    def __repr__(self) -> str:
        return (
            f"{self.__class__.__qualname__}(stage={self[0]!r}, outcome={self[1]!r}, "
            f"detail={self.detail!r}, reason={self[4]!r}, "
            f"authorization={self[5]!r}, entries_used={self[6]!r})"
        )

    def __str__(self) -> str:
        detail = self.detail
        suffix = f": {detail}" if detail else ""
        return f"[{self[0]}] {self[1].value}{suffix}"


@dataclass(frozen=True)
class Decision(AccessDecision):
    """An :class:`~repro.core.requests.AccessDecision` with a per-stage trace.

    ``Decision`` is substitutable anywhere an ``AccessDecision`` is expected;
    the extra ``trace`` records, in evaluation order, what every pipeline
    stage concluded, ending with the stage that granted or denied.
    """

    trace: Tuple[StageResult, ...] = ()

    @property
    def deciding_stage(self) -> Optional[str]:
        """Name of the stage that granted or denied the request."""
        for result in reversed(self.trace):
            if result.outcome in (StageOutcome.GRANT, StageOutcome.DENY):
                return result.stage
        return None

    def explain(self) -> str:
        """Multi-line rendering of the decision and its trace."""
        header = str(self)
        if not self.trace:
            return header
        lines = [header]
        lines.extend(f"  {result}" for result in self.trace)
        return "\n".join(lines)

    @classmethod
    def granted_by(
        cls,
        request: AccessRequest,
        authorization: LocationTemporalAuthorization,
        *,
        entries_used: int = 0,
        trace: Tuple[StageResult, ...] = (),
    ) -> "Decision":
        """Build a granting decision carrying *trace*."""
        return cls(request, True, authorization, None, entries_used, trace)

    @classmethod
    def denied_by(
        cls,
        request: AccessRequest,
        reason: DenialReason,
        *,
        entries_used: int = 0,
        trace: Tuple[StageResult, ...] = (),
    ) -> "Decision":
        """Build a denying decision carrying *trace*."""
        return cls(request, False, None, reason, entries_used, trace)


_object_new = object.__new__
_object_setattr = object.__setattr__


def _assemble(request, granted, authorization, reason, entries_used, trace) -> Decision:
    """The evaluator's :class:`Decision` constructor: one ``__dict__`` write, no
    ``__post_init__`` (the caller guarantees the grant/denial invariants)."""
    decision = _object_new(Decision)
    _object_setattr(
        decision,
        "__dict__",
        {
            "request": request,
            "granted": granted,
            "authorization": authorization,
            "reason": reason,
            "entries_used": entries_used,
            "trace": trace,
        },
    )
    return decision
