"""The versioned ``/v1/studies`` federated-study API.

Tenant traffic reaches the :class:`~.study.FederatedStudyService` only
through :meth:`~repro.core.api.ApiGateway.dispatch`, so federated
authentication, per-route rate limits, RBAC (WRITE on ``studies`` to
propose/approve/run, READ to poll), metering, and audit logging all apply
before any study state changes.  Tenant isolation is strict: another
tenant's study id behaves exactly like a missing one (404), as on every
:class:`~repro.core.api.ApiSurface`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Tuple

from ..core.api import ROUTE_WINDOW_S, ApiSurface, RequestContext, Route
from ..core.errors import ValidationError
from ..rbac.model import Action
from .study import ANALYSES, FederatedStudyService

# The resource type the /v1/studies routes guard.
STUDIES_RESOURCE = "studies"

# Per-route rate limits (requests per window per tenant).  Running a
# study is the expensive verb; status polling the loosest.
PROPOSE_RATE_LIMIT = 20
DECIDE_RATE_LIMIT = 60
RUN_RATE_LIMIT = 10
STATUS_RATE_LIMIT = 240
RESULT_RATE_LIMIT = 60
RATE_WINDOW_S = ROUTE_WINDOW_S


@dataclass(frozen=True)
class StudyProposalRequest:
    """Typed envelope for ``studies.propose``."""

    analysis: str
    group_id: str
    participants: Tuple[str, ...]
    threshold: int
    tags: Dict[str, str] = field(default_factory=dict)

    def validate(self) -> None:
        if self.analysis not in ANALYSES:
            raise ValidationError(
                f"analysis must be one of {ANALYSES}, got {self.analysis!r}")
        if not self.group_id:
            raise ValidationError("group_id is required")
        participants = tuple(self.participants)
        if not participants:
            raise ValidationError("a study needs at least one institution")
        if len(set(participants)) != len(participants):
            raise ValidationError("participants must be unique")
        if not isinstance(self.threshold, int):
            raise ValidationError("threshold must be an integer")
        if not 1 <= self.threshold <= len(participants):
            raise ValidationError(
                f"threshold {self.threshold} outside "
                f"1..{len(participants)}")


class StudiesApi(ApiSurface):
    """The ``/v1/studies`` routes against one study service."""

    noun = "study"

    def __init__(self, service: FederatedStudyService) -> None:
        self.service = service

    def routes(self) -> Tuple[Route, ...]:
        return (
            Route("/studies/propose", self.propose, Action.WRITE,
                  STUDIES_RESOURCE, PROPOSE_RATE_LIMIT,
                  "propose a federated study (M-of-N approval)"),
            Route("/studies/approve", self.approve, Action.WRITE,
                  STUDIES_RESOURCE, DECIDE_RATE_LIMIT,
                  "record one institution's approval", owns="study_id"),
            Route("/studies/deny", self.deny, Action.WRITE,
                  STUDIES_RESOURCE, DECIDE_RATE_LIMIT,
                  "record one institution's veto", owns="study_id"),
            Route("/studies/run", self.run, Action.WRITE,
                  STUDIES_RESOURCE, RUN_RATE_LIMIT,
                  "run an approved study's federated analysis",
                  owns="study_id"),
            Route("/studies/status", self.status, Action.READ,
                  STUDIES_RESOURCE, STATUS_RATE_LIMIT,
                  "poll a study's lifecycle state and approvals",
                  owns="study_id"),
            Route("/studies/result", self.result, Action.READ,
                  STUDIES_RESOURCE, RESULT_RATE_LIMIT,
                  "fetch a completed study's aggregate result",
                  owns="study_id"),
        )

    def owner(self, study_id: str) -> Optional[str]:
        return self.service.study_tenant(study_id)

    # -- handlers -------------------------------------------------------------

    def propose(self, context: RequestContext,
                request: StudyProposalRequest) -> Dict[str, Any]:
        if not isinstance(request, StudyProposalRequest):
            raise ValidationError(
                "studies.propose takes a StudyProposalRequest envelope")
        request.validate()
        opened = self.service.propose(
            tenant_id=context.tenant_id,
            researcher=context.user.user_id,
            analysis=request.analysis, group_id=request.group_id,
            participants=list(request.participants),
            threshold=request.threshold)
        self.audit(context, opened["study_id"], "proposed",
                   extra=f"analysis={request.analysis} "
                         f"threshold={request.threshold}-of-"
                         f"{len(request.participants)}")
        return self.service.status(opened["study_id"])

    def approve(self, context: RequestContext, study_id: str,
                institution: str) -> Dict[str, Any]:
        state = self.service.approve(study_id, institution)
        self.audit(context, study_id, "approval recorded",
                   extra=f"institution={institution} state={state}")
        return self.service.status(study_id)

    def deny(self, context: RequestContext, study_id: str,
             institution: str) -> Dict[str, Any]:
        self.service.deny(study_id, institution)
        self.audit(context, study_id, "denial recorded",
                   extra=f"institution={institution}")
        return self.service.status(study_id)

    def run(self, context: RequestContext, study_id: str) -> Dict[str, Any]:
        summary = self.service.run(study_id)
        self.audit(context, study_id, "run",
                   extra=f"rounds={summary['rounds']} "
                         f"digest={summary['result_digest'][:16]}")
        return summary

    def status(self, context: RequestContext,
               study_id: str) -> Dict[str, Any]:
        self.audit(context, study_id, "status read")
        return self.service.status(study_id)

    def result(self, context: RequestContext,
               study_id: str) -> Dict[str, Any]:
        local = self.service._known(study_id)
        fitted = self.service.result_object(study_id)
        self.audit(context, study_id, "result read")
        if local["analysis"] == "jmf":
            body = {
                "analysis": "jmf",
                "drug_source_weights": {
                    k: float(v)
                    for k, v in fitted.drug_source_weights.items()},
                "disease_source_weights": {
                    k: float(v)
                    for k, v in fitted.disease_source_weights.items()},
                "objective": [float(o) for o in fitted.objective_history],
            }
        else:
            body = {
                "analysis": "delt",
                "effects": [float(e) for e in fitted.effects],
                "objective": [float(o) for o in fitted.objective_history],
            }
        body["study_id"] = study_id
        return body
