"""The Health Cloud Platform facade (Sections II-III, Fig. 1).

:class:`HealthCloudPlatform` wires the subsystems into the deployable
whole the paper's Fig. 1 sketches: trusted infrastructure + attestation,
RBAC + federated identity, consent, KMS + Data Lake, the blockchain
networks, the asynchronous ingestion pipeline, export, the analytics
model registry, and monitoring — all sharing one simulated clock and one
seed, so an end-to-end run is deterministic.

The Registration Service behaviour (Section II-B) is implemented by
:meth:`register_tenant`: "A default organization for each tenant is
created; under that, a default environment for development and deployment
of custom services ... is created."
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Optional, Tuple

from ..analytics.lifecycle import ModelRegistry
from ..blockchain import BlockchainNetwork, standard_network
from ..blockchain.audit import AuditorView
from ..cloudsim.clock import SimClock
from ..cloudsim.monitoring import MonitoringService
from ..compliance.audit import AuditService
from ..compliance.gdpr import GdprService
from ..compliance.hipaa import HipaaControlRegistry
from ..crypto.kms import KeyManagementService
from ..crypto.symmetric import generate_key
from .api import ApiGateway, ApiSurface, RequestContext, Route
from .metering import MeteringService
from .reports import ReportService
from ..ingestion.datalake import DataLake
from ..ingestion.export import ExportService
from ..ingestion.pipeline import IngestionService
from ..privacy.consent import ConsentManagementService
from ..privacy.deidentify import Deidentifier
from ..privacy.verification import AnonymizationVerificationService
from ..rbac.engine import RbacEngine
from ..rbac.federation import FederatedIdentityService
from ..rbac.model import Action, Environment, Organization, Tenant


@dataclass
class TenantContext:
    """What :meth:`register_tenant` hands back: tenant + defaults."""

    tenant: Tenant
    default_org: Organization
    default_env: Environment


class HealthCloudPlatform:
    """One fully wired health cloud instance."""

    def __init__(self, seed: int = 0, use_blockchain: bool = True,
                 minimum_anonymization_degree: float = 0.6,
                 provenance_batch_size: int = 16) -> None:
        self.seed = seed
        self.clock = SimClock()
        self.monitoring = MonitoringService(self.clock)

        # Identity and access.
        self.rbac = RbacEngine()
        self.federation = FederatedIdentityService(self.rbac, self.clock)

        # Privacy substrate.
        self.consent = ConsentManagementService(self.clock)
        self.deidentifier = Deidentifier(
            secret=generate_key(seed * 31 + 7))
        self.verification = AnonymizationVerificationService(
            minimum_degree=minimum_anonymization_degree)

        # Storage.
        self.kms = KeyManagementService("platform", seed=seed)
        self.datalake = DataLake(self.kms)

        # Provenance / consent / malware / privacy networks.
        self.blockchain: Optional[BlockchainNetwork] = (
            standard_network(seed=seed, batch_size=8, clock=self.clock,
                             monitoring=self.monitoring)
            if use_blockchain else None)

        # Ingestion + export.
        self.ingestion = IngestionService(
            datalake=self.datalake,
            consent=self.consent,
            deidentifier=self.deidentifier,
            verification=self.verification,
            blockchain=self.blockchain,
            monitoring=self.monitoring,
            clock=self.clock,
            key_seed=seed,
            provenance_batch_size=provenance_batch_size,
        )
        self.export = ExportService(
            datalake=self.datalake,
            consent=self.consent,
            rbac=self.rbac,
            reidentification=self.ingestion.reidentification,
        )

        # Analytics + compliance.
        self.models = ModelRegistry()
        self.controls = HipaaControlRegistry()
        self.gdpr = GdprService(self.datalake, self.consent,
                                self.deidentifier, self.blockchain)
        auditor = (AuditorView(self.blockchain)
                   if self.blockchain is not None else None)
        self.audit = AuditService(self.monitoring, self.rbac, auditor)

        # Billing and tenant-facing reports (Fig. 1's dashboard box).
        self.metering = MeteringService(clock=self.clock)
        self.reports = ReportService(self.monitoring, self.controls,
                                     self.audit, self.metering)

        self._register_default_controls()

    # -- tenancy (Section II-B "Registration Service") ---------------------------

    def register_tenant(self, name: str) -> TenantContext:
        """Create a tenant with its default organization and environment."""
        tenant = self.rbac.create_tenant(name)
        org = self.rbac.create_organization(tenant.tenant_id, "default")
        env = self.rbac.create_environment(org.org_id, "default",
                                           kind="development")
        self.monitoring.log("registration",
                            f"tenant {name} registered with default org/env")
        return TenantContext(tenant, org, env)

    # -- ingestion convenience ------------------------------------------------------

    def flush_blockchain(self) -> None:
        """Cut and commit any pending provenance blocks."""
        if self.blockchain is not None:
            self.blockchain.flush()

    def run_ingestion(self, limit: Optional[int] = None,
                      batch_size: Optional[int] = None) -> int:
        """Drive the background ingestion worker, then seal the ledger."""
        processed = self.ingestion.process_pending(limit,
                                                   batch_size=batch_size)
        self.flush_blockchain()
        return processed

    # -- API surface (Section II-B "API and API management") --------------------

    def build_api_gateway(self, rate_limit: int = 1000, compute=None,
                          subscriptions=None, studies=None) -> ApiGateway:
        """Expose the platform's standard capabilities behind the gateway.

        The platform's own routes are :class:`PlatformApi`'s.  Pass a
        :class:`~repro.compute.ComputeApi` as ``compute`` to also
        expose the versioned ``/v1/compute`` job routes (submit/status/
        result/cancel, guarded by WRITE/READ on ``compute-jobs``), and a
        :class:`~repro.streaming.SubscriptionApi` as ``subscriptions``
        for the ``/v1/subscriptions`` push-subscription surface
        (register/list/poll/cancel on ``subscriptions``), and a
        :class:`~repro.federation.StudiesApi` as ``studies`` for the
        ``/v1/studies`` federated-study lifecycle (propose/approve/deny/
        run/status/result on ``studies``).
        """
        gateway = ApiGateway(
            self.rbac, self.federation, monitoring=self.monitoring,
            clock=self.clock, rate_limit=rate_limit,
            meter=lambda tenant_id, path: self.metering.record(
                tenant_id, "api.call"))
        for surface in (PlatformApi(self), compute, subscriptions, studies):
            if surface is not None:
                gateway.register_surface(surface)
        return gateway

    # -- compliance wiring -----------------------------------------------------------

    def _register_default_controls(self) -> None:
        """Mark the controls this codebase actually implements."""
        implemented = {
            "164.308-access": "repro.rbac",
            "164.310-facility": "repro.trusted",
            "164.310-device": "repro.ingestion.datalake (crypto-deletion)",
            "164.312-access": "repro.rbac + repro.rbac.federation",
            "164.312-audit": "repro.compliance.audit",
            "164.312-integrity": "repro.crypto (HMAC/redactable signatures)",
            "164.312-transmission": "repro.crypto (AEAD + hybrid envelope)",
            "gdpr-17-erasure": "repro.compliance.gdpr",
            "gdpr-7-consent": "repro.privacy.consent + consent chaincode",
            "gdpr-30-records": "repro.blockchain (provenance ledger)",
            "gxp-change": "repro.compliance.change",
        }
        for control_id, component in implemented.items():
            self.controls.mark_implemented(control_id, component)


class PlatformApi(ApiSurface):
    """The platform's own routes: ingestion status, dashboards, billing.

    Routes require a tenant-scoped READ on their resource type:
    ``platform-status``, ``reports`` or ``billing``.  An ingestion job
    belongs to the tenant of its consent group, so another tenant's job
    id reads as a missing one.
    """

    noun = "ingestion job"

    def __init__(self, platform: HealthCloudPlatform) -> None:
        self.platform = platform

    def routes(self) -> Tuple[Route, ...]:
        reports = self.platform.reports
        return (
            Route("/ingestion/status", self.ingestion_status, Action.READ,
                  "platform-status", None,
                  "poll an ingestion job's status URL", owns="job_id"),
            Route("/reports/operations",
                  lambda context: reports.operations_report().body,
                  Action.READ, "reports", None, "operations dashboard"),
            Route("/reports/compliance",
                  lambda context: reports.compliance_report().body,
                  Action.READ, "reports", None, "compliance dashboard"),
            Route("/billing",
                  lambda context: reports.billing_report(
                      context.tenant_id).body,
                  Action.READ, "billing", None, "current-period invoice"),
        )

    def owner(self, job_id: str) -> Optional[str]:
        group = self.platform.rbac.groups.get(
            self.platform.ingestion.job(job_id).group_id)
        return group.tenant_id if group is not None else None

    def ingestion_status(self, context: RequestContext,
                         job_id: str) -> Dict[str, Any]:
        status, reason = self.platform.ingestion.status(job_id)
        self.audit(context, job_id, "status read")
        return {"status": status.value, "reason": reason}
