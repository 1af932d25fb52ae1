"""Conformance: every gateway route honours the one surface contract.

One gateway carries the platform's routes plus /v1/compute,
/v1/subscriptions and /v1/studies.  Each check walks ``gateway.routes()``,
so a new route is checked as soon as it is registered: unauthenticated
calls get 401, a role without the route's action gets 403, the route's
budget is enforced with 429, and a 200 leaves an ``api`` log line with
its request id.  Routes that own an id also read another tenant's id
exactly like an unknown one (404) and leave an ``audit`` line carrying
the id and the request id.  The only per-route knowledge here is how to
build one valid request (``HAPPY``); a route without an entry fails.
"""

import pytest

from repro import HealthCloudPlatform
from repro.blockchain import standard_network
from repro.cloudsim.healthplane.events import EventBus
from repro.compute import ComputeApi, JobSubmitRequest, TaskGraph
from repro.compute import standard_scheduler
from repro.core.api import ApiRequest
from repro.core.platform import PlatformApi
from repro.federation import (
    DeltStudyConfig,
    FederatedStudyService,
    StudiesApi,
    StudyProposalRequest,
    build_institutions,
)
from repro.fhir import Bundle, Patient
from repro.ingestion import encrypt_bundle_for_upload
from repro.rbac import (
    Action,
    ExternalIdentityProvider,
    Permission,
    Scope,
    ScopeKind,
)
from repro.streaming import (SubscriptionApi, SubscriptionFilter,
                             SubscriptionRegistry)
from repro.workloads.emr import generate_emr_cohort

GROUP = "grp-conformance"
PARTICIPANTS = ("inst-00", "inst-01")
IDP = ("conformance-idp", b"conformance-key-0123")
UNLIMITED_ROUTE_BUDGET = 3


def tiny_graph():
    graph = TaskGraph("tiny")
    graph.add_data("x", 5, nbytes=64)
    graph.add_task("double", lambda ins: ins["x"] * 2, inputs=("x",),
                   cost_s=0.01)
    return graph


class World:
    """One platform, its four surfaces, and users in two tenants."""

    def __init__(self):
        platform = self.platform = HealthCloudPlatform(
            seed=303, use_blockchain=False)
        clock, monitoring = platform.clock, platform.monitoring
        self.scheduler = standard_scheduler(clock=clock,
                                            monitoring=monitoring)
        self.registry = SubscriptionRegistry(
            EventBus(clock, monitoring=monitoring))
        cohort = generate_emr_cohort(n_patients=24, n_drugs=6,
                                     n_lowering=2, seed=7)
        self.service = FederatedStudyService(
            clock=clock,
            network=standard_network(seed=303, clock=clock,
                                     monitoring=monitoring),
            scheduler=self.scheduler,
            institutions=build_institutions(len(PARTICIPANTS), clock, GROUP,
                                            patients=cohort.patients, seed=7),
            monitoring=monitoring, seed=303,
            delt_config=DeltStudyConfig(n_drugs=6, max_iterations=2))
        self.surfaces = (PlatformApi(platform),
                         ComputeApi(self.scheduler, run_inline=False),
                         SubscriptionApi(self.registry),
                         StudiesApi(self.service))
        self.rows = {f"/v1{row.path}": row for surface in self.surfaces
                     for row in surface.routes()}

        self.idp = ExternalIdentityProvider(*IDP, clock)
        platform.federation.approve_idp(*IDP)
        resources = sorted({row.resource_type for row in self.rows.values()})
        self.lab = platform.register_tenant("lab")
        self.rival = platform.register_tenant("rival")
        self.tenants = {}
        for tenant, name, actions in (
                (self.lab, "full", (Action.READ, Action.WRITE)),
                (self.lab, "reader", (Action.READ,)),
                (self.lab, "writer", (Action.WRITE,)),
                (self.rival, "rival", (Action.READ, Action.WRITE))):
            tenant_id = tenant.tenant.tenant_id
            user = platform.rbac.register_user(tenant_id, name)
            scope = Scope(ScopeKind.TENANT, tenant_id)
            platform.rbac.define_role(f"{name}-role", [
                Permission(action, resource, scope)
                for action in actions for resource in resources])
            platform.rbac.bind_role(user.user_id, tenant.default_org.org_id,
                                    tenant.default_env.env_id,
                                    f"{name}-role")
            platform.federation.link_identity(IDP[0], name, user.user_id)
            self.tenants[name] = tenant
        self.lab_id = self.lab.tenant.tenant_id

        group = platform.rbac.create_group(self.lab_id, "cohort")
        registration = platform.ingestion.register_client("device")
        platform.consent.grant("pt-1", group.group_id)
        bundle = Bundle(id="b").add(Patient(
            id="pt-1", name={"family": "X"}, birthDate="1980-01-01",
            gender="male"))
        self.ingestion_job = platform.ingestion.upload(
            "device", encrypt_bundle_for_upload(bundle, registration),
            group.group_id).job_id
        platform.run_ingestion()

    def gateway(self, rate_limit=10_000):
        return self.platform.build_api_gateway(
            rate_limit=rate_limit, compute=self.surfaces[1],
            subscriptions=self.surfaces[2], studies=self.surfaces[3])

    def call(self, gateway, user, path, token=None, **params):
        tenant = self.tenants[user]
        return gateway.dispatch(ApiRequest(
            path=path, token=token or self.idp.issue_token(user),
            scope_entity_id=tenant.tenant.tenant_id,
            org_id=tenant.default_org.org_id,
            env_id=tenant.default_env.env_id, params=params))

    # -- resources owned by the lab tenant ------------------------------------

    def job(self, run):
        job = self.scheduler.submit(tiny_graph(), tenant_id=self.lab_id)
        if run:
            self.scheduler.run(job.job_id)
        return job.job_id

    def subscription(self):
        return self.registry.register(
            tenant_id=self.lab_id, owner="full",
            criteria=SubscriptionFilter()).sub_id

    def study(self, approvals=0, run=False):
        study_id = self.service.propose(
            tenant_id=self.lab_id, researcher="full", analysis="delt",
            group_id=GROUP, participants=list(PARTICIPANTS),
            threshold=len(PARTICIPANTS))["study_id"]
        for institution in PARTICIPANTS[:approvals]:
            self.service.approve(study_id, institution)
        if run:
            self.service.run(study_id)
        return study_id


# One valid request per route, for the lab tenant's "full" user.
HAPPY = {
    "/v1/ingestion/status": lambda w: {"job_id": w.ingestion_job},
    "/v1/reports/operations": lambda w: {},
    "/v1/reports/compliance": lambda w: {},
    "/v1/billing": lambda w: {},
    "/v1/compute/submit": lambda w: {
        "request": JobSubmitRequest(graph=tiny_graph())},
    "/v1/compute/status": lambda w: {"job_id": w.job(run=True)},
    "/v1/compute/result": lambda w: {"job_id": w.job(run=True)},
    "/v1/compute/cancel": lambda w: {"job_id": w.job(run=False)},
    "/v1/subscriptions/register": lambda w: {
        "criteria": SubscriptionFilter()},
    "/v1/subscriptions/list": lambda w: {},
    "/v1/subscriptions/poll": lambda w: {"sub_id": w.subscription()},
    "/v1/subscriptions/cancel": lambda w: {"sub_id": w.subscription()},
    "/v1/studies/propose": lambda w: {"request": StudyProposalRequest(
        analysis="delt", group_id=GROUP, participants=PARTICIPANTS,
        threshold=2)},
    "/v1/studies/approve": lambda w: {"study_id": w.study(),
                                      "institution": PARTICIPANTS[0]},
    "/v1/studies/deny": lambda w: {"study_id": w.study(),
                                   "institution": PARTICIPANTS[0]},
    "/v1/studies/run": lambda w: {"study_id": w.study(approvals=2)},
    "/v1/studies/status": lambda w: {"study_id": w.study()},
    "/v1/studies/result": lambda w: {"study_id": w.study(approvals=2,
                                                         run=True)},
}


@pytest.fixture(scope="module")
def world():
    return World()


def test_surfaces_describe_every_gateway_route(world):
    routes = world.gateway().routes()
    assert set(routes) == set(world.rows)
    assert set(routes) <= set(HAPPY), "add a HAPPY request for new routes"


def test_unauthenticated_is_401(world):
    gateway = world.gateway()
    rogue = ExternalIdentityProvider("rogue-idp", IDP[1], world.platform.clock)
    for path in gateway.routes():
        response = world.call(gateway, "full", path,
                              token=rogue.issue_token("full"))
        assert response.status == 401, path


def test_role_without_the_action_is_403(world):
    gateway = world.gateway()
    for path in gateway.routes():
        user = "writer" if world.rows[path].action is Action.READ else "reader"
        assert world.call(gateway, user, path).status == 403, path


def test_over_budget_is_429(world):
    for path in world.gateway().routes():
        limit = world.rows[path].rate_limit
        gateway = world.gateway(
            rate_limit=10_000 if limit else UNLIMITED_ROUTE_BUDGET)
        budget = limit or UNLIMITED_ROUTE_BUDGET
        token = world.idp.issue_token("full")
        statuses = [world.call(gateway, "full", path, token=token).status
                    for _ in range(budget + 1)]
        assert 429 not in statuses[:budget], path
        assert statuses[budget] == 429, path


def test_success_is_logged_and_owned_ids_audited(world):
    gateway = world.gateway()
    logs = world.platform.monitoring.logs
    for path in gateway.routes():
        params = HAPPY[path](world)
        response = world.call(gateway, "full", path, **params)
        assert response.status == 200, (path, response.body)
        request_id = response.request_id
        assert any(e.message.startswith(f"{request_id} 200 ")
                   for e in logs.entries(stream="api")), path
        owns = world.rows[path].owns
        if owns is not None:
            assert any(params[owns] in e.message and request_id in e.message
                       for e in logs.entries(stream="audit")), path


def test_other_tenants_ids_read_as_unknown(world):
    gateway = world.gateway()
    owned = [path for path in gateway.routes() if world.rows[path].owns]
    assert owned
    for path in owned:
        owns = world.rows[path].owns
        params = HAPPY[path](world)
        resource_id = params[owns]
        foreign = world.call(gateway, "rival", path, **params)
        unknown = world.call(gateway, "rival", path,
                             **{**params, owns: "no-such-id"})
        assert foreign.status == unknown.status == 404, path
        assert (foreign.body["error"].replace(resource_id, "<id>")
                == unknown.body["error"].replace("no-such-id", "<id>")), path
        # The owner still reads it.
        assert world.call(gateway, "full", path, **params).status == 200, \
            path
