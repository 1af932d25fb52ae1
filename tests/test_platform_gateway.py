"""Integration: the platform's built-in API gateway surface."""

import pytest

from repro import HealthCloudPlatform
from repro.core.api import ApiRequest
from repro.rbac import (
    Action,
    ExternalIdentityProvider,
    Permission,
    Scope,
    ScopeKind,
)


@pytest.fixture
def gateway_world():
    platform = HealthCloudPlatform(seed=151, use_blockchain=False)
    context = platform.register_tenant("acme")
    user = platform.rbac.register_user(context.tenant.tenant_id, "ops")
    scope = Scope(ScopeKind.TENANT, context.tenant.tenant_id)
    platform.rbac.define_role("operator", [
        Permission(Action.READ, "platform-status", scope),
        Permission(Action.READ, "reports", scope),
        Permission(Action.READ, "billing", scope),
    ])
    platform.rbac.bind_role(user.user_id, context.default_org.org_id,
                            context.default_env.env_id, "operator")
    idp = ExternalIdentityProvider("hospital-idp", b"secret-key-0123456",
                                   platform.clock)
    platform.federation.approve_idp("hospital-idp", b"secret-key-0123456")
    platform.federation.link_identity("hospital-idp", "ops@acme",
                                      user.user_id)
    gateway = platform.build_api_gateway()
    return platform, context, gateway, idp


def _stored_job(platform, context):
    from repro.fhir import Bundle, Patient
    from repro.ingestion import encrypt_bundle_for_upload
    group = platform.rbac.create_group(context.tenant.tenant_id, "g")
    registration = platform.ingestion.register_client("c")
    platform.consent.grant("pt-1", group.group_id)
    bundle = Bundle(id="b").add(
        Patient(id="pt-1", name={"family": "X"}, birthDate="1980-01-01",
                gender="male"))
    job = platform.ingestion.upload(
        "c", encrypt_bundle_for_upload(bundle, registration),
        group.group_id)
    platform.run_ingestion()
    return job.job_id


def _call(gateway, idp, context, path, **kwargs):
    token = idp.issue_token("ops@acme")
    return gateway.dispatch(ApiRequest(
        path=path, token=token,
        scope_entity_id=context.tenant.tenant_id,
        org_id=context.default_org.org_id,
        env_id=context.default_env.env_id, params=kwargs))


class TestPlatformGateway:
    def test_routes_registered(self, gateway_world):
        _, _, gateway, _ = gateway_world
        assert set(gateway.routes()) == {
            "/v1/ingestion/status", "/v1/reports/operations",
            "/v1/reports/compliance", "/v1/billing"}

    def test_operations_report_route(self, gateway_world):
        platform, context, gateway, idp = gateway_world
        response = _call(gateway, idp, context, "/reports/operations")
        assert response.status == 200
        assert "uploads" in response.body

    def test_compliance_report_route(self, gateway_world):
        platform, context, gateway, idp = gateway_world
        response = _call(gateway, idp, context, "/reports/compliance")
        assert response.status == 200
        assert response.body["coverage"]["GDPR"] == 1.0

    def test_status_route_end_to_end(self, gateway_world):
        platform, context, gateway, idp = gateway_world
        job_id = _stored_job(platform, context)
        response = _call(gateway, idp, context, "/ingestion/status",
                         job_id=job_id)
        assert response.status == 200
        assert response.body["status"] == "stored"

    def test_status_route_hides_other_tenants_jobs(self, gateway_world):
        # Regression: any tenant could read any tenant's ingestion job.
        platform, context, gateway, idp = gateway_world
        job_id = _stored_job(platform, context)
        rival = platform.register_tenant("rival")
        user = platform.rbac.register_user(rival.tenant.tenant_id, "ops")
        platform.rbac.define_role("rival-operator", [Permission(
            Action.READ, "platform-status",
            Scope(ScopeKind.TENANT, rival.tenant.tenant_id))])
        platform.rbac.bind_role(user.user_id, rival.default_org.org_id,
                                rival.default_env.env_id, "rival-operator")
        platform.federation.link_identity("hospital-idp", "ops@rival",
                                          user.user_id)

        def rival_status(job):
            return gateway.dispatch(ApiRequest(
                path="/ingestion/status", token=idp.issue_token("ops@rival"),
                scope_entity_id=rival.tenant.tenant_id,
                org_id=rival.default_org.org_id,
                env_id=rival.default_env.env_id, params={"job_id": job}))

        foreign = rival_status(job_id)
        missing = rival_status("job-unknown")
        assert foreign.status == missing.status == 404
        assert foreign.body == {"error": f"no ingestion job {job_id!r}"}
        assert missing.body == {"error": "no ingestion job 'job-unknown'"}
        assert _call(gateway, idp, context, "/ingestion/status",
                     job_id=job_id).status == 200

    def test_bad_parameters_are_422_not_500(self, gateway_world):
        # Regression: a misspelled or missing parameter raised TypeError
        # inside the handler, so the caller got a 500.
        platform, context, gateway, idp = gateway_world
        job_id = _stored_job(platform, context)
        misspelled = _call(gateway, idp, context, "/ingestion/status",
                           jobid=job_id)
        missing = _call(gateway, idp, context, "/ingestion/status")
        extra = _call(gateway, idp, context, "/billing", tenant="other")
        assert [misspelled.status, missing.status, extra.status] == [
            422, 422, 422]
        assert "jobid" in misspelled.body["error"]
        assert "job_id" in missing.body["error"]
        assert "lambda" not in extra.body["error"]
        assert platform.monitoring.metrics.counter("api.status.500") == 0

    def test_billing_route_reflects_metered_calls(self, gateway_world):
        platform, context, gateway, idp = gateway_world
        for _ in range(3):
            _call(gateway, idp, context, "/reports/operations")
        response = _call(gateway, idp, context, "/billing")
        assert response.status == 200
        # 3 prior successful calls metered (this one is metered after the
        # handler ran, so it is not in its own invoice).
        api_line = next(line for line in response.body["lines"]
                        if line["service"] == "api.call")
        assert api_line["units"] == 3

    def test_unprivileged_user_gets_403(self, gateway_world):
        platform, context, gateway, idp = gateway_world
        nobody = platform.rbac.register_user(context.tenant.tenant_id,
                                             "nobody")
        platform.federation.link_identity("hospital-idp", "nobody@acme",
                                          nobody.user_id)
        token = idp.issue_token("nobody@acme")
        response = gateway.dispatch(ApiRequest(
            path="/billing", token=token,
            scope_entity_id=context.tenant.tenant_id,
            org_id=context.default_org.org_id,
            env_id=context.default_env.env_id))
        assert response.status == 403
