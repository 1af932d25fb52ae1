"""Tests for the API management gateway and metering service."""

import pytest

from repro.cloudsim.clock import SimClock
from repro.core.api import ApiGateway, ApiRequest, RateLimiter, RouteSpec
from repro.core.errors import ConfigurationError, NotFoundError
from repro.core.metering import MeteringService
from repro.rbac.engine import RbacEngine
from repro.rbac.federation import (
    ExternalIdentityProvider,
    FederatedIdentityService,
)
from repro.rbac.model import Action, Permission, Scope, ScopeKind


@pytest.fixture
def api_world():
    clock = SimClock()
    rbac = RbacEngine()
    tenant = rbac.create_tenant("acme")
    org = rbac.create_organization(tenant.tenant_id, "org")
    env = rbac.create_environment(org.org_id, "prod")
    user = rbac.register_user(tenant.tenant_id, "alice")
    scope = Scope(ScopeKind.ORGANIZATION, org.org_id)
    rbac.define_role("reader", [Permission(Action.READ, "records", scope)])
    rbac.bind_role(user.user_id, org.org_id, env.env_id, "reader")

    federation = FederatedIdentityService(rbac, clock)
    idp = ExternalIdentityProvider("idp", b"idp-secret-key-01", clock)
    federation.approve_idp("idp", b"idp-secret-key-01")
    federation.link_identity("idp", "alice@acme", user.user_id)

    meter = MeteringService(clock=clock)
    gateway = ApiGateway(rbac, federation, clock=clock, rate_limit=5,
                         rate_window_s=60.0,
                         meter=lambda tenant_id, path: meter.record(
                             tenant_id, "api.call"))
    gateway.register_route(RouteSpec(
        path="/records/list",
        handler=lambda context, **kw: {"records": ["r1", "r2"], "kw": kw},
        action=Action.READ, resource_type="records",
        scope_kind=ScopeKind.ORGANIZATION))
    gateway.register_route(RouteSpec(
        path="/records/write",
        handler=lambda context, **kw: {"written": True},
        action=Action.WRITE, resource_type="records",
        scope_kind=ScopeKind.ORGANIZATION))
    gateway.register_route(RouteSpec(
        path="/boom",
        handler=lambda context, **kw: 1 / 0,
        action=Action.READ, resource_type="records",
        scope_kind=ScopeKind.ORGANIZATION))
    return gateway, idp, org, env, meter, tenant


def _call(gateway, idp, org, env, path="/records/list", subject="alice@acme",
          **kwargs):
    token = idp.issue_token(subject)
    return gateway.dispatch(ApiRequest(
        path=path, token=token, scope_entity_id=org.org_id,
        org_id=org.org_id, env_id=env.env_id, params=kwargs))


class TestApiGateway:
    def test_authenticated_authorized_call(self, api_world):
        gateway, idp, org, env, _, _ = api_world
        response = _call(gateway, idp, org, env)
        assert response.status == 200
        assert response.body["records"] == ["r1", "r2"]

    def test_unauthenticated_401(self, api_world):
        gateway, _, org, env, _, _ = api_world
        rogue = ExternalIdentityProvider("rogue", b"rogue-secret-0001")
        response = gateway.dispatch(ApiRequest(
            path="/records/list", token=rogue.issue_token("alice@acme"),
            scope_entity_id=org.org_id, org_id=org.org_id,
            env_id=env.env_id))
        assert response.status == 401

    def test_unauthorized_403(self, api_world):
        gateway, idp, org, env, _, _ = api_world
        response = _call(gateway, idp, org, env, path="/records/write")
        assert response.status == 403

    def test_unknown_route_404(self, api_world):
        gateway, idp, org, env, _, _ = api_world
        response = _call(gateway, idp, org, env, path="/nothing")
        assert response.status == 404

    def test_handler_fault_500(self, api_world):
        gateway, idp, org, env, _, _ = api_world
        response = _call(gateway, idp, org, env, path="/boom")
        assert response.status == 500

    def test_rate_limit_429(self, api_world):
        gateway, idp, org, env, _, _ = api_world
        statuses = [_call(gateway, idp, org, env).status for _ in range(7)]
        assert statuses[:5] == [200] * 5
        assert statuses[5] == 429

    def test_rate_window_resets(self, api_world):
        gateway, idp, org, env, _, _ = api_world
        for _ in range(5):
            _call(gateway, idp, org, env)
        assert _call(gateway, idp, org, env).status == 429
        gateway.clock.advance(61.0)
        assert _call(gateway, idp, org, env).status == 200

    def test_every_call_audited(self, api_world):
        gateway, idp, org, env, _, _ = api_world
        _call(gateway, idp, org, env)
        _call(gateway, idp, org, env, path="/records/write")  # 403
        entries = gateway.monitoring.logs.entries(stream="api")
        assert len(entries) == 2
        assert gateway.monitoring.logs.verify_chain()

    def test_successful_calls_metered(self, api_world):
        gateway, idp, org, env, meter, tenant = api_world
        _call(gateway, idp, org, env)                          # 200, metered
        _call(gateway, idp, org, env, path="/records/write")   # 403, not
        assert meter.usage_for(tenant.tenant_id, "api.call") == 1

    def test_duplicate_route_rejected(self, api_world):
        gateway, *_ = api_world
        with pytest.raises(ConfigurationError):
            gateway.register_route(RouteSpec(
                "/records/list", lambda context: None, Action.READ,
                "records", ScopeKind.ORGANIZATION))


class TestRateLimiter:
    def test_window_semantics(self):
        clock = SimClock()
        limiter = RateLimiter(limit=2, window_s=10.0, clock=clock)
        assert limiter.allow("t")
        assert limiter.allow("t")
        assert not limiter.allow("t")
        clock.advance(10.0)
        assert limiter.allow("t")

    def test_keys_independent(self):
        limiter = RateLimiter(limit=1, window_s=10.0, clock=SimClock())
        assert limiter.allow("a")
        assert limiter.allow("b")
        assert not limiter.allow("a")


class TestMetering:
    def test_usage_and_invoice(self):
        clock = SimClock()
        meter = MeteringService(clock=clock)
        meter.record("t1", "ingestion.bundle", 10)
        clock.advance(100.0)
        meter.record("t1", "export.full", 2)
        meter.record("t2", "ingestion.bundle", 3)
        invoice = meter.invoice("t1")
        assert invoice.total == pytest.approx(10 * 0.02 + 2 * 2.00)
        assert len(invoice.lines) == 2

    def test_invoice_period_filter(self):
        clock = SimClock()
        meter = MeteringService(clock=clock)
        meter.record("t1", "api.call", 100)
        clock.advance(1000.0)
        meter.record("t1", "api.call", 50)
        invoice = meter.invoice("t1", period_start=500.0)
        assert invoice.total == pytest.approx(50 * 0.0005)

    def test_unknown_service_rejected(self):
        with pytest.raises(NotFoundError):
            MeteringService().record("t1", "teleportation")

    def test_negative_values_rejected(self):
        meter = MeteringService()
        with pytest.raises(ConfigurationError):
            meter.record("t1", "api.call", -1)
        with pytest.raises(ConfigurationError):
            meter.set_price("api.call", -0.1)

    def test_top_consumers(self):
        meter = MeteringService()
        meter.record("t1", "api.call", 100)
        meter.record("t2", "api.call", 300)
        meter.record("t3", "api.call", 200)
        assert meter.top_consumers("api.call", k=2) == [("t2", 300.0),
                                                        ("t3", 200.0)]
