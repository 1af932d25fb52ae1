"""Tests for the typed ApiRequest envelope, versioned routes, and the
centralized exception -> HTTP-status table."""

import pytest

from repro.cloudsim.clock import SimClock
from repro.core.api import (
    ApiGateway,
    ApiRequest,
    RateLimiter,
    RouteSpec,
)
from repro.core import errors
from repro.core.errors import http_status_for
from repro.rbac.engine import RbacEngine
from repro.rbac.federation import (
    ExternalIdentityProvider,
    FederatedIdentityService,
)
from repro.rbac.model import Action, Permission, Scope, ScopeKind


@pytest.fixture
def world():
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

    gateway = ApiGateway(rbac, federation, clock=clock, rate_limit=1000,
                         rate_window_s=60.0)
    gateway.register_route(RouteSpec(
        path="/echo",
        handler=lambda context, **kw: {"kw": kw,
                                       "request_id": context.request_id,
                                       "tenant": context.tenant_id},
        action=Action.READ, resource_type="records",
        scope_kind=ScopeKind.ORGANIZATION))
    return gateway, idp, org, env


def _request(idp, org, env, path="/echo", **overrides):
    fields = dict(path=path, token=idp.issue_token("alice@acme"),
                  scope_entity_id=org.org_id, org_id=org.org_id,
                  env_id=env.env_id)
    fields.update(overrides)
    return ApiRequest(**fields)


class TestStatusTable:
    def test_table_covers_the_gateway_statuses(self):
        assert http_status_for(errors.AuthenticationError("x")) == 401
        assert http_status_for(errors.AuthorizationError("x")) == 403
        assert http_status_for(errors.NotFoundError("x")) == 404
        assert http_status_for(errors.AlreadyExistsError("x")) == 409
        assert http_status_for(errors.ValidationError("x")) == 422
        assert http_status_for(errors.RateLimitError("x")) == 429
        assert http_status_for(errors.ServiceUnavailableError("x")) == 503
        assert http_status_for(errors.DeadlineExceededError("x")) == 504

    def test_unknown_exception_maps_to_500(self):
        assert http_status_for(ZeroDivisionError("x")) == 500

    def test_subclasses_inherit_via_mro(self):
        class CustomNotFound(errors.NotFoundError):
            pass

        assert http_status_for(CustomNotFound("x")) == 404


class TestEnvelope:
    def test_success_round_trip(self, world):
        gateway, idp, org, env = world
        response = gateway.dispatch(
            _request(idp, org, env, params={"a": 1}))
        assert response.status == 200
        assert response.body["kw"] == {"a": 1}
        assert response.body["tenant"] == org.tenant_id

    def test_request_ids_are_monotonic(self, world):
        gateway, idp, org, env = world
        ids = [gateway.dispatch(_request(idp, org, env)).request_id
               for _ in range(3)]
        assert ids == ["req-00000001", "req-00000002", "req-00000003"]
        # Failures consume request ids too.
        response = gateway.dispatch(_request(idp, org, env, path="/none"))
        assert response.request_id == "req-00000004"

    def test_parameter_errors_are_422_handler_faults_500(self, world):
        gateway, idp, org, env = world
        gateway.register_route(RouteSpec(
            path="/typed", handler=lambda context, n, unit="mg": n + unit,
            action=Action.READ, resource_type="records",
            scope_kind=ScopeKind.ORGANIZATION))

        def status(params):
            return gateway.dispatch(_request(
                idp, org, env, path="/typed", params=params)).status

        assert status({"n": "5", "unit": "g"}) == 200
        assert status({"m": "5"}) == 422          # unknown name
        assert status({}) == 422                  # missing required name
        assert status({"n": 5}) == 500            # TypeError inside handler
        # A handler taking **kwargs accepts any names.
        assert status({"n": "5", "zz": 1}) == 422
        assert gateway.dispatch(_request(
            idp, org, env, params={"zz": 1})).status == 200

    def test_handler_receives_context(self, world):
        gateway, idp, org, env = world
        response = gateway.dispatch(_request(idp, org, env))
        assert response.body["request_id"] == response.request_id

    def test_envelope_is_immutable(self, world):
        _, idp, org, env = world
        request = _request(idp, org, env)
        with pytest.raises(Exception):
            request.path = "/other"

    def test_expired_deadline_times_out_504(self, world):
        gateway, idp, org, env = world
        gateway.clock.advance(100.0)
        response = gateway.dispatch(
            _request(idp, org, env, deadline_s=50.0))
        assert response.status == 504

    def test_deadline_in_future_passes(self, world):
        gateway, idp, org, env = world
        response = gateway.dispatch(
            _request(idp, org, env, deadline_s=1e9))
        assert response.status == 200

    def test_status_metrics_emitted(self, world):
        gateway, idp, org, env = world
        gateway.dispatch(_request(idp, org, env))
        gateway.dispatch(_request(idp, org, env, path="/none"))
        assert gateway.monitoring.metrics.counter("api.status.200") == 1.0
        assert gateway.monitoring.metrics.counter("api.status.404") == 1.0


class TestVersioning:
    def test_routes_live_under_version_prefix(self, world):
        gateway, *_ = world
        assert gateway.routes() == ["/v1/echo"]

    def test_explicit_versioned_path_resolves(self, world):
        gateway, idp, org, env = world
        response = gateway.dispatch(_request(idp, org, env, path="/v1/echo"))
        assert response.status == 200

    def test_unversioned_path_falls_back_to_default(self, world):
        gateway, idp, org, env = world
        assert gateway.dispatch(_request(idp, org, env)).status == 200

    def test_unknown_version_is_404(self, world):
        gateway, idp, org, env = world
        response = gateway.dispatch(_request(idp, org, env, path="/v2/echo"))
        assert response.status == 404

    def test_same_path_different_versions_coexist(self, world):
        gateway, idp, org, env = world
        gateway.register_route(RouteSpec(
            path="/echo", version="v2",
            handler=lambda context, **kw: {"v": 2},
            action=Action.READ, resource_type="records",
            scope_kind=ScopeKind.ORGANIZATION))
        response = gateway.dispatch(_request(idp, org, env, path="/v2/echo"))
        assert response.status == 200
        assert response.body == {"v": 2}


class TestPerRouteRateLimit:
    def test_route_limit_applies_on_top_of_gateway_limit(self, world):
        gateway, idp, org, env = world
        gateway.register_route(RouteSpec(
            path="/scarce",
            handler=lambda context, **kw: {"ok": True},
            action=Action.READ, resource_type="records",
            scope_kind=ScopeKind.ORGANIZATION,
            rate_limit=2, rate_window_s=60.0))
        statuses = [gateway.dispatch(
            _request(idp, org, env, path="/scarce")).status
            for _ in range(3)]
        assert statuses == [200, 200, 429]
        # The generously limited route is unaffected.
        assert gateway.dispatch(_request(idp, org, env)).status == 200

    def test_route_window_rolls_over(self, world):
        gateway, idp, org, env = world
        gateway.register_route(RouteSpec(
            path="/scarce",
            handler=lambda context, **kw: {"ok": True},
            action=Action.READ, resource_type="records",
            scope_kind=ScopeKind.ORGANIZATION,
            rate_limit=1, rate_window_s=30.0))
        assert gateway.dispatch(
            _request(idp, org, env, path="/scarce")).status == 200
        assert gateway.dispatch(
            _request(idp, org, env, path="/scarce")).status == 429
        gateway.clock.advance(30.0)
        assert gateway.dispatch(
            _request(idp, org, env, path="/scarce")).status == 200


class TestRateLimiterBounds:
    def test_expired_windows_are_pruned(self):
        clock = SimClock()
        limiter = RateLimiter(limit=5, window_s=10.0, clock=clock)
        for i in range(100):
            limiter.allow(f"tenant-{i}")
        assert limiter.tracked_keys == 100
        clock.advance(10.0)
        limiter.prune()
        assert limiter.tracked_keys == 0

    def test_key_count_is_capped_lru(self):
        clock = SimClock()
        limiter = RateLimiter(limit=5, window_s=1e9, clock=clock,
                              max_keys=10)
        for i in range(50):
            limiter.allow(f"tenant-{i}")
        assert limiter.tracked_keys <= 10
        # The most recent key is still tracked with its count.
        assert limiter._windows["tenant-49"][1] == 1

    def test_eviction_does_not_reset_active_keys_unfairly(self):
        clock = SimClock()
        limiter = RateLimiter(limit=2, window_s=1e9, clock=clock,
                              max_keys=1000)
        assert limiter.allow("t")
        assert limiter.allow("t")
        assert not limiter.allow("t")   # still over limit, no eviction
