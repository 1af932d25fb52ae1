"""Property tests for the trace/log interaction.

Whatever sequence of traced gateway dispatches runs — successes,
handler crashes, unknown routes, rate-limited bursts — the audit log's
hash chain must verify, every trace must seal and verify, and every
trace id the monitoring layer recorded (log attributes, exemplars) must
resolve to a stored trace.
"""

import pytest

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st

from repro.cloudsim.clock import SimClock
from repro.cloudsim.monitoring import MonitoringService
from repro.cloudsim.tracing import Tracer
from repro.core.api import ApiGateway, ApiRequest, RouteSpec
from repro.rbac.engine import RbacEngine
from repro.rbac.federation import (
    ExternalIdentityProvider,
    FederatedIdentityService,
)
from repro.rbac.model import Action, Permission, Scope, ScopeKind

# One op per dispatch: a clean 200, a handler crash (500), an unknown
# route (404), or an op that also advances simulated time first.
OPS = st.lists(
    st.sampled_from(["ok", "boom", "missing", "slow-ok"]),
    min_size=1, max_size=12)


def build_world(rate_limit):
    clock = SimClock()
    monitoring = MonitoringService(clock)
    tracer = Tracer(monitoring)

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

    gateway = ApiGateway(rbac, federation, monitoring=monitoring,
                         clock=clock, rate_limit=rate_limit,
                         rate_window_s=60.0)

    def boom_handler(context, **kw):
        raise RuntimeError("handler exploded "
                           "(ssn 123-45-6789 must never reach the log)")

    gateway.register_route(RouteSpec(
        path="/echo", handler=lambda context, **kw: {"ok": True},
        action=Action.READ, resource_type="records",
        scope_kind=ScopeKind.ORGANIZATION))
    gateway.register_route(RouteSpec(
        path="/boom", handler=boom_handler,
        action=Action.READ, resource_type="records",
        scope_kind=ScopeKind.ORGANIZATION))

    return clock, monitoring, tracer, gateway, idp, org, env


@settings(max_examples=30, deadline=None)
@given(ops=OPS, rate_limit=st.integers(min_value=1, max_value=4))
def test_any_dispatch_sequence_keeps_logs_and_traces_consistent(
        ops, rate_limit):
    clock, monitoring, tracer, gateway, idp, org, env = build_world(
        rate_limit)

    statuses = []
    for op in ops:
        if op == "slow-ok":
            clock.advance(0.25)
        path = {"ok": "/echo", "slow-ok": "/echo",
                "boom": "/boom", "missing": "/nowhere"}[op]
        response = gateway.dispatch(ApiRequest(
            path=path, token=idp.issue_token("alice@acme"),
            scope_entity_id=org.org_id, org_id=org.org_id,
            env_id=env.env_id))
        statuses.append(response.status)

    # Every dispatch produced exactly one finished, verifiable trace.
    assert len(tracer.trace_ids()) == len(ops)
    for tid in tracer.trace_ids():
        assert tracer.verify_trace(tid)
        root = tracer.get_trace(tid)
        assert root.name == "api.dispatch"
        assert root.finished

    # The audit log chain survived errors and rate-limiting, and every
    # trace id it recorded resolves.
    assert monitoring.logs.verify_chain()
    for entry in monitoring.logs.entries(stream="api"):
        trace_id = entry.attributes.get("trace")
        if trace_id is not None:
            assert tracer.has_trace(trace_id)
        assert "123-45-6789" not in entry.message   # PHI scrubbed

    # The latency exemplar (if any sample carried a trace id) resolves.
    exemplar = monitoring.metrics.exemplar("api.latency")
    assert exemplar is not None
    assert tracer.has_trace(exemplar["trace_id"])

    # Rate limiting maps to 429s, never to lost traces or broken chains.
    # Unknown routes 404 before the limiter, so only resolved requests
    # spend window slots; everything past the limit is 429.
    resolved = len([op for op in ops if op != "missing"])
    assert statuses.count(429) == max(0, resolved - rate_limit)
