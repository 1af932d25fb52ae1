"""FHIR Subscription-style push: registry semantics and the
/v1/subscriptions gateway surface (RBAC, tenant isolation, rate limits,
audit)."""

import pytest

from repro import HealthCloudPlatform
from repro.cloudsim.clock import SimClock
from repro.cloudsim.healthplane.events import EventBus
from repro.core.api import ApiRequest
from repro.core.errors import NotFoundError, ValidationError
from repro.rbac import (
    Action,
    ExternalIdentityProvider,
    Permission,
    Scope,
    ScopeKind,
)
from repro.streaming import (SubscriptionApi, SubscriptionFilter,
                             SubscriptionRegistry)
from repro.streaming.feed import StreamEvent
from repro.streaming.subscriptions import POLL_RATE_LIMIT


def _event(i=0, event_class="lab.hba1c", patient_id="p-1", priority=3):
    return StreamEvent(event_id=f"e-{i:03d}", arrival_s=float(i),
                       patient_id=patient_id, tenant_id="t",
                       event_class=event_class, priority=priority)


class TestFilter:
    def test_empty_filter_matches_everything(self):
        criteria = SubscriptionFilter()
        assert criteria.matches(_event())
        assert criteria.matches(_event(event_class="adt.census", priority=1))

    def test_class_prefix_matching(self):
        criteria = SubscriptionFilter(event_classes=("lab",))
        assert criteria.matches(_event(event_class="lab.hba1c"))
        assert not criteria.matches(_event(event_class="laboratory.x"))
        exact = SubscriptionFilter(event_classes=("adt.census",))
        assert exact.matches(_event(event_class="adt.census"))

    def test_patient_and_priority_floors(self):
        criteria = SubscriptionFilter(patient_ids=("p-1",), min_priority=2)
        assert criteria.matches(_event(patient_id="p-1", priority=3))
        assert not criteria.matches(_event(patient_id="p-2", priority=3))
        assert not criteria.matches(_event(patient_id="p-1", priority=1))

    def test_negative_priority_rejected(self):
        with pytest.raises(ValidationError):
            SubscriptionFilter(min_priority=-1)


class TestRegistry:
    @pytest.fixture
    def registry(self):
        return SubscriptionRegistry(EventBus(SimClock()), queue_maxlen=8)

    def test_push_routes_only_to_matching_channels(self, registry):
        labs = registry.register(tenant_id="t1", owner="u1",
                                 criteria=SubscriptionFilter(
                                     event_classes=("lab",)))
        adt = registry.register(tenant_id="t1", owner="u1",
                                criteria=SubscriptionFilter(
                                    event_classes=("adt",)))
        assert registry.push(_event(0), latency_s=0.01) == 1
        assert registry.push(_event(1, event_class="adt.census"),
                             latency_s=0.01) == 1
        lab_events = registry.poll(labs.sub_id)
        assert [e["attributes"]["event_id"] for e in lab_events] == ["e-000"]
        adt_events = registry.poll(adt.sub_id)
        assert [e["attributes"]["event_id"] for e in adt_events] == ["e-001"]
        assert lab_events[0]["attributes"]["push_latency_s"] == 0.01

    def test_cancelled_subscription_receives_nothing_more(self, registry):
        subscription = registry.register(tenant_id="t1", owner="u1",
                                         criteria=SubscriptionFilter())
        registry.push(_event(0), latency_s=0.0)
        registry.cancel(subscription.sub_id)
        assert registry.push(_event(1), latency_s=0.0) == 0
        # queued-before-cancel events still drain
        assert len(registry.poll(subscription.sub_id)) == 1

    def test_unknown_subscription_raises(self, registry):
        with pytest.raises(NotFoundError):
            registry.get("sub-9999")

    def test_channel_saturation_drops_oldest_with_accounting(self, registry):
        subscription = registry.register(tenant_id="t1", owner="u1",
                                         criteria=SubscriptionFilter())
        for i in range(12):   # maxlen=8 -> 4 drops
            registry.push(_event(i), latency_s=0.0)
        channel = registry.bus.subscription(subscription.channel_name)
        assert channel.dropped == 4
        drained = registry.poll(subscription.sub_id)
        assert [e["attributes"]["event_id"] for e in drained][0] == "e-004"


@pytest.fixture
def world():
    platform = HealthCloudPlatform(seed=91, use_blockchain=False)
    registry = SubscriptionRegistry(
        EventBus(platform.clock, monitoring=platform.monitoring))
    api = SubscriptionApi(registry)
    gateway = platform.build_api_gateway(subscriptions=api)

    idp = ExternalIdentityProvider("lab-idp", b"lab-key-0123456789",
                                   platform.clock)
    platform.federation.approve_idp("lab-idp", b"lab-key-0123456789")

    def make_user(tenant_context, name, actions):
        user = platform.rbac.register_user(
            tenant_context.tenant.tenant_id, name)
        scope = Scope(ScopeKind.TENANT, tenant_context.tenant.tenant_id)
        role = f"{name}-role"
        platform.rbac.define_role(role, [
            Permission(action, "subscriptions", scope)
            for action in actions])
        platform.rbac.bind_role(user.user_id,
                                tenant_context.default_org.org_id,
                                tenant_context.default_env.env_id, role)
        platform.federation.link_identity("lab-idp", f"{name}@lab",
                                          user.user_id)
        return user

    lab = platform.register_tenant("research-lab")
    clinic = platform.register_tenant("clinic")
    make_user(lab, "clinician", [Action.READ, Action.WRITE])
    make_user(lab, "reader", [Action.READ])
    make_user(clinic, "outsider", [Action.READ, Action.WRITE])

    def call(name, tenant_context, path, **params):
        token = idp.issue_token(f"{name}@lab")
        return gateway.dispatch(ApiRequest(
            path=path, token=token,
            scope_entity_id=tenant_context.tenant.tenant_id,
            org_id=tenant_context.default_org.org_id,
            env_id=tenant_context.default_env.env_id, params=params))

    return platform, registry, gateway, lab, clinic, call


class TestGateway:
    def test_routes_registered_versioned(self, world):
        gateway = world[2]
        routes = set(gateway.routes())
        assert {"/v1/subscriptions/register", "/v1/subscriptions/list",
                "/v1/subscriptions/poll",
                "/v1/subscriptions/cancel"} <= routes

    def test_register_push_poll_cancel_end_to_end(self, world):
        platform, registry, gateway, lab, clinic, call = world
        response = call("clinician", lab, "/subscriptions/register",
                        criteria=SubscriptionFilter(event_classes=("lab",)))
        assert response.status == 200
        sub_id = response.body["sub_id"]
        assert response.body["active"]

        registry.push(_event(0), latency_s=0.02)
        polled = call("clinician", lab, "/subscriptions/poll", sub_id=sub_id)
        assert polled.status == 200
        assert [e["attributes"]["event_id"]
                for e in polled.body["events"]] == ["e-000"]

        listed = call("clinician", lab, "/subscriptions/list")
        assert [s["sub_id"] for s in listed.body["subscriptions"]] == \
            [sub_id]

        cancelled = call("clinician", lab, "/subscriptions/cancel",
                         sub_id=sub_id)
        assert cancelled.status == 200 and not cancelled.body["active"]
        assert registry.push(_event(1), latency_s=0.0) == 0

    def test_register_validates_envelope(self, world):
        *_, lab, clinic, call = world
        response = call("clinician", lab, "/subscriptions/register",
                        criteria={"event_classes": ["lab"]})
        assert response.status == 422

    def test_reader_cannot_register_or_cancel(self, world):
        *_, lab, clinic, call = world
        response = call("reader", lab, "/subscriptions/register",
                        criteria=SubscriptionFilter())
        assert response.status == 403

    def test_reader_can_list_and_poll(self, world):
        *_, lab, clinic, call = world
        sub_id = call("clinician", lab, "/subscriptions/register",
                      criteria=SubscriptionFilter()).body["sub_id"]
        assert call("reader", lab, "/subscriptions/list").status == 200
        assert call("reader", lab, "/subscriptions/poll",
                    sub_id=sub_id).status == 200

    def test_tenant_isolation_reads_as_404(self, world):
        *_, lab, clinic, call = world
        sub_id = call("clinician", lab, "/subscriptions/register",
                      criteria=SubscriptionFilter()).body["sub_id"]
        for path in ("/subscriptions/poll", "/subscriptions/cancel"):
            response = call("outsider", clinic, path, sub_id=sub_id)
            assert response.status == 404, path
        listed = call("outsider", clinic, "/subscriptions/list")
        assert listed.body["subscriptions"] == []

    def test_poll_rate_limit_applies_per_route(self, world):
        *_, lab, clinic, call = world
        sub_id = call("clinician", lab, "/subscriptions/register",
                      criteria=SubscriptionFilter()).body["sub_id"]
        for _ in range(POLL_RATE_LIMIT):
            assert call("clinician", lab, "/subscriptions/poll",
                        sub_id=sub_id).status == 200
        throttled = call("clinician", lab, "/subscriptions/poll",
                         sub_id=sub_id)
        assert throttled.status == 429
        # per-route budget: other verbs still fine
        assert call("clinician", lab, "/subscriptions/list").status == 200

    def test_audit_log_threads_sub_ids(self, world):
        platform, *_, lab, clinic, call = world
        sub_id = call("clinician", lab, "/subscriptions/register",
                      criteria=SubscriptionFilter()).body["sub_id"]
        call("clinician", lab, "/subscriptions/poll", sub_id=sub_id)
        call("clinician", lab, "/subscriptions/cancel", sub_id=sub_id)
        entries = platform.audit.search_logs(stream="audit",
                                             contains=sub_id)
        assert any("registered" in e for e in entries)
        assert any("polled" in e for e in entries)
        assert any("cancelled" in e for e in entries)
