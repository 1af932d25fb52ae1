"""FHIR Subscription-style push over the healthplane event stream.

A FHIR R4 ``Subscription`` resource is "criteria + channel": the client
states what it wants to hear about and the server pushes matches.  Here
the criteria are a :class:`SubscriptionFilter` (event-class prefixes,
patient ids, a priority floor) and the channel is a dedicated bounded
:class:`~repro.cloudsim.healthplane.events.Subscription` on the platform
:class:`EventBus`, keyed by a per-subscription kind
(``streaming.push.<sub_id>``) so subscribers only ever see their own
matches, in publish order, with the bus's drop accounting intact.

Tenants manage subscriptions through the versioned ``/v1/subscriptions``
gateway surface (:class:`SubscriptionApi`), an
:class:`~repro.core.api.ApiSurface` like every other: federated auth,
RBAC (WRITE on ``subscriptions`` to register/cancel, READ to list/poll),
per-route rate limits, strict tenant isolation (another tenant's
subscription id behaves like a missing one), and audit log entries for
every verb.

The bus has no unsubscribe — names are permanent — so cancellation
flips the registry-side ``active`` flag: nothing further is published to
a cancelled subscription, and its queue drains normally.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from ..cloudsim.healthplane.events import EventBus
from ..core.api import ApiSurface, RequestContext, Route
from ..core.errors import NotFoundError, ValidationError
from ..rbac.model import Action
from .feed import StreamEvent

SUBSCRIPTION_RESOURCE = "subscriptions"

REGISTER_RATE_LIMIT = 30
LIST_RATE_LIMIT = 60
POLL_RATE_LIMIT = 240
CANCEL_RATE_LIMIT = 30


@dataclass(frozen=True)
class SubscriptionFilter:
    """Criteria half of the subscription: what the client wants pushed."""

    event_classes: Tuple[str, ...] = ()   # kind prefixes; empty = all
    patient_ids: Tuple[str, ...] = ()     # exact ids; empty = all
    min_priority: int = 0

    def __post_init__(self) -> None:
        if self.min_priority < 0:
            raise ValidationError("min_priority must be >= 0")

    def matches(self, event: StreamEvent) -> bool:
        if event.priority < self.min_priority:
            return False
        if self.patient_ids and event.patient_id not in self.patient_ids:
            return False
        if self.event_classes:
            return any(event.event_class == c
                       or event.event_class.startswith(c + ".")
                       for c in self.event_classes)
        return True

    def to_dict(self) -> Dict[str, Any]:
        return {"event_classes": list(self.event_classes),
                "patient_ids": list(self.patient_ids),
                "min_priority": self.min_priority}


@dataclass
class PushSubscription:
    """One registered subscription: criteria + its bus channel."""

    sub_id: str
    tenant_id: str
    owner: str
    criteria: SubscriptionFilter
    created_at_s: float
    active: bool = True
    matched: int = 0

    @property
    def channel_kind(self) -> str:
        return f"streaming.push.{self.sub_id}"

    @property
    def channel_name(self) -> str:
        return f"push:{self.sub_id}"

    def to_dict(self) -> Dict[str, Any]:
        return {"sub_id": self.sub_id, "tenant_id": self.tenant_id,
                "owner": self.owner, "criteria": self.criteria.to_dict(),
                "created_at_s": self.created_at_s, "active": self.active,
                "matched": self.matched}


class SubscriptionRegistry:
    """Owns the subscription table and fans matched events onto the bus."""

    def __init__(self, bus: EventBus, *, queue_maxlen: int = 64) -> None:
        self.bus = bus
        self.queue_maxlen = queue_maxlen
        self._subscriptions: Dict[str, PushSubscription] = {}
        self._counter = 0
        self.pushed = 0

    # -- management -----------------------------------------------------------

    def register(self, *, tenant_id: str, owner: str,
                 criteria: SubscriptionFilter) -> PushSubscription:
        self._counter += 1
        sub_id = f"sub-{self._counter:04d}"
        subscription = PushSubscription(
            sub_id=sub_id, tenant_id=tenant_id, owner=owner,
            criteria=criteria, created_at_s=self.bus.clock.now)
        # One bounded bus channel per subscription, filtered to its own
        # kind, so cross-subscription interference is impossible.
        self.bus.subscribe(subscription.channel_name,
                           maxlen=self.queue_maxlen,
                           kinds=[subscription.channel_kind])
        self._subscriptions[sub_id] = subscription
        return subscription

    def get(self, sub_id: str) -> PushSubscription:
        try:
            return self._subscriptions[sub_id]
        except KeyError:
            raise NotFoundError(f"no subscription {sub_id!r}") from None

    def cancel(self, sub_id: str) -> PushSubscription:
        subscription = self.get(sub_id)
        subscription.active = False
        return subscription

    def for_tenant(self, tenant_id: str) -> List[PushSubscription]:
        return [s for s in self._subscriptions.values()
                if s.tenant_id == tenant_id]

    # -- the push path --------------------------------------------------------

    def push(self, event: StreamEvent, *, latency_s: float,
             trace_id: Optional[str] = None) -> int:
        """Fan one processed event out to every matching subscription.

        Returns the number of subscriptions pushed to.  Iteration is in
        sub-id order, so the bus sequence is deterministic.
        """
        matched = 0
        for sub_id in sorted(self._subscriptions):
            subscription = self._subscriptions[sub_id]
            if not subscription.active:
                continue
            if not subscription.criteria.matches(event):
                continue
            attributes: Dict[str, Any] = {
                "event_id": event.event_id,
                "event_class": event.event_class,
                "patient_id": event.patient_id,
                "arrival_s": event.arrival_s,
                "push_latency_s": latency_s,
            }
            if trace_id is not None:
                attributes["trace"] = trace_id
            self.bus.publish("streaming", subscription.channel_kind,
                             **attributes)
            subscription.matched += 1
            matched += 1
        self.pushed += matched
        return matched

    def poll(self, sub_id: str,
             max_events: Optional[int] = None) -> List[Dict[str, Any]]:
        """Drain a subscription's channel in publish order."""
        subscription = self.get(sub_id)
        channel = self.bus.subscription(subscription.channel_name)
        return [e.to_dict() for e in channel.poll(max_events)]

    def describe(self) -> Dict[str, Any]:
        return {
            "subscriptions": len(self._subscriptions),
            "active": sum(1 for s in self._subscriptions.values()
                          if s.active),
            "pushed": self.pushed,
        }


class SubscriptionApi(ApiSurface):
    """The ``/v1/subscriptions`` routes against one registry."""

    noun = "subscription"

    def __init__(self, registry: SubscriptionRegistry) -> None:
        self.registry = registry

    def routes(self) -> Tuple[Route, ...]:
        return (
            Route("/subscriptions/register", self.register, Action.WRITE,
                  SUBSCRIPTION_RESOURCE, REGISTER_RATE_LIMIT,
                  "register a push subscription (criteria + channel)"),
            Route("/subscriptions/list", self.list, Action.READ,
                  SUBSCRIPTION_RESOURCE, LIST_RATE_LIMIT,
                  "list this tenant's push subscriptions"),
            Route("/subscriptions/poll", self.poll, Action.READ,
                  SUBSCRIPTION_RESOURCE, POLL_RATE_LIMIT,
                  "drain a subscription's pushed events", owns="sub_id"),
            Route("/subscriptions/cancel", self.cancel, Action.WRITE,
                  SUBSCRIPTION_RESOURCE, CANCEL_RATE_LIMIT,
                  "deactivate a push subscription", owns="sub_id"),
        )

    def owner(self, sub_id: str) -> str:
        return self.registry.get(sub_id).tenant_id

    # -- handlers -------------------------------------------------------------

    def register(self, context: RequestContext,
                 criteria: SubscriptionFilter) -> Dict[str, Any]:
        if not isinstance(criteria, SubscriptionFilter):
            raise ValidationError(
                "subscriptions.register takes a SubscriptionFilter")
        subscription = self.registry.register(
            tenant_id=context.tenant_id, owner=context.user.user_id,
            criteria=criteria)
        self.audit(context, subscription.sub_id, "registered",
                   extra=f"criteria={criteria.to_dict()}")
        return subscription.to_dict()

    def list(self, context: RequestContext) -> Dict[str, Any]:
        subscriptions = self.registry.for_tenant(context.tenant_id)
        self.audit(context, "*", "listed")
        return {"subscriptions": [s.to_dict() for s in
                                  sorted(subscriptions,
                                         key=lambda s: s.sub_id)]}

    def poll(self, context: RequestContext, sub_id: str,
             max_events: Optional[int] = None) -> Dict[str, Any]:
        events = self.registry.poll(sub_id, max_events)
        self.audit(context, sub_id, "polled", extra=f"events={len(events)}")
        return {"sub_id": sub_id, "active": self.registry.get(sub_id).active,
                "events": events}

    def cancel(self, context: RequestContext, sub_id: str) -> Dict[str, Any]:
        subscription = self.registry.cancel(sub_id)
        self.audit(context, sub_id, "cancelled")
        return subscription.to_dict()
