"""Remote access and local caching of knowledge bases (Section III).

"We cache data from these knowledge bases locally.  That way, data can be
accessed and analyzed more quickly than if it needs to be fetched
remotely.  For the most up-to-date data, the remote knowledge bases can be
directly queried."

:class:`RemoteKnowledgeBase` wraps any KB object, charging simulated WAN
latency for every method call.  :class:`CachedKnowledgeBase` puts a local
cache in front, keyed by (method, args), with an explicit ``refresh`` path
for callers that need the most up-to-date values.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Hashable, List, Optional, Sequence, Tuple

from ..cloudsim.clock import SimClock, WAN_ROUND_TRIP
from ..cloudsim.monitoring import MonitoringService
from ..caching.policies import Cache, LruCache
from ..core.errors import ServiceUnavailableError


class RemoteKnowledgeBase:
    """Proxy that charges network latency for each KB method call.

    Chaos-aware: an attached :class:`~repro.cloudsim.faults.FaultPlan`
    can drop or slow the WAN link the proxy models (``link`` names its
    two endpoints), and an optional
    :class:`~repro.core.resilience.ResilientExecutor` absorbs those
    failures with retries/backoff under a ``kb.<name>`` circuit breaker.
    """

    def __init__(self, base: Any, clock: Optional[SimClock] = None,
                 round_trip_s: float = WAN_ROUND_TRIP,
                 link: Tuple[str, str] = ("cloud-a", "external-kb"),
                 resilience: Optional[Any] = None,
                 per_item_cost_s: float = 2e-4,
                 monitoring: Optional[MonitoringService] = None) -> None:
        self._base = base
        self.clock = clock if clock is not None else SimClock()
        self.monitoring = (monitoring if monitoring is not None
                           else MonitoringService(self.clock))
        self.round_trip_s = round_trip_s
        self.per_item_cost_s = per_item_cost_s
        self.remote_calls = 0
        self.failed_calls = 0
        self.batched_items = 0
        self.name = getattr(base, "name", type(base).__name__)
        self.link = link
        self.fault_plan = None
        self.resilience = resilience

    def call(self, method: str, *args: Hashable) -> Any:
        """Invoke a KB method remotely (clock advances by one round trip)."""
        if self.resilience is not None:
            return self.resilience.call(
                f"kb.{self.name}", lambda: self._call_once(method, *args))
        return self._call_once(method, *args)

    def call_batch(self, method: str, items: Sequence[Hashable]) -> Any:
        """Invoke a *bulk* KB method (``fingerprints``, ``targets_many``...)
        as one request: one round trip plus a per-item marginal cost,
        instead of N full round trips.

        The batch is atomic under faults: a dropped link fails the whole
        request, and an attached resilience executor retries it as a
        whole (counters are only advanced on success, so a retried batch
        is never double-counted).
        """
        items = list(items)
        if self.resilience is not None:
            return self.resilience.call(
                f"kb.{self.name}", lambda: self._call_batch_once(method, items))
        return self._call_batch_once(method, items)

    def _call_once(self, method: str, *args: Hashable) -> Any:
        with self.monitoring.span("kb.call", "knowledge",
                                  kb=self.name, method=method) as span:
            round_trip = self.round_trip_s
            if self.fault_plan is not None:
                round_trip *= self.fault_plan.latency_multiplier(*self.link)
                if self.fault_plan.link_dropped(*self.link):
                    self.clock.advance(round_trip)  # the timed-out trip
                    self.failed_calls += 1
                    span.set_attribute("dropped", True)
                    raise ServiceUnavailableError(
                        f"remote KB {self.name}: "
                        f"{self.link[0]}<->{self.link[1]} "
                        "dropped the request")
            self.clock.advance(round_trip)
            self.remote_calls += 1
            return getattr(self._base, method)(*args)

    def _call_batch_once(self, method: str, items: Sequence[Hashable]) -> Any:
        with self.monitoring.span("kb.call_batch", "knowledge",
                                  kb=self.name, method=method,
                                  items=len(items)) as span:
            round_trip = self.round_trip_s + self.per_item_cost_s * len(items)
            if self.fault_plan is not None:
                round_trip *= self.fault_plan.latency_multiplier(*self.link)
                if self.fault_plan.link_dropped(*self.link):
                    self.clock.advance(round_trip)  # the timed-out trip
                    self.failed_calls += 1
                    span.set_attribute("dropped", True)
                    raise ServiceUnavailableError(
                        f"remote KB {self.name}: "
                        f"{self.link[0]}<->{self.link[1]} "
                        f"dropped a {len(items)}-item batch")
            self.clock.advance(round_trip)
            result = getattr(self._base, method)(list(items))
            self.remote_calls += 1
            self.batched_items += len(items)
            return result


class CachedKnowledgeBase:
    """Local cache in front of a remote KB.

    Cache keys are (method, args); values are whatever the KB returned.
    ``get`` serves from cache when possible; ``refresh`` always goes to the
    remote (the paper's "most up-to-date" path) and re-fills the cache.
    """

    def __init__(self, remote: RemoteKnowledgeBase,
                 cache: Optional[Cache] = None,
                 local_access_s: float = 50e-6) -> None:
        self._remote = remote
        self._cache: Cache = cache if cache is not None else LruCache(4096)
        self.local_access_s = local_access_s
        self.clock = remote.clock

    def get(self, method: str, *args: Hashable) -> Any:
        """Cached lookup; falls through to the remote on a miss."""
        key: Tuple = (method, args)
        self.clock.advance(self.local_access_s)
        hit, value = self._cache.lookup(key)
        if hit:
            return value
        value = self._remote.call(method, *args)
        self._cache.put(key, value)
        return value

    def get_many(self, method: str, items: Sequence[Hashable],
                 batch_method: str) -> Dict[Hashable, Any]:
        """Bulk cached lookup: residual misses ship as *one* batched request.

        ``method`` names the single-item call (its cache keys are shared
        with :meth:`get`); ``batch_method`` names the KB's bulk variant,
        which must return a dict keyed by item.
        """
        self.clock.advance(self.local_access_s)   # one local probe per batch
        results: Dict[Hashable, Any] = {}
        misses: List[Hashable] = []
        pending = set()
        for item in items:
            if item in results or item in pending:
                continue   # duplicate within the batch: coalesced
            hit, value = self._cache.lookup((method, (item,)))
            if hit:
                results[item] = value
            else:
                misses.append(item)
                pending.add(item)
        if misses:
            fetched = self._remote.call_batch(batch_method, misses)
            for item in misses:
                value = fetched[item]
                self._cache.put((method, (item,)), value)
                results[item] = value
        return {item: results[item] for item in items}

    def refresh(self, method: str, *args: Hashable) -> Any:
        """Bypass the cache for the freshest value, then re-fill."""
        value = self._remote.call(method, *args)
        self._cache.put((method, args), value)
        return value

    @property
    def hit_ratio(self) -> float:
        return self._cache.stats.hit_ratio

    @property
    def remote_calls(self) -> int:
        return self._remote.remote_calls
