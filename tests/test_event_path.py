"""One event path: every layer reports through ``MonitoringService.publish``.

For each layer that emits lifecycle events, an attached
:class:`HealthPlane` sees them on its stream, and with no plane attached
publishing leaves nothing behind.  Layers built without a monitoring
service record on a default one of their own, and a monitoring service
feeds at most one plane.
"""

import pytest

from repro.blockchain import ShardedBlockchainNetwork
from repro.caching import CacheHierarchy, CacheLevel, LruCache, Origin
from repro.cloudsim.clock import SimClock
from repro.cloudsim.healthplane import HealthPlane
from repro.cloudsim.healthplane.events import EventBus
from repro.cloudsim.monitoring import MonitoringService
from repro.compute import TaskGraph
from repro.compute.scheduler import standard_scheduler
from repro.core.api import ApiGateway, ApiRequest
from repro.core.errors import ConfigurationError, ServiceUnavailableError
from repro.core.resilience import (
    CircuitBreaker,
    ResiliencePolicy,
    ResilientExecutor,
)
from repro.federation import FederatedStudyService, build_institutions
from repro.ingestion import ShardedIngestionFrontend
from repro.rbac.engine import RbacEngine
from repro.rbac.federation import FederatedIdentityService
from repro.workloads.emr import generate_emr_cohort


def _gateway(clock, monitoring):
    rbac = RbacEngine()
    gateway = ApiGateway(rbac, FederatedIdentityService(rbac, clock),
                         monitoring=monitoring, clock=clock)
    response = gateway.dispatch(ApiRequest(
        path="/missing", token=None, scope_entity_id="", org_id="",
        env_id=""))
    assert response.status == 404


def _breaker(clock, monitoring):
    breaker = CircuitBreaker("kb", ResiliencePolicy(
        breaker_failure_threshold=1), clock, monitoring)
    breaker.record_failure()


def _executor(clock, monitoring):
    executor = ResilientExecutor(
        ResiliencePolicy(max_attempts=1, hedge_after_s=0.5), clock,
        monitoring)

    def down():
        raise ServiceUnavailableError("down")

    with pytest.raises(ServiceUnavailableError):
        executor.call("kb", down, fallbacks=[("kb2", down)])


def _cache(clock, monitoring):
    hierarchy = CacheHierarchy(
        [CacheLevel("server", LruCache(8), access_cost_s=1e-3)],
        Origin("kb", loader=lambda k: f"v{k}", access_cost_s=1e-2),
        clock=clock, monitoring=monitoring)
    hierarchy.get("a")


def _sharded_ingest(clock, monitoring):
    network = ShardedBlockchainNetwork(2, seed=3, batch_size=4, clock=clock,
                                       monitoring=monitoring)
    frontend = ShardedIngestionFrontend(network, events_per_batch=4)
    for i in range(8):
        frontend.record_event(f"patient-{i % 4:03d}", handle=f"h-{i}",
                              data_hash=f"{i:02x}", event="received",
                              actor="ingest")
    assert frontend.flush() is not None


def _graph():
    graph = TaskGraph("sum")
    graph.add_data("xs", [1, 2, 3], nbytes=24)
    graph.add_task("total", lambda ins: sum(ins["xs"]), inputs=("xs",),
                   cost_s=0.01)
    return graph


def _scheduler(clock, monitoring):
    scheduler = standard_scheduler(clock=clock, monitoring=monitoring)
    job = scheduler.submit(_graph())
    scheduler.run(job.job_id)


# (layer, the source its events carry, a function driving it once)
LAYERS = [
    ("gateway", "gateway", _gateway),
    ("breaker", "resilience", _breaker),
    ("executor", "resilience", _executor),
    ("cache", "cache", _cache),
    ("sharded ledger", "blockchain", _sharded_ingest),
    ("ingestion frontend", "ingestion", _sharded_ingest),
    ("scheduler", "compute", _scheduler),
]


@pytest.mark.parametrize("source, drive", [(s, d) for _, s, d in LAYERS],
                         ids=[name for name, _, _ in LAYERS])
class TestEveryLayerPublishes:
    def test_attached_plane_sees_the_layer_events(self, source, drive):
        clock = SimClock()
        monitoring = MonitoringService(clock)
        plane = HealthPlane(monitoring)
        subscription = plane.events.subscribe("all")
        drive(clock, monitoring)
        sources = {event.source for event in subscription.poll()}
        assert source in sources

    def test_no_plane_no_event_counters(self, source, drive):
        clock = SimClock()
        monitoring = MonitoringService(clock)
        drive(clock, monitoring)
        assert monitoring.metrics.counter("healthplane.events.published") == 0


class TestDefaultMonitoring:
    def test_scheduler_records_on_its_own_monitoring(self):
        scheduler = standard_scheduler(clock=SimClock())
        job = scheduler.submit(_graph())
        scheduler.run(job.job_id)
        metrics = scheduler.monitoring.metrics
        assert metrics.counter("compute.jobs.succeeded") == 1
        assert metrics.counter("compute.tasks.succeeded") == 1

    def test_scheduler_pool_logs_to_the_scheduler_monitoring(self):
        clock = SimClock()
        clock.advance(100.0)
        scheduler = standard_scheduler(clock=clock)
        job = scheduler.submit(_graph())
        scheduler.run(job.job_id)
        provisioning = scheduler.monitoring.logs.entries(
            stream="provisioning")
        assert provisioning
        assert all(entry.timestamp >= 100.0 for entry in provisioning)

    def test_bare_event_bus_counts_on_its_own_monitoring(self):
        bus = EventBus(SimClock())
        bus.subscribe("all")
        bus.publish("test", "probe.sent")
        metrics = bus.monitoring.metrics
        assert metrics.counter("healthplane.events.published") == 1
        assert metrics.counter("healthplane.events.delivered.all") == 1

    def test_cache_hierarchy_records_on_its_own_monitoring(self):
        hierarchy = CacheHierarchy(
            [CacheLevel("server", LruCache(8), access_cost_s=1e-3)],
            Origin("kb", loader=lambda k: f"v{k}", access_cost_s=1e-2))
        hierarchy.get("a")
        hierarchy.get_many(["b", "c"])
        metrics = hierarchy.monitoring.metrics
        assert metrics.counter("cache.origin_loads") == 3
        assert metrics.counter("cache.batched_lookups") == 1
        hierarchy.publish_metrics()
        assert metrics.gauge("cache.hierarchy.origin_loads") == 3.0

    def test_study_service_records_on_its_own_monitoring(self):
        clock = SimClock()
        cohort = generate_emr_cohort(n_patients=12, n_drugs=4,
                                     n_lowering=1, seed=5)
        institutions = build_institutions(2, clock, "grp",
                                          patients=cohort.patients, seed=5)
        service = FederatedStudyService(
            clock=clock, network=ShardedBlockchainNetwork(2, seed=5,
                                                          clock=clock),
            scheduler=standard_scheduler(clock=clock),
            institutions=institutions)
        study = service.propose(
            tenant_id="t", researcher="r", analysis="delt", group_id="grp",
            participants=[inst.name for inst in institutions], threshold=2)
        assert study["study_id"]
        assert service.monitoring.metrics.counter("log.federation.info") == 1


class TestOnePlanePerMonitoring:
    def test_second_plane_is_refused(self):
        monitoring = MonitoringService(SimClock())
        first = HealthPlane(monitoring)
        with pytest.raises(ConfigurationError):
            HealthPlane(monitoring)
        # The first plane keeps the events and the series binding.
        subscription = first.events.subscribe("all")
        monitoring.publish("test", "probe.sent")
        monitoring.metrics.incr("probe.count")
        assert [e.kind for e in subscription.poll()] == ["probe.sent"]
        assert first.series.total("probe.count", 3600.0) == 1.0
