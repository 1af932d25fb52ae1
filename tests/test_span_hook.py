"""One tracer hook: every layer opens spans through ``MonitoringService.span``.

For each layer that opens spans, a :class:`Tracer` attached to the
layer's monitoring service finds the layer's span names in a sealed
trace, and with no tracer attached every span the layer opens is the
shared no-op.  A monitoring service takes at most one tracer.
"""

import pytest

from repro.analytics.similarity import (DiseaseSimilarityBuilder,
                                        DrugSimilarityBuilder)
from repro.blockchain import ShardedBlockchainNetwork, standard_network
from repro.caching import CacheHierarchy, CacheLevel, LruCache, Origin
from repro.cloudsim.clock import SimClock
from repro.cloudsim.monitoring import MonitoringService
from repro.cloudsim.tracing import NOOP_SPAN, Tracer
from repro.compute import TaskGraph
from repro.compute.scheduler import standard_scheduler
from repro.core.api import ApiGateway, ApiRequest
from repro.core.errors import ConfigurationError
from repro.core.resilience import ResiliencePolicy, ResilientExecutor
from repro.crypto.kms import KeyManagementService
from repro.federation import (DeltStudyConfig, FederatedStudyService,
                              build_institutions)
from repro.fhir.resources import Bundle, Observation, Patient
from repro.ingestion import ShardedIngestionFrontend
from repro.ingestion.datalake import DataLake
from repro.ingestion.pipeline import (IngestionService,
                                      encrypt_bundle_for_upload)
from repro.knowledge.remote import RemoteKnowledgeBase
from repro.knowledge.synthetic import generate_universe
from repro.privacy.consent import ConsentManagementService
from repro.privacy.deidentify import Deidentifier
from repro.rbac.engine import RbacEngine
from repro.rbac.federation import FederatedIdentityService
from repro.services.registry import ServiceRegistry, SimulatedAiService
from repro.streaming import (FeedGenerator, IncrementalSimilarityEngine,
                             StreamingAnalytics, StreamingPipeline)
from repro.workloads.emr import generate_emr_cohort


class RecordingMonitoring(MonitoringService):
    """A monitoring service that remembers every span a layer opened."""

    def __init__(self, clock):
        super().__init__(clock)
        self.opened = []

    def span(self, name, layer, **attributes):
        span = super().span(name, layer, **attributes)
        self.opened.append((name, span))
        return span


def _gateway(monitoring):
    rbac = RbacEngine()
    gateway = ApiGateway(rbac,
                         FederatedIdentityService(rbac, monitoring.clock),
                         monitoring=monitoring, clock=monitoring.clock)
    response = gateway.dispatch(ApiRequest(
        path="/missing", token=None, scope_entity_id="", org_id="",
        env_id=""))
    assert response.status == 404


def _executor(monitoring):
    executor = ResilientExecutor(ResiliencePolicy(), monitoring.clock,
                                 monitoring)
    assert executor.call("kb", lambda: "ok") == "ok"


def _cache(monitoring):
    hierarchy = CacheHierarchy(
        [CacheLevel("server", LruCache(8), access_cost_s=1e-3)],
        Origin("kb", loader=lambda k: f"v{k}", access_cost_s=1e-2),
        clock=monitoring.clock, monitoring=monitoring)
    hierarchy.get("a")
    hierarchy.get_many(["b", "c"])


class _TermKb:
    name = "terms"

    def lookup(self, key):
        return f"definition-of-{key}"

    def lookup_many(self, keys):
        return [self.lookup(key) for key in keys]


def _remote_kb(monitoring):
    remote = RemoteKnowledgeBase(_TermKb(), monitoring.clock,
                                 monitoring=monitoring)
    assert remote.call("lookup", "a") == "definition-of-a"
    assert remote.call_batch("lookup_many", ["b"]) == ["definition-of-b"]


def _provenance(i):
    return dict(handle=f"h-{i}", data_hash=f"{i:02x}", event="received",
                actor="client")


def _ledger(monitoring):
    network = standard_network(seed=3, batch_size=1, clock=monitoring.clock,
                               monitoring=monitoring)
    network.submit("ingestion-service", "provenance", "record_event",
                   **_provenance(0))
    network.submit_batch("ingestion-service",
                         [("provenance", "record_event", _provenance(1))])
    assert network.flush()


def _sharded_ledger(monitoring):
    network = ShardedBlockchainNetwork(2, seed=3, batch_size=4,
                                       clock=monitoring.clock,
                                       monitoring=monitoring)
    frontend = ShardedIngestionFrontend(network, events_per_batch=4)
    for i in range(8):
        frontend.record_event(f"patient-{i % 4:03d}", **_provenance(i))
    assert frontend.flush() is not None


def _ingestion(monitoring):
    clock = monitoring.clock
    consent = ConsentManagementService(clock)
    service = IngestionService(
        DataLake(KeyManagementService("acme", seed=1)), consent,
        Deidentifier(b"pseudonym-secret-0123"), monitoring=monitoring,
        clock=clock, key_seed=1)
    registration = service.register_client("client-1")
    consent.grant("pt-1", "study")
    bundle = Bundle(id="b1")
    bundle.add(Patient(id="pt-1", name={"family": "Doe"},
                       birthDate="1980-03-12", gender="female"))
    bundle.add(Observation(id="pt-1-obs", code={"text": "HbA1c"},
                           subject="Patient/pt-1",
                           valueQuantity={"value": 7.0, "unit": "%"}))
    service.upload("client-1",
                   encrypt_bundle_for_upload(bundle, registration), "study")
    assert service.process_pending() == 1


def _streaming(monitoring):
    network = ShardedBlockchainNetwork(2, seed=5, batch_size=8,
                                       clock=monitoring.clock,
                                       monitoring=monitoring)
    universe = generate_universe(n_drugs=8, n_diseases=6, seed=3)
    engine = IncrementalSimilarityEngine(DrugSimilarityBuilder(universe),
                                         DiseaseSimilarityBuilder(universe))
    pipeline = StreamingPipeline(
        frontend=ShardedIngestionFrontend(network, events_per_batch=8),
        analytics=StreamingAnalytics(engine))
    feed = FeedGenerator.for_universe(universe, seed=0, n_patients=4)
    pipeline.run(feed.events(3.0))
    assert pipeline.processed > 0


def _graph():
    graph = TaskGraph("sum")
    graph.add_data("xs", [1, 2, 3], nbytes=24)
    graph.add_task("total", lambda ins: sum(ins["xs"]), inputs=("xs",),
                   cost_s=0.01)
    return graph


def _scheduler(monitoring):
    scheduler = standard_scheduler(clock=monitoring.clock,
                                   monitoring=monitoring)
    job = scheduler.submit(_graph())
    scheduler.run(job.job_id)


def _study(monitoring):
    clock = monitoring.clock
    cohort = generate_emr_cohort(n_patients=12, n_drugs=4, n_lowering=1,
                                 seed=5)
    institutions = build_institutions(2, clock, "grp",
                                      patients=cohort.patients, seed=5)
    service = FederatedStudyService(
        clock=clock,
        network=standard_network(seed=5, clock=clock, monitoring=monitoring),
        scheduler=standard_scheduler(clock=clock, monitoring=monitoring),
        institutions=institutions, monitoring=monitoring, seed=5,
        delt_config=DeltStudyConfig(n_drugs=4, max_iterations=1))
    study_id = service.propose(
        tenant_id="t", researcher="r", analysis="delt", group_id="grp",
        participants=[inst.name for inst in institutions],
        threshold=2)["study_id"]
    for institution in institutions:
        service.approve(study_id, institution.name)
    service.run(study_id)


def _service_registry(monitoring):
    registry = ServiceRegistry(monitoring.clock)
    registry.register(SimulatedAiService("ocr", "text-extraction", 0.1,
                                         availability=1.0, accuracy=1.0))
    executor = ResilientExecutor(ResiliencePolicy(), monitoring.clock,
                                 monitoring)
    registry.invoke_resilient(executor, "text-extraction", "scan-1")


# (layer, the span names it opens, a function driving it once)
LAYERS = [
    ("gateway", {"api.dispatch"}, _gateway),
    ("executor", {"resilience.kb", "resilience.attempt"}, _executor),
    ("cache", {"cache.get", "cache.get_many", "cache.origin_fetch"},
     _cache),
    ("remote kb", {"kb.call", "kb.call_batch"}, _remote_kb),
    ("ledger", {"blockchain.endorse", "blockchain.endorse_batch",
                "blockchain.commit"}, _ledger),
    ("sharded ledger", {"blockchain.sharded_ingest"}, _sharded_ledger),
    ("ingestion service", {"ingestion.process_pending", "ingestion.job"},
     _ingestion),
    ("streaming pipeline", {"streaming.process", "streaming.admit",
                            "streaming.commit", "streaming.update",
                            "streaming.push"}, _streaming),
    ("scheduler", {"compute.job"}, _scheduler),
    ("study service", {"federation.study", "federation.round"}, _study),
    ("service registry", {"services.invoke_resilient"}, _service_registry),
]


@pytest.mark.parametrize("names, drive", [(n, d) for _, n, d in LAYERS],
                         ids=[layer for layer, _, _ in LAYERS])
class TestEveryLayerSpans:
    def test_attached_tracer_sees_the_layer_spans(self, names, drive):
        monitoring = MonitoringService(SimClock())
        tracer = Tracer(monitoring)
        drive(monitoring)
        seen = set()
        for trace_id in tracer.trace_ids():
            assert tracer.verify_trace(trace_id)
            seen.update(span.name for span in tracer.spans(trace_id))
        assert names <= seen

    def test_no_tracer_hands_out_the_noop(self, names, drive):
        monitoring = RecordingMonitoring(SimClock())
        drive(monitoring)
        assert names <= {name for name, _ in monitoring.opened}
        assert all(span is NOOP_SPAN for _, span in monitoring.opened)
        assert monitoring.trace_context() is None


class TestOneTracerPerMonitoring:
    def test_second_tracer_is_refused(self):
        monitoring = MonitoringService(SimClock())
        first = Tracer(monitoring)
        with pytest.raises(ConfigurationError):
            Tracer(monitoring)
        # The first tracer keeps receiving the spans.
        with monitoring.span("probe", "test") as span:
            assert monitoring.trace_context().span_id == span.span_id
        assert first.has_trace(span.trace_id)

    def test_tracer_times_spans_on_the_monitoring_clock(self):
        clock = SimClock()
        clock.advance(5.0)
        tracer = Tracer(MonitoringService(clock))
        assert tracer.clock is clock
        with tracer.span("probe", "test") as span:
            clock.advance(1.0)
        assert (span.start_s, span.end_s) == (5.0, 6.0)
