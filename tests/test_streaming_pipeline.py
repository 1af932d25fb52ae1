"""End-to-end streaming hot path: ledger, tracing, chaos, SLOs,
determinism."""

import pytest

from repro.analytics.similarity import (DiseaseSimilarityBuilder,
                                        DrugSimilarityBuilder)
from repro.blockchain import ShardedBlockchainNetwork
from repro.cloudsim.faults import FaultPlan
from repro.cloudsim.healthplane import HealthPlane
from repro.cloudsim.healthplane.events import EventBus
from repro.cloudsim.tracing import Tracer
from repro.compute import standard_scheduler
from repro.ingestion import ShardedIngestionFrontend
from repro.knowledge.synthetic import generate_universe
from repro.streaming import (FeedGenerator, IncrementalSimilarityEngine,
                             PriorityShedPolicy, StreamingAnalytics,
                             StreamingPipeline, SubscriptionFilter,
                             SubscriptionRegistry)
from repro.streaming.pipeline import PUSH_BAD_SERIES, PUSH_GOOD_SERIES


def _committed_blocks(network):
    return sum(ch.peers[0].ledger.height for ch in network.channels)


def _world(*, seed=0, n_shards=2, queue_capacity=32, policy_factory=None,
           with_scheduler=False, with_registry=True,
           rate_calm_hz=2.0, rate_burst_hz=12.0, queue_maxlen=256):
    network = ShardedBlockchainNetwork(n_shards, seed=5, batch_size=8)
    frontend = ShardedIngestionFrontend(network, events_per_batch=8)
    universe = generate_universe(n_drugs=8, n_diseases=6, seed=3)
    engine = IncrementalSimilarityEngine(DrugSimilarityBuilder(universe),
                                        DiseaseSimilarityBuilder(universe))
    analytics = StreamingAnalytics(engine)
    registry = None
    if with_registry:
        registry = SubscriptionRegistry(
            EventBus(network.clock, monitoring=network.monitoring),
            queue_maxlen=queue_maxlen)
    scheduler = None
    if with_scheduler:
        scheduler = standard_scheduler(clock=network.clock,
                                       monitoring=network.monitoring)
    pipeline = StreamingPipeline(
        frontend=frontend, analytics=analytics, registry=registry,
        queue_capacity=queue_capacity, policy_factory=policy_factory,
        scheduler=scheduler)
    feed = FeedGenerator.for_universe(universe, seed=seed, n_patients=16,
                                      rate_calm_hz=rate_calm_hz,
                                      rate_burst_hz=rate_burst_hz)
    return network, pipeline, feed


class TestLedger:
    def test_calm_run_processes_everything(self):
        network, pipeline, feed = _world()
        pipeline.run(feed.events(20.0))
        ledger = pipeline.ledger()
        assert ledger["shed"] == 0 and ledger["queued"] == 0
        assert ledger["processed"] == ledger["arrivals"] > 0
        assert pipeline.ledger_balanced()
        assert pipeline.flushes > 0
        metrics = network.monitoring.metrics
        assert metrics.counter("streaming.arrivals") == ledger["arrivals"]
        assert metrics.counter("streaming.processed") == \
            ledger["processed"]

    def test_overload_sheds_explicitly_and_balances(self):
        network, pipeline, _ = _world(
            queue_capacity=4,
            policy_factory=lambda name: PriorityShedPolicy())
        feed = FeedGenerator(seed=2,
                             patient_ids=[f"p-{i:02d}" for i in range(16)],
                             rate_calm_hz=100.0, rate_burst_hz=900.0,
                             dwell_calm_s=0.5, dwell_burst_s=20.0)
        pipeline.run(feed.events(4.0))
        ledger = pipeline.ledger()
        assert ledger["shed"] > 0
        assert pipeline.ledger_balanced()
        # every shed is attributed: metrics totals match queue ledgers
        metrics = network.monitoring.metrics
        assert metrics.counter("streaming.shed") == ledger["shed"]
        by_reason = sum(q.shed for q in pipeline.queues)
        assert by_reason == ledger["shed"]

    def test_commits_reach_the_ledger(self):
        network, pipeline, feed = _world()
        pipeline.run(feed.events(10.0))
        assert _committed_blocks(network) > 0


class TestTracing:
    def test_attribution_sums_to_exactly_100(self):
        network, pipeline, feed = _world()
        tracer = Tracer(pipeline.monitoring)
        pipeline.run(feed.events(5.0))
        assert pipeline.last_trace_id is not None
        percentages = tracer.critical_path(
            pipeline.last_trace_id).layer_percentages()
        assert sum(percentages.values()) == pytest.approx(100.0, abs=1e-9)
        assert {"streaming.queue", "streaming.commit",
                "streaming.analytics",
                "streaming.push"} <= set(percentages)

    def test_worst_wait_has_trace_exemplar(self):
        network, pipeline, feed = _world()
        tracer = Tracer(pipeline.monitoring)
        pipeline.run(feed.events(5.0))
        exemplar = network.monitoring.metrics.exemplar(
            "streaming.queue.wait_s")
        assert exemplar is not None
        assert tracer.has_trace(exemplar["trace_id"])


class TestChaos:
    def test_dropped_commit_link_retries_through(self):
        network, pipeline, feed = _world(rate_calm_hz=20.0)
        plan = FaultPlan(seed=2, clock=network.clock)
        plan.drop_link("stream-worker", "orderer", 0.6,
                       start_s=0.0, end_s=60.0)
        pipeline.fault_plan = plan
        pipeline.run(feed.events(20.0))
        assert pipeline.commit_retries_used > 0
        # delayed, never lost: the ledger still balances and everything
        # admitted was processed
        assert pipeline.ledger_balanced()
        assert pipeline.ledger()["queued"] == 0

    def test_total_outage_keeps_sealed_batches_for_later(self):
        network, pipeline, feed = _world()
        plan = FaultPlan(seed=2, clock=network.clock)
        plan.drop_link("stream-worker", "orderer", 1.0,
                       start_s=0.0, end_s=5.0)
        pipeline.fault_plan = plan
        events = list(feed.events(20.0))
        outage = [e for e in events if e.arrival_s < 5.0]
        pipeline.run(outage)
        assert pipeline.failed_flushes > 0
        pending_during_outage = pipeline.frontend.pending_events
        assert pending_during_outage > 0
        # the fault window ends; the next window commits the backlog
        pipeline.run(e for e in events if e.arrival_s >= 5.0)
        assert pipeline.frontend.pending_events == 0
        assert _committed_blocks(network) > 0


class TestPushSlo:
    def test_sustained_slow_pushes_page(self):
        network, pipeline, _ = _world()
        plane = HealthPlane(network.monitoring)
        pipeline.register_push_slo(plane, target=0.99)
        clock = network.clock
        metrics = network.monitoring.metrics

        def traffic(seconds, bad_every=0):
            n = 0
            end = clock.now + seconds
            while clock.now < end:
                n += 1
                bad = bad_every and n % bad_every == 0
                metrics.incr(PUSH_BAD_SERIES if bad
                             else PUSH_GOOD_SERIES)
                clock.advance(2.0)

        traffic(3600)                      # clean hour of history
        assert plane.evaluate() == []
        traffic(60, bad_every=2)           # short blip: no page
        assert plane.evaluate() == []
        traffic(1200, bad_every=2)         # sustained: both windows burn
        fired = plane.evaluate()
        assert [a.severity for a in fired] == ["page"]
        assert fired[0].slo == "streaming-push"


class TestRefresh:
    def test_kb_mutations_enqueue_dirty_row_jobs(self):
        network, pipeline, feed = _world(with_scheduler=True)
        events = [e for e in feed.events(60.0)]
        assert any(e.event_class in ("drug.update", "disease.update")
                   for e in events)
        pipeline.run(events)
        assert pipeline.refresh_jobs
        engine = pipeline.analytics.engine
        assert engine.dirty_drugs == set()
        assert engine.dirty_diseases == set()
        job = pipeline.scheduler.job(pipeline.refresh_jobs[-1])
        assert job.state.value == "succeeded"


class TestPushes:
    def test_matching_subscription_receives_pushes(self):
        network, pipeline, feed = _world()
        subscription = pipeline.registry.register(
            tenant_id="mercy-hospital", owner="dash",
            criteria=SubscriptionFilter(event_classes=("lab",)))
        pipeline.run(feed.events(10.0))
        assert subscription.matched > 0
        events = pipeline.registry.poll(subscription.sub_id)
        assert all(e["attributes"]["event_class"].startswith("lab")
                   for e in events)


class TestDeterminism:
    def test_two_identical_runs_are_identical(self):
        def run():
            network, pipeline, feed = _world(seed=6, with_scheduler=True)
            plan = FaultPlan(seed=3, clock=network.clock)
            plan.drop_link("stream-worker", "orderer", 0.3,
                           start_s=0.0, end_s=10.0)
            pipeline.fault_plan = plan
            pipeline.run(feed.events(15.0))
            return pipeline.describe(), network.clock.now
        assert run() == run()
