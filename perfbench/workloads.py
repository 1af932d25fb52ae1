"""The four workloads, driven only through the platform's public API.

Each workload builds its platform and inputs in ``__init__`` (set-up),
then runs one *step* per :meth:`step` call.  A step is one op, except in
``ingest`` where it is one worker batch of :data:`Ingest.BATCH` bundles
that complete together.  Inputs come from the seed alone; the platform
itself is built from :data:`PLATFORM_SEED`, a fixed deployment setting,
so RSA key generation costs the same on every seed.

Scripted gateway traffic is paced on the ``SimClock`` (:class:`Pacer`)
and tokens are re-issued before they expire, so rate limits and token
lifetimes never refuse it: any failed op is a real failure.  Pacing and
think time are the benchmark's own, so they advance the clock before an
op starts and never count in its simulated latency.
"""

from __future__ import annotations

import functools
import json
import random
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Sequence, Tuple

import numpy as np

from repro import HealthCloudPlatform
from repro.analytics import DeltModel
from repro.analytics.similarity import (DiseaseSimilarityBuilder,
                                        DrugSimilarityBuilder)
from repro.blockchain import ShardedBlockchainNetwork, standard_network
from repro.cloudsim import standard_topology
from repro.cloudsim.healthplane.events import EventBus
from repro.compute import ComputeApi, JobSubmitRequest, TaskGraph
from repro.compute import api as compute_api
from repro.compute import standard_scheduler
from repro.core.api import ApiRequest
from repro.federation import (DeltStudyConfig, FederatedStudyService,
                              StudiesApi, StudyProposalRequest,
                              build_institutions, consented_union)
from repro.federation import api as studies_api
from repro.fhir import Bundle, Observation, Patient
from repro.ingestion import (IngestionStatus, ShardedIngestionFrontend,
                             encrypt_bundle_for_upload)
from repro.knowledge.synthetic import generate_universe
from repro.rbac import (Action, ExternalIdentityProvider, Permission, Scope,
                        ScopeKind)
from repro.streaming import (FeedGenerator, IncrementalSimilarityEngine,
                             StreamingAnalytics, StreamingPipeline,
                             SubscriptionFilter, SubscriptionRegistry)
from repro.workloads import generate_emr_cohort

from stats import Tally

PLATFORM_SEED = 11
GATEWAY_RATE_LIMIT = 1000       # per tenant per GATEWAY_WINDOW_S, passed
GATEWAY_WINDOW_S = 60.0         # to build_api_gateway and to the Pacer
PACE_MARGIN = 1.01              # keep spacing just above window/limit
TOKEN_TTL_S = 3600.0
TOKEN_REFRESH_S = 60.0          # re-issue this long before expiry
IDP = ("bench-idp", b"bench-idp-signing-key")


@dataclass
class OpRecord:
    """One op: wall latency, simulated latency, completion group."""

    wall_ns: int
    sim_s: float
    group: int


class Pacer:
    """Spaces each tenant's requests on the SimClock.

    The gateway's limiters are fixed windows of ``limit`` requests per
    ``window`` seconds, per tenant and per route.  Requests at least
    ``window / limit`` apart can never exceed either, so the pacer
    advances the clock to that spacing when a script would go faster.
    """

    def __init__(self, clock, route_limits: Dict[str, Tuple[int, float]]):
        self.clock = clock
        self.route_limits = dict(route_limits)
        self._last: Dict[Tuple[str, str], float] = {}

    def wait(self, tenant_id: str, path: str) -> None:
        keys = [((tenant_id, "*"), (GATEWAY_RATE_LIMIT, GATEWAY_WINDOW_S))]
        if path in self.route_limits:
            keys.append(((tenant_id, path), self.route_limits[path]))
        due = self.clock.now
        for key, (limit, window) in keys:
            last = self._last.get(key)
            if last is not None:
                due = max(due, last + PACE_MARGIN * window / limit)
        if due > self.clock.now:
            self.clock.advance_to(due)
        for key, _ in keys:
            self._last[key] = self.clock.now


class Caller:
    """One federated user calling the gateway with a fresh-enough token."""

    def __init__(self, platform, gateway, idp, pacer: Pacer, tenant,
                 name: str, permissions: Sequence[Tuple[Action, str]],
                 ok_calls: Dict[str, int]) -> None:
        self.clock = platform.clock
        self.gateway = gateway
        self.idp = idp
        self.pacer = pacer
        self.tenant_id = tenant.tenant.tenant_id
        self.org_id = tenant.default_org.org_id
        self.env_id = tenant.default_env.env_id
        self.subject = f"{name}@{self.tenant_id}"
        self.ok_calls = ok_calls
        user = platform.rbac.register_user(self.tenant_id, name)
        scope = Scope(ScopeKind.TENANT, self.tenant_id)
        role = f"{self.tenant_id}:{name}"
        platform.rbac.define_role(role, [Permission(action, resource, scope)
                                         for action, resource in permissions])
        platform.rbac.bind_role(user.user_id, self.org_id, self.env_id, role)
        platform.federation.link_identity(IDP[0], self.subject, user.user_id)
        self._token = None

    def token(self):
        if (self._token is None
                or self.clock.now >= self._token.expires_at - TOKEN_REFRESH_S):
            self._token = self.idp.issue_token(self.subject, ttl_s=TOKEN_TTL_S)
        return self._token

    def pace(self, path: str) -> None:
        """Wait on the SimClock until ``path`` may be called again."""
        self.pacer.wait(self.tenant_id, path)

    def send(self, path: str, **params: Any):
        """One gateway request, unpaced."""
        response = self.gateway.dispatch(ApiRequest(
            path=path, token=self.token(), scope_entity_id=self.tenant_id,
            org_id=self.org_id, env_id=self.env_id, params=params))
        if response.status == 200:
            self.ok_calls[self.tenant_id] = (
                self.ok_calls.get(self.tenant_id, 0) + 1)
        return response

    def call(self, path: str, **params: Any):
        self.pace(path)
        return self.send(path, **params)


def _identity_provider(platform):
    idp = ExternalIdentityProvider(IDP[0], IDP[1], platform.clock)
    platform.federation.approve_idp(*IDP)
    return idp


def _timed(fn: Callable[[], Any], clock, group: int,
           records: List[OpRecord]) -> Any:
    wall, sim = time.perf_counter_ns(), clock.now
    result = fn()
    records.append(OpRecord(time.perf_counter_ns() - wall,
                            clock.now - sim, group))
    return result


class Workload:
    """What ``child.py`` drives: set-up in ``__init__``, then :meth:`step`
    while :meth:`has_next`; the first ``window`` steps are the
    deterministic window, and ``tail_pct`` is the tail percentile.  The
    timed phase ends only after a whole number of ``cycle`` steps, so
    every process runs the same mix of ops."""

    name = ""
    window = 0
    tail_pct = 99
    cycle = 1

    def sim_latencies(self, records: Sequence[OpRecord]) -> List[float]:
        """Simulated per-op latencies over the window."""
        return [record.sim_s for record in records]

    def window_counts(self) -> Dict[str, float]:
        """Counts read from the program's own state over the window."""
        return {}

    def op_mix(self) -> Dict[str, int]:
        """Ops per kind over the timed phase, where the kinds are drawn."""
        return {}


def _bundle(rng: random.Random, index: int) -> Tuple[str, Bundle]:
    """One Patient plus 2-6 HbA1c Observations."""
    patient_id = f"pt-{index:06d}"
    bundle = Bundle(id=f"visit-{index:06d}")
    bundle.add(Patient(
        id=patient_id,
        name={"family": rng.choice(("Doe", "Roe", "Poe", "Moe")),
              "given": [rng.choice(("Ann", "Bo", "Cy", "Di"))]},
        birthDate=f"{rng.randrange(1940, 2000)}-0{rng.randrange(1, 10)}-1"
                  f"{rng.randrange(0, 10)}",
        gender=rng.choice(("female", "male")),
        address={"state": rng.choice(("MA", "NY", "CA"))}))
    for j in range(rng.randrange(2, 7)):
        bundle.add(Observation(
            id=f"{patient_id}-obs-{j}", code={"text": "HbA1c"},
            subject=f"Patient/{patient_id}",
            effectiveDateTime=f"2024-0{rng.randrange(1, 10)}-1"
                              f"{rng.randrange(0, 10)}",
            valueQuantity={"value": round(rng.gauss(7.1, 1.2), 1),
                           "unit": "%"}))
    return patient_id, bundle


class Ingest(Workload):
    """Closed loop of 4 registered clients uploading encrypted bundles;
    one worker batch per step; status read back through the gateway."""

    name = "ingest"
    BATCH = 16
    CLIENTS = 4
    window = 44              # batches in the deterministic window
    tail_pct = 90
    pool_steps = 96          # pre-encrypted input: this many batches
    THINK_S = 0.01           # mean simulated gap before each upload

    def __init__(self, seed: int) -> None:
        self.tally = Tally()
        platform = self.platform = HealthCloudPlatform(
            seed=PLATFORM_SEED, provenance_batch_size=self.BATCH)
        self.clock = platform.clock
        gateway = platform.build_api_gateway(rate_limit=GATEWAY_RATE_LIMIT)
        idp = _identity_provider(platform)
        pacer = Pacer(self.clock, {})
        self.callers, self.groups, registrations = [], [], []
        for i in range(self.CLIENTS):
            tenant = platform.register_tenant(f"clinic-{i}")
            self.groups.append(platform.rbac.create_group(
                tenant.tenant.tenant_id, "hba1c-cohort").group_id)
            registrations.append(
                platform.ingestion.register_client(f"device-{i}"))
            self.callers.append(Caller(
                platform, gateway, idp, pacer, tenant, "uploader",
                [(Action.READ, "platform-status")], {}))
        rng = random.Random(seed)
        self.inputs = []
        for index in range(self.pool_steps * self.BATCH):
            client = rng.randrange(self.CLIENTS)
            patient_id, bundle = _bundle(rng, index)
            platform.consent.grant(patient_id, self.groups[client])
            self.inputs.append((client, encrypt_bundle_for_upload(
                bundle, registrations[client]),
                rng.expovariate(1.0 / self.THINK_S)))
        self.cursor = 0
        self.jobs: List[str] = []
        self.sample = random.Random(seed + 1)
        self._base = self._state()

    def _state(self) -> Dict[str, float]:
        metrics = self.platform.monitoring.metrics
        return {name: metrics.counter(name) for name in (
            "ingestion.stored", "ingestion.rejected",
            "ingestion.provenance_batches")}

    def window_counts(self) -> Dict[str, float]:
        now = self._state()
        return {name: now[name] - self._base[name] for name in now}

    def has_next(self) -> bool:
        return self.cursor + self.BATCH <= len(self.inputs)

    def step(self, index: int) -> List[OpRecord]:
        started = []
        for client, envelope, think in self.inputs[self.cursor:
                                                   self.cursor + self.BATCH]:
            self.clock.advance(think)
            started.append((time.perf_counter_ns(), self.clock.now, client,
                            self.platform.ingestion.upload(
                                f"device-{client}", envelope,
                                self.groups[client]).job_id))
        self.cursor += self.BATCH
        self.platform.run_ingestion()
        # The status read models no simulated time, so a bundle's
        # simulated span ends when the batch is stored; the pacing of
        # the reads below is left out of it.
        stored_at = self.clock.now
        records = []
        for wall, sim, client, job_id in started:
            response = self.callers[client].call("/ingestion/status",
                                                 job_id=job_id)
            self.tally.response(response,
                                lambda body: body["status"] == "stored")
            records.append(OpRecord(time.perf_counter_ns() - wall,
                                    stored_at - sim, index))
            self.jobs.append(job_id)
        return records

    def check(self) -> List[str]:
        problems = []
        ingestion = self.platform.ingestion
        not_stored = [job for job in self.jobs
                      if ingestion.status(job)[0] is not IngestionStatus.STORED]
        if not_stored:
            problems.append(f"{len(not_stored)} jobs not stored")
        report = self.platform.audit.run_audit()
        if not report.clean:
            problems.append(f"audit findings: {report.findings}")
        if not self.platform.blockchain.peers_converged():
            problems.append("provenance peers diverged")
        job = self.sample.choice(self.jobs)
        history = [event["event"] for event in self.platform.blockchain.query(
            "provenance", "get_history", handle=job)]
        if history != ["received", "validated", "deidentified", "stored"]:
            problems.append(f"{job} provenance history {history}")
        return problems


class Stream(Workload):
    """Open-loop MMPP feed into a 4-shard streaming pipeline."""

    name = "stream"
    window = 1500            # arrivals in the deterministic window
    tail_pct = 99
    feed_s = 120.0           # simulated feed length generated at set-up
    N_DRUGS, N_DISEASES = 160, 96

    def __init__(self, seed: int) -> None:
        self.tally = Tally()
        network = self.network = ShardedBlockchainNetwork(
            4, seed=PLATFORM_SEED, batch_size=8)
        self.clock = network.clock
        universe = self.universe = generate_universe(
            n_drugs=self.N_DRUGS, n_diseases=self.N_DISEASES, seed=seed)
        self.engine = IncrementalSimilarityEngine(
            DrugSimilarityBuilder(universe), DiseaseSimilarityBuilder(universe))
        self.registry = SubscriptionRegistry(
            EventBus(self.clock, monitoring=network.monitoring),
            queue_maxlen=4096)
        self.pipeline = StreamingPipeline(
            frontend=ShardedIngestionFrontend(network, events_per_batch=8),
            analytics=StreamingAnalytics(self.engine),
            registry=self.registry, queue_capacity=64)
        self.subscription = self.registry.register(
            tenant_id="mercy-hospital", owner="dashboard",
            criteria=SubscriptionFilter())
        self.events = FeedGenerator.for_universe(
            universe, seed=seed, n_patients=64, rate_calm_hz=40.0,
            rate_burst_hz=120.0, dwell_calm_s=0.5,
            dwell_burst_s=0.125).generate(self.feed_s)
        self.cursor = 0
        self.pushed = 0
        self.push_latencies: List[float] = []
        self._base = self._state()

    def _state(self) -> Dict[str, float]:
        pipeline = self.pipeline
        return {"streaming.arrivals": pipeline.arrivals,
                "streaming.processed": pipeline.processed,
                "streaming.shed": pipeline.shed,
                "streaming.commit_retries": pipeline.commit_retries_used,
                "streaming.flushes": pipeline.flushes,
                "streaming.incremental.pair_evals": self.engine.pair_evals,
                "streaming.incremental.updates": self.engine.updates}

    def has_next(self) -> bool:
        return self.cursor < len(self.events)

    def _poll(self) -> None:
        pushed = self.registry.poll(self.subscription.sub_id)
        self.pushed += len(pushed)
        self.push_latencies.extend(e["attributes"]["push_latency_s"]
                                   for e in pushed)

    def step(self, index: int) -> List[OpRecord]:
        event = self.events[self.cursor]
        self.cursor += 1
        shed = self.pipeline.shed
        records: List[OpRecord] = []

        def arrive():
            self.pipeline.drain_until(event.arrival_s)
            if self.clock.now < event.arrival_s:
                self.clock.advance_to(event.arrival_s)
            self.pipeline.submit(event)
            self._poll()
        _timed(arrive, self.clock, index, records)
        self.tally.record(self.pipeline.shed == shed, "shed")
        return records

    def sim_latencies(self, records: Sequence[OpRecord]) -> List[float]:
        """Arrival-to-push latency of every push polled in the window."""
        return list(self.push_latencies)

    def window_counts(self) -> Dict[str, float]:
        now = self._state()
        counts = {name: now[name] - self._base[name] for name in now}
        waits = self.network.monitoring.metrics.histogram_values(
            "streaming.queue.wait_s")
        counts["streaming.queue_wait_p99_ms"] = (
            float(np.percentile(waits, 99)) * 1e3 if waits else 0.0)
        return counts

    def check(self) -> List[str]:
        problems = []
        self.pipeline.drain_until(None)
        self.pipeline.flush(force=True)
        self._poll()
        if not self.pipeline.ledger_balanced():
            problems.append(f"ledger unbalanced: {self.pipeline.ledger()}")
        if self.pushed != self.pipeline.processed:
            problems.append(f"{self.pushed} pushes for "
                            f"{self.pipeline.processed} processed events")
        if not self.network.peers_converged():
            problems.append("shard peers diverged")
        drugs, diseases = self.engine.drugs, self.engine.diseases
        rebuilt = {
            **DrugSimilarityBuilder(self.universe, pubchem=drugs.pubchem,
                                    drugbank=drugs.drugbank,
                                    sider=drugs.sider).all_sources(),
            **DiseaseSimilarityBuilder(self.universe,
                                       disgenet=diseases.disgenet
                                       ).all_sources()}
        for source, matrix in rebuilt.items():
            if not np.allclose(self.engine.matrices[source], matrix,
                               rtol=0.0, atol=1e-9):
                problems.append(f"incremental {source} differs from rebuild")
        return problems


class Study(Workload):
    """Federated DELT studies through ``/v1/studies``, request by request."""

    name = "study"
    GROUP = "hba1c-drug-effects"
    INSTITUTIONS = 4
    THRESHOLD = INSTITUTIONS - 1
    N_DRUGS = 10
    ITERATIONS = 5
    window = 98              # requests (14 studies) in the window
    THINK_S = (0.5, 1.5)     # simulated think time before a request, uniform
    cycle = THRESHOLD + 4    # propose, approvals, run, status, result
    tail_pct = 95
    max_studies = 2000

    def __init__(self, seed: int) -> None:
        self.tally = Tally()
        platform = self.platform = HealthCloudPlatform(
            seed=PLATFORM_SEED, use_blockchain=False)
        self.clock = platform.clock
        tenant = platform.register_tenant("research-consortium")
        cohort = generate_emr_cohort(n_patients=80, n_drugs=self.N_DRUGS,
                                     n_lowering=3, seed=seed)
        self.institutions = build_institutions(
            self.INSTITUTIONS, self.clock, self.GROUP,
            patients=cohort.patients, seed=seed, consent_rate=0.9)
        self.service = FederatedStudyService(
            clock=self.clock,
            network=standard_network(seed=PLATFORM_SEED, clock=self.clock,
                                     monitoring=platform.monitoring),
            scheduler=standard_scheduler(clock=self.clock,
                                         monitoring=platform.monitoring),
            institutions=self.institutions, monitoring=platform.monitoring,
            seed=seed, delt_config=DeltStudyConfig(
                n_drugs=self.N_DRUGS, max_iterations=self.ITERATIONS))
        gateway = platform.build_api_gateway(
            rate_limit=GATEWAY_RATE_LIMIT, studies=StudiesApi(self.service))
        window = studies_api.RATE_WINDOW_S
        pacer = Pacer(self.clock, {
            "/studies/propose": (studies_api.PROPOSE_RATE_LIMIT, window),
            "/studies/approve": (studies_api.DECIDE_RATE_LIMIT, window),
            "/studies/run": (studies_api.RUN_RATE_LIMIT, window),
            "/studies/status": (studies_api.STATUS_RATE_LIMIT, window),
            "/studies/result": (studies_api.RESULT_RATE_LIMIT, window)})
        self.researcher = Caller(
            platform, gateway, _identity_provider(platform), pacer, tenant,
            "pi", [(Action.READ, "studies"), (Action.WRITE, "studies")], {})
        self.participants = tuple(i.name for i in self.institutions)
        self.study_ids: List[str] = []
        self._script = self._requests()
        self._next = None
        self._think = random.Random(seed)

    def _requests(self):
        """The scripted request sequence: (path, params, expect) per op."""
        proposal = StudyProposalRequest(
            analysis="delt", group_id=self.GROUP,
            participants=self.participants, threshold=self.THRESHOLD)
        for study in range(self.max_studies):
            yield ("/studies/propose", {"request": proposal},
                   lambda body: body["state"] == "proposed")
            if len(self.study_ids) <= study:
                continue    # refused proposal: nothing to approve or run
            study_id = self.study_ids[-1]
            for institution in self.participants[:self.THRESHOLD]:
                yield ("/studies/approve",
                       {"study_id": study_id, "institution": institution},
                       None)
            for path in ("/studies/run", "/studies/status"):
                yield (path, {"study_id": study_id},
                       lambda body: body["state"] == "complete")
            yield ("/studies/result", {"study_id": study_id},
                   lambda body: len(body["effects"]) == self.N_DRUGS)

    def has_next(self) -> bool:
        if self._next is None:
            self._next = next(self._script, None)
        return self._next is not None

    def step(self, index: int) -> List[OpRecord]:
        self.has_next()
        (path, params, expect), self._next = self._next, None
        self.clock.advance(self._think.uniform(*self.THINK_S))
        self.researcher.pace(path)
        records: List[OpRecord] = []
        response = _timed(lambda: self.researcher.send(path, **params),
                          self.clock, index, records)
        if path == "/studies/propose" and response.status == 200:
            self.study_ids.append(response.body["study_id"])
        self.tally.response(response, expect)
        return records

    def check(self) -> List[str]:
        problems = []
        for study_id in self.study_ids:
            on_ledger = {c["commitment"] for c in
                         self.service.ledger_commitments(study_id).values()}
            missing = [r for inst in self.institutions
                       for r in inst.egress_log
                       if r.study_id == study_id
                       and r.commitment not in on_ledger]
            if missing:
                problems.append(f"{study_id}: {len(missing)} egress "
                                f"records without a ledger commitment")
            approvals = self.service.ledger_status(study_id)["approvals"]
            if len(approvals) != self.THRESHOLD:
                problems.append(f"{study_id}: {len(approvals)} approvals")
        completed = [s for s in self.study_ids
                     if self.service.status(s)["state"] == "complete"]
        if not completed:
            return problems + ["no study completed"]
        pooled, _ = consented_union(self.institutions, self.GROUP)
        centralized = DeltModel(n_drugs=self.N_DRUGS,
                                max_iterations=self.ITERATIONS
                                ).fit(pooled).effects
        federated = self.service.result_object(completed[0]).effects
        scale = np.maximum(np.abs(centralized), 1e-9)
        diff = float(np.max(np.abs(federated - centralized) / scale))
        if diff > 1e-2:
            problems.append(f"federated DELT off centralized by {diff:.3g}")
        return problems


class Api(Workload):
    """Dashboard reads by 16 users of 4 tenants through the gateway.

    Nothing in the platform or the paper gives a dashboard's request
    mix, so each request picks one of :data:`ROUTES` with equal chance;
    ``op_mix`` reports the share each run measured.
    """

    name = "api"
    TENANTS = 4
    USERS_PER_TENANT = 4
    BUNDLES_PER_TENANT = 8
    JOBS_PER_TENANT = 2
    THINK_S = 0.5            # simulated think time before each request
    window = 700             # requests in the deterministic window
    tail_pct = 99
    pool_steps = 60_000
    ROUTES = ("/ingestion/status", "/billing", "/reports/operations",
              "/compute/status", "/compute/result")

    def __init__(self, seed: int) -> None:
        self.tally = Tally()
        platform = self.platform = HealthCloudPlatform(seed=PLATFORM_SEED)
        self.clock = platform.clock
        scheduler = standard_scheduler(clock=self.clock,
                                       monitoring=platform.monitoring)
        gateway = platform.build_api_gateway(rate_limit=GATEWAY_RATE_LIMIT,
                                             compute=ComputeApi(scheduler))
        network = standard_topology(self.clock)
        # Memoized: the fabric routes on every call, and sizes repeat.
        self.round_trip = functools.lru_cache(maxsize=None)(
            lambda nbytes: network.round_trip_time(
                "client", "cloud-a", response_bytes=nbytes))
        idp = _identity_provider(platform)
        window = compute_api.RATE_WINDOW_S
        pacer = Pacer(self.clock, {
            "/compute/submit": (compute_api.SUBMIT_RATE_LIMIT, window),
            "/compute/status": (compute_api.STATUS_RATE_LIMIT, window),
            "/compute/result": (compute_api.RESULT_RATE_LIMIT, window)})
        reads = [(Action.READ, resource) for resource in (
            "platform-status", "reports", "billing", "compute-jobs")]
        rng = random.Random(seed)
        self.ok_calls: Dict[str, int] = {}
        self.callers: List[Caller] = []
        self.tenant_jobs: Dict[str, Tuple[List[str], List[str]]] = {}
        for t in range(self.TENANTS):
            tenant = platform.register_tenant(f"hospital-{t}")
            tenant_id = tenant.tenant.tenant_id
            users = [Caller(platform, gateway, idp, pacer, tenant,
                            f"viewer-{u}", reads, self.ok_calls)
                     for u in range(self.USERS_PER_TENANT)]
            researcher = Caller(platform, gateway, idp, pacer, tenant,
                                "researcher",
                                [(Action.WRITE, "compute-jobs")],
                                self.ok_calls)
            self.callers.extend(users)
            group = platform.rbac.create_group(tenant_id, "dashboard-cohort")
            device = f"device-{t}"
            registration = platform.ingestion.register_client(device)
            ingest_jobs = []
            for b in range(self.BUNDLES_PER_TENANT):
                patient_id, bundle = _bundle(rng, t * 1000 + b)
                platform.consent.grant(patient_id, group.group_id)
                ingest_jobs.append(platform.ingestion.upload(
                    device, encrypt_bundle_for_upload(bundle, registration),
                    group.group_id).job_id)
            compute_jobs = []
            for j in range(self.JOBS_PER_TENANT):
                response = researcher.call(
                    "/compute/submit",
                    request=JobSubmitRequest(graph=self._graph(rng, t, j)))
                if response.status != 200:
                    raise RuntimeError(f"set-up job submission refused: "
                                       f"{response.body}")
                compute_jobs.append(response.body["job_id"])
            self.tenant_jobs[tenant_id] = (ingest_jobs, compute_jobs)
        platform.run_ingestion()
        self.script = [(rng.randrange(len(self.callers)),
                        rng.choice(self.ROUTES), rng.random())
                       for _ in range(self.pool_steps)]
        self.cursor = 0
        self.routes: Dict[str, int] = {}

    @staticmethod
    def _graph(rng: random.Random, tenant: int, job: int) -> TaskGraph:
        values = [rng.gauss(7.0, 1.0) for _ in range(64)]
        graph = TaskGraph(f"cohort-summary-{tenant}-{job}")
        graph.add_data("values", values, nbytes=512)
        graph.add_task("mean", lambda ins: sum(ins["values"]) / 64,
                       inputs=("values",))
        graph.add_task("spread", lambda ins: max(ins["values"])
                       - min(ins["values"]), inputs=("values",))
        graph.add_task("summary", lambda ins: {"mean": ins["mean"],
                                               "spread": ins["spread"]},
                       inputs=("mean", "spread"))
        return graph

    def has_next(self) -> bool:
        return self.cursor < len(self.script)

    def _request(self, caller: Caller, path: str, pick: float):
        ingest_jobs, compute_jobs = self.tenant_jobs[caller.tenant_id]
        if path == "/ingestion/status":
            job = ingest_jobs[int(pick * len(ingest_jobs))]
            return caller.send(path, job_id=job), (
                lambda body: body["status"] == "stored")
        if path in ("/compute/status", "/compute/result"):
            job = compute_jobs[int(pick * len(compute_jobs))]
            return caller.send(path, job_id=job), (
                lambda body: body["state"] == "succeeded")
        if path == "/billing":
            return caller.send(path), lambda body: "lines" in body
        return caller.send(path), lambda body: body["stored"] > 0

    def step(self, index: int) -> List[OpRecord]:
        user, path, pick = self.script[self.cursor]
        self.cursor += 1
        caller = self.callers[user]
        self.clock.advance(self.THINK_S)
        caller.pace(path)
        self.routes[path] = self.routes.get(path, 0) + 1
        sim = self.clock.now
        wall = time.perf_counter_ns()
        response, expect = self._request(caller, path, pick)
        wall = time.perf_counter_ns() - wall
        # The gateway's read path models no service time, so the client's
        # round trip to the analytics cloud on the reference topology is
        # the simulated floor of a request; the response size is the
        # platform's.
        self.clock.advance(self.round_trip(
            len(json.dumps(response.body, default=str))))
        self.tally.response(response, expect)
        return [OpRecord(wall, self.clock.now - sim, index)]

    def op_mix(self) -> Dict[str, int]:
        return dict(self.routes)

    def check(self) -> List[str]:
        problems = []
        for caller in self.callers[::self.USERS_PER_TENANT]:
            expected = self.ok_calls.get(caller.tenant_id, 0)
            response = caller.call("/billing")
            units = sum(line["units"] for line in response.body["lines"]
                        if line["service"] == "api.call")
            if units != expected:
                problems.append(f"{caller.tenant_id}: billed {units} api "
                                f"calls, made {expected}")
        return problems


WORKLOADS = {cls.name: cls for cls in (Ingest, Stream, Study, Api)}
