"""Per-layer attribution from outside the program.

The traced run wraps the public functions at each layer boundary (the
table :data:`BOUNDARIES`) in this file's code, records one span per call
(name, start, end, parent, op id) in memory, and counts deterministic
work at the same boundaries.  Nothing inside ``src/`` changes.

Module-level functions are wrapped at every binding site: a name bound
by ``from x import f`` is a separate module attribute, so patching only
the defining module would miss it.  Methods are wrapped on their class.
:meth:`Tracer.restore` puts every original back, including copies a
module imported after installation.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from stats import self_times

SETUP_OP = -1

# Counters: called after each wrapped call with
# (tracer, args, kwargs, result, exc); they bump named counts.
Counter = Callable[["Tracer", tuple, dict, Any, Optional[BaseException]],
                   None]


def _count(name: str, amount: Callable[..., int] = lambda *a: 1) -> Counter:
    def counter(tracer, args, kwargs, result, exc):
        if exc is None:
            tracer.count(name, amount(args, kwargs, result))
    return counter


def _dispatch_status(tracer, args, kwargs, result, exc):
    if exc is None and result.status >= 500:
        tracer.count("core.api.status_5xx")
    elif exc is None and result.status >= 400:
        tracer.count("core.api.status_4xx")


def _denial(tracer, args, kwargs, result, exc):
    if exc is not None:
        tracer.count("rbac.denials")


def _private_op(tracer, args, kwargs, result, exc):
    tracer.count("crypto.rsa_private_ops")
    if tracer.inside("blockchain"):
        tracer.count("blockchain.endorsement_signatures")


def _aead_bytes(args, kwargs, result):
    return len(args[1])


def _frontend_flush(tracer, args, kwargs, result, exc):
    if exc is None and result is not None:
        tracer.count("ingestion.provenance_batches", result.transactions)


def _scheduler_run(tracer, args, kwargs, result, exc):
    if exc is None:
        tracer.count("compute.task_attempts", sum(result.attempts.values()))


def _study_run(tracer, args, kwargs, result, exc):
    if exc is None:
        tracer.count("federation.rounds", result["rounds"])
        tracer.count("federation.upload_retries", result["upload_retries"])


# (layer, module, qualified name, counter, binding sites or None = all)
Boundary = Tuple[str, str, str, Optional[Counter], Optional[Sequence[str]]]


def _b(layer, module, name, counter=None, sites=None):
    return (layer, module, name, counter, sites)


BOUNDARIES: Tuple[Boundary, ...] = (
    _b("core.api", "repro.core.api", "ApiGateway.dispatch",
       _dispatch_status),
    _b("core.metering", "repro.core.metering", "MeteringService.record",
       _count("core.metering.records")),
    _b("core.metering", "repro.core.metering", "MeteringService.invoice"),
    _b("core.reports", "repro.core.reports",
       "ReportService.operations_report"),
    _b("core.reports", "repro.core.reports", "ReportService.billing_report"),
    _b("rbac", "repro.rbac.federation",
       "FederatedIdentityService.authenticate"),
    _b("rbac", "repro.rbac.engine", "RbacEngine.require", _denial),
    _b("crypto", "repro.crypto.rsa", "generate_keypair",
       _count("crypto.keygen_calls")),
    _b("crypto", "repro.crypto.rsa", "RsaPrivateKey.private_op",
       _private_op),
    _b("crypto", "repro.crypto.rsa", "rsa_verify_batch"),
    _b("crypto", "repro.crypto.rsa", "hybrid_decrypt"),
    _b("crypto", "repro.crypto.symmetric", "SharedKeyCipher.encrypt",
       _count("crypto.aead_bytes", _aead_bytes)),
    _b("crypto", "repro.crypto.symmetric", "SharedKeyCipher.decrypt",
       _count("crypto.aead_bytes", _aead_bytes)),
    _b("blockchain", "repro.blockchain.network", "BlockchainNetwork.submit",
       _count("blockchain.txs")),
    _b("blockchain", "repro.blockchain.network",
       "BlockchainNetwork.submit_batch",
       _count("blockchain.txs", lambda a, k, r: len(r))),
    _b("blockchain", "repro.blockchain.network", "BlockchainNetwork.flush",
       _count("blockchain.blocks", lambda a, k, r: len(r))),
    _b("blockchain", "repro.blockchain.sharding",
       "ShardedBlockchainNetwork.ingest"),
    _b("blockchain", "repro.blockchain.network", "Peer.commit_block"),
    _b("ingestion", "repro.ingestion.pipeline", "IngestionService.upload"),
    _b("ingestion", "repro.ingestion.pipeline",
       "IngestionService.process_pending"),
    _b("ingestion", "repro.ingestion.datalake", "DataLake.store"),
    _b("ingestion", "repro.ingestion.pipeline",
       "ShardedIngestionFrontend.record_event"),
    _b("ingestion", "repro.ingestion.pipeline",
       "ShardedIngestionFrontend.flush", _frontend_flush),
    _b("fhir", "repro.fhir.resources", "Bundle.from_json"),
    _b("fhir", "repro.fhir.resources", "Bundle.to_json"),
    _b("fhir", "repro.fhir.validation", "BundleValidator.validate"),
    _b("privacy", "repro.privacy.deidentify",
       "Deidentifier.deidentify_bundle"),
    _b("privacy", "repro.privacy.verification",
       "AnonymizationVerificationService.assess_bundle"),
    _b("privacy", "repro.privacy.consent",
       "ConsentManagementService.has_consent"),
    _b("streaming.pipeline", "repro.streaming.pipeline",
       "StreamingPipeline.submit"),
    _b("streaming.pipeline", "repro.streaming.pipeline",
       "StreamingPipeline.drain_until"),
    _b("streaming.pipeline", "repro.streaming.pipeline",
       "StreamingPipeline.flush"),
    _b("streaming.incremental", "repro.streaming.incremental",
       "StreamingAnalytics.apply"),
    _b("streaming.incremental", "repro.streaming.incremental",
       "IncrementalSimilarityEngine.update_drug"),
    _b("streaming.incremental", "repro.streaming.incremental",
       "IncrementalSimilarityEngine.update_disease"),
    _b("streaming.incremental", "repro.streaming.incremental",
       "IncrementalSimilarityEngine.add_drug"),
    _b("streaming.incremental", "repro.streaming.incremental",
       "IncrementalSimilarityEngine.add_disease"),
    _b("streaming.subscriptions", "repro.streaming.subscriptions",
       "SubscriptionRegistry.push"),
    _b("streaming.subscriptions", "repro.streaming.subscriptions",
       "SubscriptionRegistry.poll"),
    _b("analytics", "repro.analytics.delt", "patient_partials",
       sites=("repro.federation.institution",)),
    _b("analytics", "repro.analytics.delt", "patient_loss",
       sites=("repro.federation.institution",)),
    _b("compute", "repro.compute.scheduler", "Scheduler.submit",
       _count("compute.jobs")),
    _b("compute", "repro.compute.scheduler", "Scheduler.run",
       _scheduler_run),
    _b("federation", "repro.federation.study", "FederatedStudyService.propose"),
    _b("federation", "repro.federation.study", "FederatedStudyService.approve"),
    _b("federation", "repro.federation.study", "FederatedStudyService.run",
       _study_run),
    _b("federation", "repro.federation.institution",
       "Institution.masked_upload"),
    _b("federation", "repro.federation.institution", "Institution.transmit",
       _count("federation.commitments")),
    _b("federation", "repro.federation.secure", "combine_masked"),
    _b("cloudsim.monitoring", "repro.cloudsim.monitoring",
       "MonitoringService.log", _count("cloudsim.monitoring.log_entries")),
    _b("cloudsim.monitoring", "repro.cloudsim.monitoring",
       "MetricsRegistry.observe",
       _count("cloudsim.monitoring.histogram_samples")),
    _b("cloudsim.monitoring", "repro.cloudsim.monitoring",
       "MetricsRegistry.incr"),
    _b("cloudsim.monitoring", "repro.cloudsim.monitoring",
       "MetricsRegistry.summary"),
)

LAYERS: Tuple[str, ...] = tuple(dict.fromkeys(b[0] for b in BOUNDARIES))

# Counts reported by the boundaries above, plus the ones each workload
# reads from the program's public state over the window (streaming.*).
COUNTS: Tuple[str, ...] = (
    "core.api.status_4xx", "core.api.status_5xx",
    "core.metering.records", "rbac.denials",
    "crypto.keygen_calls", "crypto.rsa_private_ops", "crypto.aead_bytes",
    "blockchain.txs", "blockchain.blocks",
    "blockchain.endorsement_signatures",
    "ingestion.stored", "ingestion.rejected",
    "ingestion.provenance_batches",
    "streaming.arrivals", "streaming.processed", "streaming.shed",
    "streaming.commit_retries", "streaming.flushes",
    "streaming.queue_wait_p99_ms",
    "streaming.incremental.pair_evals", "streaming.incremental.updates",
    "compute.jobs", "compute.task_attempts",
    "federation.rounds", "federation.upload_retries",
    "federation.commitments",
    "cloudsim.monitoring.log_entries",
    "cloudsim.monitoring.histogram_samples",
)

# Set-up metrics: what set-up time is spent on, per layer.
SETUP_COUNTS: Tuple[str, ...] = ("crypto.keygen_calls",
                                 "crypto.rsa_private_ops")


def _resolve(module_name: str, qualname: str) -> Tuple[Any, str, Any]:
    """(owner, attribute, raw attribute value) of a boundary."""
    owner: Any = importlib.import_module(module_name)
    parts = qualname.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    attribute = parts[-1]
    raw = (owner.__dict__[attribute] if isinstance(owner, type)
           else getattr(owner, attribute))
    return owner, attribute, raw


class Tracer:
    """Installs the boundary wrappers and records spans and counts."""

    def __init__(self) -> None:
        self.boundaries = BOUNDARIES
        self.op = SETUP_OP
        self.recording = True
        # (span_id, parent_id, boundary index, op, start_ns, end_ns)
        self.spans: List[Tuple[int, int, int, int, int, int]] = []
        self.counts: Dict[int, Dict[str, int]] = {}
        self._stack: List[Tuple[int, str]] = []
        self._next_id = 0
        self._patches: List[Tuple[Any, str, Any]] = []
        # id(wrapper) -> (wrapper, original); holding the wrapper keeps
        # its id from being reused before restore() has swept for it.
        self._originals: Dict[int, Tuple[Any, Any]] = {}

    # -- recording ----------------------------------------------------------

    def count(self, name: str, amount: int = 1) -> None:
        if self.recording:
            phase = SETUP_OP if self.op == SETUP_OP else 0
            bucket = self.counts.setdefault(phase, {})
            bucket[name] = bucket.get(name, 0) + amount

    def inside(self, layer: str) -> bool:
        """Is a span of ``layer`` open (an ancestor of the current call)?"""
        return any(open_layer == layer for _, open_layer in self._stack)

    def _wrap(self, index: int, fn: Callable) -> Callable:
        layer, _, _, counter, _ = self.boundaries[index]
        tracer = self
        clock = time.perf_counter_ns

        def wrapper(*args, **kwargs):
            stack = tracer._stack
            parent = stack[-1][0] if stack else -1
            span_id = tracer._next_id
            tracer._next_id += 1
            stack.append((span_id, layer))
            result = exc = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as error:
                exc = error
                raise
            finally:
                end = clock()
                stack.pop()
                if tracer.recording:
                    tracer.spans.append((span_id, parent, index, tracer.op,
                                         start, end))
                if counter is not None:
                    counter(tracer, args, kwargs, result, exc)

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", "wrapper")
        return wrapper

    # -- install / restore --------------------------------------------------

    def install(self) -> None:
        for index, (_, module, qualname, _, sites) in enumerate(
                self.boundaries):
            owner, attribute, raw = _resolve(module, qualname)
            if isinstance(owner, type):
                if isinstance(raw, (classmethod, staticmethod)):
                    wrapped = type(raw)(self._wrap(index, raw.__func__))
                else:
                    wrapped = self._wrap(index, raw)
                self._patch(owner, attribute, raw, wrapped)
                continue
            wrapped = self._wrap(index, raw)
            modules = ([importlib.import_module(s) for s in sites]
                       if sites is not None else self._repro_modules())
            for site in modules:
                for name, value in list(vars(site).items()):
                    if value is raw:
                        self._patch(site, name, raw, wrapped)

    def _patch(self, owner: Any, attribute: str, original: Any,
               wrapped: Any) -> None:
        self._patches.append((owner, attribute, original))
        self._originals[id(wrapped)] = (wrapped, original)
        setattr(owner, attribute, wrapped)

    @staticmethod
    def _repro_modules() -> List[Any]:
        return [module for name, module in sorted(sys.modules.items())
                if module is not None
                and (name == "repro" or name.startswith("repro."))]

    def restore(self) -> None:
        """Put every original back, then sweep modules imported after
        :meth:`install` for copies of a wrapper."""
        for owner, attribute, original in reversed(self._patches):
            setattr(owner, attribute, original)
        self._patches.clear()
        for module in self._repro_modules():
            for name, value in list(vars(module).items()):
                entry = self._originals.get(id(value))
                if entry is not None and entry[0] is value:
                    setattr(module, name, entry[1])
        self._originals.clear()

    # -- aggregation --------------------------------------------------------

    def layer_metrics(self, op_wall_ns: int) -> Dict[str, float]:
        """Per-layer calls, self time and counts over the recorded ops,
        plus set-up self time per layer.  ``op_wall_ns`` is the summed
        wall time of the recorded ops; what no span covers of it is
        reported as ``unwrapped.self_ms``."""
        selfs = self_times([(s[0], s[1], s[4], s[5]) for s in self.spans])
        metrics: Dict[str, float] = {}
        for layer in LAYERS:
            metrics[f"{layer}.calls"] = 0
            metrics[f"{layer}.self_ms"] = 0.0
            metrics[f"setup.{layer}.self_ms"] = 0.0
        covered = 0
        for span_id, _, index, op, _, _ in self.spans:
            layer = self.boundaries[index][0]
            self_ms = selfs[span_id] / 1e6
            if op == SETUP_OP:
                metrics[f"setup.{layer}.self_ms"] += self_ms
            else:
                metrics[f"{layer}.calls"] += 1
                metrics[f"{layer}.self_ms"] += self_ms
                covered += selfs[span_id]
        metrics["unwrapped.self_ms"] = max(0, op_wall_ns - covered) / 1e6
        window = self.counts.get(0, {})
        setup = self.counts.get(SETUP_OP, {})
        for name in COUNTS:
            metrics[name] = window.get(name, 0)
        for name in SETUP_COUNTS:
            metrics[f"setup.{name}"] = setup.get(name, 0)
        return metrics

    def write(self, path: str) -> None:
        """Write the recorded spans as JSON lines."""
        with open(path, "w") as handle:
            for span_id, parent, index, op, start, end in self.spans:
                layer, _, qualname = self.boundaries[index][:3]
                handle.write(json.dumps({
                    "id": span_id, "parent": parent, "layer": layer,
                    "name": qualname, "op": op, "start_ns": start,
                    "end_ns": end}) + "\n")
