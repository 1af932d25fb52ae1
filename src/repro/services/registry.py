"""External AI web services and their selection (Section III).

"There are many external Web services which can be used to provide
additional analytics such as those from IBM, Microsoft, Amazon, Google...
The AI services from different providers offer similar functionality but
are not identical.  We provide users with a choice of services for similar
functionality.  In addition, we maintain information on the different
services to allow users to pick the best ones.  This information includes
response times and availability of the services.  For some of the services
(e.g. text extraction), we have standard tests which we run to test the
accuracy of the services.  Users can also provide feedback on services."

:class:`SimulatedAiService` models a provider endpoint with configurable
latency, availability, and task accuracy.  :class:`ServiceRegistry` is the
monitoring + selection layer: rolling response-time/availability stats,
standard accuracy tests, user feedback (served with the paper's caveat),
and a pick-the-best policy over the collected evidence.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..cloudsim.clock import SimClock
from ..core.errors import ConfigurationError, ServiceUnavailableError


@dataclass
class ServiceCallRecord:
    """One observed call to a provider."""

    service: str
    latency_s: float
    succeeded: bool


class SimulatedAiService:
    """One provider endpoint for one capability (e.g. 'text-extraction').

    ``accuracy`` is the probability the service returns the correct answer
    for a task with known ground truth; ``availability`` the probability a
    call succeeds at all; latency is lognormal around ``mean_latency_s``.
    """

    def __init__(self, name: str, capability: str, mean_latency_s: float,
                 availability: float, accuracy: float,
                 seed: int = 0) -> None:
        if not 0.0 <= availability <= 1.0 or not 0.0 <= accuracy <= 1.0:
            raise ConfigurationError("availability/accuracy must be in [0,1]")
        self.name = name
        self.capability = capability
        self.mean_latency_s = mean_latency_s
        self.availability = availability
        self.accuracy = accuracy
        self._rng = np.random.default_rng(seed)
        # Optional chaos hook: a FaultPlan can dip availability in a window.
        self.fault_plan = None

    def call(self, task_input: str, ground_truth: Optional[str] = None
             ) -> Tuple[str, float]:
        """Invoke the service; returns (output, latency).

        Raises :class:`ServiceUnavailableError` on a failed call.  With
        ground truth supplied, the output is correct with probability
        ``accuracy``; otherwise a deterministic transform of the input.
        """
        latency = float(self._rng.lognormal(
            mean=np.log(self.mean_latency_s), sigma=0.35))
        availability = self.availability
        if self.fault_plan is not None:
            availability = self.fault_plan.service_availability(
                self.name, availability)
        if self._rng.random() > availability:
            raise ServiceUnavailableError(f"{self.name} is unavailable")
        if ground_truth is not None:
            if self._rng.random() < self.accuracy:
                return ground_truth, latency
            return f"~{ground_truth[::-1]}", latency  # a wrong answer
        return f"{self.name}({task_input})", latency


@dataclass
class ServiceScorecard:
    """Aggregated evidence about one provider."""

    service: str
    capability: str
    calls: int
    failures: int
    mean_latency_s: float
    measured_accuracy: Optional[float]
    feedback_scores: List[int] = field(default_factory=list)

    @property
    def measured_availability(self) -> float:
        return 1.0 - self.failures / self.calls if self.calls else 1.0

    @property
    def mean_feedback(self) -> Optional[float]:
        if not self.feedback_scores:
            return None
        return sum(self.feedback_scores) / len(self.feedback_scores)


class ServiceRegistry:
    """Monitoring, standard accuracy tests, feedback, and selection."""

    FEEDBACK_CAVEAT = ("User feedback may not be accurate; "
                       "use with caution.")

    def __init__(self, clock: Optional[SimClock] = None) -> None:
        self.clock = clock if clock is not None else SimClock()
        self._services: Dict[str, SimulatedAiService] = {}
        self._calls: Dict[str, List[ServiceCallRecord]] = {}
        self._accuracy: Dict[str, float] = {}
        self._feedback: Dict[str, List[int]] = {}

    def register(self, service: SimulatedAiService) -> None:
        if service.name in self._services:
            raise ConfigurationError(f"service {service.name} already registered")
        self._services[service.name] = service
        self._calls[service.name] = []

    def services_for(self, capability: str) -> List[str]:
        """The choice of providers for similar functionality."""
        return sorted(s.name for s in self._services.values()
                      if s.capability == capability)

    # -- monitored invocation ---------------------------------------------------

    def invoke(self, service_name: str, task_input: str,
               ground_truth: Optional[str] = None) -> str:
        """Call a provider, recording latency/availability evidence."""
        service = self._services[service_name]
        try:
            output, latency = service.call(task_input, ground_truth)
        except ServiceUnavailableError:
            self._calls[service_name].append(
                ServiceCallRecord(service_name, 0.0, False))
            raise
        self.clock.advance(latency)
        self._calls[service_name].append(
            ServiceCallRecord(service_name, latency, True))
        return output

    def invoke_resilient(self, executor, capability: str, task_input: str,
                         ground_truth: Optional[str] = None) -> str:
        """Call the best provider under a resilience policy, failing over
        down the ranked provider list when retries are exhausted or a
        provider's circuit breaker is open.

        ``executor`` is a :class:`~repro.core.resilience.ResilientExecutor`;
        each provider gets its own breaker named ``ai.<service>``.  Open
        breakers are skipped at *selection* time too, so a known-bad
        provider stops being picked until its half-open probe succeeds.
        """
        with executor.monitoring.span("services.invoke_resilient", "services",
                                      capability=capability) as span:
            ranked = self.ranked_services(capability)
            open_skipped = [name for name in ranked
                            if not executor.breaker(f"ai.{name}").allow()]
            usable = [name for name in ranked if name not in open_skipped]
            if not usable:
                usable = ranked  # all breakers open: probe logic decides
            else:
                for name in open_skipped:
                    executor.monitoring.metrics.incr(
                        "services.selection_skips")
                    span.add_event("selection_skip", self.clock.now,
                                   service=name)
            span.set_attribute("primary", usable[0])
            primary, *rest = usable
            return executor.call(
                f"ai.{primary}",
                lambda: self.invoke(primary, task_input, ground_truth),
                fallbacks=[
                    (f"ai.{name}",
                     lambda name=name: self.invoke(name, task_input,
                                                   ground_truth))
                    for name in rest
                ])

    def ranked_services(self, capability: str) -> List[str]:
        """Providers for a capability, best (per the evidence) first."""
        return [name for _, name in self._scored(capability)]

    # -- standard accuracy tests -------------------------------------------------

    def run_accuracy_test(self, service_name: str,
                          test_set: Sequence[Tuple[str, str]]) -> float:
        """Run the standard test suite; stores and returns the accuracy."""
        if not test_set:
            raise ConfigurationError("empty accuracy test set")
        correct = 0
        attempted = 0
        for task_input, expected in test_set:
            try:
                output = self.invoke(service_name, task_input,
                                     ground_truth=expected)
            except ServiceUnavailableError:
                continue
            attempted += 1
            if output == expected:
                correct += 1
        accuracy = correct / attempted if attempted else 0.0
        self._accuracy[service_name] = accuracy
        return accuracy

    # -- feedback ---------------------------------------------------------------------

    def record_feedback(self, service_name: str, score: int) -> None:
        """User feedback on a 1-5 scale."""
        if not 1 <= score <= 5:
            raise ConfigurationError("feedback score must be 1..5")
        self._feedback.setdefault(service_name, []).append(score)

    def feedback_for(self, service_name: str) -> Tuple[List[int], str]:
        """Feedback plus the paper's accuracy caveat."""
        return (list(self._feedback.get(service_name, [])),
                self.FEEDBACK_CAVEAT)

    # -- reporting and selection --------------------------------------------------------

    def scorecard(self, service_name: str) -> ServiceScorecard:
        service = self._services[service_name]
        calls = self._calls[service_name]
        successes = [c for c in calls if c.succeeded]
        return ServiceScorecard(
            service=service_name,
            capability=service.capability,
            calls=len(calls),
            failures=len(calls) - len(successes),
            mean_latency_s=(sum(c.latency_s for c in successes)
                            / len(successes)) if successes else 0.0,
            measured_accuracy=self._accuracy.get(service_name),
            feedback_scores=list(self._feedback.get(service_name, [])),
        )

    def best_service(self, capability: str,
                     latency_weight: float = 0.2,
                     availability_weight: float = 0.2,
                     accuracy_weight: float = 0.6) -> str:
        # Accuracy dominates by default: for healthcare analytics a wrong
        # extraction costs more than a slow one.
        """Pick the best provider from the measured evidence."""
        return self._scored(capability, latency_weight, availability_weight,
                            accuracy_weight)[0][1]

    def _scored(self, capability: str,
                latency_weight: float = 0.2,
                availability_weight: float = 0.2,
                accuracy_weight: float = 0.6) -> List[Tuple[float, str]]:
        """(score, name) pairs for a capability, best first."""
        candidates = self.services_for(capability)
        if not candidates:
            raise ConfigurationError(f"no services for {capability!r}")
        cards = [self.scorecard(name) for name in candidates]
        max_latency = max((c.mean_latency_s for c in cards
                           if c.mean_latency_s > 0), default=1.0)

        def score(card: ServiceScorecard) -> float:
            latency_score = 1.0 - (card.mean_latency_s / max_latency
                                   if max_latency else 0.0)
            accuracy = (card.measured_accuracy
                        if card.measured_accuracy is not None else 0.5)
            return (latency_weight * latency_score
                    + availability_weight * card.measured_availability
                    + accuracy_weight * accuracy)

        # Stable on name so equal-evidence providers rank deterministically.
        return sorted(((score(card), card.service) for card in cards),
                      key=lambda pair: (-pair[0], pair[1]))
