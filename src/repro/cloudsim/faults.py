"""Deterministic fault injection for the simulated cloud (chaos layer).

The platform must "handle heavy traffic" end to end, which means every
hop — network links, compute nodes, endorsing peers, external AI
providers, data-lake zones — is a place it can fail.  A
:class:`FaultPlan` is a *seeded, declarative* schedule of such failures:

* **link faults** — probabilistic packet drops and latency-spike
  multipliers on named :class:`~repro.cloudsim.network.NetworkFabric`
  links, active inside a time window;
* **node crash windows** — a named node (host, VM, blockchain peer,
  data-lake zone) is down between ``start_s`` and ``end_s`` of simulated
  time and restarts afterwards;
* **availability dips** — an external provider's availability is
  overridden (e.g. to 0.5) inside a window.

All chance draws come from one ``random.Random(seed)`` owned by the
plan, so two runs over the same call sequence produce *identical*
failures — chaos experiments stay reproducible, and the chaos benchmark
asserts byte-identical JSON across runs.  Every injected fault is
counted on the plan (and mirrored to a
:class:`~repro.cloudsim.monitoring.MonitoringService` when bound), so
operators can see exactly what the plan did.

Components consult the plan through small, optional hooks (an attribute
that defaults to ``None``), attached by :class:`FaultInjector`; code
paths without a plan pay nothing.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from ..core.errors import ConfigurationError
from .clock import SimClock
from .monitoring import MonitoringService
from .nodes import NodeState


@dataclass(frozen=True)
class FaultWindow:
    """Half-open simulated-time interval ``[start_s, end_s)`` a fault covers."""

    start_s: float = 0.0
    end_s: float = math.inf

    def active(self, now: float) -> bool:
        return self.start_s <= now < self.end_s


@dataclass(frozen=True)
class LinkDropFault:
    """Probabilistic packet loss on the (undirected) link ``a <-> b``."""

    a: str
    b: str
    drop_rate: float
    window: FaultWindow = field(default_factory=FaultWindow)

    def matches(self, src: str, dst: str) -> bool:
        return {src, dst} == {self.a, self.b}


@dataclass(frozen=True)
class LatencySpikeFault:
    """Latency multiplier on the (undirected) link ``a <-> b``."""

    a: str
    b: str
    multiplier: float
    window: FaultWindow = field(default_factory=FaultWindow)

    def matches(self, src: str, dst: str) -> bool:
        return {src, dst} == {self.a, self.b}


@dataclass(frozen=True)
class NodeCrashFault:
    """A named node is crashed for the window, then restarts."""

    node_id: str
    window: FaultWindow = field(default_factory=FaultWindow)


@dataclass(frozen=True)
class AvailabilityDipFault:
    """An external service's availability is overridden for the window."""

    service: str
    availability: float
    window: FaultWindow = field(default_factory=FaultWindow)


class FaultPlan:
    """A seeded schedule of faults that live components consult.

    The plan shares the simulation's :class:`SimClock`, so windows are in
    simulated seconds.  Use the ``drop_link`` / ``spike_link`` /
    ``crash_node`` / ``dip_service`` builders, then hand the plan to a
    :class:`FaultInjector` to attach it to components.
    """

    def __init__(self, seed: int = 0, clock: Optional[SimClock] = None,
                 monitoring: Optional[MonitoringService] = None) -> None:
        self._rng = random.Random(seed)
        self.seed = seed
        self.clock = clock if clock is not None else SimClock()
        self.monitoring = (monitoring if monitoring is not None
                           else MonitoringService(self.clock))
        self.link_drops: List[LinkDropFault] = []
        self.latency_spikes: List[LatencySpikeFault] = []
        self.node_crashes: List[NodeCrashFault] = []
        self.availability_dips: List[AvailabilityDipFault] = []
        self.counters: Dict[str, int] = {}

    # -- builders -----------------------------------------------------------

    def drop_link(self, a: str, b: str, drop_rate: float,
                  start_s: float = 0.0, end_s: float = math.inf) -> "FaultPlan":
        if not 0.0 <= drop_rate <= 1.0:
            raise ConfigurationError(f"drop_rate {drop_rate} not in [0,1]")
        self.link_drops.append(
            LinkDropFault(a, b, drop_rate, FaultWindow(start_s, end_s)))
        return self

    def spike_link(self, a: str, b: str, multiplier: float,
                   start_s: float = 0.0, end_s: float = math.inf) -> "FaultPlan":
        if multiplier < 1.0:
            raise ConfigurationError(f"latency multiplier {multiplier} < 1")
        self.latency_spikes.append(
            LatencySpikeFault(a, b, multiplier, FaultWindow(start_s, end_s)))
        return self

    def crash_node(self, node_id: str, start_s: float = 0.0,
                   end_s: float = math.inf) -> "FaultPlan":
        self.node_crashes.append(
            NodeCrashFault(node_id, FaultWindow(start_s, end_s)))
        return self

    def dip_service(self, service: str, availability: float,
                    start_s: float = 0.0, end_s: float = math.inf) -> "FaultPlan":
        if not 0.0 <= availability <= 1.0:
            raise ConfigurationError(
                f"availability {availability} not in [0,1]")
        self.availability_dips.append(
            AvailabilityDipFault(service, availability,
                                 FaultWindow(start_s, end_s)))
        return self

    # -- queries (called from component hot paths) --------------------------

    def link_dropped(self, src: str, dst: str) -> bool:
        """Draw once per active matching fault; True means lose the packet."""
        now = self.clock.now
        for fault in self.link_drops:
            if fault.window.active(now) and fault.matches(src, dst):
                if self._rng.random() < fault.drop_rate:
                    self._count("link_drop")
                    return True
        return False

    def latency_multiplier(self, src: str, dst: str) -> float:
        """Product of all active spike multipliers on this link."""
        now = self.clock.now
        factor = 1.0
        for fault in self.latency_spikes:
            if fault.window.active(now) and fault.matches(src, dst):
                factor *= fault.multiplier
        if factor > 1.0:
            self._count("latency_spike")
        return factor

    def node_down(self, node_id: str) -> bool:
        now = self.clock.now
        for fault in self.node_crashes:
            if fault.node_id == node_id and fault.window.active(now):
                self._count("node_down")
                return True
        return False

    def service_availability(self, service: str, default: float) -> float:
        """The (possibly dipped) availability of a provider right now."""
        now = self.clock.now
        availability = default
        for fault in self.availability_dips:
            if fault.service == service and fault.window.active(now):
                availability = min(availability, fault.availability)
                self._count("availability_dip")
        return availability

    def _count(self, kind: str) -> None:
        self.counters[kind] = self.counters.get(kind, 0) + 1
        self.monitoring.metrics.incr(f"faults.{kind}")

    def describe(self) -> Dict[str, Any]:
        """Serializable summary (for benchmark JSON and audits)."""
        return {
            "seed": self.seed,
            "link_drops": len(self.link_drops),
            "latency_spikes": len(self.latency_spikes),
            "node_crashes": len(self.node_crashes),
            "availability_dips": len(self.availability_dips),
            "injected": dict(sorted(self.counters.items())),
        }


class FaultInjector:
    """Attaches a :class:`FaultPlan` to live simulation components.

    Probabilistic faults (link drops, spikes, availability dips) are
    consulted inline by the attached components; crash windows on
    :mod:`repro.cloudsim.nodes` objects are *applied* by :meth:`tick`,
    which crashes hosts/VMs whose window is active and restarts them
    once it has passed.
    """

    def __init__(self, plan: FaultPlan) -> None:
        self.plan = plan
        self._nodes: List[Tuple[str, Any]] = []   # (node_id, host-or-vm)
        self._crashed: Dict[str, NodeState] = {}  # node_id -> prior state

    def attach(self, component: Any) -> Any:
        """Point any plan-aware component (fabric, AI service, blockchain
        peer, knowledge-base proxy) at the plan via its ``fault_plan`` hook."""
        component.fault_plan = self.plan
        return component

    def attach_node(self, node_id: str, node: Any) -> None:
        """Track a Host/VirtualMachine for crash/restart windows."""
        self._nodes.append((node_id, node))

    def attach_datacenter(self, datacenter: Any) -> None:
        """Track every host (and its VMs) of a Datacenter."""
        for host in datacenter.hosts.values():
            self.attach_node(host.host_id, host)
            for vm in host.vms.values():
                self.attach_node(vm.vm_id, vm)

    def tick(self) -> int:
        """Apply crash windows at the current simulated time.

        Returns the number of state changes (crashes + restarts) applied.
        """
        changes = 0
        for node_id, node in self._nodes:
            down = self.plan.node_down(node_id)
            if down and node_id not in self._crashed:
                self._crashed[node_id] = node.state
                node.stop()
                changes += 1
            elif not down and node_id in self._crashed:
                prior = self._crashed.pop(node_id)
                if prior is NodeState.RUNNING:
                    node.start()
                changes += 1
        return changes
