"""SLO objectives and multi-window, multi-burn-rate alerting.

An :class:`SloObjective` states a target ("99.9% of gateway requests
succeed") over a pair of counter series in the
:class:`~.timeseries.TimeSeriesStore` (good events / bad events).  The
**burn rate** over a trailing window is the observed error rate divided
by the error budget (``1 - target``): burn 1.0 exhausts the budget
exactly at the end of the SLO period; burn 14.4 exhausts a 30-day
budget in 2 days.

Alerting follows the SRE-workbook multi-window, multi-burn-rate shape,
evaluated purely on simulated time:

* **fast page rule** — burn > 14.4 over *both* the 5-minute and 1-hour
  trailing windows.  The long window keeps one unlucky minute from
  paging; the short window makes the alert reset quickly once the burn
  stops;
* **slow ticket rule** — burn > 1.0 over both the 6-hour and 3-day
  windows: the budget is being eaten faster than sustainable, but
  nobody needs to wake up.

Rules fire on the rising edge (one :class:`Alert` per episode, not one
per evaluation), stay active while both windows exceed the factor, and
resolve — with a resolution event on the platform stream — when either
window recovers.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Dict, List, Optional, Tuple

from ...core.errors import ConfigurationError
from ..clock import SimClock
from ..monitoring import MonitoringService
from .events import EventBus
from .timeseries import TimeSeriesStore


class Severity(Enum):
    PAGE = "page"
    TICKET = "ticket"


@dataclass(frozen=True)
class BurnRateRule:
    """Fire when burn exceeds ``factor`` over both trailing windows."""

    name: str
    short_window_s: float
    long_window_s: float
    factor: float
    severity: Severity

    def __post_init__(self) -> None:
        if self.short_window_s <= 0 or self.long_window_s <= 0:
            raise ConfigurationError(
                f"rule {self.name!r}: windows must be positive")
        if self.short_window_s >= self.long_window_s:
            raise ConfigurationError(
                f"rule {self.name!r}: short window must be shorter "
                f"than the long window")
        if self.factor <= 0:
            raise ConfigurationError(
                f"rule {self.name!r}: factor must be positive")


# The SRE-workbook defaults: page on a fast burn (budget gone in ~2
# days), ticket on a slow sustained burn (budget gone by period end).
FAST_PAGE = BurnRateRule("fast", short_window_s=300.0,
                         long_window_s=3600.0, factor=14.4,
                         severity=Severity.PAGE)
SLOW_TICKET = BurnRateRule("slow", short_window_s=6 * 3600.0,
                           long_window_s=3 * 86400.0, factor=1.0,
                           severity=Severity.TICKET)
DEFAULT_RULES: Tuple[BurnRateRule, ...] = (FAST_PAGE, SLOW_TICKET)


@dataclass(frozen=True)
class SloObjective:
    """A success-ratio objective over a good/bad counter series pair."""

    name: str
    good_series: str
    bad_series: str
    target: float = 0.999
    rules: Tuple[BurnRateRule, ...] = DEFAULT_RULES

    def __post_init__(self) -> None:
        if not 0.0 < self.target < 1.0:
            raise ConfigurationError(
                f"slo {self.name!r}: target must be in (0, 1)")
        if not self.rules:
            raise ConfigurationError(f"slo {self.name!r}: needs rules")
        if self.good_series == self.bad_series:
            raise ConfigurationError(
                f"slo {self.name!r}: good and bad series must differ")

    @property
    def error_budget(self) -> float:
        return 1.0 - self.target


@dataclass(frozen=True)
class Alert:
    """One fired burn-rate episode (typed, serializable)."""

    alert_id: str
    slo: str
    rule: str
    severity: str
    fired_at_s: float
    short_burn: float
    long_burn: float
    factor: float
    short_window_s: float
    long_window_s: float

    def to_dict(self) -> Dict[str, float]:
        return {
            "alert_id": self.alert_id,
            "slo": self.slo,
            "rule": self.rule,
            "severity": self.severity,
            "fired_at_s": self.fired_at_s,
            "short_burn": round(self.short_burn, 6),
            "long_burn": round(self.long_burn, 6),
            "factor": self.factor,
            "short_window_s": self.short_window_s,
            "long_window_s": self.long_window_s,
        }


class SloEvaluator:
    """Evaluates registered objectives against the time-series store.

    Stateless about *when* it runs: call :meth:`evaluate` as often as
    you like (every simulated minute is typical); alerts dedupe on the
    rising edge, so evaluation frequency changes detection latency, not
    alert counts.
    """

    def __init__(self, store: TimeSeriesStore,
                 clock: Optional[SimClock] = None,
                 events: Optional[EventBus] = None,
                 monitoring: Optional[MonitoringService] = None) -> None:
        self.store = store
        self.clock = clock if clock is not None else store.clock
        self.events = events
        self.monitoring = (monitoring if monitoring is not None
                           else MonitoringService(self.clock))
        self._objectives: Dict[str, SloObjective] = {}
        self._active: Dict[Tuple[str, str], Alert] = {}
        self.alerts: List[Alert] = []
        self._counter = 0

    def register(self, objective: SloObjective) -> SloObjective:
        """Add an objective; its longest window must fit the store."""
        if objective.name in self._objectives:
            raise ConfigurationError(
                f"slo {objective.name!r} already registered")
        longest = max(rule.long_window_s for rule in objective.rules)
        if longest > self.store.span_s:
            raise ConfigurationError(
                f"slo {objective.name!r}: longest rule window "
                f"{longest:.0f}s exceeds the store span "
                f"{self.store.span_s:.0f}s "
                f"({self.store.window_count} x {self.store.interval_s}s)")
        self._objectives[objective.name] = objective
        return objective

    def objectives(self) -> List[SloObjective]:
        return [self._objectives[name] for name in sorted(self._objectives)]

    # -- burn-rate math ------------------------------------------------------

    def burn_rate(self, objective: SloObjective, window_s: float) -> float:
        """Error rate over the trailing window, in budget units."""
        bad = self.store.total(objective.bad_series, window_s)
        good = self.store.total(objective.good_series, window_s)
        total = good + bad
        if total <= 0:
            return 0.0
        return (bad / total) / objective.error_budget

    # -- evaluation ----------------------------------------------------------

    def evaluate(self) -> List[Alert]:
        """Check every rule of every objective; returns newly fired alerts."""
        fired: List[Alert] = []
        for name in sorted(self._objectives):
            objective = self._objectives[name]
            for rule in objective.rules:
                short_burn = self.burn_rate(objective, rule.short_window_s)
                long_burn = self.burn_rate(objective, rule.long_window_s)
                firing = (short_burn >= rule.factor
                          and long_burn >= rule.factor)
                key = (objective.name, rule.name)
                active = self._active.get(key)
                if firing and active is None:
                    fired.append(self._fire(objective, rule,
                                            short_burn, long_burn))
                elif not firing and active is not None:
                    self._resolve(key, active)
        return fired

    def _fire(self, objective: SloObjective, rule: BurnRateRule,
              short_burn: float, long_burn: float) -> Alert:
        self._counter += 1
        alert = Alert(
            alert_id=f"alert-{self._counter:06d}",
            slo=objective.name,
            rule=rule.name,
            severity=rule.severity.value,
            fired_at_s=self.clock.now,
            short_burn=short_burn,
            long_burn=long_burn,
            factor=rule.factor,
            short_window_s=rule.short_window_s,
            long_window_s=rule.long_window_s,
        )
        self._active[(objective.name, rule.name)] = alert
        self.alerts.append(alert)
        self.monitoring.metrics.incr(f"healthplane.alerts.{alert.severity}")
        self.monitoring.log(
            "healthplane",
            f"{alert.severity.upper()} {alert.alert_id}: slo "
            f"{alert.slo} rule {alert.rule} burning at "
            f"{alert.short_burn:.1f}x/{alert.long_burn:.1f}x "
            f"(threshold {alert.factor}x)",
            level="ERROR" if rule.severity is Severity.PAGE else "WARN",
            alert=alert.alert_id)
        if self.events is not None:
            self.events.publish("healthplane", "slo.alert",
                                **alert.to_dict())
        return alert

    def _resolve(self, key: Tuple[str, str], alert: Alert) -> None:
        del self._active[key]
        self.monitoring.metrics.incr("healthplane.alerts.resolved")
        if self.events is not None:
            self.events.publish("healthplane", "slo.alert_resolved",
                                alert_id=alert.alert_id, slo=alert.slo,
                                rule=alert.rule,
                                resolved_at_s=self.clock.now)

    def active_alerts(self) -> List[Alert]:
        """Currently firing alerts, ordered by alert id."""
        return sorted(self._active.values(), key=lambda a: a.alert_id)
