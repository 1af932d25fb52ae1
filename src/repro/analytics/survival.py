"""Survival analysis for RWE validation (Section V-B2, refs [43], [44]).

"Previous studies mainly leverage survival analysis to validate
non-chemotherapy drugs associated with improved cancer survival and/or
decreased cancer risk of patients from EMRs."

The classical toolkit those studies use, from scratch:

* :class:`KaplanMeier` — the product-limit survival-curve estimator with
  right censoring;
* :func:`log_rank_test` — the two-group test those metformin studies run
  (exposed vs. unexposed cohort survival);
* :func:`generate_survival_cohort` — synthetic EMR survival data with a
  known hazard ratio, the ground truth E9-style validation needs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..core.errors import ConfigurationError


@dataclass
class SurvivalCurve:
    """A fitted Kaplan-Meier curve."""

    times: np.ndarray          # distinct event times, ascending
    survival: np.ndarray       # S(t) just after each event time
    at_risk: np.ndarray        # subjects at risk at each event time
    events: np.ndarray         # events at each event time

    def probability_at(self, t: float) -> float:
        """S(t): survival probability at time ``t``."""
        if self.times.size == 0 or t < self.times[0]:
            return 1.0
        index = int(np.searchsorted(self.times, t, side="right") - 1)
        return float(self.survival[index])

    def median_survival(self) -> Optional[float]:
        """First time S(t) drops to <= 0.5 (None if it never does)."""
        below = np.nonzero(self.survival <= 0.5)[0]
        if below.size == 0:
            return None
        return float(self.times[below[0]])


class KaplanMeier:
    """Product-limit estimator with right censoring."""

    def fit(self, durations: Sequence[float],
            observed: Sequence[bool]) -> SurvivalCurve:
        """Fit on (duration, event-observed) pairs.

        ``observed[i]`` True means subject i had the event at
        ``durations[i]``; False means censored then.
        """
        durations = np.asarray(durations, dtype=float)
        observed = np.asarray(observed, dtype=bool)
        if durations.shape != observed.shape or durations.size == 0:
            raise ConfigurationError("need matching non-empty arrays")
        if (durations < 0).any():
            raise ConfigurationError("durations must be non-negative")
        order = np.argsort(durations)
        durations = durations[order]
        observed = observed[order]

        event_times: List[float] = []
        survival: List[float] = []
        at_risk_list: List[int] = []
        event_counts: List[int] = []
        n = durations.size
        current_survival = 1.0
        index = 0
        while index < n:
            t = durations[index]
            # Everyone with duration >= t is still at risk at t.
            at_risk = n - index
            deaths = 0
            while index < n and durations[index] == t:
                if observed[index]:
                    deaths += 1
                index += 1
            if deaths > 0:
                current_survival *= (1.0 - deaths / at_risk)
                event_times.append(float(t))
                survival.append(current_survival)
                at_risk_list.append(at_risk)
                event_counts.append(deaths)
        return SurvivalCurve(
            times=np.array(event_times),
            survival=np.array(survival),
            at_risk=np.array(at_risk_list),
            events=np.array(event_counts),
        )


@dataclass(frozen=True)
class LogRankResult:
    """Two-group log-rank test outcome."""

    chi_square: float
    p_value: float
    observed_a: float
    expected_a: float

    @property
    def significant(self) -> bool:
        return self.p_value < 0.05


def log_rank_test(durations_a: Sequence[float], observed_a: Sequence[bool],
                  durations_b: Sequence[float],
                  observed_b: Sequence[bool]) -> LogRankResult:
    """Standard (unweighted) two-sample log-rank test."""
    durations_a = np.asarray(durations_a, dtype=float)
    observed_a = np.asarray(observed_a, dtype=bool)
    durations_b = np.asarray(durations_b, dtype=float)
    observed_b = np.asarray(observed_b, dtype=bool)
    if durations_a.size == 0 or durations_b.size == 0:
        raise ConfigurationError("both groups need subjects")

    all_event_times = np.unique(np.concatenate([
        durations_a[observed_a], durations_b[observed_b]]))
    observed_events_a = 0.0
    expected_events_a = 0.0
    variance = 0.0
    for t in all_event_times:
        at_risk_a = float((durations_a >= t).sum())
        at_risk_b = float((durations_b >= t).sum())
        at_risk = at_risk_a + at_risk_b
        deaths_a = float(((durations_a == t) & observed_a).sum())
        deaths_b = float(((durations_b == t) & observed_b).sum())
        deaths = deaths_a + deaths_b
        if at_risk < 2 or deaths == 0:
            continue
        observed_events_a += deaths_a
        expected_events_a += deaths * at_risk_a / at_risk
        variance += (deaths * (at_risk_a / at_risk)
                     * (1 - at_risk_a / at_risk)
                     * (at_risk - deaths) / max(at_risk - 1, 1.0))
    if variance <= 0:
        return LogRankResult(0.0, 1.0, observed_events_a, expected_events_a)
    chi_square = (observed_events_a - expected_events_a) ** 2 / variance
    # Chi-square survival function with one degree of freedom.
    p_value = math.erfc(math.sqrt(chi_square / 2))
    return LogRankResult(chi_square, p_value, observed_events_a,
                         expected_events_a)


def generate_survival_cohort(n_exposed: int = 300, n_unexposed: int = 300,
                             baseline_hazard: float = 0.02,
                             hazard_ratio: float = 0.6,
                             censoring_time: float = 60.0,
                             seed: int = 0
                             ) -> Tuple[np.ndarray, np.ndarray,
                                        np.ndarray, np.ndarray]:
    """Synthetic survival data: exponential hazards, admin censoring.

    Returns (durations_exposed, observed_exposed, durations_unexposed,
    observed_unexposed).  ``hazard_ratio < 1`` means the exposed drug is
    protective (the metformin story of refs [43-44]).
    """
    rng = np.random.default_rng(seed)
    exposed_raw = rng.exponential(1.0 / (baseline_hazard * hazard_ratio),
                                  size=n_exposed)
    unexposed_raw = rng.exponential(1.0 / baseline_hazard,
                                    size=n_unexposed)
    durations_exposed = np.minimum(exposed_raw, censoring_time)
    observed_exposed = exposed_raw <= censoring_time
    durations_unexposed = np.minimum(unexposed_raw, censoring_time)
    observed_unexposed = unexposed_raw <= censoring_time
    return (durations_exposed, observed_exposed,
            durations_unexposed, observed_unexposed)
