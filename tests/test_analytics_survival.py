"""Tests for the survival-analysis toolkit (Kaplan-Meier, log-rank)."""

import numpy as np
import pytest

from repro.analytics.survival import (
    KaplanMeier,
    generate_survival_cohort,
    log_rank_test,
)
from repro.core.errors import ConfigurationError


class TestKaplanMeier:
    def test_no_censoring_matches_empirical(self):
        durations = [1.0, 2.0, 3.0, 4.0]
        observed = [True] * 4
        curve = KaplanMeier().fit(durations, observed)
        # With no censoring, S(t) is the empirical survivor function.
        assert curve.probability_at(0.5) == 1.0
        assert curve.probability_at(1.0) == pytest.approx(0.75)
        assert curve.probability_at(2.5) == pytest.approx(0.50)
        assert curve.probability_at(4.0) == pytest.approx(0.0)

    def test_censoring_removes_from_risk_set(self):
        # Event at 1, censored at 2, event at 3: S(3) = 0.75 * (1 - 1/2).
        curve = KaplanMeier().fit([1.0, 2.0, 3.0, 4.0],
                                  [True, False, True, False])
        assert curve.probability_at(1.5) == pytest.approx(0.75)
        assert curve.probability_at(3.5) == pytest.approx(0.375)

    def test_all_censored_flat_curve(self):
        curve = KaplanMeier().fit([1.0, 2.0, 3.0], [False, False, False])
        assert curve.probability_at(100.0) == 1.0
        assert curve.median_survival() is None

    def test_median_survival(self):
        durations = list(range(1, 11))
        curve = KaplanMeier().fit(durations, [True] * 10)
        assert curve.median_survival() == 5.0

    def test_tied_event_times(self):
        curve = KaplanMeier().fit([2.0, 2.0, 2.0, 5.0],
                                  [True, True, False, True])
        # At t=2: 4 at risk, 2 deaths -> S = 0.5; at t=5: 1 at risk, 1 death.
        assert curve.probability_at(2.0) == pytest.approx(0.5)
        assert curve.probability_at(5.0) == pytest.approx(0.0)

    def test_matches_exponential_ground_truth(self):
        rng = np.random.default_rng(3)
        hazard = 0.05
        raw = rng.exponential(1.0 / hazard, size=4000)
        curve = KaplanMeier().fit(raw, [True] * 4000)
        for t in (5.0, 10.0, 20.0):
            assert curve.probability_at(t) == pytest.approx(
                np.exp(-hazard * t), abs=0.03)

    def test_input_validation(self):
        with pytest.raises(ConfigurationError):
            KaplanMeier().fit([], [])
        with pytest.raises(ConfigurationError):
            KaplanMeier().fit([1.0, -2.0], [True, True])
        with pytest.raises(ConfigurationError):
            KaplanMeier().fit([1.0], [True, False])


class TestLogRank:
    def test_protective_drug_detected(self):
        exposed_d, exposed_o, unexposed_d, unexposed_o = \
            generate_survival_cohort(hazard_ratio=0.5, seed=4)
        result = log_rank_test(exposed_d, exposed_o, unexposed_d,
                               unexposed_o)
        assert result.significant
        # Protective: the exposed group has fewer events than expected.
        assert result.observed_a < result.expected_a

    def test_null_effect_not_detected(self):
        exposed_d, exposed_o, unexposed_d, unexposed_o = \
            generate_survival_cohort(hazard_ratio=1.0, seed=5)
        result = log_rank_test(exposed_d, exposed_o, unexposed_d,
                               unexposed_o)
        assert result.p_value > 0.05

    def test_power_grows_with_effect(self):
        p_values = []
        for hazard_ratio in (0.9, 0.6, 0.3):
            exposed_d, exposed_o, unexposed_d, unexposed_o = \
                generate_survival_cohort(hazard_ratio=hazard_ratio, seed=6)
            result = log_rank_test(exposed_d, exposed_o, unexposed_d,
                                   unexposed_o)
            p_values.append(result.p_value)
        assert p_values[2] < p_values[0]

    def test_symmetry(self):
        exposed_d, exposed_o, unexposed_d, unexposed_o = \
            generate_survival_cohort(hazard_ratio=0.5, seed=7)
        ab = log_rank_test(exposed_d, exposed_o, unexposed_d, unexposed_o)
        ba = log_rank_test(unexposed_d, unexposed_o, exposed_d, exposed_o)
        assert ab.chi_square == pytest.approx(ba.chi_square, rel=1e-9)
        assert ab.p_value == pytest.approx(ba.p_value, rel=1e-9)

    def test_empty_group_rejected(self):
        with pytest.raises(ConfigurationError):
            log_rank_test([], [], [1.0], [True])

    def test_p_values_pinned(self):
        # Chi-square (1 df) tail probabilities as scipy.stats.chi2.sf
        # reported them for these inputs, across ~20 orders of magnitude.
        result = log_rank_test([1, 2, 3, 4, 5, 6], [1, 1, 0, 1, 1, 0],
                               [2, 4, 6, 8, 10, 12], [1, 0, 1, 1, 0, 1])
        assert result.chi_square == pytest.approx(2.1563776059983577,
                                                  rel=1e-12)
        assert result.p_value == pytest.approx(0.1419790519321984,
                                               rel=1e-12)
        for hazard_ratio, seed, chi_square, p_value in (
                (1.0, 5, 3.492205456376835, 0.06165839016299332),
                (0.8, 3, 22.4817649964637, 2.121479810224822e-06),
                (0.5, 4, 68.95114858904839, 1.0093286042001084e-16),
                (0.3, 6, 100.86282770911387, 9.857931375771248e-24)):
            result = log_rank_test(*generate_survival_cohort(
                hazard_ratio=hazard_ratio, seed=seed))
            assert result.chi_square == pytest.approx(chi_square,
                                                      rel=1e-12)
            assert result.p_value == pytest.approx(p_value, rel=1e-12)


class TestSurvivalCohort:
    def test_deterministic(self):
        a = generate_survival_cohort(seed=1)
        b = generate_survival_cohort(seed=1)
        assert np.array_equal(a[0], b[0])

    def test_censoring_applied(self):
        exposed_d, exposed_o, _, _ = generate_survival_cohort(
            censoring_time=10.0, seed=2)
        assert exposed_d.max() <= 10.0
        assert (~exposed_o).sum() > 0  # some subjects censored

    def test_protective_exposure_survives_longer(self):
        exposed_d, exposed_o, unexposed_d, unexposed_o = \
            generate_survival_cohort(hazard_ratio=0.4, seed=3)
        km = KaplanMeier()
        exposed_curve = km.fit(exposed_d, exposed_o)
        unexposed_curve = km.fit(unexposed_d, unexposed_o)
        assert (exposed_curve.probability_at(30.0)
                > unexposed_curve.probability_at(30.0))
