import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from costly_secretary import (
    AsymptoticReport,
    GameConfig,
    compute_threshold,
    compute_threshold_sequence,
    convergence_report,
    limit_constant,
    record_survival_product,
    solve_values,
    threshold_bounds,
)


def truncated_gauss_product(z, n):
    """Independent slow route to Gamma(z): n^z * n! / (z (z+1) ... (z+n)).

    Accumulated as n^z / z times the product of k / (z + k) so nothing
    overflows.
    """
    ks = np.arange(1.0, n + 1.0)
    return n**z / z * float(np.prod(ks / (z + ks)))


class TestLimitConstant:
    def test_zero_cost_is_inverse_e(self):
        assert limit_constant(0.0) == pytest.approx(1.0 / math.e, rel=1e-12)

    def test_tenth_cost(self):
        assert limit_constant(0.1) == math.exp(-0.9) / math.gamma(1.9)
        assert limit_constant(0.1) == pytest.approx(0.4227, abs=5e-4)

    def test_against_truncated_gauss_product(self):
        # Gamma(2 - cost) by an independent slow route
        for cost in (0.0, 0.1, 0.5, 0.9):
            approx = math.exp(cost - 1.0) / truncated_gauss_product(2.0 - cost, 10**6)
            assert limit_constant(cost) == pytest.approx(approx, rel=1e-4)

    def test_rejects_out_of_range(self):
        for bad in (-0.1, 1.0, 1.5):
            with pytest.raises(ValueError):
                limit_constant(bad)


class TestThresholdBounds:
    def test_ten_applicants(self):
        lower, upper = threshold_bounds(10)
        assert lower == pytest.approx(10 / math.e, rel=1e-15)
        assert upper == pytest.approx(9 / math.e + 2, rel=1e-15)
        assert lower <= compute_threshold(10) == 4 <= upper

    def test_two_applicants(self):
        lower, upper = threshold_bounds(2)
        assert lower <= 1 <= upper

    def test_containment_and_monotonicity_to_20000(self):
        seq = compute_threshold_sequence(20000)
        sizes = np.arange(2, 20001)
        thresholds = seq[2:]
        assert np.all(sizes / math.e <= thresholds)
        assert np.all(thresholds <= (sizes - 1) / math.e + 2)
        assert np.all(np.diff(thresholds) >= 0)

    def test_ratio_converges_to_inverse_e(self):
        n_apps = 10**6
        n_star = compute_threshold(n_apps)
        assert abs(n_star / n_apps - 1 / math.e) <= 1e-3


class TestGaussProductCheck:
    def test_zero_cost(self):
        for n in (1, 10, 12345):
            assert n**0.0 * record_survival_product(n, 0.0) == 1.0

    def test_half_cost_large_n(self):
        target = 1.0 / math.gamma(0.5)  # = 1/sqrt(pi)
        assert target == pytest.approx(0.5641895835, abs=1e-9)
        n = 10**6
        assert n**0.5 * record_survival_product(n, 0.5) == pytest.approx(target, abs=1e-3)

    def test_deviation_shrinks(self):
        for cost in (0.1, 0.5, 0.9):
            target = 1.0 / math.gamma(1.0 - cost)
            devs = [
                abs(n**cost * record_survival_product(n, cost) - target)
                for n in (10**3, 10**4, 10**5, 10**6)
            ]
            assert devs == sorted(devs, reverse=True)
            assert devs[-1] < devs[0]


class TestHarmonicSandwich:
    def test_tail_sum_bounds(self):
        # 1 < sum_{n=n*}^{N} 1/(n-1) <= 1 + 1/(n*-1) once n* >= 2
        sizes = list(range(6, 2001)) + [10**4, 10**5]
        for n_apps in sizes:
            n_star = compute_threshold(n_apps)
            tail = math.fsum(1.0 / (n - 1) for n in range(n_star, n_apps + 1))
            assert tail > 1.0
            assert tail <= 1.0 + 1.0 / (n_star - 1)


class TestConvergenceReport:
    def test_zero_cost_ladder(self):
        report = convergence_report(0.0, [10, 100, 1000])
        scaled = [s for _, s in report.samples]
        target = 1.0 / math.e
        assert all(abs(s - target) < 0.05 for s in scaled)
        deviations = [abs(s - target) for s in scaled]
        assert deviations == sorted(deviations, reverse=True)
        assert report.violations() == []

    def test_minimal_instance(self):
        report = convergence_report(0.0, [2], tolerance=0.5)
        assert report.samples[0][1] == pytest.approx(0.5, abs=1e-15)

    def test_report_fields(self):
        report = convergence_report(0.3, [10, 50, 250])
        assert isinstance(report, AsymptoticReport)
        assert report.cost == 0.3
        assert report.limit_constant == limit_constant(0.3)
        assert "empirical" in report.note
        for (n_apps, _), (n2, n_star, lower, upper) in zip(
            report.samples, report.threshold_samples
        ):
            assert n_apps == n2
            assert lower <= n_star <= upper

    def test_scaled_values_match_dp(self):
        report = convergence_report(0.2, [8, 32])
        for n_apps, scaled in report.samples:
            pi = solve_values(GameConfig(n_apps, 0.2)).success_probability
            assert scaled == n_apps**0.2 * pi

    def test_rejects_bad_ladders(self):
        with pytest.raises(ValueError):
            convergence_report(0.1, [])
        with pytest.raises(ValueError):
            convergence_report(0.1, [10, 10])
        with pytest.raises(ValueError):
            convergence_report(0.1, [100, 10])
        with pytest.raises(ValueError):
            convergence_report(1.2, [10, 100])
        for tolerance in (0.0, -1.0, math.nan, math.inf):
            with pytest.raises(ValueError):
                convergence_report(0.1, [10, 100], tolerance=tolerance)


@settings(max_examples=80, deadline=None)
@given(
    cost=st.floats(min_value=0.0, max_value=0.95, allow_nan=False),
    n=st.integers(min_value=1, max_value=5000),
)
def test_survival_product_scaling_bounded(cost, n):
    # n^c * S_n(c) lies between its limit floor and 1 on the way down
    value = n**cost * record_survival_product(n, cost)
    assert 0.0 < value <= max(1.0, n**cost * 1.0)
    assert record_survival_product(n, cost) <= 1.0
