"""Gaussian kernels against an independent high-precision oracle."""

import numpy as np
import pytest

from treetest import critical_z, std_normal_cdf, std_normal_quantile, two_sided_pvalue

from helpers import normal_cdf_oracle


class TestCdf:
    def test_symmetry_point(self):
        assert std_normal_cdf(0.0) == 0.5

    def test_known_quantiles(self):
        assert std_normal_cdf(1.959964) == pytest.approx(0.975, abs=1e-6)
        assert std_normal_cdf(-1.644854) == pytest.approx(0.05, abs=1e-6)

    def test_against_series_oracle(self):
        for x in np.linspace(-8.0, 8.0, 81):
            assert std_normal_cdf(float(x)) == pytest.approx(normal_cdf_oracle(float(x)), abs=1e-12)

    def test_monotone_and_complementary(self):
        x = np.linspace(-8, 8, 2001)
        values = std_normal_cdf(x)
        assert np.all(np.diff(values) >= 0)
        assert np.max(np.abs(values + std_normal_cdf(-x) - 1.0)) <= 1e-12

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            std_normal_cdf(np.inf)


class TestQuantile:
    def test_median(self):
        assert std_normal_quantile(0.5) == 0.0

    def test_known_values(self):
        assert std_normal_quantile(0.975) == pytest.approx(1.959964, abs=1e-5)
        assert std_normal_quantile(0.9999) == pytest.approx(3.719016, abs=1e-4)

    def test_round_trip(self):
        x = np.arange(-6.0, 6.0 + 1e-9, 0.01)
        back = std_normal_quantile(std_normal_cdf(x))
        assert np.max(np.abs(back - x)) <= 1e-8

    def test_forward_round_trip(self):
        p = np.linspace(1e-8, 1 - 1e-8, 999)
        assert np.max(np.abs(std_normal_cdf(std_normal_quantile(p)) - p)) <= 1e-10

    def test_domain(self):
        for bad in (0.0, 1.0, -0.2, 1.1):
            with pytest.raises(ValueError, match="strictly"):
                std_normal_quantile(bad)


class TestZPvalue:
    """``two_sided_pvalue``, the p-value of every z-test in the package."""

    def test_mean_at_null_gives_one(self):
        assert two_sided_pvalue(0.0) == 1.0

    def test_reference_z(self):
        assert two_sided_pvalue(1.959964) == pytest.approx(0.05, abs=1e-6)
        assert two_sided_pvalue(-1.959964) == two_sided_pvalue(1.959964)

    def test_large_sigma_limit(self):
        # a mean of 1 under a scale of 1e6 is a z-score of 1e-6
        assert two_sided_pvalue(1.0 / 1e6) > 0.999

    def test_null_pvalues_uniform(self):
        # empirical CDF of a million null p-values within KS distance 0.002
        rng = np.random.default_rng(99)
        p = np.sort(two_sided_pvalue(rng.standard_normal(1_000_000)))
        grid = np.arange(1, p.size + 1) / p.size
        ks = max(np.max(np.abs(grid - p)), np.max(np.abs(p - (grid - 1.0 / p.size))))
        assert ks <= 0.002


class TestCriticalZ:
    def test_two_sided_reference(self):
        assert critical_z(0.05) == pytest.approx(1.959964, abs=1e-5)

    def test_halving_raises_threshold(self):
        assert critical_z(0.025) > critical_z(0.05)

    def test_equivalence_with_pvalue_rule(self):
        rng = np.random.default_rng(12)
        for _ in range(500):
            alpha = float(rng.uniform(0.001, 0.5))
            z = float(rng.normal(0, 2))
            p = two_sided_pvalue(z)
            if abs(p - alpha) < 1e-10:
                continue  # boundary-tolerance cases are unconstrained
            assert (p <= alpha) == (abs(z) >= critical_z(alpha))

    def test_domain(self):
        for bad in (0.0, 1.0):
            with pytest.raises(ValueError):
                critical_z(bad)
