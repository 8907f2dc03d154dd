"""Haar transform and descent-driven coefficient thresholding."""

import numpy as np
import pytest

from treetest import (
    WaveletTree,
    coefficient_forest,
    coefficient_pvalues,
    critical_z,
    denoise,
    descend,
    descend_threshold,
    estimate_sigma,
    haar_forward,
    haar_inverse,
    keep_mask,
    level_thresholds,
    monte_carlo_bound,
    uniform_levels,
)


class TestHaarTransform:
    def test_constant_signal(self):
        x = np.full(16, 3.0)
        tree = haar_forward(x)
        assert np.allclose(tree.coeffs[1:], 0.0, atol=1e-12)
        assert tree.scaling == pytest.approx(3.0 * np.sqrt(16))

    def test_finest_pair_difference(self):
        tree = haar_forward(np.array([1.0, -1.0, 0.0, 0.0]))
        finest = tree.detail(tree.J)
        assert finest[0] == pytest.approx(np.sqrt(2.0))
        assert finest[1] == 0.0

    def test_round_trip_random(self):
        rng = np.random.default_rng(0)
        for n in (4, 16, 256, 2**14):
            x = rng.standard_normal(n)
            assert np.abs(haar_inverse(haar_forward(x)) - x).max() <= 1e-10

    def test_energy_preserved(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal(1024) * 7.0
        tree = haar_forward(x)
        rel = abs((tree.coeffs**2).sum() - (x**2).sum()) / (x**2).sum()
        assert rel <= 1e-9

    def test_level_layout(self):
        tree = haar_forward(np.arange(16.0))
        assert tree.J == 3
        for j in range(1, 4):
            assert tree.detail(j).size == 2**j
        assert tree.detail(0).size == 1

    def test_batch_axes(self):
        rng = np.random.default_rng(2)
        X = rng.standard_normal((5, 64))
        tree = haar_forward(X)
        assert tree.coeffs.shape == (5, 64)
        assert np.abs(haar_inverse(tree) - X).max() <= 1e-10
        row = haar_forward(X[3])
        assert np.allclose(tree.coeffs[3], row.coeffs)

    def test_rejects_bad_lengths(self):
        with pytest.raises(ValueError, match="power of two"):
            haar_forward(np.ones(24))
        with pytest.raises(ValueError, match="power of two"):
            haar_forward(np.ones(2))

    def test_inverse_special_cases(self):
        zeros = WaveletTree(np.zeros(8), 2)
        assert np.allclose(haar_inverse(zeros), 0.0)
        only_scaling = np.zeros(8)
        only_scaling[0] = np.sqrt(8.0) * 2.5
        assert np.allclose(haar_inverse(WaveletTree(only_scaling, 2)), 2.5)

    def test_malformed_tree(self):
        with pytest.raises(ValueError, match="does not match"):
            WaveletTree(np.zeros(8), 3)


class TestCoefficientPvalues:
    def test_zero_coefficient(self):
        tree = haar_forward(np.zeros(16))
        p = coefficient_pvalues(tree, 1.0)
        assert np.all(p[2:] == 1.0)
        assert np.isnan(p[:2]).all()

    def test_reference_magnitude(self):
        coeffs = np.zeros(16)
        coeffs[4] = 1.959964 * 2.0
        p = coefficient_pvalues(WaveletTree(coeffs, 3), 2.0)
        assert p[4] == pytest.approx(0.05, abs=1e-6)

    def test_uniform_under_noise(self):
        rng = np.random.default_rng(3)
        tree = haar_forward(rng.standard_normal(2**14) * 0.7)
        p = np.sort(coefficient_pvalues(tree, 0.7)[2:])
        grid = np.arange(1, p.size + 1) / p.size
        ks = max(np.max(np.abs(grid - p)), np.max(np.abs(p - (grid - 1.0 / p.size))))
        assert ks <= 0.02

    def test_sigma_validated(self):
        with pytest.raises(ValueError, match="sigma"):
            coefficient_pvalues(haar_forward(np.zeros(8)), 0.0)


class TestKeepMask:
    def test_thresholds_strictly_increase(self):
        th = level_thresholds(0.05, 9, 1.0)
        assert np.all(np.diff(th) > 0)
        for j, t in enumerate(th, start=1):
            assert t == pytest.approx(critical_z(0.05 / 2**j), abs=1e-12)

    def test_single_strong_path_kept_exactly(self):
        J = 4
        coeffs = np.zeros(2 ** (J + 1))
        # one root-to-leaf path in the first coefficient tree: positions
        # (j, k=0) for j=1..J are flat indices 2**j
        path = [2**j for j in range(1, J + 1)]
        coeffs[path] = 20.0
        mask = keep_mask(WaveletTree(coeffs, J), 0.05, 1.0)
        expected = np.zeros(coeffs.size, dtype=bool)
        expected[:2] = True  # coarse block always kept
        expected[path] = True
        assert np.array_equal(mask, expected)

    def test_path_closure(self):
        rng = np.random.default_rng(4)
        tree = haar_forward(rng.standard_normal(256) * 3.0)
        mask = keep_mask(tree, 0.2, 1.0)
        for j in range(2, tree.J + 1):
            child = mask[2**j : 2 ** (j + 1)]
            parent = np.repeat(mask[2 ** (j - 1) : 2**j], 2)
            assert np.all(parent | ~child)

    def test_matches_generic_forest_descent(self):
        rng = np.random.default_rng(5)
        J, alpha, sigma = 4, 0.3, 1.0
        forest, positions = coefficient_forest(J, alpha)
        for _ in range(25):
            wt = WaveletTree(rng.standard_normal(2 ** (J + 1)) * 2.0, J)
            mask = keep_mask(wt, alpha, sigma)
            pvals = coefficient_pvalues(wt, sigma)
            for tree, pos, root_level in zip(forest.trees, positions, forest.root_levels):
                res = descend(tree, uniform_levels(tree, root_level), pvals[pos])
                from_forest = np.zeros(tree.n_vertices, dtype=bool)
                from_forest[sorted(res.rejected)] = True
                assert np.array_equal(mask[pos], from_forest)

    def test_output_energy_never_grows(self):
        rng = np.random.default_rng(6)
        x = rng.standard_normal(128) * 2.0
        out = descend_threshold(haar_forward(x), 0.1, 1.0)
        assert (out.coeffs**2).sum() <= (x**2).sum() + 1e-9

    def test_mse_identity(self):
        # reconstruction error equals the energy of the dropped coefficients
        rng = np.random.default_rng(7)
        x = rng.standard_normal(256)
        tree = haar_forward(x)
        mask = keep_mask(tree, 0.1, 1.0)
        out = haar_inverse(descend_threshold(tree, 0.1, 1.0))
        dropped = (tree.coeffs[~mask] ** 2).sum()
        assert ((out - x) ** 2).sum() == pytest.approx(dropped, rel=1e-9, abs=1e-12)

    def test_pure_noise_family_error(self):
        rng = np.random.default_rng(8)
        reps, n, alpha = 4000, 256, 0.05
        tree = haar_forward(rng.standard_normal((reps, n)))
        mask = keep_mask(tree, alpha, 1.0)
        frac = mask[:, 2:].any(axis=1).mean()
        assert frac <= monte_carlo_bound(alpha, reps)

    def test_force_levels_tests_unconditionally(self):
        J = 3
        coeffs = np.zeros(2 ** (J + 1))
        coeffs[2 ** (J + 1) - 1] = 50.0  # strong finest coefficient, dead ancestors
        wt = WaveletTree(coeffs, J)
        assert not keep_mask(wt, 0.05, 1.0)[2:].any()
        forced = keep_mask(wt, 0.05, 1.0, force_levels=J)
        assert forced[2 ** (J + 1) - 1]
        assert forced[2:].sum() == 1  # only the strong coefficient survives


class TestEstimateSigma:
    def test_gaussian_scale_recovered(self):
        rng = np.random.default_rng(9)
        hits = 0
        for _ in range(40):
            tree = haar_forward(rng.standard_normal(2**14) * 3.0)
            hits += abs(estimate_sigma(tree) - 3.0) / 3.0 <= 0.05
        assert hits >= 36  # 5% accuracy in about 95% of draws

    def test_degenerate_input_gives_zero(self):
        x = np.zeros(64)
        x[0] = 1.0  # any signal whose finest details are all equal
        tree = haar_forward(np.repeat(np.arange(8.0), 8))
        finest = tree.detail(tree.J)
        assert np.allclose(finest, finest[0])
        assert estimate_sigma(tree) == 0.0

    def test_needs_enough_coefficients(self):
        with pytest.raises(ValueError, match="at least 16"):
            estimate_sigma(haar_forward(np.zeros(16)))

    def test_quartile_constant(self):
        # the rescaling constant is the upper quartile of the standard normal
        from scipy import special

        assert -special.ndtri(0.25) == pytest.approx(0.674490, abs=5e-7)


from helpers import blocks_signal


class TestDenoise:
    def test_zero_in_zero_out(self):
        res = denoise(np.zeros(64), 0.05, 1.0)
        assert np.allclose(res.denoised, 0.0)
        assert res.kept == 0

    def test_noiseless_blocks_reconstruction(self):
        x = blocks_signal(1024)
        res = denoise(x, 0.05, 1.0)
        tree = haar_forward(x)
        dropped = (tree.coeffs[~keep_mask(tree, 0.05, 1.0)] ** 2).sum()
        assert ((res.denoised - x) ** 2).sum() == pytest.approx(dropped, rel=1e-9, abs=1e-9)
        # nearly all structure survives at this jump size
        assert ((res.denoised - x) ** 2).mean() <= 0.05 * (x**2).mean()

    def test_noisy_blocks_usually_improve(self):
        rng = np.random.default_rng(10)
        x = blocks_signal(1024)
        wins = 0
        for _ in range(50):
            noisy = x + rng.standard_normal(x.size)
            res = denoise(noisy, 0.05, 1.0)
            wins += ((res.denoised - x) ** 2).mean() < ((noisy - x) ** 2).mean()
        assert wins >= 45

    def test_sigma_estimate_mode(self):
        rng = np.random.default_rng(11)
        noisy = blocks_signal(1024) + rng.standard_normal(1024) * 2.0
        res = denoise(noisy, 0.05, "estimate")
        assert abs(res.sigma - 2.0) / 2.0 <= 0.2

    def test_estimate_on_degenerate_signal_fails(self):
        with pytest.raises(ValueError, match="zero"):
            denoise(np.repeat(np.arange(8.0), 8), 0.05, "estimate")

    def test_metadata(self):
        res = denoise(blocks_signal(256), 0.05, 1.0)
        doc = res.to_doc()
        assert doc["kept_coefficients"] == res.kept
        assert len(doc["level_thresholds"]) == 7

    def test_bad_sigma_mode(self):
        with pytest.raises(ValueError, match="estimate"):
            denoise(np.zeros(64), 0.05, "guess")

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    @pytest.mark.parametrize("sigma", [1.0, "estimate"])
    def test_non_finite_samples_rejected(self, bad, sigma):
        noisy = blocks_signal(64)
        noisy[5] = bad
        with pytest.raises(ValueError, match="finite"):
            denoise(noisy, 0.05, sigma)


class TestCoefficientForest:
    def test_structure(self):
        forest, positions = coefficient_forest(4, 0.05)
        assert len(forest.trees) == 2
        assert forest.root_levels == (0.025, 0.025)
        for tree, pos in zip(forest.trees, positions):
            assert tree.depth == 3
            assert pos.size == tree.n_vertices == 2**4 - 1
        # roots are the two level-1 coefficients
        assert positions[0][0] == 2 and positions[1][0] == 3
        # all tested coefficient slots are covered exactly once
        covered = np.sort(np.concatenate(positions))
        assert np.array_equal(covered, np.arange(2, 32))

    def test_needs_a_level(self):
        with pytest.raises(ValueError, match="J >= 1"):
            coefficient_forest(0, 0.05)
