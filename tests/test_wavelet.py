"""Haar transform and descent-driven coefficient thresholding."""

import itertools
import re
import tracemalloc

import numpy as np
import pytest
from scipy import special

from treetest import (
    WaveletTree,
    critical_z,
    denoise,
    descend,
    estimate_sigma,
    haar_forward,
    haar_inverse,
    keep_mask,
    level_thresholds,
    monte_carlo_bound,
    two_sided_pvalue,
    uniform_levels,
)

from helpers import (
    blocks_signal,
    coefficient_forest,
    reference_denoise,
    reference_estimate_sigma,
    reference_haar_forward,
    reference_haar_inverse,
    reference_keep_mask,
    reference_keep_walk,
    reference_level_thresholds,
)


class TestHaarTransform:
    def test_constant_signal(self):
        x = np.full(16, 3.0)
        tree = haar_forward(x)
        assert np.allclose(tree.coeffs[1:], 0.0, atol=1e-12)
        assert tree.coeffs[0] == pytest.approx(3.0 * np.sqrt(16))

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
        with pytest.raises(ValueError, match=r"^detail level must lie in 0\.\.3$"):
            tree.detail(tree.J + 1)

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
        with pytest.raises(ValueError, match="^signal length must be a power of two and at least 4$"):
            haar_forward(2.0)  # a 0-d array has no last axis to read

    def test_inverse_special_cases(self):
        zeros = WaveletTree(np.zeros(8), 2)
        assert np.allclose(haar_inverse(zeros), 0.0)
        only_scaling = np.zeros(8)
        only_scaling[0] = np.sqrt(8.0) * 2.5
        assert np.allclose(haar_inverse(WaveletTree(only_scaling, 2)), 2.5)

    def test_malformed_tree(self):
        with pytest.raises(ValueError, match="does not match"):
            WaveletTree(np.zeros(8), 3)
        with pytest.raises(ValueError, match=r"^coefficient shape \(\) does not match J=1$"):
            WaveletTree(2.0, 1)


class TestLevelIndexes:
    """``level_thresholds``'s ``J``, ``WaveletTree``'s ``J`` and ``detail``'s
    ``j`` follow the number rule: 2.5 once ended in a bare TypeError from
    ``range`` or ``<<``, True read as level 1 and J = -1 gave no thresholds."""

    READERS = {
        "level_thresholds": (lambda x: level_thresholds(0.05, x, 1.0), "J"),
        "WaveletTree": (lambda x: WaveletTree(np.zeros(8), x), "J"),
        "detail": (lambda x: WaveletTree(np.zeros(8), 2).detail(x), "j"),
    }

    @pytest.mark.parametrize("given", [2.5, True, np.bool_(True), "2", None], ids=repr)
    @pytest.mark.parametrize("reader", READERS)
    def test_no_integer_refused(self, reader, given):
        read, name = self.READERS[reader]
        kind = "an integer" if given == 2.5 else "a number"
        with pytest.raises(TypeError, match=f"^{name}: expected {kind}, got {re.escape(repr(given))}$"):
            read(given)

    @pytest.mark.parametrize("reader", READERS)
    def test_negative_refused(self, reader):
        read, name = self.READERS[reader]
        match = "^J must be >= 0, got -1$" if name == "J" else r"^detail level must lie in 0\.\.2$"
        with pytest.raises(ValueError, match=match):
            read(-1)

    def test_integral_values_read_as_integers(self):
        tree = WaveletTree(np.zeros(8), 2.0)
        assert type(tree.J) is int and tree.J == 2
        assert np.shares_memory(tree.detail(np.int64(1)), tree.coeffs[2:4])
        assert tree.detail(1.0).shape == (2,)
        assert level_thresholds(0.05, 3.0, 1.0).tobytes() == level_thresholds(0.05, 3, 1.0).tobytes()
        assert level_thresholds(0.05, 0, 1.0).shape == (0,)


class TestCriticalZArray:
    def test_matches_the_scalar_call(self):
        levels = np.array([[0.5, 0.05], [1e-300, 0.999999]])
        got = critical_z(levels)
        assert got.shape == levels.shape
        want = np.array([critical_z(float(x)) for x in levels.ravel()]).reshape(levels.shape)
        assert got.tobytes() == want.tobytes()
        assert type(critical_z(np.float64(0.05))) is float
        assert critical_z(np.array(0.05)) == critical_z(0.05)

    @pytest.mark.parametrize("bad", [0.0, 1.0, -0.1, np.nan, np.inf])
    def test_each_level_checked(self, bad):
        with pytest.raises(ValueError, match=r"^levels must lie in \(0, 1\)$"):
            critical_z(np.array([0.05, bad]))

    def test_non_numbers_refused(self):
        with pytest.raises(ValueError, match="^levels must be real numbers, not booleans$"):
            critical_z(np.array([True, False]))


class TestCoefficientPvalues:
    """The coefficient tests of ``keep_mask``: a coefficient ``w`` is kept
    at level ``a`` when ``two_sided_pvalue(w / sigma) <= a``."""

    def test_zero_coefficient(self):
        # p = 1 everywhere, so nothing below the untested coarse block is kept
        mask = keep_mask(haar_forward(np.zeros(16)), 0.999, 1.0)
        assert mask.tolist() == [True, True] + [False] * 14

    def test_reference_magnitude(self):
        # level 2 is tested at alpha / 4, so |w| / sigma = 1.959964 keeps a
        # coefficient exactly when alpha / 4 clears p = 0.05
        coeffs = np.zeros(16)
        coeffs[[2, 4]] = [100.0, 1.959964 * 2.0]
        assert keep_mask(WaveletTree(coeffs, 3), 0.2 + 1e-5, 2.0)[4]
        assert not keep_mask(WaveletTree(coeffs, 3), 0.2 - 1e-5, 2.0)[4]

    def test_uniform_under_noise(self):
        rng = np.random.default_rng(3)
        tree = haar_forward(rng.standard_normal(2**14) * 0.7)
        p = np.sort(two_sided_pvalue(tree.coeffs[2:] / 0.7))
        grid = np.arange(1, p.size + 1) / p.size
        ks = max(np.max(np.abs(grid - p)), np.max(np.abs(p - (grid - 1.0 / p.size))))
        assert ks <= 0.02

    def test_sigma_validated(self):
        with pytest.raises(ValueError, match="sigma"):
            keep_mask(haar_forward(np.zeros(8)), 0.05, 0.0)

    @pytest.mark.parametrize("sigma", [np.inf, np.nan])
    def test_sigma_must_be_finite(self, sigma):
        # an infinite scale keeps nothing and writes Infinity thresholds
        wt = haar_forward(blocks_signal(64))
        for call in (
            lambda: level_thresholds(0.05, wt.J, sigma),
            lambda: keep_mask(wt, 0.05, sigma),
            lambda: denoise(blocks_signal(64), 0.05, sigma),
        ):
            with pytest.raises(ValueError, match="sigma must be positive and finite"):
                call()


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
        (trees, root_levels), positions = coefficient_forest(J, alpha)
        for _ in range(25):
            wt = WaveletTree(rng.standard_normal(2 ** (J + 1)) * 2.0, J)
            mask = keep_mask(wt, alpha, sigma)
            pvals = two_sided_pvalue(wt.coeffs / sigma)
            for tree, pos, root_level in zip(trees, positions, root_levels):
                res = descend(tree, uniform_levels(tree, root_level), pvals[pos])
                from_forest = np.zeros(tree.n_vertices, dtype=bool)
                from_forest[sorted(res.rejected)] = True
                assert np.array_equal(mask[pos], from_forest)

    def test_output_energy_never_grows(self):
        rng = np.random.default_rng(6)
        x = rng.standard_normal(128) * 2.0
        tree = haar_forward(x)
        kept = np.where(keep_mask(tree, 0.1, 1.0), tree.coeffs, 0.0)
        assert (kept**2).sum() <= (x**2).sum() + 1e-9

    def test_mse_identity(self):
        # reconstruction error equals the energy of the dropped coefficients
        rng = np.random.default_rng(7)
        x = rng.standard_normal(256)
        tree = haar_forward(x)
        mask = keep_mask(tree, 0.1, 1.0)
        out = haar_inverse(WaveletTree(np.where(mask, tree.coeffs, 0.0), tree.J))
        dropped = (tree.coeffs[~mask] ** 2).sum()
        assert ((out - x) ** 2).sum() == pytest.approx(dropped, rel=1e-9, abs=1e-12)

    def test_pure_noise_family_error(self):
        rng = np.random.default_rng(8)
        reps, n, alpha = 4000, 256, 0.05
        tree = haar_forward(rng.standard_normal((reps, n)))
        mask = keep_mask(tree, alpha, 1.0)
        frac = mask[:, 2:].any(axis=1).mean()
        assert frac <= monte_carlo_bound(alpha, reps)

    def test_pure_noise_family_error_is_exact(self):
        # two-sided: a coefficient is kept only below a kept level-1 root,
        # and the two roots are independent tests at alpha / 2
        rng = np.random.default_rng(6)
        alpha, n, chunk, reps = 0.05, 256, 25_000, 200_000
        kept = 0
        for _ in range(reps // chunk):  # in chunks, to bound memory
            mask = keep_mask(haar_forward(rng.standard_normal((chunk, n))), alpha, 1.0)
            kept += np.count_nonzero(mask[:, 2:].any(axis=1))
        exact = 1 - (1 - alpha / 2) ** 2
        assert abs(kept / reps - exact) <= 4 * np.sqrt(exact * (1 - exact) / reps)


def deep_coefficients(rng, shape, J):
    """Coefficients with most entries far above every level's threshold, so
    that the descent reaches the finest level along many paths."""
    c = rng.standard_normal(shape + (2 ** (J + 1),))
    c[rng.random(c.shape) < 0.75] *= 20.0
    return c


class TestKeepMaskMatchesDenseReference:
    @pytest.mark.parametrize("seed", [0, 1, 3])
    def test_random_signals(self, seed):
        rng = np.random.default_rng(30 + seed)
        for J in (1, 2, 5, 9):
            for _ in range(10):
                c = deep_coefficients(rng, (), J)
                alpha, sigma = rng.uniform(0.01, 0.5), rng.uniform(0.5, 2.0)
                got = keep_mask(WaveletTree(c, J), alpha, sigma)
                assert np.array_equal(got, reference_keep_mask(c, alpha, sigma))

    def test_noise_and_blocks(self):
        rng = np.random.default_rng(34)
        for x in (rng.standard_normal(4096), blocks_signal(1024) + rng.standard_normal(1024)):
            tree = haar_forward(x)
            assert np.array_equal(keep_mask(tree, 0.05, 1.0), reference_keep_mask(tree.coeffs, 0.05, 1.0))

    @pytest.mark.parametrize("seed", [0, 1, 3])
    def test_batch_input(self, seed):
        rng = np.random.default_rng(35 + seed)
        J = 6
        c = deep_coefficients(rng, (3, 4), J)
        got = keep_mask(WaveletTree(c, J), 0.05, 1.0)
        assert got.shape == c.shape
        assert np.array_equal(got, reference_keep_mask(c, 0.05, 1.0))
        for i in range(3):
            for k in range(4):
                row = keep_mask(WaveletTree(c[i, k], J), 0.05, 1.0)
                assert np.array_equal(got[i, k], row)

    def test_coefficients_exactly_on_the_threshold(self):
        # alpha is chosen so that alpha / 2**3 equals the p-value of x0
        # exactly; the closed comparison keeps such coefficients
        J, j, sigma, x0 = 5, 3, 1.3, 3.5
        p0 = 2.0 * special.ndtr(-abs(x0) / sigma)
        alpha = p0 * (1 << j)
        assert alpha / (1 << j) == p0 and 0.0 < alpha < 1.0
        c = np.full(2 ** (J + 1), 1e3)
        level = np.array([x0, -x0, np.nextafter(x0, np.inf), np.nextafter(x0, 0.0), x0, 1.5 * x0, 0.5 * x0, -x0])
        c[1 << j : 1 << (j + 1)] = level
        mask = keep_mask(WaveletTree(c, J), alpha, sigma)
        assert np.array_equal(mask, reference_keep_mask(c, alpha, sigma))
        on_cut = (1 << j) + np.flatnonzero(np.abs(level) == x0)
        assert mask[on_cut].all()
        # the children of a tie-kept coefficient are tested and kept
        assert mask[2 * on_cut].all() and mask[2 * on_cut + 1].all()
        assert not mask[(1 << j) + 6]


class TestBytesMatchFreshArrayReferences:
    """The transforms write into their outputs, the keep walk tracks flat
    ids and the thresholds take one quantile call; each gives the bytes of
    a plain reference that allocates every intermediate, overflowing sums'
    inf and NaN included."""

    LENGTHS = [1 << k for k in range(2, 17)]  # 4 to 65,536

    @pytest.mark.parametrize("lead", [(), (3,), (2, 5)], ids=repr)
    @pytest.mark.parametrize("scale", [1e-300, 1.0, 1e150, 1e308])
    def test_transforms(self, lead, scale):
        rng = np.random.default_rng(50)
        for n in self.LENGTHS:
            x = rng.uniform(-1.75, 1.75, lead + (n,)) * scale
            with np.errstate(over="ignore", invalid="ignore"):
                want = reference_haar_forward(x)
                got = haar_forward(x)
                assert got.coeffs.tobytes() == want.tobytes()
                assert haar_inverse(got).tobytes() == reference_haar_inverse(want).tobytes()
        if scale == 1e308:  # the sums overflow: the bytes compared hold inf and NaN
            assert np.isinf(want).any() and np.isnan(want).any()

    @pytest.mark.parametrize("lead", [(), (3,), (2, 5)], ids=repr)
    def test_keep_mask_with_planted_blocks(self, lead):
        rng = np.random.default_rng(51)
        for n in (4, 64, 1024, 1 << 14):
            x = rng.standard_normal(lead + (n,))
            for k, row in enumerate(x.reshape(-1, n)):  # a different block in every row
                lo = (k * n) // 7
                row[lo : lo + n // 5] += 4.0 + k
            coeffs = haar_forward(x).coeffs
            for alpha, sigma in ((0.05, 1.0), (0.5, 0.3), (1e-6, 2.0)):
                got = keep_mask(WaveletTree(coeffs, n.bit_length() - 2), alpha, sigma)
                assert got.tobytes() == reference_keep_walk(coeffs, alpha, sigma).tobytes()

    def test_thresholds(self):
        for J in range(0, 41):
            for alpha, sigma in ((0.05, 1.0), (0.9, 1e-300), (1e-8, 3.7), (0.3, 1e308)):
                with np.errstate(over="ignore"):
                    got = level_thresholds(alpha, J, sigma)
                want = reference_level_thresholds(alpha, J, sigma)
                assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
        assert np.isinf(level_thresholds(0.3, 40, 1e308)[-1])  # past float64, not refused

    @pytest.mark.parametrize("lead", [(), (3,), (2, 5)], ids=repr)
    def test_inverse_below_the_finest_nonzero_level(self, lead):
        """Synthesis stops densely at the finest level ``L`` holding a nonzero
        bit; the zero tail must give the reference's bytes, signed zeros
        included, for every ``L`` (-1: only the scaling value), a scaling
        value of +0.0 or -0.0, and zero details of +0.0 or -0.0 (a -0.0
        detail is not +0.0: ``s - (-0.0)`` turns a -0.0 smooth value into +0.0)."""
        rng = np.random.default_rng(54)
        for n in self.LENGTHS:
            J = n.bit_length() - 2
            # mostly signed zeros, so the coarse levels' smooth parts hold both
            base = rng.choice([0.0, -0.0, 0.0, -0.0, 1.0], size=lead + (n,)) * rng.standard_normal(n)
            for L in range(-1, J + 1):
                for smooth, zero in itertools.product((0.0, -0.0), (0.0, -0.0)):
                    c = base.copy()
                    c[..., 0] = smooth
                    c[..., 2 << L if L >= 0 else 1 :] = zero
                    if L >= 0:  # a nonzero value or a -0.0 ends level L
                        c[..., (2 << L) - 1] = (0.75, -0.0)[L % 2]
                    before = c.tobytes()
                    got = haar_inverse(WaveletTree(c, J))
                    assert got.shape == c.shape
                    assert got.tobytes() == reference_haar_inverse(c).tobytes(), (n, L, smooth, zero)
                    assert c.tobytes() == before


class TestAllocationBound:
    """Peak traced allocation at n = 65,536, in signal-sized float64 arrays.
    Fresh arrays at every level once took ``haar_forward`` to 2.5 of them and
    ``denoise`` to 4.1."""

    n = 1 << 16

    def peak(self, call) -> float:
        call()  # loads scipy and warms every cache before the count
        tracemalloc.start()
        try:
            call()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return peak / (8 * self.n)

    def test_haar_forward(self):
        x = np.random.default_rng(52).standard_normal(self.n)
        assert self.peak(lambda: haar_forward(x)) <= 2.0

    def test_denoise(self):
        x = blocks_signal(self.n) + np.random.default_rng(53).standard_normal(self.n)
        assert self.peak(lambda: denoise(x, 0.05)) <= 3.0


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

    @staticmethod
    def same(got, want) -> bool:
        return np.array_equal(np.asarray(got), np.asarray(want), equal_nan=True) and type(got) is type(want)

    @staticmethod
    def finest_draws(rng, shape):
        """Gaussian, heavy-tailed, tied and signed-zero coefficient draws."""
        yield rng.standard_normal(shape) * rng.uniform(0.1, 10.0)
        yield rng.standard_cauchy(shape)
        yield np.round(rng.standard_normal(shape) * 2.0)
        yield rng.choice([-0.0, 0.0, 1.0, -1.0], size=shape)

    def test_matches_two_median_reference_1d(self):
        rng = np.random.default_rng(21)
        for J in range(4, 17):  # 16 to 2**16 finest coefficients
            for c in self.finest_draws(rng, 2 << J):
                tree = WaveletTree(c, J)
                assert self.same(estimate_sigma(tree), reference_estimate_sigma(tree))

    @pytest.mark.parametrize("shape", [(5, 32), (3, 1024), (2, 3, 128), (1, 64), (300, 8192)])
    def test_matches_two_median_reference_batched(self, shape):
        rng = np.random.default_rng(22)
        J = shape[-1].bit_length() - 2
        for c in self.finest_draws(rng, shape):
            tree = WaveletTree(c, J)
            got = estimate_sigma(tree)
            assert got.shape == shape[:-1]
            assert self.same(got, reference_estimate_sigma(tree))

    @pytest.mark.parametrize("where", [0, 5, 31])
    def test_nan_row_gives_nan(self, where):
        rng = np.random.default_rng(23)
        c = rng.standard_normal((4, 64))
        c[2, 32 + where] = np.nan
        tree = WaveletTree(c, 5)
        got = estimate_sigma(tree)
        assert np.isnan(got[2]) and not np.isnan(got[[0, 1, 3]]).any()
        assert self.same(got, reference_estimate_sigma(tree))
        assert np.isnan(estimate_sigma(WaveletTree(c[2], 5)))

    def test_all_equal_row_gives_zero(self):
        c = np.random.default_rng(24).standard_normal((3, 64))
        c[1, 32:] = 2.5
        got = estimate_sigma(WaveletTree(c, 5))
        assert got[1] == 0.0 and (got[[0, 2]] > 0.0).all()
        assert estimate_sigma(WaveletTree(c[1], 5)) == 0.0

    def test_quartile_constant(self):
        # the rescaling constant is the upper quartile of the standard normal
        from scipy import special

        assert -special.ndtri(0.25) == pytest.approx(0.674490, abs=5e-7)


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

    def test_tested_and_deepest_level(self):
        rng = np.random.default_rng(36)
        for x in (blocks_signal(1024) + rng.standard_normal(1024), rng.standard_normal(256)):
            n = x.size
            res = denoise(x, 0.05, 1.0)
            mask = keep_mask(haar_forward(x), 0.05, 1.0)
            assert res.tested == 2 + 2 * mask[2 : n // 2].sum()
            kept_levels = [j for j in range(1, n.bit_length() - 1) if mask[2**j : 2 ** (j + 1)].any()]
            assert res.deepest_level == max(kept_levels, default=0)
            doc = res.to_doc()
            assert (doc["tested_coefficients"], doc["deepest_level"]) == (res.tested, res.deepest_level)

    def test_tested_matches_dense_reference(self):
        # level 1 tests both coefficients; level j > 1 tests the two children
        # of every level-(j-1) coefficient the dense reference keeps
        rng = np.random.default_rng(37)
        for x in (
            blocks_signal(1024) + rng.standard_normal(1024),
            blocks_signal(256) * 20.0 + rng.standard_normal(256),
            rng.standard_normal(64),
            np.zeros(16),
        ):
            tree = haar_forward(x)
            mask = reference_keep_mask(tree.coeffs, 0.05, 1.0)
            want = 2 + sum(2 * int(mask[2 ** (j - 1) : 2**j].sum()) for j in range(2, tree.J + 1))
            assert denoise(x, 0.05, 1.0).tested == want

    def test_nothing_kept(self):
        res = denoise(np.zeros(64), 0.05, 1.0)
        assert (res.tested, res.deepest_level) == (2, 0)

    def test_bad_sigma_mode(self):
        with pytest.raises(ValueError, match="estimate"):
            denoise(np.zeros(64), 0.05, "guess")

    def test_batch_of_signals_refused(self):
        # haar_forward takes a batch; denoise returns one signal
        with pytest.raises(ValueError, match="^denoise expects a single 1-D signal$"):
            denoise(np.zeros((2, 64)), 0.05, 1.0)
        with pytest.raises(ValueError, match="^signal length must be a power of two and at least 4$"):
            denoise(2.0, 0.05)

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    @pytest.mark.parametrize("sigma", [1.0, "estimate"])
    def test_non_finite_samples_rejected(self, bad, sigma):
        noisy = blocks_signal(64)
        noisy[5] = bad
        with pytest.raises(ValueError, match="finite"):
            denoise(noisy, 0.05, sigma)


class TestDenoiseMatchesDenseReference:
    """``denoise`` zeroes and synthesizes only through the walk's deepest
    kept level and counts from the kept ids; the dense reference zeroes
    every coefficient not kept and synthesizes every level."""

    LENGTHS = [1 << k for k in range(2, 17)]

    @staticmethod
    def same(x, deepest=None):
        got, (want, kept, tested, level) = denoise(x, 0.05, 1.0), reference_denoise(x, 0.05, 1.0)
        assert got.denoised.tobytes() == want.tobytes()
        assert (got.kept, got.tested, got.deepest_level) == (kept, tested, level)
        assert deepest is None or level == deepest

    @staticmethod
    def planted(rng, n, deepest):
        """A signal whose coefficients are small noise but for one path of
        large ones from level 1 down to ``deepest``."""
        J = n.bit_length() - 2
        c = 0.1 * rng.standard_normal(n)
        leaf = int(rng.integers(1 << J))
        for j in range(1, deepest + 1):
            c[(1 << j) + (leaf >> (J - j))] = 50.0 * rng.choice((-1.0, 1.0))
        return reference_haar_inverse(c)

    def test_nothing_kept(self):
        for n in self.LENGTHS:
            self.same(np.zeros(n), 0)  # nothing to synthesize but the scaling value
            # a step at the midpoint: only the coarsest detail, never tested, is nonzero
            self.same(np.repeat([3.0, -3.0], n // 2), 0)

    def test_deepest_kept_level(self):
        rng = np.random.default_rng(55)
        for n in self.LENGTHS:
            J = n.bit_length() - 2
            for deepest in sorted({1, J - 1, J} - {0}):
                self.same(self.planted(rng, n, deepest), deepest)

    def test_noisy_blocks(self):
        rng = np.random.default_rng(56)
        for n in self.LENGTHS[2:]:
            self.same(blocks_signal(n) * 3.0 + rng.standard_normal(n))


@pytest.mark.filterwarnings("error")
class TestDenoiseOverflow:
    """Finite signals whose Haar sums, noise estimate, thresholds or
    synthesis pass float64: refused with one reason, never a NaN and never
    a warning."""

    @pytest.mark.parametrize("sigma", [1.0, "estimate"])
    def test_overflowing_haar_sums_refused(self, sigma):
        with pytest.raises(ValueError, match="^Haar sums of the signal overflow float64$"):
            denoise(np.full(64, 1e308), 0.05, sigma)

    def test_overflowing_noise_estimate_refused(self):
        # finest coefficients +-1.2e308, most of them positive: their median
        # and their spread about it pass float64, while every sum is zero
        a = 0.85e308
        signal = np.array([(a, -a)] * 20 + [(-a, a)] * 12).ravel()
        with pytest.raises(ValueError, match="^estimated noise scale is not finite; cannot threshold$"):
            denoise(signal, 0.05, "estimate")

    def test_overflowing_thresholds_refused(self):
        with pytest.raises(ValueError, match="^level thresholds at sigma=1e\\+308 overflow float64$"):
            denoise(blocks_signal(64), 0.05, 1e308)

    def test_overflowing_synthesis_refused(self):
        # the Haar pair (s + d) / sqrt(2) of a 1.5e308 sample sums past float64
        signal = np.zeros(64)
        signal[0] = 1.5e308
        with pytest.raises(ValueError, match="^Haar synthesis of the denoised signal overflows float64$"):
            denoise(signal, 0.05, 1.0)

    def test_score_past_float64_kept(self):
        # |w| / sigma is +inf: p-value 0, so every coefficient is kept
        signal = blocks_signal(64) + np.random.default_rng(3).standard_normal(64)
        assert denoise(signal, 0.05, 1e-310).kept == 62

    def test_bad_alpha_refused_before_the_noise_estimate(self):
        with pytest.raises(ValueError, match="^alpha must lie in"):
            denoise(np.zeros(64), 2.0, "estimate")  # the estimate alone would refuse: zero


class TestCoefficientForest:
    def test_structure(self):
        (trees, root_levels), positions = coefficient_forest(4, 0.05)
        assert len(trees) == 2
        assert root_levels == (0.025, 0.025)
        for tree, pos in zip(trees, positions):
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
