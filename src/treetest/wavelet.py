"""Haar wavelet analysis and descent-driven coefficient thresholding.

A signal of length ``n = 2**(J+1)`` transforms into one scaling value, one
coarsest detail, and detail levels ``j = 1..J`` holding ``2**j``
coefficients each.  Because a level-``j`` coefficient's support splits into
the supports of two level-``j+1`` coefficients, the tested coefficients form
a forest of two complete binary trees, and the tree descent procedure turns
into a keep/zero rule whose implied absolute threshold grows with the
resolution level.  On pure noise the probability of keeping any tested
coefficient is bounded by the chosen level.

The two coarse values are exempt from testing and always kept, which keeps
the transform invertible.

Known limitation: coefficients at low resolution levels average the signal
over long stretches and can sit near zero even when fine-scale structure is
present, stopping the descent early.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from .gaussian import _check_sigma, critical_z, std_normal_quantile, two_sided_pvalue
from .trees import _level, _numeric

__all__ = [
    "WaveletTree",
    "haar_forward",
    "haar_inverse",
    "level_thresholds",
    "keep_mask",
    "estimate_sigma",
    "DenoiseResult",
    "denoise",
]


@dataclass(frozen=True)
class WaveletTree:
    """Haar coefficients in flat layout along the last axis.

    Index 0 holds the scaling value, index 1 the coarsest detail, and
    ``coeffs[..., 2**j : 2**(j+1)]`` holds detail level ``j`` for
    ``j = 1..J`` in left-to-right support order.  Leading axes are batch
    dimensions.
    """

    coeffs: np.ndarray
    J: int
    sigma: Optional[float] = None

    def __post_init__(self) -> None:
        c = _numeric(self.coeffs, "coefficients")
        if c.shape[-1] != 1 << (self.J + 1):
            raise ValueError(f"coefficient length {c.shape[-1]} does not match J={self.J}")
        object.__setattr__(self, "coeffs", c)

    @property
    def n(self) -> int:
        return int(self.coeffs.shape[-1])

    def detail(self, j: int) -> np.ndarray:
        """Detail level ``j`` (``2**j`` coefficients; j = 0..J)."""
        if not 0 <= j <= self.J:
            raise ValueError(f"detail level must lie in 0..{self.J}")
        return self.coeffs[..., 1 << j : 1 << (j + 1)]


def _check_length(n: int) -> int:
    if n < 4 or n & (n - 1):
        raise ValueError("signal length must be a power of two and at least 4")
    return n.bit_length() - 2  # J


def haar_forward(signal: np.ndarray) -> WaveletTree:
    """Orthonormal Haar analysis along the last axis.

    Pairwise ``s = (a + b)/sqrt(2)``, ``d = (a - b)/sqrt(2)``, recursing on
    the smooth part; energy is preserved and ``haar_inverse`` recovers the
    input to floating-point accuracy.
    """
    x = _numeric(signal, "signal")
    J = _check_length(x.shape[-1])
    coeffs = np.empty_like(x)
    s = x
    for j in range(J, -1, -1):
        a, b = s[..., 0::2], s[..., 1::2]
        d = (a - b) / np.sqrt(2.0)
        s = (a + b) / np.sqrt(2.0)
        coeffs[..., 1 << j : 1 << (j + 1)] = d
    coeffs[..., 0] = s[..., 0]
    return WaveletTree(coeffs, J)


def haar_inverse(tree: WaveletTree) -> np.ndarray:
    """Synthesis inverse of ``haar_forward``."""
    c = tree.coeffs
    s = c[..., 0:1]
    for j in range(0, tree.J + 1):
        d = c[..., 1 << j : 1 << (j + 1)]
        out = np.empty(s.shape[:-1] + (2 * s.shape[-1],), dtype=np.float64)
        out[..., 0::2] = (s + d) / np.sqrt(2.0)
        out[..., 1::2] = (s - d) / np.sqrt(2.0)
        s = out
    return s


def level_thresholds(alpha: float, J: int, sigma: float) -> np.ndarray:
    """Implied absolute thresholds per detail level ``j = 1..J``.

    With the uniform budget split the level-``j`` coefficients are tested at
    ``alpha / 2**j``, i.e. kept when ``|w| >= sigma * z_j`` with
    ``z_j = critical_z(alpha / 2**j)``; the sequence is strictly increasing
    in ``j``.
    """
    alpha, sigma = _level(alpha, "alpha", below_one=True), _check_sigma(sigma)
    return np.array([sigma * critical_z(alpha / (1 << j)) for j in range(1, J + 1)])


def keep_mask(tree: WaveletTree, alpha: float, sigma: float) -> np.ndarray:
    """Boolean keep mask from the tree descent over the coefficient forest.

    The two level-1 coefficients are the forest roots, each tested at
    ``alpha/2``; below them the budget halves per level, and a coefficient
    is tested only while its parent was kept.  The coarse block is always
    kept.  The mask is path-closed within each coefficient tree.

    Only the children of kept coefficients are tested: the candidates at
    level ``j + 1`` are the coefficients ``2k`` and ``2k + 1`` below each
    kept level-``j`` coefficient ``k``, so a level costs one gather and one
    comparison over the candidates instead of over the whole level.
    """
    alpha, sigma = _level(alpha, "alpha", below_one=True), _check_sigma(sigma)
    c = tree.coeffs.reshape(-1, tree.n)  # one row per batch entry
    mask = np.zeros(c.shape, dtype=bool)
    mask[:, :2] = True
    rows = np.repeat(np.arange(c.shape[0]), 2)  # the level-1 candidates
    ks = np.tile(np.arange(2), c.shape[0])
    with np.errstate(over="ignore"):  # an infinite score has p-value 0
        for j in range(1, tree.J + 1):
            cols = (1 << j) + ks
            p = two_sided_pvalue(c[rows, cols] / sigma)
            small = p <= alpha / (1 << j)  # closed comparison, ties reject
            rows, ks = rows[small], ks[small]
            mask[rows, cols[small]] = True
            rows = np.repeat(rows, 2)
            ks = (2 * ks[:, None] + (0, 1)).ravel()
    return mask.reshape(tree.coeffs.shape)


def estimate_sigma(tree: WaveletTree) -> float:
    """Noise scale from the finest detail level via the median absolute
    deviation about the median, rescaled by the Gaussian quartile 0.6745.

    Requires at least 16 finest-level coefficients.  Degenerate inputs
    (all finest coefficients equal) give 0, and coefficients whose spread
    overflows float64 give inf; downstream thresholding rejects both.
    """
    finest = tree.detail(tree.J)
    if finest.shape[-1] < 16:
        raise ValueError("need at least 16 finest-level coefficients")
    with np.errstate(over="ignore"):
        med = _even_median(finest)
        mad = _even_median(np.abs(finest - med[..., None]))
    out = mad / -std_normal_quantile(0.25)
    return float(out) if np.ndim(out) == 0 else out


def _even_median(x: np.ndarray) -> np.ndarray:
    """``np.median`` over an even-length last axis from one partition.  NaNs
    sort last, so a row holding one has a NaN upper-half minimum and median."""
    h = x.shape[-1] // 2
    p = np.partition(x, h, axis=-1)
    return (p[..., :h].max(axis=-1) + p[..., h:].min(axis=-1)) / 2.0


@dataclass(frozen=True)
class DenoiseResult:
    """Denoised signal plus the thresholding metadata.

    ``tested`` counts the coefficients the descent tested, and
    ``deepest_level`` is the finest detail level holding a kept coefficient
    (0 when only the untested coarse block survives).
    """

    denoised: np.ndarray
    kept: int
    thresholds: np.ndarray
    sigma: float
    tested: int = 0
    deepest_level: int = 0

    def to_doc(self) -> dict:
        return {
            "kept_coefficients": self.kept,
            "sigma": self.sigma,
            "level_thresholds": [float(t) for t in self.thresholds],
            "tested_coefficients": self.tested,
            "deepest_level": self.deepest_level,
        }


def denoise(
    signal: np.ndarray,
    alpha: float,
    sigma: Union[str, float] = "estimate",
) -> DenoiseResult:
    """Denoise a signal by descent-driven Haar coefficient thresholding.

    ``sigma`` is either the known noise scale or ``"estimate"`` to read it
    off the finest detail level.  Returns the reconstruction together with
    the kept-coefficient count and the per-level thresholds.  A finite
    signal whose Haar sums, noise estimate, thresholds or synthesis pass
    float64 raises ``ValueError`` naming the overflow.
    """
    alpha = _level(alpha, "alpha", below_one=True)  # refused before the noise estimate
    samples = _numeric(signal, "signal")
    with np.errstate(over="ignore", invalid="ignore"):
        tree = haar_forward(samples)
    # a non-finite sample makes its finest-level coefficient non-finite, so
    # one pass over the coefficients checks the samples and their sums
    if not np.isfinite(tree.coeffs).all():
        if not np.isfinite(samples).all():
            raise ValueError("signal samples must be finite")
        raise ValueError("Haar sums of the signal overflow float64")
    if tree.coeffs.ndim != 1:
        raise ValueError("denoise expects a single 1-D signal")
    if not isinstance(sigma, str):
        scale = _check_sigma(sigma)
    elif sigma != "estimate":
        raise ValueError("sigma must be a positive number or 'estimate'")
    elif not 0.0 < (scale := estimate_sigma(tree)) < np.inf:
        raise ValueError(f"estimated noise scale is {'zero' if scale == 0 else 'not finite'}; "
                         "cannot threshold")
    thresholds = level_thresholds(alpha, tree.J, scale)
    if not np.isfinite(thresholds[-1]):  # the largest
        raise ValueError(f"level thresholds at sigma={scale!r} overflow float64")
    mask = keep_mask(tree, alpha, scale)
    kept = int(mask[2:].sum())
    try:
        with np.errstate(over="raise"):
            out = haar_inverse(WaveletTree(np.where(mask, tree.coeffs, 0.0), tree.J, scale))
    except FloatingPointError:
        raise ValueError("Haar synthesis of the denoised signal overflows float64") from None
    # level 1 tests both its coefficients; each deeper level tests the two
    # children of every coefficient kept one level up
    tested = 2 + 2 * int(mask[2 : tree.n // 2].sum())
    last_kept = int(np.flatnonzero(mask)[-1])
    return DenoiseResult(
        denoised=out,
        kept=kept,
        thresholds=thresholds,
        sigma=scale,
        tested=tested,
        deepest_level=last_kept.bit_length() - 1,
    )
