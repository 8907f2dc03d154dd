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

Both transforms write into their outputs rather than allocating a fresh
array per level and operation, the synthesis stops its level loop below the
finest nonzero level (in ``denoise``, the walk's deepest kept level, through
which it zeroes all but the kept ids), ``keep_mask`` walks flat ids, and
``level_thresholds`` takes all levels in one quantile call; each gives the
bytes of the plain per-level computation.  Level counts (``J``, and
``j`` of ``WaveletTree.detail``) are read by ``trees._number`` as integers.

Known limitation: coefficients at low resolution levels average the signal
over long stretches and can sit near zero even when fine-scale structure is
present, stopping the descent early.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from .gaussian import _check_sigma, _pvalues_of_scores, critical_z, std_normal_quantile
from .trees import _level, _number, _numeric

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
        J = _level_index(self.J, "J")
        if c.shape[-1:] != (1 << (J + 1),):  # a 0-d array has no last axis
            raise ValueError(f"coefficient shape {c.shape} does not match J={J}")
        object.__setattr__(self, "coeffs", c)
        object.__setattr__(self, "J", J)

    @property
    def n(self) -> int:
        return int(self.coeffs.shape[-1])

    def detail(self, j: int) -> np.ndarray:
        """Detail level ``j`` (``2**j`` coefficients; j = 0..J)."""
        if not 0 <= (j := _number(j, "j", True)) <= self.J:
            raise ValueError(f"detail level must lie in 0..{self.J}")
        return self.coeffs[..., 1 << j : 1 << (j + 1)]


def _level_index(value, where: str) -> int:
    """A count of wavelet levels read by ``trees._number`` as an integer, at least 0."""
    if (value := _number(value, where, True)) < 0:
        raise ValueError(f"{where} must be >= 0")
    return value


def _check_length(n: int) -> int:
    if n < 4 or n & (n - 1):
        raise ValueError("signal length must be a power of two and at least 4")
    return n.bit_length() - 2  # J


def haar_forward(signal: np.ndarray) -> WaveletTree:
    """Orthonormal Haar analysis along the last axis.

    Pairwise ``s = (a + b)/sqrt(2)``, ``d = (a - b)/sqrt(2)``, recursing on
    the smooth part; energy is preserved and ``haar_inverse`` recovers the
    input to floating-point accuracy.  Each detail level is written straight
    into the coefficients, and the smooth part alternates between two
    scratch sections of ``n/2`` and ``n/4`` entries.
    """
    x = _numeric(signal, "signal")
    J = _check_length(n := x.shape[-1] if x.ndim else 0)
    coeffs = np.empty(x.shape)
    scratch = np.empty(x.shape[:-1] + (n // 2 + n // 4,))
    sections = scratch[..., : n // 2], scratch[..., n // 2 :]
    root2, s = np.sqrt(2.0), x
    for j in range(J, -1, -1):
        a, b = s[..., 0::2], s[..., 1::2]
        d = coeffs[..., 1 << j : 1 << (j + 1)]
        np.subtract(a, b, out=d)
        d /= root2
        s = sections[(J - j) % 2][..., : 1 << j] if j else coeffs[..., :1]
        np.add(a, b, out=s)
        s /= root2
    return WaveletTree(coeffs, J)


def haar_inverse(tree: WaveletTree) -> np.ndarray:
    """Synthesis inverse of ``haar_forward``, through the finest level
    holding a coefficient with nonzero bits (see ``_synthesize``)."""
    c, J = tree.coeffs, tree.J
    bits = c.view(np.int64)
    L = J  # the finest level holding a nonzero bit, -1 for none
    while L >= 0 and not bits[..., 1 << L : 2 << L].any():
        L -= 1
    return _synthesize(c, J, L)


def _synthesize(c: np.ndarray, J: int, L: int) -> np.ndarray:
    """Haar synthesis of ``c`` whose detail levels past ``L`` are +0.0 (a
    -0.0 is not: ``s - (-0.0)`` is not ``s - 0.0``), reading none of them.
    Each level up to ``L`` fills an ``(..., m, 2)`` block with the sums and
    differences of its ``m`` smooth and detail values, read flat as the next
    smooth part.  Below ``L`` each smooth value ``s`` becomes ``2**(J-L)``
    copies of ``s`` divided by ``sqrt(2)`` once per remaining level; the sums
    with +0.0 turn a -0.0 into +0.0 on all but the last copy of each block.
    """
    root2, s = np.sqrt(2.0), c[..., 0:1].copy()  # divided in place when L is -1
    for j in range(0, L + 1):
        d = c[..., 1 << j : 1 << (j + 1)]
        block = np.empty(c.shape[:-1] + (1 << j, 2))
        np.add(s, d, out=block[..., 0])
        np.subtract(s, d, out=block[..., 1])
        block /= root2
        s = block.reshape(c.shape[:-1] + (2 << j,))
    if L == J:
        return s
    for _ in range(J - L):
        s /= root2
    m = 1 << (J - L)
    out = np.repeat(s, m, axis=-1)
    out += 0.0
    out[..., m - 1 :: m] = s
    return out


def level_thresholds(alpha: float, J: int, sigma: float) -> np.ndarray:
    """Implied absolute thresholds per detail level ``j = 1..J``.

    With the uniform budget split the level-``j`` coefficients are tested at
    ``alpha / 2**j``, i.e. kept when ``|w| >= sigma * z_j`` with
    ``z_j = critical_z(alpha / 2**j)``; the sequence is strictly increasing
    in ``j``.  A threshold past float64 is infinite.
    """
    alpha, sigma = _level(alpha, "alpha", below_one=True), _check_sigma(sigma)
    levels = alpha / np.ldexp(1.0, np.arange(1, _level_index(J, "J") + 1))
    with np.errstate(over="ignore"):
        return sigma * critical_z(levels)


def keep_mask(tree: WaveletTree, alpha: float, sigma: float) -> np.ndarray:
    """Boolean keep mask from the tree descent over the coefficient forest.

    The two level-1 coefficients are the forest roots, each tested at
    ``alpha/2``; below them the budget halves per level, and a coefficient
    is tested only while its parent was kept.  The coarse block is always
    kept.  The mask is path-closed within each coefficient tree, and the
    walk ends at the first level that keeps nothing.
    """
    alpha, sigma = _level(alpha, "alpha", below_one=True), _check_sigma(sigma)
    n = tree.n
    c = tree.coeffs.reshape(-1)
    mask = np.zeros(c.size, dtype=bool)
    mask.reshape(-1, n)[:, :2] = True
    for f in _kept(c, n, tree.J, alpha, sigma):
        mask[f] = True
    return mask.reshape(tree.coeffs.shape)


def _kept(c: np.ndarray, n: int, J: int, alpha: float, sigma: float) -> list[np.ndarray]:
    """The flat ids ``keep_mask`` keeps in ``c``, rows of ``n`` read flat:
    one array per detail level 1, 2, ..., ending before the first level that
    keeps nothing.  Only the children of kept coefficients are tested, those
    of ``f`` being ``f + f % n`` and the one after it, so a level costs one
    gather and one comparison over the candidates."""
    kept = []
    f = (np.arange(0, c.size, n)[:, None] + (2, 3)).ravel()  # the level-1 candidates
    with np.errstate(over="ignore"):  # an infinite score has p-value 0
        for j in range(1, J + 1):
            if j > 1:
                f = ((f + f % n)[:, None] + (0, 1)).ravel()
            p = c[f] / sigma  # two_sided_pvalue in place
            _pvalues_of_scores(np.negative(np.abs(p, out=p), out=p))
            if not (f := f[p <= alpha / (1 << j)]).size:  # ties reject
                break  # nothing kept, so no deeper level is tested
            kept.append(f)
    return kept


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
        med = _even_median(finest.copy(order="K"))  # not the coefficients' own memory
        mad = _even_median(np.abs(finest - med[..., None]))
    out = mad / -std_normal_quantile(0.25)
    return float(out) if np.ndim(out) == 0 else out


def _even_median(x: np.ndarray) -> np.ndarray:
    """``np.median`` over an even-length last axis from one partition of
    ``x`` in place.  NaNs sort last, so a row holding one has a NaN
    upper-half minimum and median."""
    h = x.shape[-1] // 2
    x.partition(h, axis=-1)
    return (x[..., :h].max(axis=-1) + x[..., h:].min(axis=-1)) / 2.0


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
    c, J = tree.coeffs, tree.J  # the coefficients are this call's own
    kept = _kept(c, tree.n, J, alpha, scale)
    # nothing below the walk's deepest level is kept: L is haar_inverse's scan
    deepest = len(kept)
    L = deepest or (0 if c[1:2].view(np.int64).any() else -1)
    values = [c[f] for f in kept]
    c[2 : 2 << deepest] = 0.0  # the deeper levels are never read
    for f, v in zip(kept, values):
        c[f] = v
    try:
        with np.errstate(over="raise"):
            out = _synthesize(c, J, L)
    except FloatingPointError:
        raise ValueError("Haar synthesis of the denoised signal overflows float64") from None
    # level 1 tests its two coefficients, a deeper level two per kept parent
    return DenoiseResult(
        denoised=out,
        kept=sum(f.size for f in kept),
        thresholds=thresholds,
        sigma=scale,
        tested=2 + 2 * sum(f.size for f in kept[: J - 1]),
        deepest_level=deepest,
    )
