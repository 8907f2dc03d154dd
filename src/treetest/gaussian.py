"""Gaussian test kernels: normal CDF, quantile, two-sided z-test p-values.

Every p-value in this package is the two-sided p-value of a z-score from a
Gaussian mean test with known noise scale, so under a true null the
p-values are exactly uniform and the familywise-error simulations are
sharp.  The CDF and quantile are contract-accurate wrappers (absolute CDF
error below 1e-12, quantile round-trip below 1e-8 on |x| <= 6); the test
suite checks them against an independent high-precision series.

Scores and cuts: a p-value rule ``two_sided_pvalue(z) <= t`` can be decided
on the score ``-|z|`` instead, as ``-|z| <= c`` for the cut ``c`` of ``t``,
the largest float64 with ``2*ndtr(c) <= t``.  That is exact only where
float64 ``ndtr`` steps cleanly across ``c``, so ``_score_cuts`` checks each
cut over +-16 ulps around it and gives NaN where the check fails.

scipy loads at the first kernel call, not at import, so ``import treetest``
and the commands that compute no p-value start without it.
"""

from __future__ import annotations

import functools

import numpy as np

from .trees import _level, _number, _numeric

__all__ = [
    "std_normal_cdf",
    "std_normal_quantile",
    "critical_z",
    "two_sided_pvalue",
]


def _check_sigma(sigma: float) -> float:
    """A known noise scale, read by ``trees._number``: positive and finite."""
    if not 0.0 < (sigma := _number(sigma, "sigma")) < np.inf:
        raise ValueError("sigma must be positive and finite")
    return sigma


@functools.cache
def _special():
    """``scipy.special``, imported at the first call.  Kernels look ``ndtr``
    and ``ndtri`` up on it each time they run, never binding them once."""
    from scipy import special

    return special


def std_normal_cdf(x):
    """Standard normal CDF, elementwise on arrays."""
    x = _numeric(x, "input")
    if not np.all(np.isfinite(x)):
        raise ValueError("input must be finite")
    out = _special().ndtr(x)
    return float(out) if out.ndim == 0 else out


def std_normal_quantile(p):
    """Inverse standard normal CDF on the open interval (0, 1)."""
    p = _numeric(p, "probabilities")
    if not np.all((p > 0.0) & (p < 1.0)):
        raise ValueError("probabilities must lie strictly inside (0, 1)")
    out = _special().ndtri(p)
    return float(out) if out.ndim == 0 else out


def two_sided_pvalue(z):
    """P(|Z| >= |z|) for standard normal Z, computed via the far tail."""
    z = _numeric(z, "z-scores")
    out = 2.0 * _special().ndtr(-np.abs(z))
    return float(out) if out.ndim == 0 else out


def _pvalues_of_scores(s: np.ndarray) -> None:
    """``2*ndtr(s)`` written over the scores ``s = -|z|``, allocating nothing:
    ``two_sided_pvalue`` for a block that is already scores."""
    _special().ndtr(s, out=s)
    s *= 2.0


def critical_z(level):
    """Two-sided z-score threshold: ``|z| >= critical_z(level)`` matches
    ``two_sided_pvalue(z) <= level``.  Strictly decreasing in ``level``.

    ``level`` is one number, read by ``trees._level``, or a numpy array of
    levels; every level must lie in (0, 1)."""
    if isinstance(level, np.ndarray):
        level = _numeric(level, "levels")
        if not np.all((level > 0.0) & (level < 1.0)):
            raise ValueError("levels must lie in (0, 1)")
    else:
        level = _level(level, "level", below_one=True)
    out = -_special().ndtri(level / 2.0)
    return float(out) if np.ndim(out) == 0 else out


# Each cut is checked to be a clean step of the p-value predicate over this
# many float64 steps on either side; the search for it spans _CUT_REACH
# steps on either side of ``ndtri(level / 2)``.
_CUT_WINDOW = 16
_CUT_REACH = 32


def _score_cuts(levels: np.ndarray) -> np.ndarray:
    """Score cut of each level: ``two_sided_pvalue(x) <= level`` iff ``x <= cut``.

    The cut is the largest float64 ``x`` with ``2*ndtr(x) <= level``, found
    among the floats within ``_CUT_REACH`` steps of ``ndtri(level / 2)``.
    Float64 ``ndtr`` is not monotone everywhere, so a cut is kept only where
    the predicate is a clean step on the whole searched grid (true up to
    the cut, false after it) with at least ``_CUT_WINDOW`` floats on either
    side of it; every other level, and any level whose ``ndtri(level / 2)``
    is not finite, gets NaN.
    """
    levels = np.asarray(levels, dtype=np.float64).ravel()
    unique, inverse = np.unique(levels, return_inverse=True)
    cuts = np.empty(unique.size)
    reach = _CUT_REACH + _CUT_WINDOW
    chunk = 4096  # levels per search grid
    for lo in range(0, unique.size, chunk):
        level = unique[lo : lo + chunk]
        grid = np.empty((level.size, 2 * reach + 1))
        grid[:, reach] = _special().ndtri(level / 2.0)
        for k in range(1, reach + 1):
            grid[:, reach + k] = np.nextafter(grid[:, reach + k - 1], np.inf)
            grid[:, reach - k] = np.nextafter(grid[:, reach - k + 1], -np.inf)
        holds = two_sided_pvalue(grid) <= level[:, None]
        last = holds.sum(axis=1) - 1
        clean = (
            (holds == (np.arange(grid.shape[1]) <= last[:, None])).all(axis=1)
            & (last >= _CUT_WINDOW)
            & (last < grid.shape[1] - _CUT_WINDOW)
            & np.isfinite(grid[:, reach])
        )
        cut = grid[np.arange(level.size), np.maximum(last, 0)]
        cuts[lo : lo + chunk] = np.where(clean, cut, np.nan)
    return cuts[inverse]
