"""Gaussian test kernels: normal CDF, quantile, two-sided z-test p-values.

Every p-value in this package is the two-sided p-value of a z-score from a
Gaussian mean test with known noise scale, so under a true null the
p-values are exactly uniform and the familywise-error simulations are
sharp.  The CDF and quantile are contract-accurate wrappers (absolute CDF
error below 1e-12, quantile round-trip below 1e-8 on |x| <= 6); the test
suite checks them against an independent high-precision series.
"""

from __future__ import annotations

import numpy as np
from scipy import special

__all__ = [
    "std_normal_cdf",
    "std_normal_quantile",
    "critical_z",
    "two_sided_pvalue",
]


def _check_sigma(sigma: float) -> None:
    """A known noise scale must be positive and finite."""
    if not 0.0 < sigma < np.inf:
        raise ValueError("sigma must be positive and finite")


def std_normal_cdf(x):
    """Standard normal CDF, elementwise on arrays."""
    x = np.asarray(x, dtype=np.float64)
    if not np.all(np.isfinite(x)):
        raise ValueError("input must be finite")
    out = special.ndtr(x)
    return float(out) if out.ndim == 0 else out


def std_normal_quantile(p):
    """Inverse standard normal CDF on the open interval (0, 1)."""
    p = np.asarray(p, dtype=np.float64)
    if not np.all((p > 0.0) & (p < 1.0)):
        raise ValueError("probabilities must lie strictly inside (0, 1)")
    out = special.ndtri(p)
    return float(out) if out.ndim == 0 else out


def two_sided_pvalue(z):
    """P(|Z| >= |z|) for standard normal Z, computed via the far tail."""
    z = np.asarray(z, dtype=np.float64)
    out = 2.0 * special.ndtr(-np.abs(z))
    return float(out) if out.ndim == 0 else out


def critical_z(level: float) -> float:
    """Two-sided z-score threshold: ``|z| >= critical_z(level)`` matches
    ``two_sided_pvalue(z) <= level``.  Strictly decreasing in ``level``."""
    if not 0.0 < level < 1.0:
        raise ValueError("level must lie strictly inside (0, 1)")
    return float(-special.ndtri(level / 2.0))
