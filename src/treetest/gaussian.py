"""Scalar Gaussian test kernels: normal CDF, quantile, z-test p-values.

Every p-value in this package comes from a Gaussian mean test with known
noise scale, so under a true null the p-values are exactly uniform and the
familywise-error simulations are sharp.  The CDF and quantile are contract-
accurate wrappers (absolute CDF error below 1e-12, quantile round-trip below
1e-8 on |x| <= 6); the test suite checks them against an independent
high-precision series.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import special

__all__ = [
    "GaussianTestSpec",
    "std_normal_cdf",
    "std_normal_quantile",
    "z_pvalue",
    "critical_z",
    "two_sided_pvalue",
]

_SIDES = ("two_sided", "one_sided_greater")


def _check_sigma(sigma: float) -> None:
    """A known noise scale must be positive and finite."""
    if not 0.0 < sigma < np.inf:
        raise ValueError("sigma must be positive and finite")


@dataclass(frozen=True)
class GaussianTestSpec:
    """Mean test against ``mu0`` with known scale and effective sample size."""

    mu0: float = 0.0
    sigma: float = 1.0
    n_eff: float = 1.0
    sided: str = "two_sided"

    def __post_init__(self) -> None:
        if not np.isfinite(self.mu0):
            raise ValueError("mu0 must be finite")
        _check_sigma(self.sigma)
        if not 1.0 <= self.n_eff < np.inf:
            raise ValueError("n_eff must be finite and at least 1")
        if self.sided not in _SIDES:
            raise ValueError(f"sided must be one of {_SIDES}")


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


def z_pvalue(sample_mean, spec: GaussianTestSpec = GaussianTestSpec()):
    """p-value of the Gaussian mean test for an observed sample mean.

    The z-score is ``(sample_mean - mu0) * sqrt(n_eff) / sigma``; two-sided
    tests return ``2 (1 - Phi(|z|))``, one-sided ``1 - Phi(z)``.  Exactly
    uniform under the null for exact Gaussian inputs.
    """
    mean = np.asarray(sample_mean, dtype=np.float64)
    z = (mean - spec.mu0) * np.sqrt(spec.n_eff) / spec.sigma
    if spec.sided == "two_sided":
        return two_sided_pvalue(z)
    out = special.ndtr(-z)
    return float(out) if out.ndim == 0 else out


def critical_z(level: float, sided: str = "two_sided") -> float:
    """z-score threshold equivalent to rejecting at ``p <= level``.

    Two-sided: ``|z| >= critical_z(level)`` matches ``p <= level``;
    one-sided uses the upper tail.  Strictly decreasing in ``level``.
    """
    if not 0.0 < level < 1.0:
        raise ValueError("level must lie strictly inside (0, 1)")
    if sided not in _SIDES:
        raise ValueError(f"sided must be one of {_SIDES}")
    if sided == "two_sided":
        return float(-special.ndtri(level / 2.0))
    return float(-special.ndtri(level))
