"""Small empirical-statistics helpers shared across modules."""

from __future__ import annotations

import math

import numpy as np
from numpy.typing import NDArray

__all__ = ["empirical_tail", "ks_distance", "ks_critical", "dkw_band", "binomial_se"]


def empirical_tail(samples, xs) -> NDArray[np.float64]:
    """Fraction of samples >= x for each threshold x."""
    s = np.sort(np.asarray(samples, dtype=np.float64))
    xs = np.asarray(xs, dtype=np.float64)
    return (len(s) - np.searchsorted(s, xs, side="left")) / len(s)


def ks_distance(a, b) -> float:
    """Two-sample Kolmogorov-Smirnov sup distance between empirical CDFs."""
    a = np.sort(np.asarray(a, dtype=np.float64))
    b = np.sort(np.asarray(b, dtype=np.float64))
    xs = np.concatenate([a, b])
    fa = np.searchsorted(a, xs, side="right") / len(a)
    fb = np.searchsorted(b, xs, side="right") / len(b)
    return float(np.max(np.abs(fa - fb)))


def ks_critical(n: int, m: int, alpha: float) -> float:
    """Asymptotic two-sample KS critical value at level alpha."""
    c = math.sqrt(-0.5 * math.log(alpha / 2.0))
    return c * math.sqrt((n + m) / (n * m))


def dkw_band(n: int, alpha: float) -> float:
    """Dvoretzky-Kiefer-Wolfowitz confidence half-width for n samples."""
    return math.sqrt(math.log(2.0 / alpha) / (2.0 * n))


def binomial_se(p_hat, n: int):
    """Standard error of an empirical proportion, elementwise on arrays."""
    return np.sqrt(np.maximum(p_hat * (1.0 - p_hat), 0.0) / n)
