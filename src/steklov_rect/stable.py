"""Overflow-safe building blocks for products of hyperbolic and trig factors.

cosh(nu)**2 overflows doubles near nu = 355 while the boundary-normalized
eigenfunctions stay O(1), so a hyperbolic value is kept as cosh or sinh(u) * exp(-u)
(hyp_scaled, in [0, 1]) with exp(u) folded into a log amplitude; edge integrals likewise.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "hyp_scaled",
    "signed_exp_hyp",
    "mean_sq_trig",
    "mean_sq_hyp_scaled",
    "exp_or_inf",
]


def hyp_scaled(u, even: bool):
    """cosh(u) * exp(-u) = (1 + exp(-2u))/2 (even) or sinh(u) * exp(-u) = -expm1(-2u)/2, for u >= 0."""
    return 0.5 * (1.0 + np.exp(-2.0 * u)) if even else 0.5 * -np.expm1(-2.0 * u)


def signed_exp_hyp(u, log_amp, even: bool):
    """exp(log_amp) * cosh(u) (even) or sinh(u), any sign of u, as exp(log_amp + |u|) * hyp_scaled(|u|):
    the exponent is exact where -log_amp is within a factor 2 of |u|, as at the edges of a normalized mode."""
    a = np.abs(np.asarray(u, dtype=float))
    out = np.exp(log_amp + a) * hyp_scaled(a, even)
    return out if even else np.sign(u) * out


def _series_even(u, alternating: bool):
    """sum_{k>=1} (+-1)^(k+1) (2u)^(2k) / (2k+1)! elementwise, for u < 0.25 (larger u clipped)."""
    u = np.minimum(u, 0.25)  # so no entry of an array overflows
    w = 4.0 * u * u  # (2u)^2
    term = w / 6.0
    total = term
    sign = -1.0 if alternating else 1.0
    fact_arg = 3
    for _ in range(8):
        fact_arg += 2
        term = term * w / (fact_arg * (fact_arg - 1))
        total = total + sign * term
        sign = -sign if alternating else sign
    return total


def mean_sq_trig(u, even: bool):
    """(1/L) * integral_{-L}^{L} of cos(nu t)^2 (even) or sin(nu t)^2 dt, with u = nu L > 0.

    That is 1 + sinc(2u) or 1 - sinc(2u); below u = 0.25 the latter is a
    series, where the subtraction would cancel.
    """
    sinc = np.sin(2.0 * u) / (2.0 * u)
    if even:
        return 1.0 + sinc
    return np.where(u < 0.25, _series_even(u, alternating=True), 1.0 - sinc)


def mean_sq_hyp_scaled(u, even: bool):
    """exp(-2u) * (sinh(2u)/(2u) +- 1), mean square of cosh (even) or sinh; series below u = 0.25."""
    e = np.exp(-2.0 * u)
    ratio = -np.expm1(-4.0 * u) / (4.0 * u)
    if even:
        return e + ratio
    return np.where(u < 0.25, e * _series_even(u, alternating=False), ratio - e)


def exp_or_inf(logv: float) -> float:
    """exp(logv) saturating to inf/0.0 instead of raising on over/underflow."""
    if logv > 709.0:
        return math.inf
    if logv < -745.0:
        return 0.0
    return math.exp(logv)
