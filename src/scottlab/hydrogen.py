"""Exact Coulomb spectral sums and the chemical-potential Scott route.

With kinetic energy -Delta the hydrogen levels are e_n = -1/(4 n^2) with
degeneracy 2 n^2 (spin included), so every mu-shifted trace is a finite
Faulhaber sum.  Subtracting the closed-form Weyl integral gives
d(mu) = 1/4 + sqrt(mu)/6 exactly at the threshold values mu = 1/(4 N^2);
extrapolating the sqrt(mu) remainder to zero recovers the non-magnetic
Scott constant 2 S(0) = 1/4 without any discretization error.
"""

from __future__ import annotations

import math

import numpy as np

from .core import ScottEstimate
from .weyl import weyl_coulomb_mu


def _threshold_n(mu: float) -> int:
    """Largest n with -1/(4 n^2) + mu < 0 (exact boundary handling)."""
    n = int(math.floor(0.5 / math.sqrt(mu)))
    while n >= 1 and -0.25 / n ** 2 + mu >= 0.0:
        n -= 1
    while -0.25 / (n + 1) ** 2 + mu < 0.0:
        n += 1
    return n


def trace_neg_coulomb(mu: float) -> float:
    """Tr[-Delta - 1/|x| + mu]_- = sum over n < 1/(2 sqrt(mu)) of 2 n^2 (e_n + mu).

    Closed Faulhaber form; mu must be positive (the untruncated sum diverges).
    Raises ValueError past n = 2^53, where unit steps in n no longer move a level.
    """
    if mu <= 0:
        raise ValueError("mu must be positive")
    if 0.5 / math.sqrt(mu) > 2.0 ** 53:
        raise ValueError(f"mu = {mu:.3e} puts the threshold level above n = 2^53")
    n = _threshold_n(mu)
    if n < 1:
        return 0.0
    # sum 2 k^2 (-1/(4 k^2) + mu) = -n/2 + 2 mu n(n+1)(2n+1)/6
    return -0.5 * n + mu * n * (n + 1) * (2 * n + 1) / 3.0


def scott_mu_limit(mu_schedule) -> ScottEstimate:
    """Extrapolate d(mu) = trace - Weyl to mu -> 0 (estimate of 2 S(0)).

    The schedule must be positive, strictly decreasing, length >= 3.  The
    remainder is linear in sqrt(mu) at the threshold points, so a linear
    least-squares fit in sqrt(mu) is the right extrapolation order.  meta
    records the per-mu traces and Weyl terms in schedule order.
    """
    mus = np.asarray(list(mu_schedule), dtype=float)
    if mus.size < 3:
        raise ValueError("schedule needs at least 3 points")
    if np.any(mus <= 0) or np.any(np.diff(mus) >= 0):
        raise ValueError("schedule must be positive and strictly decreasing")
    traces = [trace_neg_coulomb(m) for m in mus.tolist()]
    weyl = [weyl_coulomb_mu(m, 1.0) for m in mus.tolist()]
    d = np.array([t - w for t, w in zip(traces, weyl)])
    A = np.vstack([np.ones_like(mus), np.sqrt(mus)]).T
    coef, *_ = np.linalg.lstsq(A, d, rcond=None)
    return ScottEstimate(value=float(coef[0]), route="mu-limit",
                         meta={"slope_sqrt_mu": float(coef[1]), "traces": traces, "weyl": weyl})
