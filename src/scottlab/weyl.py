"""Phase-space (Weyl) integrals with exact momentum reduction.

The momentum integral of the classical symbol is done in closed form,
int [p^2 - v]_- dp = -(8 pi / 15) [v]_+^(5/2), leaving a configuration
integral that is evaluated by panel Gauss quadrature: sqrt(r) panels to
absorb Coulomb-type cores, explicit panel breaks at the turning radii
where [V - mu]_+ has its 5/2-power kink, and a dyadic tail test that
flags non-integrable inputs instead of silently truncating them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
from numpy.polynomial.legendre import leggauss

from .core import sqrt_panel_integral

# int over R^3 of [p^2 - v]_- dp = -MOMENTUM_COEFF [v]_+^(5/2)
MOMENTUM_COEFF = 8.0 * math.pi / 15.0

# sqrt(r) panels of the main quadrature; relative size at which a dyadic
# tail shell ends the mu = 0 integral, and the cap on such shells
N_PANELS, TAIL_TOL, MAX_OCTAVES = 160, 1e-12, 60


class WeylDivergenceError(ValueError):
    """The configuration integral fails the integrability tail test or is not finite."""


@dataclass(frozen=True)
class WeylIntegrand:
    """Data of a Weyl integral 2 (2 pi h)^-3 iint w(q) [p^2 - V(q) + mu]_-.

    V and weight are radial: they must accept numpy arrays of radii.
    weight defaults to 1; support optionally bounds the weight's support
    radius.
    """

    V: Callable
    weight: Optional[Callable] = None
    mu: float = 0.0
    h: float = 1.0
    support: Optional[float] = None

    def __post_init__(self):
        if not (math.isfinite(self.h) and self.h > 0):
            raise ValueError("h must be positive and finite")
        if not (math.isfinite(self.mu) and self.mu >= 0):
            raise ValueError("mu must be nonnegative and finite")

    def w(self, r):
        if self.weight is None:
            return np.ones_like(np.asarray(r, dtype=float))
        return self.weight(r)


_GL24 = leggauss(24)


def _bisect(f, a, b, fa, xtol):
    """The sign change of f in [a, b], with f(a) = fa and f(b) of the other sign, to xtol."""
    while b - a > xtol:
        m = 0.5 * (a + b)
        fm = f(m)
        if fm == 0.0:
            return m
        if (fm < 0.0) == (fa < 0.0):
            a, fa = m, fm
        else:
            b = m
    return 0.5 * (a + b)


def _turning_points(V, mu, r_hi):
    """Radii where V - mu changes sign, on (0, r_hi]."""
    if mu <= 0:
        return []
    grid = np.geomspace(1e-8 * r_hi, r_hi, 600)
    vals = V(grid) - mu
    out = []
    for a, b, fa, fb in zip(grid[:-1], grid[1:], vals[:-1], vals[1:]):
        if fa == 0.0:
            out.append(float(a))
        elif fa * fb < 0:
            out.append(_bisect(lambda r: float(V(np.array([r]))[0]) - mu,
                               float(a), float(b), float(fa), 1e-14 * b))
    return out


def _radial_profile_integral(f, r_lo, r_hi, breaks, n_panels):
    """integral f(r) dr over [r_lo, r_hi] in x = sqrt(r) panels with breaks."""
    if r_lo == 0.0:
        edges = np.concatenate([[0.0], np.geomspace(math.sqrt(r_hi) * 1e-6, math.sqrt(r_hi), n_panels)])
    else:
        edges = np.sqrt(np.geomspace(r_lo, r_hi, n_panels + 1))
    edges = np.unique(np.concatenate([edges, np.sqrt([b for b in breaks if r_lo < b < r_hi])]))
    total = sqrt_panel_integral(f, edges, _GL24)
    if not math.isfinite(total):
        raise WeylDivergenceError(f"the integral over [{r_lo:g}, {r_hi:g}] is not finite")
    return total


def weyl_integral(wi: WeylIntegrand) -> float:
    """2 (2 pi h)^-3 iint w(q) [p^2 - V(q) + mu]_- dp dq.

    The configuration integral uses sqrt(r) panels split at the turning
    radii.  Raises WeylDivergenceError when the dyadic tail test finds
    non-decaying shell contributions (for example the bare Coulomb
    potential at mu = 0 with no cutoff) or a panel sum that is not finite.
    """
    def profile(r):
        return wi.w(r) * np.maximum(wi.V(r) - wi.mu, 0.0) ** 2.5 * r ** 2

    # -8/(15 pi) to the bit; MOMENTUM_COEFF / pi**2 and 4 pi tf._PS_COEFF are one ulp off
    coeff = -2.0 * (2.0 * math.pi) ** -3 * MOMENTUM_COEFF * 4.0 * math.pi * wi.h ** -3

    r_up = wi.support
    if r_up is None and wi.mu > 0.0:
        # outermost turning radius bounds the positive region for decaying V
        probe = np.geomspace(1e-8, 1e12, 81)
        pos = wi.V(probe) - wi.mu > 0
        if pos[-1]:
            raise WeylDivergenceError("V - mu stays positive out to 1e12")
        r_up = float(probe[np.nonzero(pos)[0].max() + 1]) if pos.any() else 0.0
    if r_up == 0.0:
        return 0.0

    if r_up is not None:
        # panel edges at the 5/2-power kinks of [V - mu]_+
        breaks = _turning_points(wi.V, wi.mu, r_up) if wi.mu > 0.0 else ()
        return coeff * _radial_profile_integral(profile, 0.0, r_up, breaks, N_PANELS)

    # mu = 0, unbounded support: integrate [0, 1], then dyadic shells with a
    # growth flag; shells must decay geometrically for convergence
    total = _radial_profile_integral(profile, 0.0, 1.0, (), N_PANELS)
    prev = math.inf
    grow_count = 0
    for k in range(MAX_OCTAVES):
        shell = _radial_profile_integral(profile, 2.0 ** k, 2.0 ** (k + 1), (), 12)
        total += shell
        if shell >= prev * 0.95 and shell > TAIL_TOL * max(abs(total), 1.0):
            grow_count += 1
            if grow_count >= 3:
                raise WeylDivergenceError(
                    f"dyadic shells near r ~ 2^{k} do not decay; integral diverges")
        else:
            grow_count = 0
        if shell < TAIL_TOL * max(abs(total), 1.0):
            return coeff * total
        prev = shell
    raise WeylDivergenceError("tail did not converge within the octave budget")


def weyl_coulomb_mu(mu: float, z: float = 1.0) -> float:
    """Closed form of the mu-regularized Coulomb Weyl integral, -(z^3/6)/sqrt(mu).

    2 (2 pi)^-3 iint [p^2 - z/|q| + mu]_- reduces through the Beta integral
    B(1/2, 7/2) = 5 pi/16 to -(1/6) z^3 mu^(-1/2).
    """
    if mu <= 0:
        raise ValueError("mu must be positive (the mu = 0 integral diverges)")
    if z <= 0:
        raise ValueError("z must be positive")
    return -(z ** 3 / 6.0) / math.sqrt(mu)
