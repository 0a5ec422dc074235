"""Constructive partition of unity with Jacobian weights.

The family psi_u(x) = psi((x - u)/l(u)) sqrt(J(x, u)) l(u)^(3/2), built
from a unit bump psi and a slowly varying scale field l with
|grad l| < 1, satisfies int psi_u(x)^2 l(u)^-3 du = 1 at every x: the
Jacobian J of u -> (x - u)/l(u) is exactly what turns the u-integral
into the normalization integral of psi^2.  This module realizes the
default scale family l(u) = (1/100) sqrt(r0^2 + d(u)^2) (d = distance
to the nearest nucleus), the closed-form Jacobian, and numerical checks
of the partition identity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.legendre import leggauss

from .cutoffs import unit_bump

# Gauss nodes in radius and polar angle, midpoint nodes in azimuth, of the
# partition-identity quadrature
N_RADIAL, N_THETA, N_PHI = 48, 24, 48

SLOPE = 0.01  # bound on |grad l|; the partition identity needs it below 1

# the rule itself, shaped to broadcast over (radius, polar angle, azimuth);
# only the radial scale changes from point to point
_XG, _WG = leggauss(N_RADIAL)
_CG, _WC = leggauss(N_THETA)
_PHIS = 2.0 * math.pi * (np.arange(N_PHI) + 0.5) / N_PHI
_WPHI = 2.0 * math.pi / N_PHI
# unit direction of each (polar angle, azimuth) ray
_ST = np.sqrt(1.0 - _CG ** 2)[:, None]
_DIRS = np.stack(np.broadcast_arrays(_ST * np.cos(_PHIS), _ST * np.sin(_PHIS), _CG[:, None]),
                 axis=-1)


@dataclass(frozen=True)
class ScaleFunctions:
    """Scale field l, at points and in the ray form of partition_check.

    l(u) = SLOPE * sqrt(r0^2 + d(u)^2) with SLOPE = 1/100 and d the
    distance to the nearest nucleus, so |grad l| <= 1/100 < 1 everywhere.
    For a single nucleus l is smooth (a function of d^2); with several
    nuclei it is only Lipschitz across the midplanes, and the closed-form
    Jacobian holds almost everywhere.
    """

    r0: float = 1.0
    nuclei: tuple = ((0.0, 0.0, 0.0),)

    def __post_init__(self):
        if self.r0 <= 0:
            raise ValueError("r0 must be positive")
        object.__setattr__(self, "nuclei",
                           tuple(tuple(float(c) for c in p) for p in self.nuclei))

    def ell(self, u):
        """l at a point u (a float), or at each row of a 2-D u (an array)."""
        u = np.asarray(u, dtype=float)
        rows = np.atleast_2d(u)
        dists = np.linalg.norm(rows[:, None, :] - np.asarray(self.nuclei)[None], axis=2)
        dist = np.min(dists, axis=1)
        out = SLOPE * np.sqrt(self.r0 ** 2 + dist ** 2)
        return float(out[0]) if u.ndim == 1 else out

    def _ell_dot_on_rays(self, x, s, dirs):
        """l(u) and (x - u) . grad l(u) at u = x + s n, for each radius s and unit direction n.

        No point u is formed: with p the nearest nucleus,
        |u - p|^2 = |x - p|^2 + 2 s (x - p) . n + s^2 and
        (x - u) . (u - p) = -s ((x - p) . n + s).  Both results have the
        shape s.shape + dirs.shape[:-1].
        """
        xp = x - np.asarray(self.nuclei)
        S = s.reshape((1, -1) + (1,) * (dirs.ndim - 1))
        proj = np.einsum("kj,...j->k...", xp, dirs)[:, None]
        d2 = np.einsum("kj,kj->k", xp, xp).reshape((-1,) + (1,) * dirs.ndim) + S * (2.0 * proj + S)
        if len(xp) > 1:
            k = np.argmin(d2, axis=0)[None]
            d2 = np.take_along_axis(d2, k, axis=0)
            proj = np.take_along_axis(np.broadcast_to(proj, (len(xp),) + d2.shape[1:]), k, axis=0)
        root = np.sqrt(self.r0 ** 2 + d2[0])
        return SLOPE * root, -SLOPE * S[0] * (proj[0] + S[0]) / root


def jacobian(rel_dot_grad, ell):
    """|det D_u (x - u)/l(u)| = l^-3 |1 + (x - u) . grad l / l|.

    rel_dot_grad = (x - u) . grad l(u) and ell = l(u), as the ray form
    gives them.  The map's derivative is -I/l - (x - u) (x) grad l / l^2,
    a rank-one update of a multiple of the identity, whence the closed form.
    """
    return ell ** -3 * np.abs(1.0 + rel_dot_grad / ell)


def partition_check(x, sf: ScaleFunctions) -> float:
    """Numerical value of int psi_u(x)^2 l(u)^-3 du (should be 1).

    The domain {u : |x - u| <= l(u)} is contained in the ball around x of
    radius l(x)/(1 - SLOPE); the integral is done in spherical coordinates
    around x with Gauss nodes in radius and polar angle.  Raises ValueError
    when the quadrature overflows (from about |x| = 1e108 on).
    """
    x = np.asarray(x, dtype=float)
    ell_x = sf.ell(x)
    radius = ell_x / (1.0 - SLOPE) * 1.02

    s = 0.5 * radius * (_XG + 1.0)
    ws = 0.5 * radius * _WG
    # one nearest-nucleus search along the rays serves l(u) and the Jacobian
    ell_u, rel_dot_grad = sf._ell_dot_on_rays(x, s, _DIRS)
    vals = unit_bump(s[:, None, None] / ell_u) ** 2 * jacobian(rel_dot_grad, ell_u)
    integral = float(np.einsum("i,j,ijk->", ws * s ** 2, _WC, vals) * _WPHI)
    if not math.isfinite(integral):
        raise ValueError(f"partition integral at |x| = {np.linalg.norm(x):.3e} is not finite")
    return integral
