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

# the rule itself, shaped to broadcast over (radius, polar angle, azimuth);
# only the radial scale changes from point to point
_XG, _WG = leggauss(N_RADIAL)
_CG, _WC = leggauss(N_THETA)
_CT, _ST = _CG[None, :, None], np.sqrt(1.0 - _CG ** 2)[None, :, None]
_PHIS = 2.0 * math.pi * (np.arange(N_PHI) + 0.5) / N_PHI
_WPHI = 2.0 * math.pi / N_PHI
_COS_PH, _SIN_PH = np.cos(_PHIS)[None, None, :], np.sin(_PHIS)[None, None, :]
_SHAPE = (N_RADIAL, N_THETA, N_PHI)


@dataclass(frozen=True)
class ScaleFunctions:
    """Scale field l and its gradient.

    l(u) = slope * sqrt(r0^2 + d(u)^2) with slope = 1/100, so
    |grad l| <= 1/100 < 1 everywhere.  For a single nucleus l is smooth
    (a function of d^2); with several nuclei it is only Lipschitz across
    the midplanes, and the closed-form Jacobian holds almost everywhere.
    """

    r0: float = 1.0
    nuclei: tuple = ((0.0, 0.0, 0.0),)
    slope: float = 0.01

    def __post_init__(self):
        if self.r0 <= 0:
            raise ValueError("r0 must be positive")
        if not 0 < self.slope < 1:
            raise ValueError("slope must lie in (0, 1) for the partition identity")
        object.__setattr__(self, "nuclei",
                           tuple(tuple(float(c) for c in p) for p in self.nuclei))

    def _nearest(self, u):
        u = np.atleast_2d(np.asarray(u, dtype=float))
        pos = np.asarray(self.nuclei)
        diffs = u[:, None, :] - pos[None, :, :]
        dists = np.linalg.norm(diffs, axis=2)
        k = np.argmin(dists, axis=1)
        idx = np.arange(u.shape[0])
        return dists[idx, k], diffs[idx, k, :]

    def d(self, u):
        dist, _ = self._nearest(u)
        return dist if dist.size > 1 else float(dist[0])

    def _ell_grad(self, u):
        """l and grad l at each row of u, from one nearest-nucleus search."""
        dist, diff = self._nearest(u)
        root = np.sqrt(self.r0 ** 2 + dist ** 2)
        return self.slope * root, self.slope * diff / root[:, None]

    def ell(self, u):
        out = self._ell_grad(u)[0]
        return out if out.size > 1 else float(out[0])

    def grad_ell(self, u):
        g = self._ell_grad(u)[1]
        return g if g.shape[0] > 1 else g[0]


def jacobian(rel, ell, grad):
    """|det D_u (x - u)/l(u)| = l^-3 |1 + (x - u) . grad l / l|.

    rel = x - u, ell = l(u) and grad = grad l(u), for one point u or one
    per row.  The map's derivative is -I/l - (x - u) (x) grad l / l^2, a
    rank-one update of a multiple of the identity, whence the closed form.
    """
    return ell ** -3 * np.abs(1.0 + np.einsum("...j,...j->...", rel, grad) / ell)


def partition_check(x, sf: ScaleFunctions) -> float:
    """Numerical value of int psi_u(x)^2 l(u)^-3 du (should be 1).

    The domain {u : |x - u| <= l(u)} is contained in the ball around x of
    radius l(x)/(1 - slope); the integral is done in spherical coordinates
    around x with Gauss nodes in radius and polar angle.
    """
    x = np.asarray(x, dtype=float)
    ell_x = sf.ell(x)
    radius = ell_x / (1.0 - sf.slope) * 1.02

    s = 0.5 * radius * (_XG + 1.0)
    ws = 0.5 * radius * _WG
    S = s[:, None, None]
    pts = np.empty(_SHAPE + (3,))
    pts[..., 0] = x[0] + S * _ST * _COS_PH
    pts[..., 1] = x[1] + S * _ST * _SIN_PH
    pts[..., 2] = x[2] + S * _CT
    pts = pts.reshape(-1, 3)

    # one nearest-nucleus search serves l(u) and the Jacobian
    ell_u, grad = sf._ell_grad(pts)
    rel = x[None, :] - pts
    snorm = np.linalg.norm(rel, axis=1) / ell_u
    vals = (unit_bump(snorm) ** 2 * jacobian(rel, ell_u, grad)).reshape(_SHAPE)
    integral = np.einsum("i,j,ijk->", ws * s ** 2, _WC, vals) * _WPHI
    return float(integral)
