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

    def ell(self, u):
        dist, _ = self._nearest(u)
        out = self.slope * np.sqrt(self.r0 ** 2 + dist ** 2)
        return out if out.size > 1 else float(out[0])

    def grad_ell(self, u):
        dist, diff = self._nearest(u)
        denom = np.sqrt(self.r0 ** 2 + dist ** 2)
        g = self.slope * diff / denom[:, None]
        return g if g.shape[0] > 1 else g[0]


def jacobian(x, u, sf: ScaleFunctions) -> float:
    """|det D_u (x - u)/l(u)| = l^-3 |1 + (x - u) . grad l / l|.

    The map's derivative is -I/l - (x - u) (x) grad l / l^2, a rank-one
    update of a multiple of the identity, whence the closed form.
    """
    x = np.asarray(x, dtype=float)
    u = np.asarray(u, dtype=float)
    ell = sf.ell(u)
    g = np.asarray(sf.grad_ell(u), dtype=float)
    return float(ell ** -3 * abs(1.0 + np.dot(x - u, g) / ell))


@dataclass(frozen=True)
class LocalizedBump:
    """psi_u(x) with the Jacobian weight; supp psi_u inside B_u(l(u)) exactly."""

    sf: ScaleFunctions

    def __call__(self, x, u):
        x = np.asarray(x, dtype=float)
        u = np.asarray(u, dtype=float)
        ell = self.sf.ell(u)
        s = np.linalg.norm(x - u) / ell
        if s >= 1.0:
            return 0.0
        return float(unit_bump(np.array([s]))[0]
                     * math.sqrt(jacobian(x, u, self.sf)) * ell ** 1.5)


def partition_check(x, sf: ScaleFunctions) -> float:
    """Numerical value of int psi_u(x)^2 l(u)^-3 du (should be 1).

    The domain {u : |x - u| <= l(u)} is contained in the ball around x of
    radius l(x)/(1 - slope); the integral is done in spherical coordinates
    around x with Gauss nodes in radius and polar angle.
    """
    x = np.asarray(x, dtype=float)
    ell_x = sf.ell(x)
    radius = ell_x / (1.0 - sf.slope) * 1.02

    xg, wg = leggauss(N_RADIAL)
    s = 0.5 * radius * (xg + 1.0)
    ws = 0.5 * radius * wg
    cg, wc = leggauss(N_THETA)
    phis = 2.0 * math.pi * (np.arange(N_PHI) + 0.5) / N_PHI
    wphi = 2.0 * math.pi / N_PHI

    S, CT, PH = np.meshgrid(s, cg, phis, indexing="ij")
    ST = np.sqrt(1.0 - CT ** 2)
    pts = np.stack([
        x[0] + S * ST * np.cos(PH),
        x[1] + S * ST * np.sin(PH),
        x[2] + S * CT,
    ], axis=-1).reshape(-1, 3)

    dist, diff = sf._nearest(pts)
    ell_u = sf.slope * np.sqrt(sf.r0 ** 2 + dist ** 2)
    grad = sf.slope * diff / np.sqrt(sf.r0 ** 2 + dist ** 2)[:, None]
    rel = (x[None, :] - pts)
    jac = ell_u ** -3 * np.abs(1.0 + np.einsum("ij,ij->i", rel, grad) / ell_u)
    snorm = np.linalg.norm(rel, axis=1) / ell_u
    vals = (unit_bump(snorm) ** 2 * jac).reshape(S.shape)
    integral = np.einsum("i,j,ijk->", ws * s ** 2, wc, vals) * wphi
    return float(integral)
