"""Smooth compactly supported profiles shared by the localization machinery.

Both the spatial cutoff phi_R (equal to 1 inside R/2, vanishing beyond R)
and the unit bump psi with integral psi^2 = 1 are built from the flat
exponential step, so every profile here is C-infinity with all
derivatives vanishing at the support boundary.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.polynomial.legendre import leggauss

from .core import gauss, numpy_openblas, one_blas_thread


def _flat(t):
    """exp(-1/t) continued by 0 for t <= 0."""
    t = np.asarray(t, dtype=float)
    out = np.zeros_like(t)
    pos = t > 0
    out[pos] = np.exp(-1.0 / t[pos])
    return out


def smooth_step(t):
    """C-infinity step: 0 for t <= 0, 1 for t >= 1, strictly increasing between."""
    t = np.asarray(t, dtype=float)
    a = _flat(t)
    b = _flat(1.0 - t)
    return a / (a + b)


@dataclass(frozen=True)
class SmoothCutoff:
    """Radial cutoff phi_R: phi = 1 on [0, R/2], 0 beyond R.

    phi^2 = 1 - smooth_step, so phi is C-infinity.
    """

    R: float

    def __post_init__(self):
        if not self.R > 0:
            raise ValueError("need R > 0")

    def _t(self, r):
        a = 0.5 * self.R
        return (np.asarray(r, dtype=float) - a) / (self.R - a)

    def sq(self, r):
        """phi(r)^2."""
        return 1.0 - smooth_step(self._t(r))

    def __call__(self, r):
        return np.sqrt(self.sq(r))


def bump_profile(s):
    """Unnormalized radial bump exp(-1/(1-s^2)) on |s| < 1."""
    s = np.asarray(s, dtype=float)
    out = np.zeros_like(s)
    inside = np.abs(s) < 1.0
    out[inside] = np.exp(-1.0 / (1.0 - s[inside] ** 2))
    return out


@lru_cache(maxsize=None)
def bump_norm() -> float:
    """Constant N with integral over R^3 of (N * bump_profile(|x|))^2 equal to 1."""
    with one_blas_thread(numpy_openblas):  # leggauss's eigvalsh: the same bits, 5x faster
        s, ww = gauss(0.0, 1.0, leggauss(200))
    val = 4.0 * np.pi * np.sum(ww * s ** 2 * bump_profile(s) ** 2)
    return 1.0 / np.sqrt(val)


def unit_bump(s):
    """Radial profile of the normalized bump psi (so integral psi^2 = 1)."""
    return bump_norm() * bump_profile(s)
