import math

import numpy as np
import pytest
from numpy.polynomial.legendre import leggauss

from scottlab.weyl import (MOMENTUM_COEFF, WeylDivergenceError, WeylIntegrand,
                           weyl_coulomb_mu, weyl_integral)


def weyl_integral_box(V, weight, box, n=48):
    """2 (2 pi)^-3 iint w(q) [p^2 - V(q)]_- by tensor Gauss quadrature over a 3-D box.

    V and weight take (n, 3) points; box is (lo, hi) per axis.  The
    reference for the radial sqrt(r) panel path of weyl_integral.
    """
    xg, wg = leggauss(n)

    def axis(a, b):
        return 0.5 * (a + b) + 0.5 * (b - a) * xg, 0.5 * (b - a) * wg

    (xs, wx), (ys, wy), (zs, wz) = (axis(lo, hi) for lo, hi in box)
    total = 0.0
    for x, wwx in zip(xs, wx):
        X = np.full((n * n, 3), x)
        Y, Z = np.meshgrid(ys, zs, indexing="ij")
        X[:, 1] = Y.ravel()
        X[:, 2] = Z.ravel()
        f = np.maximum(V(X), 0.0) ** 2.5 * weight(X)
        total += wwx * float(np.sum(f * np.outer(wy, wz).ravel()))
    return -(8.0 * math.pi / 15.0) * 2.0 * (2.0 * math.pi) ** -3 * total


def test_momentum_coeff_against_3d_quadrature():
    # oracle: radial momentum quadrature of (p^2 - v) over |p| <= sqrt(v), v = 4,
    # which weyl_integral takes in closed form as -MOMENTUM_COEFF v^(5/2)
    v = 4.0
    x, w = leggauss(200)
    p = 0.5 * math.sqrt(v) * (x + 1.0)
    oracle = 4.0 * math.pi * np.sum(0.5 * math.sqrt(v) * w * (p ** 2 - v) * p ** 2)
    assert -MOMENTUM_COEFF * v ** 2.5 == pytest.approx(oracle, rel=1e-12)
    assert oracle == pytest.approx(-53.61651, abs=1e-4)


def test_weyl_integral_nonpositive_potential_is_zero():
    assert weyl_integral(WeylIntegrand(V=lambda r: -1.0 / (1 + r), mu=0.0,
                                       support=50.0)) == 0.0


def test_weyl_integral_coulomb_closed_form():
    for mu in (1e-2, 2.5e-3, 1e-3, 1e-4):
        val = weyl_integral(WeylIntegrand(V=lambda r: 1.0 / r, mu=mu))
        assert val == pytest.approx(weyl_coulomb_mu(mu), rel=1e-9)
    # the quoted spot values
    v = weyl_integral(WeylIntegrand(V=lambda r: 1.0 / r, mu=0.0025))
    assert v == pytest.approx(-10.0 / 3.0, rel=1e-8)


def test_weyl_coulomb_mu_examples():
    assert weyl_coulomb_mu(0.0025, 1.0) == pytest.approx(-10.0 / 3.0, rel=1e-15)
    assert weyl_coulomb_mu(0.01, 1.0) == pytest.approx(-5.0 / 3.0, rel=1e-15)
    assert abs(weyl_coulomb_mu(1e8)) < 1e-3  # mu -> infinity limit
    # z scaling is cubic
    assert weyl_coulomb_mu(0.01, 2.0) == pytest.approx(8.0 * weyl_coulomb_mu(0.01, 1.0))
    with pytest.raises(ValueError):
        weyl_coulomb_mu(0.0)


def test_weyl_integral_h_scaling_exact():
    wi1 = WeylIntegrand(V=lambda r: 1.0 / r, mu=0.01, h=1.0)
    wi2 = WeylIntegrand(V=lambda r: 1.0 / r, mu=0.01, h=0.25)
    a = weyl_integral(wi1)
    b = weyl_integral(wi2)
    assert b == pytest.approx(0.25 ** -3 * a, rel=1e-12)


def test_weyl_integral_monotone_in_mu():
    vals = [weyl_integral(WeylIntegrand(V=lambda r: 1.0 / r, mu=m))
            for m in (1e-3, 2e-3, 5e-3, 1e-2, 5e-2)]
    assert all(a <= b for a, b in zip(vals, vals[1:]))
    assert all(v < 0 for v in vals)


def test_weyl_integral_bare_coulomb_divergence_flagged():
    with pytest.raises(WeylDivergenceError):
        weyl_integral(WeylIntegrand(V=lambda r: 1.0 / r, mu=0.0))


def test_weyl_integral_tf_matches_phase_space_coefficient(tf_solution):
    val = weyl_integral(WeylIntegrand(V=tf_solution.potential(), mu=0.0))
    assert val == pytest.approx(tf_solution.phase_space_coeff, rel=1e-6)


def test_radial_fast_path_matches_3d_box_quadrature():
    # smooth positive everywhere potentials with a smooth compact weight
    for a, w0 in ((1.0, 2.0), (0.5, 3.0)):
        V = lambda r, a=a: 1.0 / (1.0 + a * r ** 2)

        def V3(pts, a=a):
            r2 = np.sum(np.asarray(pts) ** 2, axis=-1)
            return 1.0 / (1.0 + a * r2)

        def w3(pts, w0=w0):
            r2 = np.sum(np.asarray(pts) ** 2, axis=-1)
            out = np.zeros_like(r2)
            inside = r2 < w0 ** 2
            out[inside] = np.exp(-1.0 / (1.0 - r2[inside] / w0 ** 2))
            return out

        def wrad(r, w0=w0):
            out = np.zeros_like(np.asarray(r, dtype=float))
            inside = np.abs(r) < w0
            out[inside] = np.exp(-1.0 / (1.0 - (np.asarray(r)[inside] / w0) ** 2))
            return out

        radial = weyl_integral(WeylIntegrand(V=V, weight=wrad, mu=0.0, support=w0))
        box = weyl_integral_box(V3, w3, ((-w0, w0),) * 3)
        assert box == pytest.approx(radial, rel=1e-8)


def test_weyl_integrand_validation():
    with pytest.raises(ValueError):
        WeylIntegrand(V=lambda r: r, h=-1.0)
    with pytest.raises(ValueError):
        WeylIntegrand(V=lambda r: r, mu=-0.5)
