import numpy as np
import pytest
from numpy.polynomial.legendre import leggauss

from scottlab.cutoffs import SmoothCutoff, smooth_step, unit_bump


def test_smooth_step_endpoints_and_monotone():
    t = np.linspace(-0.5, 1.5, 401)
    s = smooth_step(t)
    assert np.all(s[t <= 0] == 0.0)
    assert np.all(s[t >= 1] == 1.0)
    assert np.all(np.diff(s) >= 0)


def test_cutoff_profile_shape():
    phi = SmoothCutoff(10.0)
    r = np.linspace(0, 12, 500)
    assert np.all(phi(r[r <= 5.0]) == 1.0)
    assert np.all(phi(r[r >= 10.0]) == 0.0)


def test_unit_bump_normalization():
    x, w = leggauss(120)
    s = 0.5 * (x + 1.0)
    val = 4.0 * np.pi * np.sum(0.5 * w * s ** 2 * unit_bump(s) ** 2)
    assert val == pytest.approx(1.0, abs=1e-12)
    assert unit_bump(np.array([1.2]))[0] == 0.0
