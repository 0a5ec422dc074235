import numpy as np
import pytest

from scottlab import multiscale
from scottlab.multiscale import ScaleFunctions, jacobian, partition_check


@pytest.fixture(scope="module")
def sf():
    return ScaleFunctions(r0=1.0)


def _fd_jacobian(x, u, sf, eps=1e-6):
    M = np.zeros((3, 3))
    for i in range(3):
        e = np.zeros(3)
        e[i] = eps
        fp = (x - (u + e)) / sf.ell(u + e)
        fm = (x - (u - e)) / sf.ell(u - e)
        M[:, i] = (fp - fm) / (2 * eps)
    return abs(np.linalg.det(M))


def _grad_ell(sf, u):
    """Oracle: grad l at each row of u, slope (u - p) / sqrt(r0^2 + |u - p|^2).

    p is the nucleus nearest to u.
    """
    diffs = u[:, None, :] - np.asarray(sf.nuclei)[None]
    k = np.argmin(np.linalg.norm(diffs, axis=2), axis=1)
    diff = diffs[np.arange(len(u)), k]
    root = np.sqrt(sf.r0 ** 2 + np.einsum("ij,ij->i", diff, diff))
    return multiscale.SLOPE * diff / root[:, None]


def _route_jacobian(sf, x, u):
    """J at u as partition_check computes it: the ray form along the ray from x through u."""
    s = np.linalg.norm(u - x)
    n = (u - x) / s if s > 0 else np.array([0.0, 0.0, 1.0])
    ell, rel_dot_grad = sf._ell_dot_on_rays(x, np.array([s]), n[None])
    return float(jacobian(rel_dot_grad, ell)[0, 0])


def test_gradient_bound(sf):
    # |(x - u) . grad l| <= slope |x - u| along the rays partition_check walks
    rng = np.random.default_rng(2)
    s = rng.uniform(0.0, 100.0, size=20)
    dirs = rng.normal(size=(10, 3))
    dirs /= np.linalg.norm(dirs, axis=1)[:, None]
    for x in rng.normal(scale=50.0, size=(20, 3)):
        _, dot = sf._ell_dot_on_rays(x, s, dirs)
        assert np.all(np.abs(dot) <= (0.01 + 1e-15) * s[:, None])


def test_jacobian_constant_ell():
    # with a huge r0 the scale field is locally constant: J = ell^-3
    sf_flat = ScaleFunctions(r0=1e8)
    x = np.array([1.0, 2.0, 3.0])
    u = np.array([1.3, 2.0, 2.8])
    ell = sf_flat.ell(u)
    assert _route_jacobian(sf_flat, x, u) == pytest.approx(ell ** -3, rel=1e-8)


def test_jacobian_at_center(sf):
    u = np.array([0.7, -0.4, 0.2])
    ell = sf.ell(u)
    assert _route_jacobian(sf, u, u) == pytest.approx(ell ** -3, rel=1e-14)


def test_jacobian_matches_finite_differences(sf):
    rng = np.random.default_rng(4)
    for _ in range(12):
        u = rng.normal(scale=3.0, size=3)
        x = u + rng.normal(scale=0.5, size=3) * sf.ell(u)
        J = _route_jacobian(sf, x, u)
        assert abs(J - _fd_jacobian(x, u, sf)) / J < 1e-6


@pytest.mark.parametrize("nuclei", [((0, 0, 0),), ((0, 0, 0), (4, 0, 0), (1, 3, -2))],
                         ids=["atom", "three-nuclei"])
def test_scale_field_on_rays_matches_points(nuclei):
    # the ray form against l and the oracle grad l at the points u = x + s n themselves
    sf = ScaleFunctions(r0=1.0, nuclei=nuclei)
    rng = np.random.default_rng(6)
    x = np.array([1.5, 1.0, -0.5])
    s = np.array([0.0, 0.3, 1.7, 2.6])
    dirs = rng.normal(size=(5, 3))
    dirs /= np.linalg.norm(dirs, axis=1)[:, None]
    ell, dot = sf._ell_dot_on_rays(x, s, dirs)
    u = (x + s[:, None, None] * dirs[None]).reshape(-1, 3)
    dot_ref = np.einsum("ij,ij->i", x - u, _grad_ell(sf, u))
    np.testing.assert_allclose(ell.ravel(), sf.ell(u), rtol=1e-13)
    np.testing.assert_allclose(dot.ravel(), dot_ref, rtol=1e-11, atol=1e-15)


def test_partition_identity_constant_ell():
    sf_flat = ScaleFunctions(r0=1e7)
    val = partition_check(np.array([3.0, -1.0, 2.0]), sf_flat)
    assert val == pytest.approx(1.0, abs=1e-8)


def test_partition_identity_default_family(sf):
    for x in (np.zeros(3), np.array([1e-3, 0, 0]), np.array([600.0, 500.0, 400.0])):
        assert partition_check(x, sf) == pytest.approx(1.0, abs=1e-6)


def test_partition_identity_off_center_points(sf):
    rng = np.random.default_rng(9)
    for _ in range(5):
        x = rng.normal(scale=5.0, size=3)
        assert partition_check(x, sf) == pytest.approx(1.0, abs=1e-6)


def test_scale_functions_validation():
    with pytest.raises(ValueError):
        ScaleFunctions(r0=-1.0)


def test_molecular_distance_field():
    sf2 = ScaleFunctions(r0=1.0, nuclei=((0, 0, 0), (4, 0, 0)))
    # l = slope sqrt(r0^2 + d^2) with d the distance to the nearest nucleus
    assert sf2.ell(np.array([1.0, 0, 0])) == pytest.approx(0.01 * np.sqrt(1.0 + 1.0 ** 2))
    assert sf2.ell(np.array([3.5, 0, 0])) == pytest.approx(0.01 * np.sqrt(1.0 + 0.5 ** 2))


def test_ell_returns_an_array_for_any_batch(sf):
    # a one-row batch used to come back as a float
    one = sf.ell(np.array([[1.0, 0, 0]]))
    assert one.shape == (1,)
    assert one[0] == sf.ell(np.array([1.0, 0, 0]))
    assert isinstance(sf.ell(np.array([1.0, 0, 0])), float)
    assert sf.ell(np.zeros((3, 3))).shape == (3,)
