import numpy as np
import pytest

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


def test_gradient_bound(sf):
    rng = np.random.default_rng(2)
    pts = rng.normal(scale=50.0, size=(200, 3))
    norms = np.linalg.norm(np.atleast_2d(sf.grad_ell(pts)), axis=1)
    assert np.all(norms <= 0.01 + 1e-15)


def test_jacobian_constant_ell():
    # with a huge r0 the scale field is locally constant: J = ell^-3
    sf_flat = ScaleFunctions(r0=1e8)
    x = np.array([1.0, 2.0, 3.0])
    u = np.array([1.3, 2.0, 2.8])
    ell = sf_flat.ell(u)
    assert jacobian(x - u, ell, sf_flat.grad_ell(u)) == pytest.approx(ell ** -3, rel=1e-8)


def test_jacobian_at_center(sf):
    u = np.array([0.7, -0.4, 0.2])
    ell = sf.ell(u)
    assert jacobian(np.zeros(3), ell, sf.grad_ell(u)) == pytest.approx(ell ** -3, rel=1e-14)


def test_jacobian_matches_finite_differences(sf):
    rng = np.random.default_rng(4)
    u, x = [], []
    for _ in range(12):
        u.append(rng.normal(scale=3.0, size=3))
        x.append(u[-1] + rng.normal(scale=0.5, size=3) * sf.ell(u[-1]))
    # all points at once, one per row, as partition_check evaluates them
    u, x = np.array(u), np.array(x)
    J = jacobian(x - u, sf.ell(u), sf.grad_ell(u))
    for k in range(12):
        assert abs(J[k] - _fd_jacobian(x[k], u[k], sf)) / J[k] < 1e-6


@pytest.mark.parametrize("nuclei", [((0, 0, 0),), ((0, 0, 0), (4, 0, 0), (1, 3, -2))],
                         ids=["atom", "three-nuclei"])
def test_scale_field_on_rays_matches_points(nuclei):
    # the ray form against l and grad l at the points u = x + s n themselves
    sf = ScaleFunctions(r0=1.0, nuclei=nuclei)
    rng = np.random.default_rng(6)
    x = np.array([1.5, 1.0, -0.5])
    s = np.array([0.0, 0.3, 1.7, 2.6])
    dirs = rng.normal(size=(5, 3))
    dirs /= np.linalg.norm(dirs, axis=1)[:, None]
    ell, dot = sf._ell_dot_on_rays(x, s, dirs)
    u = x + s[:, None, None] * dirs[None]
    ell_ref, grad_ref = sf._ell_grad(u.reshape(-1, 3))
    dot_ref = np.einsum("ij,ij->i", (x - u).reshape(-1, 3), grad_ref)
    np.testing.assert_allclose(ell.ravel(), ell_ref, rtol=1e-13)
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
    with pytest.raises(ValueError):
        ScaleFunctions(r0=1.0, slope=1.5)


def test_molecular_distance_field():
    sf2 = ScaleFunctions(r0=1.0, nuclei=((0, 0, 0), (4, 0, 0)))
    assert sf2.d(np.array([1.0, 0, 0])) == pytest.approx(1.0)
    assert sf2.d(np.array([3.5, 0, 0])) == pytest.approx(0.5)
