import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from scottlab import tf
from scottlab.core import sqrt_panel_integral
from scottlab.tf import TFConvergenceError, tf_energy_consistency

# frozen oracle outputs (recomputed below where cheap)
SLOPE0 = -1.588071  # initial slope of the decaying branch
# phi'(0) to 18 digits: Boyd, J. Comput. Appl. Math. 244 (2013)
BOYD_SLOPE0 = -1.58807102261137531


def _rk4_shoot_slope(step):
    """Independent fixed-step RK4 shooting oracle for the profile slope."""

    def deriv(t, phi, dphi):
        p = phi if phi > 0.0 else 0.0
        return dphi, p * math.sqrt(p) / math.sqrt(t)

    def classify(B, t_end=25.0):
        t = 0.01
        phi = 1.0 + B * t + (4.0 / 3.0) * t ** 1.5 + 0.4 * B * t ** 2.5 + t ** 3 / 3.0
        dphi = B + 2.0 * t ** 0.5 + B * t ** 1.5 + t ** 2
        while t < t_end:
            h = min(step, t_end - t)
            a1, b1 = deriv(t, phi, dphi)
            a2, b2 = deriv(t + h / 2, phi + h / 2 * a1, dphi + h / 2 * b1)
            a3, b3 = deriv(t + h / 2, phi + h / 2 * a2, dphi + h / 2 * b2)
            a4, b4 = deriv(t + h, phi + h * a3, dphi + h * b3)
            phi += h / 6 * (a1 + 2 * a2 + 2 * a3 + a4)
            dphi += h / 6 * (b1 + 2 * b2 + 2 * b3 + b4)
            t += h
            if phi <= 0.0:
                return -1
            if dphi >= 0.0:
                return +1
        return +1  # survived: treated as the shallow side

    lo, hi = -1.65, -1.5
    for _ in range(34):
        mid = 0.5 * (lo + hi)
        if classify(mid) == -1:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def test_slope0_against_rk4_step_halving_oracle(tf_solution):
    # the bisected slope is not smooth in the step, so the check is plain
    # step-halving convergence rather than extrapolation
    b1 = _rk4_shoot_slope(0.005)
    b2 = _rk4_shoot_slope(0.0025)
    assert abs(b2 - b1) < 1e-5
    assert b2 == pytest.approx(SLOPE0, abs=5e-6)
    assert tf_solution.slope0 == pytest.approx(b2, abs=1e-5)
    assert tf_solution.slope0 == pytest.approx(SLOPE0, abs=1e-6)
    assert abs(tf_solution.slope0 - BOYD_SLOPE0) < 1e-12


def _series_pow(a, p):
    """Power series (sum a_k u^k)^p with a_0 = 1, by the power-rule recurrence."""
    b = np.zeros(a.size)
    b[0] = 1.0
    for k in range(1, a.size):
        acc = 0.0
        for j in range(1, k + 1):
            acc += (j * (p + 1.0) / k - 1.0) * a[j] * b[k - j]
        b[k] = acc
    return b


def _baker_oracle(slope0):
    """Series coefficients with c^(3/2) recomputed in full for every k."""
    c = np.zeros(tf.SERIES_ORDER + 1)
    c[0], c[2], c[3] = 1.0, slope0, 4.0 / 3.0
    for k in range(4, tf.SERIES_ORDER + 1):
        c[k] = 4.0 * _series_pow(c[: k - 2], 1.5)[k - 3] / (k * (k - 2.0))
    return c


@pytest.mark.parametrize("slope0", [BOYD_SLOPE0, -1.5])
def test_baker_coefficients_match_nested_recurrence(slope0):
    assert np.array_equal(tf.baker_coefficients(slope0), _baker_oracle(slope0))


def test_profile_boundary_and_monotonicity(tf_solution):
    assert tf_solution.phi(0.0) == pytest.approx(1.0, abs=1e-14)
    t = np.geomspace(1e-6, 1e4, 2000)
    phi = tf_solution.phi(t)
    assert np.all(phi > 0)
    assert np.all(np.diff(phi) < 0)
    assert tf_solution.slope0 < 0


def test_equation_residual_below_tolerance(tf_solution):
    assert tf_solution.residual_sup < 1e-8


def test_residual_decreases_under_refinement(tf_solution, monkeypatch):
    monkeypatch.setattr(tf, "CHEB_ORDER", 40)
    monkeypatch.setattr(tf, "RESIDUAL_TOL", 1e-4)
    loose = tf.solve_tf_atom()
    # a lower collocation order leaves a larger residual
    assert tf_solution.residual_sup < loose.residual_sup / 4.0


def test_mass_normalization(tf_solution):
    assert tf_solution.mass == pytest.approx(1.0, abs=1e-6)


def test_collocation_failure_is_diagnosed(monkeypatch):
    # one Newton step from Sommerfeld's guess does not converge
    monkeypatch.setattr(tf, "NEWTON_MAX", 1)
    with pytest.raises(TFConvergenceError, match="collocation failed"):
        tf.solve_tf_atom()


def _solve_bvp_profile():
    """scipy's solve_bvp on the same variables and conditions, the oracle of the Chebyshev
    collocation: its slope and its own interpolant of (w, v) in s = log t."""
    from scipy.integrate import solve_bvp

    def bc(ya, yb, p):
        series = tf.baker_coefficients(p[0])
        phi = tf._series_eval(series, tf.T_SERIES)
        return np.array([
            ya[0] - math.log(phi),
            ya[1] - tf.T_SERIES * tf._series_eval(series, tf.T_SERIES, 1) / phi,
            yb[1] + 3.0 + tf.SOMMERFELD_LAMBDA * (1.0 - 144.0 * math.exp(-yb[0])
                                                  / tf.T_GRID_MAX ** 3),
        ])

    mesh = np.linspace(math.log(tf.T_SERIES), math.log(tf.T_GRID_MAX), 2001)
    q = np.exp(tf.SOMMERFELD_LAMBDA * (3.0 * mesh - math.log(144.0)))
    guess = np.vstack([-np.log1p(q) / tf.SOMMERFELD_LAMBDA, -3.0 * q / (1.0 + q)])
    sol = solve_bvp(lambda s, y, p: tf._bvp_rhs(s, y), bc, mesh, guess, p=[-1.6],
                    tol=1e-10, max_nodes=200000)
    assert sol.status == 0, sol.message
    return float(sol.p[0]), sol.sol


def test_profile_matches_solve_bvp_oracle(tf_solution):
    slope0, oracle = _solve_bvp_profile()
    assert abs(slope0 - BOYD_SLOPE0) < 1e-12
    t = np.geomspace(tf.T_SERIES, tf.T_GRID_MAX, tf.N_GRID)
    w, v = oracle(np.log(t))
    np.testing.assert_allclose(tf_solution.phi(t), np.exp(w), rtol=1e-12, atol=0.0)
    np.testing.assert_allclose(tf_solution.dphi(t), v * np.exp(w) / t, rtol=1e-12, atol=0.0)


def test_series_match_barycentric_interpolant_of_collocation(monkeypatch):
    # the node values the collocation converged to, as the DCT takes them
    nodes, dct = [], tf._chebyshev_coefficients
    monkeypatch.setattr(tf, "_chebyshev_coefficients", lambda y: nodes.append(y) or dct(y))
    sol = tf.solve_tf_atom()
    a, b, n = math.log(tf.T_SERIES), math.log(tf.T_GRID_MAX), tf.CHEB_ORDER
    s = 0.5 * (a + b) - 0.5 * (b - a) * np.cos(np.pi * np.arange(n + 1) / n)
    lam = np.r_[0.5, np.ones(n - 1), 0.5] * (-1.0) ** np.arange(n + 1)
    fine = np.linspace(a, b, 6001)
    gap = fine[:, None] - s
    k = lam / np.where(gap == 0.0, 1e-300, gap)  # on a node, its own term swamps the rest
    k /= k.sum(axis=1, keepdims=True)
    for coef, y in zip((sol.w_coef, sol.v_coef), nodes):
        np.testing.assert_allclose(tf._chebyshev_eval(coef, fine), np.sum(k * y, axis=1),
                                   rtol=0.0, atol=1e-13)


_PROFILE_BITS = """
import hashlib
import numpy as np
from scottlab import tf
sol = tf.solve_tf_atom()
print(hashlib.sha256(np.r_[sol.slope0, sol.w_coef, sol.v_coef, sol.E_atom, sol.D_rho,
                           sol.kinetic, sol.attraction, sol.mass, sol.phase_space,
                           sol.residual_sup].tobytes()).hexdigest())
"""


def test_profile_bits_do_not_depend_on_the_blas_thread_count():
    # np.linalg.solve and the matrix products go through numpy's OpenBLAS,
    # which reads OPENBLAS_NUM_THREADS once, at load: hence fresh interpreters
    src = str(Path(__file__).resolve().parents[1] / "src")
    digests = set()
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=os.pathsep.join(
            [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
        done = subprocess.run([sys.executable, "-c", _PROFILE_BITS], env=env,
                              capture_output=True, text=True, timeout=300)
        assert done.returncode == 0, done.stderr
        digests.add(done.stdout)
    assert len(digests) == 1


def test_density_accessor_consistency(tf_solution):
    r = np.geomspace(1e-3, 50.0, 200)
    # charge scaling: V_z(r) = z^(4/3) V_1(z^(1/3) r)
    z = 8.0
    np.testing.assert_allclose(tf_solution.V(r, z=z),
                               z ** (4 / 3) * tf_solution.V(z ** (1 / 3) * r),
                               rtol=1e-12)


def test_energy_consistency_report(tf_solution):
    rep = tf_energy_consistency(tf_solution)
    assert rep.rel_gap < 1e-13
    assert rep.virial_ratio < 1e-13
    assert tf_solution.E_atom < 0
    assert abs(rep.mass_error) < 1e-12
    # D = K/3 is the virial identity in disguise
    assert tf_solution.D_rho == pytest.approx(tf_solution.kinetic / 3.0, rel=1e-6)
    # HLS diagnostic: D(rho) <= C ||rho||_{6/5}^2; a finite fitted C, not an
    # assertion about sharpness
    norm65 = sqrt_panel_integral(
        lambda t: tf._volume(t) * tf._density(tf_solution.phi(t), t) ** 1.2,
        tf._X_EDGES, tf._GL16) ** (5.0 / 3.0)
    assert 0.0 < tf_solution.D_rho / norm65 < 10.0


def test_energy_integrals_evaluate_phi_once_per_node(tf_solution, monkeypatch):
    points, phi = [], tf.TFProfile.phi
    monkeypatch.setattr(tf.TFProfile, "phi",
                        lambda self, t: points.append(np.ravel(t)) or phi(self, t))
    tf._energy_integrals(tf_solution)
    points = np.concatenate(points)
    # the Gauss-16 nodes alone: D's partial panel integrals come from their values
    assert points.size == np.unique(points).size == (tf._X_EDGES.size - 1) * 16


def test_gauss16_cumulative_weights_integrate_polynomials():
    # row k of _GL16_CUM integrates the degree-15 interpolant from -1 to node k
    x = tf._GL16[0]
    for k in range(16):
        exact = (x ** (k + 1) - (-1.0) ** (k + 1)) / (k + 1)
        np.testing.assert_allclose(tf._GL16_CUM @ x ** k, exact, rtol=0.0, atol=1e-14)


def test_frozen_energy_constants(tf_solution):
    # oracle values from independent closed forms: attraction equals
    # (4/(3 pi))^(2/3) |slope0|, kinetic is 3/7 of it, E = -K, D = K/3
    a_closed = (4.0 / (3.0 * math.pi)) ** (2.0 / 3.0) * abs(tf_solution.slope0)
    assert tf_solution.attraction == pytest.approx(a_closed, rel=1e-8)
    assert tf_solution.kinetic == pytest.approx(3.0 * a_closed / 7.0, rel=1e-8)
    assert tf_solution.E_atom == pytest.approx(-3.0 * a_closed / 7.0, rel=1e-7)
    assert tf_solution.D_rho == pytest.approx(a_closed / 7.0, rel=1e-7)
    assert tf_solution.E_atom == pytest.approx(-0.3843726, abs=2e-6)
    assert tf_solution.phase_space_coeff == pytest.approx(-0.2562484, abs=2e-6)
