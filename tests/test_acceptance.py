"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with `pytest -s tests/test_acceptance.py` to see the report lines.
Criterion 5 is asserted exactly as specified; see the README for the
measured finite-radius behaviour of that quantity.
"""

import time

import numpy as np
import pytest

from scottlab import expansion, hydrogen, multiscale, pauli, radial_eig, tf
from scottlab.weyl import WeylIntegrand, weyl_coulomb_mu, weyl_integral

VC = lambda r: 1.0 / r


def _report(num, ok, detail, elapsed, budget):
    status = "PASS" if ok else "FAIL"
    print(f"criterion {num}: {status} ({detail}; {elapsed:.1f}s of {budget:.0f}s budget)")


def test_criterion_1_scott_mu_limit():
    t0 = time.time()
    est = hydrogen.scott_mu_limit([1.0 / (4 * N ** 2) for N in (50, 100, 200, 400)])
    elapsed = time.time() - t0
    ok = abs(est.value - 0.25) < 1e-3 and elapsed < 1.0
    _report(1, ok, f"2S(0) = {est.value:.6f}", elapsed, 1)
    assert abs(est.value - 0.25) < 1e-3
    assert elapsed < 1.0


def test_criterion_2_weyl_coulomb_closed_form():
    t0 = time.time()
    worst = 0.0
    for mu in (1e-2, 1e-3, 1e-4):
        quad = weyl_integral(WeylIntegrand(V=VC, mu=mu))
        closed = weyl_coulomb_mu(mu)
        worst = max(worst, abs(quad / closed - 1.0))
    elapsed = time.time() - t0
    ok = worst < 1e-6 and elapsed < 1.0
    _report(2, ok, f"worst rel dev {worst:.2e}", elapsed, 1)
    assert worst < 1e-6
    assert elapsed < 1.0


def test_criterion_3_tf_self_consistency():
    t0 = time.time()
    sol = tf.solve_tf_atom()
    rep = tf.tf_energy_consistency(sol)
    elapsed = time.time() - t0
    ok = (sol.residual_sup < 1e-8 and rep.virial_ratio < 1e-4
          and rep.rel_gap < 1e-4 and abs(sol.mass - 1.0) < 1e-6
          and elapsed < 10.0)
    _report(3, ok, f"residual {sol.residual_sup:.1e}, virial {rep.virial_ratio:.1e}, "
                   f"gap {rep.rel_gap:.1e}, mass err {sol.mass - 1:.1e}", elapsed, 10)
    assert sol.residual_sup < 1e-8
    assert rep.virial_ratio < 1e-4
    assert rep.rel_gap < 1e-4
    assert abs(sol.mass - 1.0) < 1e-6
    assert elapsed < 10.0


def test_criterion_4_radial_oracle():
    t0 = time.time()
    grid = radial_eig.auto_grid(VC, 1.0, 1.0 / 150.0)
    fine_grid = grid.refined()
    worst = 0.0
    for ell in range(5):
        coarse = radial_eig.negative_eigenvalues(
            radial_eig.build_channel(VC(grid.r), 1.0, ell, grid), mu=1.0 / 150.0)
        fine = radial_eig.negative_eigenvalues(
            radial_eig.build_channel(VC(fine_grid.r), 1.0, ell, fine_grid), mu=1.0 / 150.0)
        for k in range(min(coarse.size, fine.size, 5 - ell)):
            n = ell + 1 + k
            rich = (4.0 * fine[k] - coarse[k]) / 3.0
            worst = max(worst, abs(rich + 0.25 / n ** 2))
    s = radial_eig.trace_neg(VC, 1.0, mu=1.0 / 400.0, refine=True)
    trace_err = abs(s.trace - (-3.075))
    elapsed = time.time() - t0
    ok = worst < 1e-5 and trace_err < 2e-3 and elapsed < 30.0
    _report(4, ok, f"level err {worst:.1e}, trace err {trace_err:.1e}", elapsed, 30)
    assert worst < 1e-5
    assert trace_err < 2e-3
    assert elapsed < 30.0


def test_criterion_5_scott_cutoff_bracket():
    t0 = time.time()
    d20, d40 = radial_eig.scott_cutoff_schedule([20.0, 40.0]).meta["d_values"]
    elapsed = time.time() - t0
    toward = abs(d40 - 0.25) < abs(d20 - 0.25)
    in_bracket = 0.22 <= d20 <= 0.27 and 0.22 <= d40 <= 0.27
    ok = toward and in_bracket and elapsed < 300.0
    _report(5, ok, f"d(20) = {d20:.4f}, d(40) = {d40:.4f}, toward 0.25: {toward}",
            elapsed, 300)
    assert toward
    assert elapsed < 300.0
    assert in_bracket, (
        f"finite-R values d(20)={d20:.4f}, d(40)={d40:.4f} are outside "
        "[0.22, 0.27]: the finite-radius excess of the cutoff difference "
        "decays like ~0.7 R^(-1/2) for admissible cutoffs, so the bracket "
        "is unreachable at these radii (see README, acceptance status)")


def test_criterion_6_spectral_fit(tf_solution):
    t0 = time.time()
    est = radial_eig.scott_spectral_fit(
        tf_solution, h_list=(0.125, 0.1, 1 / 12, 1 / 16, 0.05), refine=True)
    elapsed = time.time() - t0
    rel = abs(est.value - 0.25) / 0.25
    ok = rel < 0.15 and elapsed < 900.0
    _report(6, ok, f"c2 = {est.value:.4f} (rel dev {rel:.1%})", elapsed, 900)
    assert rel < 0.15
    assert elapsed < 900.0


def test_criterion_7_magnetic_sector():
    t0 = time.time()
    # (a) zero-field reduction against the scalar trace
    mu = 0.1
    p = pauli.pauli_trace_neg(None, VC, h=1.0, mu=mu, domain_radius=18.0,
                              mesh=(96, 192))
    scalar = radial_eig.trace_neg(VC, 1.0, mu=mu).trace
    rel_a = abs(p.trace - scalar) / abs(scalar)

    # (b) exact kappa-monotonicity of the functional at fixed theta
    grid = pauli.PauliGrid.for_ball(8.0, n_rho=64, n_z=128)
    A = pauli.FieldAnsatz(theta=(0.4, 0.2), support_radius=2.0)
    parts = pauli.scott_functional_parts(A, 8.0, grid=grid)
    kappas = np.linspace(0.01, 0.1, 10)
    vals = [parts.value(k, 5.0) for k in kappas]
    mono_b = all(a >= b for a, b in zip(vals, vals[1:]))

    # (c) minimization bounded by the zero-field value, nonincreasing in kappa
    results = {}
    for kappa in (0.02, 0.05, 0.1):
        res = pauli.minimize_scott(kappa, beta=0.5 / kappa, R=8.0, n_modes=2,
                                   budget=36, seed=0, grid=grid)
        results[kappa] = res
    bounded = all(r.estimate.value <= r.zero_field_value + 1e-12
                  for r in results.values())
    band = 1e-3  # tolerance of the kappa-monotone check; every estimate is deterministic
    ests = [results[k].estimate.value for k in (0.02, 0.05, 0.1)]
    mono_c = all(a >= b - band for a, b in zip(ests, ests[1:]))

    elapsed = time.time() - t0
    ok = rel_a < 1e-2 and mono_b and bounded and mono_c and elapsed < 1800.0
    _report(7, ok, f"A=0 reduction {rel_a:.2%}, kappa-monotone {mono_b}, "
                   f"bounded {bounded}, estimates {['%.4f' % e for e in ests]} "
                   f"(noise band {band:.1e})", elapsed, 1800)
    assert rel_a < 1e-2
    assert mono_b
    assert bounded
    assert mono_c
    assert elapsed < 1800.0


def test_criterion_8_partition_of_unity():
    t0 = time.time()
    sf = multiscale.ScaleFunctions(r0=1.0)
    rng = np.random.default_rng(42)
    worst = 0.0
    for _ in range(100):
        d = np.exp(rng.uniform(np.log(1e-3), np.log(1e3)))
        direction = rng.normal(size=3)
        direction /= np.linalg.norm(direction)
        x = d * direction
        worst = max(worst, abs(multiscale.partition_check(x, sf) - 1.0))
    # closed-form Jacobian against finite differences (relative)
    worst_j = 0.0
    for _ in range(25):
        u = rng.normal(scale=2.0, size=3)
        x = u + rng.normal(scale=0.5, size=3) * sf.ell(u)
        # J as partition_check computes it: the ray form along the ray from x through u
        s = np.linalg.norm(u - x)
        ell_u, rel_dot_grad = sf._ell_dot_on_rays(x, np.array([s]), ((u - x) / s)[None])
        J = float(multiscale.jacobian(rel_dot_grad, ell_u)[0, 0])
        eps = 1e-6
        M = np.zeros((3, 3))
        for i in range(3):
            e = np.zeros(3)
            e[i] = eps
            M[:, i] = ((x - (u + e)) / sf.ell(u + e)
                       - (x - (u - e)) / sf.ell(u - e)) / (2 * eps)
        worst_j = max(worst_j, abs(J - abs(np.linalg.det(M))) / J)
    elapsed = time.time() - t0
    ok = worst < 1e-6 and worst_j < 1e-6 and elapsed < 60.0
    _report(8, ok, f"partition dev {worst:.1e}, jacobian dev {worst_j:.1e}",
            elapsed, 60)
    assert worst < 1e-6
    assert worst_j < 1e-6
    assert elapsed < 60.0


def test_criterion_9_expansion_trend(tf_solution):
    t0 = time.time()
    reports = expansion.expansion_sweep([8.0, 27.0, 64.0, 125.0], 0.0,
                                        tf_solution, refine=True)
    ratios = [r.residual_over_Z2 for r in reports]
    elapsed = time.time() - t0
    decreasing = all(a > b for a, b in zip(ratios, ratios[1:]))
    ok = decreasing and elapsed < 1800.0
    _report(9, ok, "residual/Z^2 = " + ", ".join(f"{v:.5f}" for v in ratios),
            elapsed, 1800)
    assert decreasing
    assert elapsed < 1800.0
