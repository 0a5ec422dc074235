import math
import re

import pytest

from scottlab import radial_eig
from scottlab.expansion import ExpansionReport, expansion_sweep, mean_field_energy


def test_two_term_arithmetic(tf_solution):
    reports = expansion_sweep([1.0, 10.0], 0.0, tf_solution, refine=False, resolution=10.0)
    assert reports[0].two_term == pytest.approx(tf_solution.E_atom + 0.25, rel=1e-12)
    assert reports[1].two_term == pytest.approx(tf_solution.E_atom * 10 ** (7 / 3) + 25.0,
                                                rel=1e-12)


def test_mean_field_identity_at_unit_charge(tf_solution):
    # Z = 1, h = 1: the formula is trace - D by inspection
    val = mean_field_energy(1.0, tf_solution, refine=False, resolution=10.0)
    tr = radial_eig.trace_neg(tf_solution.potential(), 1.0, mu=0.0,
                              refine=False, resolution=10.0).trace
    assert val == pytest.approx(tr - tf_solution.D_rho, rel=1e-10)


def test_mean_field_scaling_consistency(tf_solution):
    # Tr[-Delta - V_Z]_- = Z^(4/3) Tr[-h^2 Delta - V_1]_- with h = Z^(-1/3)
    Z = 8.0
    h = Z ** (-1.0 / 3.0)
    s_scaled = radial_eig.trace_neg(tf_solution.potential(), h, mu=0.0, refine=True)
    s_direct = radial_eig.trace_neg(lambda r: tf_solution.V(r, z=Z), 1.0,
                                    mu=0.0, refine=True)
    assert s_direct.trace == pytest.approx(Z ** (4.0 / 3.0) * s_scaled.trace,
                                           rel=2e-4)


def test_leading_term_dominance(tf_solution):
    # |trace - c3 h^-3| h^3 / |c3 h^-3| < 0.15 for h <= 1/8
    c3 = tf_solution.phase_space_coeff
    for h in (0.125, 0.1):
        tr = radial_eig.trace_neg(tf_solution.potential(), h, mu=0.0,
                                  refine=True).trace
        weyl_term = c3 * h ** -3
        assert abs(tr - weyl_term) / abs(weyl_term) < 0.15


def test_expansion_sweep_reports(tf_solution):
    reports = expansion_sweep([8.0, 27.0], 0.0, tf_solution, refine=True)
    assert [r.Z for r in reports] == [8.0, 27.0]
    for r in reports:
        assert isinstance(r, ExpansionReport)
        assert r.scott == pytest.approx(2.0 * r.Z ** 2 * 0.125)
        assert r.two_term == pytest.approx(r.leading + r.scott)
        assert r.residual_over_Z2 < 0.05
    assert reports[1].residual_over_Z2 < reports[0].residual_over_Z2


@pytest.mark.parametrize("Z, alpha, bad", [
    (math.nan, 0.0, "Z = nan"), (math.inf, 0.0, "Z = inf"), (0.0, 0.0, "Z = 0.0"),
    (-8.0, 0.0, "Z = -8.0"), (8.0, 0.05, "alpha = 0.05"), (8.0, -0.01, "alpha = -0.01"),
    (8.0, math.nan, "alpha = nan"),
])
def test_expansion_sweep_names_the_bad_input(tf_solution, Z, alpha, bad):
    with pytest.raises(ValueError, match=re.escape(bad)):
        expansion_sweep([Z], alpha, tf_solution)
