import numpy as np
import pytest

from scottlab.hydrogen import scott_mu_limit, trace_neg_coulomb
from scottlab.weyl import weyl_coulomb_mu


def test_trace_examples():
    assert trace_neg_coulomb(1.0 / 400.0) == pytest.approx(-3.075, abs=1e-14)
    assert trace_neg_coulomb(0.25) == 0.0
    assert trace_neg_coulomb(0.3) == 0.0
    with pytest.raises(ValueError):
        trace_neg_coulomb(0.0)


def test_trace_closed_form_matches_direct_summation():
    rng = np.random.default_rng(5)
    for mu in np.concatenate([1.0 / (4.0 * np.arange(2, 30) ** 2),
                              rng.uniform(1e-5, 0.2, 40)]):
        direct = 0.0
        n = 1
        while -0.25 / n ** 2 + mu < 0.0:
            direct += 2 * n ** 2 * (-0.25 / n ** 2 + mu)
            n += 1
        assert trace_neg_coulomb(mu) == pytest.approx(direct, rel=1e-12, abs=1e-12)


def test_faulhaber_identity_at_thresholds():
    # mu = 1/(4 N^2): trace = -(N/3 - 1/4 - 1/(12 N))
    for N in (3, 10, 50, 173):
        mu = 1.0 / (4.0 * N * N)
        expected = -(N / 3.0 - 0.25 - 1.0 / (12.0 * N))
        assert trace_neg_coulomb(mu) == pytest.approx(expected, rel=1e-12)


def test_trace_is_nondecreasing_and_continuous_in_mu():
    mus = np.linspace(1e-4, 0.26, 4000)
    vals = np.array([trace_neg_coulomb(m) for m in mus])
    assert np.all(np.diff(vals) >= -1e-12)
    # continuity across a threshold: new levels enter with zero weight
    eps = 1e-10
    mu_star = 1.0 / 16.0
    assert abs(trace_neg_coulomb(mu_star + eps) - trace_neg_coulomb(mu_star - eps)) < 1e-8


def test_difference_single_point():
    mu = 1.0 / (4.0 * 100 ** 2)
    d = trace_neg_coulomb(mu) - weyl_coulomb_mu(mu)
    assert d == pytest.approx(0.25 + 1.0 / 1200.0, rel=1e-12)


def test_difference_bracket_below_1_over_400():
    rng = np.random.default_rng(11)
    mus = np.concatenate([1.0 / (4.0 * np.arange(10, 200, 3) ** 2),
                          rng.uniform(1e-7, 1.0 / 400.0, 200)])
    d = np.array([trace_neg_coulomb(m) - weyl_coulomb_mu(m) for m in mus])
    assert np.all(d > 0.24) and np.all(d < 0.26)


def test_scott_mu_limit_extrapolation():
    mus = [1.0 / (4 * N ** 2) for N in (50, 100, 200, 400)]
    est = scott_mu_limit(mus)
    assert est.route == "mu-limit"
    assert est.meta["traces"] == [trace_neg_coulomb(m) for m in mus]
    assert est.meta["weyl"] == [weyl_coulomb_mu(m) for m in mus]
    assert est.value == pytest.approx(0.25, abs=1e-4)
    # the remainder slope is the sqrt(mu)/6 law
    assert est.meta["slope_sqrt_mu"] == pytest.approx(1.0 / 6.0, rel=1e-6)


def test_scott_mu_limit_validation():
    with pytest.raises(ValueError):
        scott_mu_limit([1e-3, 1e-4])
    with pytest.raises(ValueError):
        scott_mu_limit([1e-4, 1e-3, 1e-2])
    with pytest.raises(ValueError):
        scott_mu_limit([1e-3, -1e-4, 1e-5])
