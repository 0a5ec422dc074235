import logging
import os
import signal
import threading
import time
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import eigvalsh_tridiagonal

from scottlab import radial_eig
from scottlab.core import neg_part_sum
from scottlab.cutoffs import SmoothCutoff
from scottlab.hydrogen import trace_neg_coulomb
from scottlab.radial_eig import (ChannelCascadeError, RadialGrid, build_channel,
                                 cutoff_weyl_coulomb, fit_expansion,
                                 localized_trace_neg, make_grid,
                                 negative_eigenvalues, trace_neg)

VC = lambda r: 1.0 / r


def sturm_count(diag, off, x):
    """Number of eigenvalues of the tridiagonal matrix strictly below x, by Sturm count."""
    count = 0
    q = diag[0] - x
    if q < 0:
        count += 1
    for i in range(1, diag.size):
        if q == 0.0:
            q = 1e-300
        q = diag[i] - x - off[i - 1] ** 2 / q
        if q < 0:
            count += 1
    return count


def uniform_grid(r_max, n):
    """Uniform mesh on (0, r_max) with the 3-point unit stencil: the reference for the sinh map."""
    dr = r_max / (n + 1)
    return RadialGrid(r=np.linspace(0.0, r_max, n + 2)[1:-1], kin_diag=np.full(n, 2.0 / dr ** 2),
                      kin_off=np.full(n - 1, -1.0 / dr ** 2), r_core=dr, r_max=r_max, n=n)


def test_coulomb_levels_across_channels():
    grid = radial_eig.auto_grid(VC, 1.0, 1.0 / 150.0)
    for ell in range(5):
        op = build_channel(VC(grid.r), 1.0, ell, grid)
        vals = negative_eigenvalues(op, mu=1.0 / 150.0)
        for k, e in enumerate(vals):
            n = ell + 1 + k
            assert e == pytest.approx(-0.25 / n ** 2, abs=1e-5)


def test_lowest_channel_eigenvalues():
    grid = radial_eig.auto_grid(VC, 1.0, 1.0 / 20.0)
    e0 = negative_eigenvalues(build_channel(VC(grid.r), 1.0, 0, grid), mu=1 / 20.0)[0]
    e1 = negative_eigenvalues(build_channel(VC(grid.r), 1.0, 1, grid), mu=1 / 20.0)[0]
    assert e0 == pytest.approx(-0.25, abs=1e-5)
    assert e1 == pytest.approx(-1.0 / 16.0, abs=1e-5)
    # mu = 0 on a fixed grid: the per-channel lowest values are unaffected
    fixed = make_grid(0.3, 400.0, 4000)
    assert negative_eigenvalues(build_channel(VC(fixed.r), 1.0, 0, fixed))[0] == \
        pytest.approx(-0.25, abs=1e-5)
    assert negative_eigenvalues(build_channel(VC(fixed.r), 1.0, 1, fixed))[0] == \
        pytest.approx(-1.0 / 16.0, abs=1e-5)


def test_nonpositive_potential_has_no_bound_states():
    grid = make_grid(0.1, 30.0, 1500)
    op = build_channel(-np.ones_like(grid.r), 1.0, 0, grid)
    assert negative_eigenvalues(op, mu=0.0).size == 0


def test_sturm_count_consistency():
    # mu between hydrogen levels, away from any threshold
    mu = 1.0 / 90.0
    grid = make_grid(0.3, 300.0, 2500)
    for ell in (0, 1, 3):
        op = build_channel(VC(grid.r), 1.0, ell, grid)
        vals = negative_eigenvalues(op, mu=mu)
        assert sturm_count(*op, -mu) == vals.size


def scipy_negative_eigenvalues(op, mu):
    """negative_eigenvalues through scipy.linalg.eigvalsh_tridiagonal, as it was written before
    it called LAPACK dstebz itself: the oracle of the direct call."""
    d, e = op
    norm_est = float(np.max(np.abs(d))) + 2.0 * float(np.max(np.abs(e)))
    pad = 128.0 * np.finfo(float).eps * norm_est
    lo = float(np.min(d)) - 2.0 * float(np.max(np.abs(e))) - 1.0
    vu = -mu - pad
    if lo >= vu:
        return np.array([])
    vals = eigvalsh_tridiagonal(d, e, select="v", select_range=(lo, vu))
    return np.sort(vals[vals < vu])


@pytest.fixture(params=["bundled", "fallback"])
def dstebz_path(request, monkeypatch):
    """dstebz through numpy's bundled OpenBLAS by ctypes, or through scipy.linalg.lapack."""
    if request.param == "fallback":
        monkeypatch.setattr(radial_eig, "numpy_openblas", lambda: None)
    elif radial_eig.numpy_openblas() is None:
        pytest.skip("numpy's bundled OpenBLAS is not found")
    return request.param


@pytest.mark.parametrize("case", ["tf-refined", "coulomb-mu-1/400", "cutoff-sandwich"])
def test_negative_eigenvalues_equal_scipy_bit_for_bit(case, dstebz_path, tf_solution):
    h, mu, f = 1.0, 0.0, None
    if case == "tf-refined":
        V, h = tf_solution.potential(), 0.1
        grid = radial_eig.auto_grid(V, h, mu).refined()
    elif case == "coulomb-mu-1/400":
        V, mu = VC, 1.0 / 400.0
        grid = radial_eig.auto_grid(V, h, mu)
    else:
        V, r_core = VC, radial_eig.core_radius(1.0)
        n = radial_eig._resolution_nodes(VC, 1.0, 0.0, r_core, 80.0,
                                         radial_eig.LOCALIZED_RESOLUTION)
        grid = make_grid(r_core, 80.0, n).refined()
        f = SmoothCutoff(80.0)(grid.r)
    v, states = V(grid.r), 0
    for ell in range(radial_eig.LMAX_CAP + 1):
        op = build_channel(v, h, ell, grid, f)
        want = scipy_negative_eigenvalues(op, mu)
        assert negative_eigenvalues(op, mu).tobytes() == want.tobytes(), ell
        states += want.size
        if want.size == 0:
            break
    assert ell > 1 and states > 10


def test_lapack_info_is_a_value_error(dstebz_path):
    d, e = np.full(3, 2.0), np.full(2, -1.0)
    got = radial_eig._stebz(d, e, -10.0, 10.0)
    assert got == pytest.approx([2.0 - np.sqrt(2.0), 2.0, 2.0 + np.sqrt(2.0)], abs=1e-14)
    # VL >= VU is an illegal argument 5 to dstebz, so INFO = -5
    with pytest.raises(ValueError, match="INFO = -5"):
        radial_eig._stebz(d, e, 1.0, -1.0)


@pytest.mark.parametrize("d0, mu", [(-0.5, 0.0), (-0.5, 0.25), (0.5, 0.0), (-1e8, 0.0)])
def test_one_by_one_channel_equals_scipy(d0, mu, dstebz_path):
    # LAPACK's N = 1 case returns d0 when vl < d0 <= vu; the norm estimate read an empty e
    op = (np.array([d0]), np.array([]))
    want = eigvalsh_tridiagonal(*op)
    want = want[want < -mu]
    assert negative_eigenvalues(op, mu).tobytes() == want.tobytes()
    assert negative_eigenvalues(op, mu, guesses=[d0]).tobytes() == want.tobytes()
    with pytest.raises(ValueError, match="n - 1"):
        negative_eigenvalues((np.array([]), np.array([])))


# ---------------------------------------------------------------------------
# bisection started from guesses
# ---------------------------------------------------------------------------

needs_dlaebz = pytest.mark.skipif(not hasattr(radial_eig.numpy_openblas(), "scipy_dlaebz_64_"),
                                  reason="numpy's bundled OpenBLAS exports no dlaebz")

GUESSES = ["exact", "off-by-1e-9", "off-by-1e-3", "junk", "duplicated", "out-of-range", "empty"]


def random_channel(rng, n, scale, graded, split):
    """A random tridiagonal (d, e) of entries ~scale: graded, D T D with D over three decades,
    and split, with every fifth off-diagonal entry zero, if asked."""
    d = scale * rng.standard_normal(n)
    e = scale * rng.uniform(0.01, 1.0) * rng.standard_normal(n - 1)
    if graded:
        grade = np.geomspace(1.0, 1e3, n)
        d, e = d * grade * grade, e * grade[:-1] * grade[1:]
    if split:
        e[::5] = 0.0
    return d, e


def guesses_of(kind, want, scale, rng):
    """Guesses of the given kind for the eigenvalues want of a channel of entries ~scale."""
    return {"exact": want,
            "off-by-1e-9": want + 1e-9 * scale * rng.standard_normal(want.size),
            "off-by-1e-3": want + 1e-3 * scale * rng.standard_normal(want.size),
            "junk": scale * rng.standard_normal(7),
            "duplicated": np.repeat(want, 3),
            "out-of-range": np.array([-1e3, -1e300, 1e300]) * scale,
            "empty": np.array([])}[kind]


@settings(max_examples=200, deadline=None)
@given(n=st.integers(2, 400), log_scale=st.floats(-3.0, 8.0), graded=st.booleans(),
       split=st.booleans(), mu=st.sampled_from([0.0, 0.3]), kind=st.sampled_from(GUESSES),
       seed=st.integers(0, 2 ** 32 - 1))
def test_guesses_move_no_bit(n, log_scale, graded, split, mu, kind, seed):
    rng, scale = np.random.default_rng(seed), 10.0 ** log_scale
    op = random_channel(rng, n, scale, graded, split)
    want = negative_eigenvalues(op, mu * scale)
    with mock.patch.object(radial_eig, "GUIDED_N", 2):  # guide channels of any size
        got = negative_eigenvalues(op, mu * scale, guesses=guesses_of(kind, want, scale, rng))
    assert got.tobytes() == want.tobytes()


@pytest.fixture(scope="module")
def tf_h40_grids(tf_solution):
    """The TF potential's coarse and fine grids of the refined h = 1/40 sum, with V on each."""
    V = tf_solution.potential()
    grid = radial_eig.auto_grid(V, 1.0 / 40.0, 0.0)
    return [(g, V(g.r)) for g in (grid, grid.refined())]


@needs_dlaebz
@pytest.mark.parametrize("case", ["tf-h40-l0", "tf-h40-l12", "tf-h40-l24", "coulomb-l0",
                                  "coulomb-l5"])
def test_fine_channels_guided_by_their_coarse_channels(case, request, monkeypatch):
    potential, ell = case.rsplit("-l", 1)
    ell, h, mu = int(ell), 1.0, 1.0 / 400.0
    if potential == "tf-h40":
        grids, h, mu = request.getfixturevalue("tf_h40_grids"), 1.0 / 40.0, 0.0
    else:
        grid = radial_eig.auto_grid(VC, h, mu)
        grids = [(g, VC(g.r)) for g in (grid, grid.refined())]
    (coarse, vc), (fine, vf) = grids
    guesses = negative_eigenvalues(build_channel(vc, h, ell, coarse), mu)
    op = build_channel(vf, h, ell, fine)
    want = negative_eigenvalues(op, mu)
    assert guesses.size > 2 and want.size > 2

    def no_root(*args):
        raise AssertionError("bisected from the root")

    monkeypatch.setattr(radial_eig, "_stebz", no_root)
    assert negative_eigenvalues(op, mu, guesses=guesses).tobytes() == want.tobytes()


@needs_dlaebz
def test_guesses_that_miss_take_the_root_path(monkeypatch, caplog):
    grid = pool_grid(400.0)
    coarse, fine = (build_channel(VC(g.r), 1.0, 0, g) for g in (grid, grid.refined()))
    guesses = negative_eigenvalues(coarse, 0.01)
    want = negative_eigenvalues(fine, 0.01)
    solve, roots = radial_eig._stebz, []
    monkeypatch.setattr(radial_eig, "_stebz", lambda *args: roots.append(args) or solve(*args))
    with caplog.at_level(logging.DEBUG, logger="scottlab.radial_eig"):
        assert negative_eigenvalues(fine, 0.01, guesses=guesses).tobytes() == want.tobytes()
        assert not roots and not caplog.records
        # each guess 1% deeper than the coarse eigenvalue: no node holds a fine one
        assert negative_eigenvalues(fine, 0.01, guesses=1.01 * guesses).tobytes() == \
            want.tobytes()
    assert len(roots) == 1
    assert "count mismatch" in caplog.text


@needs_dlaebz
def test_each_fallback_to_the_root_is_logged(monkeypatch, caplog):
    d, e = np.full(50, -1.0), np.full(49, 1.0)
    split = e.copy()
    split[20] = 0.0
    want, want_split = negative_eigenvalues((d, e)), negative_eigenvalues((d, split))
    with caplog.at_level(logging.DEBUG, logger="scottlab.radial_eig"):
        # a channel below GUIDED_N nodes ignores its guesses
        assert negative_eigenvalues((d, e), guesses=[0.5, 7.0]).tobytes() == want.tobytes()
        monkeypatch.setattr(radial_eig, "GUIDED_N", 50)
        assert negative_eigenvalues((d, e), guesses=want).tobytes() == want.tobytes()
        assert not caplog.records
        assert negative_eigenvalues((d, e), guesses=[0.5, 7.0]).tobytes() == want.tobytes()
        assert negative_eigenvalues((d, split), guesses=want_split).tobytes() == \
            want_split.tobytes()
        monkeypatch.setattr(radial_eig, "numpy_openblas", lambda: None)
        assert negative_eigenvalues((d, e), guesses=want).tobytes() == want.tobytes()
    messages = [r.getMessage() for r in caplog.records]
    assert [r.levelno for r in caplog.records] == [logging.DEBUG] * 3
    assert messages[0] == "channel of n = 50, 1 guided nodes, bisected from the root: count mismatch"
    assert [m.rsplit(": ", 1)[1] for m in messages] == ["count mismatch", "split", "no dlaebz"]


def _inf_at_one_node(r):
    v = 1.0 / r
    v[7] = np.inf
    return v


@pytest.mark.parametrize("V, mu", [
    (lambda r: 1e306 / r, 0.05),
    (_inf_at_one_node, 0.05),
    (lambda r: np.full_like(r, np.nan), 0.05),
    (VC, np.inf),
    (VC, np.nan),
], ids=["overflowing-V", "inf-at-one-node", "nan-V", "inf-mu", "nan-mu"])
def test_non_finite_channel_raises(V, mu):
    # an infinite entry made the threshold -inf, and the channel read as empty
    with np.errstate(over="ignore"):
        with pytest.raises(ValueError, match="finite"):
            trace_neg(V, 1.0, mu=mu, grid=make_grid(0.01, 20.0, 400))


def test_channel_whose_norm_overflows_raises():
    d, e = np.array([1e308, 1e308, 1.0]), np.array([1e308, 1.0])
    with pytest.raises(ValueError, match="finite"):
        negative_eigenvalues((d, e))
    with pytest.raises(ValueError, match="n - 1"):
        negative_eigenvalues((d, e[:1]))


def test_kinetic_stencil_nonnegative():
    # the continuum kinetic term is >= 0; the stencils reproduce that up to
    # discretization (exactly for the uniform map)
    for grid in (make_grid(0.2, 50.0, 1200), uniform_grid(50.0, 1200)):
        floor = eigvalsh_tridiagonal(grid.kin_diag, grid.kin_off,
                                     select="i", select_range=(0, 0))[0]
        assert floor > -1e-6


def test_trace_matches_exact_coulomb_sum():
    s = trace_neg(VC, 1.0, mu=1.0 / 400.0, refine=True)
    assert s.trace == pytest.approx(trace_neg_coulomb(1.0 / 400.0), abs=2e-3)
    assert s.trace == pytest.approx(-3.075, abs=2e-3)
    assert s.n_states == 285  # sum of n^2 for n <= 9


def test_trace_zero_when_supremum_below_mu():
    s = trace_neg(lambda r: 0.05 / (1 + r ** 4), 1.0, mu=0.1,
                  grid=make_grid(0.1, 30.0, 1200))
    assert s.trace == 0.0
    assert s.n_states == 0


def test_trace_h_monotone():
    # fewer bound states and shallower sums as h grows
    grid = make_grid(0.05, 60.0, 3000)
    V = lambda r: 2.0 / (1.0 + r ** 2) ** 2
    traces = [trace_neg(V, h, mu=0.0, grid=grid).trace for h in (0.2, 0.35, 0.5, 1.0)]
    assert all(a <= b + 1e-12 for a, b in zip(traces, traces[1:]))


def test_tf_trace_regression_baseline(tf_solution):
    # self-oracle under refinement, value frozen as the regression baseline
    s = trace_neg(tf_solution.potential(), 0.25, mu=0.0, refine=True)
    assert s.trace == pytest.approx(-12.4888, rel=2e-4)


def test_trace_grid_refinement_stability():
    grid = radial_eig.auto_grid(VC, 1.0, 1.0 / 100.0, resolution=12.0)
    t1 = trace_neg(VC, 1.0, mu=1.0 / 100.0, grid=grid).trace
    t2 = trace_neg(VC, 1.0, mu=1.0 / 100.0, grid=grid.refined()).trace
    assert abs(t2 - t1) < 0.005 * abs(t1)


def test_channel_emptiness_is_monotone():
    grid = make_grid(0.3, 200.0, 2500)
    sizes = []
    for ell in range(12):
        sizes.append(negative_eigenvalues(
            build_channel(VC(grid.r), 1.0, ell, grid), mu=1.0 / 50.0).size)
    empty_seen = False
    for s in sizes:
        if s == 0:
            empty_seen = True
        assert not (empty_seen and s > 0)


def test_channel_cascade_cap(monkeypatch):
    monkeypatch.setattr(radial_eig, "LMAX_CAP", 3)
    with pytest.raises(ChannelCascadeError):
        trace_neg(VC, 1.0, mu=1.0 / 400.0)


def test_mapping_variants_agree():
    # same physics on the sinh mesh and the uniform reference mesh
    sinh_grid = make_grid(0.2, 80.0, 3000)
    e_sinh = negative_eigenvalues(build_channel(VC(sinh_grid.r), 1.0, 0, sinh_grid), mu=0.02)
    uni_grid = uniform_grid(80.0, 16000)
    e_uni = negative_eigenvalues(build_channel(VC(uni_grid.r), 1.0, 0, uni_grid), mu=0.02)
    np.testing.assert_allclose(e_uni[:3], e_sinh[:3], atol=5e-3)


# ---------------------------------------------------------------------------
# channels solved on threads
# ---------------------------------------------------------------------------

multicore = pytest.mark.skipif(len(os.sched_getaffinity(0)) < 2,
                               reason="a sum starts threads only on two usable cores")

# SpectralSum.workers of every sum in this process
WORKERS = len(os.sched_getaffinity(0)) if len(os.sched_getaffinity(0)) > 1 else 0


def serial_channels(V, h, mu, grid, cutoff=None):
    """Channels 0, 1, ... up to the first empty one, one in-process solve at a time."""
    v, f = V(grid.r), None if cutoff is None else cutoff(grid.r)
    found = {}
    for ell in range(200):
        vals = negative_eigenvalues(build_channel(v, h, ell, grid, f), mu=mu)
        if vals.size == 0:
            return found
        found[ell] = vals


def serial_sum(V, h, mu, grid, cutoff=None, refine=False):
    """The oracle of a threaded sum: the channels from the serial loop, and their trace
    summed by an explicit loop in l order (two-grid Richardson with refine)."""
    def channels_and_trace(g):
        channels, total = serial_channels(V, h, mu, g, cutoff), 0.0
        for ell, vals in channels.items():
            total += 2.0 * (2 * ell + 1) * neg_part_sum(vals + mu)
        return channels, total

    channels, trace = channels_and_trace(grid)
    if refine:
        coarse = trace
        channels, trace = channels_and_trace(grid.refined())
        trace = (4.0 * trace - coarse) / 3.0
    return channels, trace


def assert_same_sum(got, want):
    channels, trace = want
    assert got.eigenvalues.keys() == channels.keys()
    for ell, vals in channels.items():
        assert np.array_equal(got.eigenvalues[ell], vals)
    assert got.trace == trace


def pool_grid(r_max):
    """A grid of 3,000 nodes: a few ms per channel."""
    return make_grid(radial_eig.core_radius(1.0), r_max, 3000)


def localized_grid(R):
    """The grid localized_trace_neg builds for a cutoff of radius R at h = 1."""
    r_core = radial_eig.core_radius(1.0)
    n = radial_eig._resolution_nodes(VC, 1.0, 0.0, r_core, R, radial_eig.LOCALIZED_RESOLUTION)
    return make_grid(r_core, R, n)


@pytest.fixture
def paced(monkeypatch):
    """paced(seconds, fail_at=None): every _stebz call sleeps seconds first; call number
    fail_at sleeps half that and raises LinAlgError.  Returns the calls' start times, and
    the time of the raise as the last entry once it raised."""
    solve, starts = radial_eig._stebz, []

    def install(seconds, fail_at=None):
        def slow(*args):
            starts.append(time.perf_counter())
            if len(starts) == fail_at:
                time.sleep(seconds / 2)
                starts.append(time.perf_counter())
                raise np.linalg.LinAlgError("injected")
            time.sleep(seconds)
            return solve(*args)
        monkeypatch.setattr(radial_eig, "_stebz", slow)
        return starts
    return install


@pytest.mark.parametrize("refine", [False, True], ids=["plain", "refined"])
def test_pooled_trace_equals_serial_loop(refine, paced):
    grid = pool_grid(400.0)
    starts = paced(0.0)
    got = trace_neg(VC, 1.0, mu=1.0 / 100.0, grid=grid, refine=refine)
    # each grid's channels up to its first empty one, and at most one
    # channel past it per other thread
    grids = 2 if refine else 1
    assert len(starts) <= grids * (max(got.eigenvalues) + 2 + max(WORKERS - 1, 0))
    assert got.workers == WORKERS
    assert_same_sum(got, serial_sum(VC, 1.0, 1.0 / 100.0, grid, refine=refine))


def test_pooled_localized_trace_equals_serial_loop():
    phi = SmoothCutoff(80.0)
    grid = pool_grid(80.0)
    got = radial_eig._spectral_sum(VC, 1.0, 0.0, grid, phi, True)
    assert got.workers == WORKERS
    assert_same_sum(got, serial_sum(VC, 1.0, 0.0, grid, cutoff=phi, refine=True))


def test_small_grid_sums_equal_serial_loop(tf_solution):
    # grids of a few hundred to two thousand nodes: a short sum on threads
    phi = SmoothCutoff(20.0)
    grid = localized_grid(20.0)
    assert grid.n == 536
    got = localized_trace_neg(VC, phi, 1.0, refine=True)
    assert got.workers == WORKERS
    assert_same_sum(got, serial_sum(VC, 1.0, 0.0, grid, cutoff=phi, refine=True))
    V = tf_solution.potential()
    grid = radial_eig.auto_grid(V, 0.125, 0.0)
    assert grid.n == 1979
    got = trace_neg(V, 0.125, refine=True)
    assert got.workers == WORKERS
    assert_same_sum(got, serial_sum(V, 0.125, 0.0, grid, refine=True))


def test_pooled_cascade_cap_and_worker_errors_reach_the_caller(monkeypatch):
    grid = pool_grid(400.0)
    threads = threading.active_count()
    with monkeypatch.context() as patch:
        patch.setattr(radial_eig, "LMAX_CAP", 2)
        with pytest.raises(ChannelCascadeError):
            trace_neg(VC, 1.0, mu=1.0 / 400.0, grid=grid)
    assert threading.active_count() == threads
    # build_channel ignores mu, so the workers are the first to reject it
    with pytest.raises(ValueError, match="mu must be nonnegative"):
        trace_neg(VC, 1.0, mu=-1.0, grid=grid)
    assert threading.active_count() == threads
    got = trace_neg(VC, 1.0, mu=1.0 / 100.0, grid=grid)
    assert got.workers == WORKERS
    assert threading.active_count() == threads
    assert_same_sum(got, serial_sum(VC, 1.0, 1.0 / 100.0, grid))


def test_worker_error_stops_every_worker(paced):
    # the other threads are mid-channel when the third call raises: each
    # finishes that channel and takes no other
    threads = threading.active_count()
    starts = paced(0.1, fail_at=3)
    t0 = time.perf_counter()
    with pytest.raises(np.linalg.LinAlgError, match="injected"):
        trace_neg(VC, 1.0, mu=1.0 / 400.0, grid=pool_grid(400.0), refine=True)
    elapsed = time.perf_counter() - t0
    raised = starts.pop()
    assert all(t < raised for t in starts)
    assert len(starts) <= 3 + max(WORKERS - 1, 0)
    assert elapsed < 0.6  # the sum has 20 channels of 0.1 s
    assert threading.active_count() == threads


class _Interrupted(Exception):
    pass


def test_interrupted_sum_joins_its_threads(paced):
    # SIGALRM's handler raises in the calling thread mid-channel, the
    # pattern of a timeout or Ctrl-C in the CLI
    def interrupt(signum, frame):
        fired.append(time.perf_counter())
        raise _Interrupted

    threads, fired = threading.active_count(), []
    starts = paced(0.2)
    previous = signal.signal(signal.SIGALRM, interrupt)
    t0 = time.perf_counter()
    try:
        signal.setitimer(signal.ITIMER_REAL, 0.5)
        with pytest.raises(_Interrupted):
            trace_neg(VC, 1.0, mu=1.0 / 400.0, grid=pool_grid(400.0), refine=True)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    elapsed = time.perf_counter() - t0
    assert threading.active_count() == threads
    assert all(t < fired[0] for t in starts)
    assert elapsed < 1.2  # within one channel of the alarm; the sum has 20 channels of 0.2 s


@multicore
def test_callers_errstate_holds_on_every_thread(monkeypatch):
    # numpy's error state is a context variable, which a new thread does not inherit
    build, caller = radial_eig.build_channel, threading.current_thread()

    def overflow_off_the_caller(v, h, ell, grid, f=None):
        if threading.current_thread() is not caller:
            np.array([1e308]) * 10.0
        return build(v, h, ell, grid, f)

    monkeypatch.setattr(radial_eig, "build_channel", overflow_off_the_caller)
    with np.errstate(over="raise"):
        with pytest.raises(FloatingPointError):
            trace_neg(VC, 1.0, mu=1.0 / 100.0, grid=pool_grid(400.0), refine=True)


def test_one_usable_core_starts_no_pool(monkeypatch):
    def no_start(thread):
        raise AssertionError("a thread was started")

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    monkeypatch.setattr(threading.Thread, "start", no_start)
    got = trace_neg(VC, 1.0, mu=1.0 / 100.0, grid=pool_grid(400.0), refine=True)
    assert got.workers == 0


@multicore
def test_fine_task_without_its_coarse_channel_gives_the_same_sum(monkeypatch):
    # coarse channel 0 is late: the other thread solves coarse 1, then fine 0 without guesses
    grid = pool_grid(400.0)
    build, solve, seen = radial_eig.build_channel, radial_eig.negative_eigenvalues, []

    def late_coarse_0(v, h, ell, g, f=None):
        if g.n == grid.n and ell == 0:
            time.sleep(0.5)
        return build(v, h, ell, g, f)

    def record(op, mu=0.0, guesses=()):
        if op[0].size > grid.n:
            seen.append(len(guesses))
        return solve(op, mu, guesses)

    monkeypatch.setattr(radial_eig, "build_channel", late_coarse_0)
    monkeypatch.setattr(radial_eig, "negative_eigenvalues", record)
    got = trace_neg(VC, 1.0, mu=1.0 / 100.0, grid=grid, refine=True)
    assert seen[0] == 0 and any(seen[1:])
    assert_same_sum(got, serial_sum(VC, 1.0, 1.0 / 100.0, grid, refine=True))


def test_second_thread_sums_in_process():
    grid = pool_grid(400.0)
    got = []
    worker = threading.Thread(target=lambda: got.append(
        trace_neg(VC, 1.0, mu=1.0 / 100.0, grid=grid, refine=True)))
    worker.start()
    worker.join(timeout=120)
    assert not worker.is_alive()
    assert got[0].workers == WORKERS
    assert_same_sum(got[0], serial_sum(VC, 1.0, 1.0 / 100.0, grid, refine=True))


@multicore
def test_side_walks_still_fork_after_a_sum():
    # core.fork_cores forks only from a process that runs one thread, so a
    # thread left over from a radial sum would keep the side walks in-process
    from scottlab.pauli import FieldAnsatz, PauliGrid, pauli_trace_neg

    assert threading.active_count() == 1
    trace_neg(VC, 1.0, mu=0.1, refine=True)
    radial_eig.localized_trace_neg(VC, SmoothCutoff(8.0), 1.0, refine=True)
    assert threading.active_count() == 1
    got = pauli_trace_neg(FieldAnsatz(theta=(8.0, 0.0), support_radius=2.0), VC, h=1.0,
                          phi=SmoothCutoff(8.0), grid=PauliGrid.for_ball(8.0, n_rho=16, n_z=32))
    assert got.workers == 2


class _Counted:
    """A radial function that counts the times it is evaluated."""

    def __init__(self, fn):
        self.fn, self.calls = fn, 0

    def __call__(self, r):
        self.calls += 1
        return self.fn(r)


def test_fields_are_evaluated_once_per_grid():
    V = _Counted(VC)
    trace_neg(V, 1.0, mu=1.0 / 100.0, grid=pool_grid(400.0), refine=True)
    assert V.calls == 2
    phi = SmoothCutoff(40.0)
    V, cut = _Counted(VC), _Counted(phi)
    radial_eig._spectral_sum(V, 1.0, 0.0, pool_grid(40.0), cut, True)
    assert (V.calls, cut.calls) == (2, 2)


# ---------------------------------------------------------------------------
# cutoff route
# ---------------------------------------------------------------------------


def test_localized_trace_inactive_cutoff_reduces_to_trace_neg():
    # phi identically 1 on a huge ball around the bound states, mu-shifted
    phi = SmoothCutoff(600.0)
    mu = 1.0 / 16.0
    shifted = lambda r: 1.0 / r - mu
    loc = radial_eig._spectral_sum(shifted, 1.0, 0.0, make_grid(0.2, 600.0, 6000), phi, False)
    ref = trace_neg(VC, 1.0, mu=mu, grid=make_grid(0.2, 600.0, 6000))
    assert loc.trace == pytest.approx(ref.trace, abs=1e-6)


def test_localized_trace_zero_cutoff():
    class Zero:
        R = 20.0

        def __call__(self, r):
            return np.zeros_like(np.asarray(r, dtype=float))

    z = Zero()
    s = localized_trace_neg(VC, z, 1.0)
    assert s.trace == 0.0


def test_localized_trace_requires_support_radius():
    with pytest.raises(ValueError):
        localized_trace_neg(VC, lambda r: np.ones_like(r), 1.0)


def test_cutoff_scott_estimate_moves_toward_quarter():
    d20, d160 = radial_eig.scott_cutoff_schedule([20.0, 160.0], refine=False).meta["d_values"]
    assert abs(d160 - 0.25) < abs(d20 - 0.25)
    est = radial_eig.scott_cutoff_schedule([20.0, 40.0], refine=False)
    assert est.R == 40.0
    assert est.meta["d_values"][1] < est.meta["d_values"][0]
    assert est.meta["weyl_values"] == [cutoff_weyl_coulomb(SmoothCutoff(R)) for R in (20.0, 40.0)]
    assert "extrapolated" in est.meta


def test_cutoff_scott_limit_via_extrapolation():
    # the finite-R excess decays like ~c R^(-1/2); eliminating it from an
    # (R, 2R) pair brings the estimate close to the limit 2 S(0) = 1/4.
    # Radii much beyond ~200 are excluded: marginal high-l states carry
    # 2(2l+1)-weighted threshold jitter that dominates the value there.
    est = radial_eig.scott_cutoff_schedule([80.0, 160.0], refine=True)
    d80, d160 = est.meta["d_values"]
    scaled = [(d80 - 0.25) * np.sqrt(80.0), (d160 - 0.25) * np.sqrt(160.0)]
    assert abs(scaled[1] / scaled[0] - 1.0) < 0.25  # approximate R^(-1/2) law
    assert est.meta["extrapolated"] == pytest.approx(0.25, abs=0.025)


def test_cutoff_schedule_rejects_repeated_radii(monkeypatch):
    # the two-radius extrapolation divides by sqrt(r2 / r1) - 1, so equal
    # radii are refused before any trace is taken
    monkeypatch.setattr(radial_eig, "localized_trace_neg",
                        lambda *args, **kwargs: pytest.fail("a trace was taken"))
    with pytest.raises(ValueError, match="radii must be distinct"):
        radial_eig.scott_cutoff_schedule([6, 6])


# ---------------------------------------------------------------------------
# semiclassical fit
# ---------------------------------------------------------------------------


def test_fit_expansion_recovers_exact_model():
    c3, c2 = -0.2562, 0.25
    hs = [0.125, 0.1, 1 / 12, 1 / 16, 0.05]
    samples = [(h, c3 * h ** -3 + c2 * h ** -2) for h in hs]
    fit = fit_expansion(samples, weyl_coeff=c3)
    assert fit.c2 == pytest.approx(c2, rel=1e-12)
    assert fit.max_rel_residual < 1e-12


def test_fit_expansion_zero_c2():
    hs = [0.2, 0.1, 0.05]
    samples = [(h, -0.3 * h ** -3) for h in hs]
    fit = fit_expansion(samples, weyl_coeff=-0.3)
    assert abs(fit.c2) < 1e-10


def test_fit_expansion_validation():
    with pytest.raises(ValueError):
        fit_expansion([(0.1, -1.0), (0.1, -1.0), (0.1, -1.0)], weyl_coeff=-1.0)
    with pytest.raises(ValueError):
        fit_expansion([(0.1, -1.0), (0.05, -2.0)], weyl_coeff=-1.0)


def test_cutoff_weyl_value():
    # independent check of the phi^2-weighted Coulomb Weyl integral: the
    # r^(-1/2) head over [0, 1] (where phi = 1) is 2 analytically, the rest
    # is a dense trapezoid
    phi = SmoothCutoff(20.0)
    r = np.linspace(1.0, 20.0, 200001)
    oracle = -(8.0 / (15.0 * np.pi)) * (2.0 + np.trapezoid(phi.sq(r) / np.sqrt(r), r))
    assert cutoff_weyl_coulomb(phi) == pytest.approx(oracle, rel=1e-6)
