"""Atomic Thomas-Fermi theory.

The neutral-atom problem reduces to the universal screening profile
phi(t) solving phi'' = phi^(3/2) / sqrt(t), phi(0) = 1, phi(inf) = 0;
every charge is recovered from the z = 1 solution through the scaling
laws (V -> h^-4, rho -> h^-6, E -> h^-7 with h = z^-1/3).

Solution strategy, in three stitched pieces:

* a power series in u = sqrt(t) on [0, T_SERIES] whose coefficients obey
  a closed recursion, anchored by the slope phi'(0);
* Chebyshev collocation for (w, w') with w = log phi against s = log t
  on [T_SERIES, T_GRID_MAX], evaluated as the Chebyshev series of its
  interpolant through the collocation values;
* the asymptotic two-term tail beyond the grid.

One Newton iteration, in numpy alone, solves for the profile and the slope
phi'(0) together: the slope is an unknown of the boundary-value problem, w and
w' match the series at T_SERIES, and the far end carries the Robin
condition of the decaying 144/t^3 branch with the solution's own tail
amplitude.  The stitch at T_SERIES is C^1, and the tail amplitude is
self-consistent.  The energies are Gauss quadratures in x = sqrt(t) on one
node set, with phi evaluated once on it (_energy_integrals).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.chebyshev import chebval
from numpy.polynomial.legendre import leggauss, legint, legval, legvander
from numpy.polynomial.polynomial import polyval

from .core import gauss, numpy_openblas, one_blas_thread
from .weyl import MOMENTUM_COEFF

# decay exponent of perturbations around the 144/t^3 branch
SOMMERFELD_LAMBDA = (math.sqrt(73.0) - 7.0) / 2.0

# matching radius between the series and the collocation solution (TF variable)
T_SERIES = 0.05

# default exported grid (TF variable), log spaced
T_GRID_MIN, T_GRID_MAX, N_GRID = 1e-6, 1e4, 4000

# highest power of u = sqrt(t) in the series
SERIES_ORDER = 40

# Chebyshev collocation order, Newton step cap, the cells of the collocation-region
# residual check, and the bound on equation_residual
CHEB_ORDER, NEWTON_MAX, RESIDUAL_CELLS, RESIDUAL_TOL = 70, 30, 200, 1e-8

# b with V(r) = phi(r/b)/r for z = 1 (fixes the universal ODE normalization)
B_LENGTH = (3.0 * math.pi / 4.0) ** (2.0 / 3.0)

_RHO_COEFF = 1.0 / (3.0 * math.pi ** 2)          # rho = coeff * V^(3/2), spin 2 included
_KIN_COEFF = 0.6 * (3.0 * math.pi ** 2) ** (2.0 / 3.0)
# phase-space prefactor of int V^(5/2); this grouping keeps the bits of 2/(15 pi^2)
_PS_COEFF = 2.0 * MOMENTUM_COEFF / (2.0 * math.pi) ** 3


class TFConvergenceError(RuntimeError):
    """Raised when the collocation fails or the equation residual is above RESIDUAL_TOL."""


# ---------------------------------------------------------------------------
# universal profile
# ---------------------------------------------------------------------------


def baker_coefficients(slope0: float) -> np.ndarray:
    """Coefficients c_k, k <= SERIES_ORDER, of phi = sum c_k u^k, u = sqrt(t), near the origin.

    In u the TF equation reads phi_uu - phi_u/u = 4 u phi^(3/2); matching
    powers gives c_k k(k-2) = 4 g_(k-3) for k >= 4 with c_0 = 1,
    c_2 = slope0, c_3 = 4/3, where g = c^(3/2) follows the power-rule
    recurrence g_0 = 1, g_m = sum_(j=1..m) (2.5 j/m - 1) c_j g_(m-j).
    """
    c = np.zeros(SERIES_ORDER + 1)
    g = np.zeros(SERIES_ORDER - 2)
    c[0] = g[0] = 1.0
    c[2] = slope0
    c[3] = 4.0 / 3.0
    for k in range(4, SERIES_ORDER + 1):
        m = k - 3
        acc = 0.0
        for j in range(1, m + 1):
            acc += (j * 2.5 / m - 1.0) * c[j] * g[m - j]
        g[m] = acc
        c[k] = 4.0 * acc / (k * (k - 2.0))
    return c


def _series_eval(c: np.ndarray, t, deriv: int = 0):
    """phi and t-derivatives from the u = sqrt(t) series; relies on c_1 = 0."""
    u = np.sqrt(np.asarray(t, dtype=float))
    if deriv == 0:
        return polyval(u, c)
    d1 = c[1:] * np.arange(1, c.size)        # phi_u coefficients, d1[0] = 0
    if deriv == 1:
        # dphi/dt = phi_u / (2u) = polyval(u, d1[1:]) / 2
        return polyval(u, d1[1:]) / 2.0
    d2 = d1[1:] * np.arange(1, d1.size)      # phi_uu coefficients
    # phi_tt = (phi_uu - phi_u / u) / (4 u^2), with phi_u / u = polyval(u, d1[1:])
    return (polyval(u, d2) - polyval(u, d1[1:])) / (4.0 * u ** 2)


def _bvp_rhs(s, y):
    w, v = y
    return np.vstack([v, v - v * v + np.exp(0.5 * w + 1.5 * s)])


@one_blas_thread(numpy_openblas)  # an LU on several threads has other low bits
def _solve_profile():
    """One collocation for (w = log phi, w') on [log T_SERIES, log T_GRID_MAX] and the slope.

    Newton on (w, v = w') at CHEB_ORDER + 1 Chebyshev points and on p = phi'(0).
    w' = v holds at all points but the left end, v' = v - v^2 + e^(w/2 + 3s/2)
    at all but the right end.  At T_SERIES, w and v equal the series with slope
    p; at t_hi = T_GRID_MAX the Robin condition v = -3 - lambda xi/(1 + xi) of the
    144/t^3 branch takes the tail amplitude 1 + xi = e^w t_hi^3 / 144 from the
    solution.  Sommerfeld's (1 + q)^(-1/lambda), q = (t^3/144)^lambda, with p = -1.6
    starts it.  Returns p and the Chebyshev coefficients of w and v.
    """
    def series(p):  # (w, v) at T_SERIES from the series with slope p
        c = baker_coefficients(p)
        phi = _series_eval(c, T_SERIES)
        return np.array([math.log(phi), T_SERIES * _series_eval(c, T_SERIES, 1) / phi])

    a, b, n = math.log(T_SERIES), math.log(T_GRID_MAX), CHEB_ORDER
    s = 0.5 * (a + b) - 0.5 * (b - a) * np.cos(np.pi * np.arange(n + 1) / n)
    lam = np.r_[0.5, np.ones(n - 1), 0.5] * (-1.0) ** np.arange(n + 1)  # barycentric weights
    D = np.outer(1.0 / lam, lam) / (s[:, None] - s + np.eye(n + 1))
    D -= np.diag(D.sum(axis=1))
    q = np.exp(SOMMERFELD_LAMBDA * (3.0 * s - math.log(144.0)))
    w, v, p = -np.log1p(q) / SOMMERFELD_LAMBDA, -3.0 * q / (1.0 + q), -1.6
    for _ in range(NEWTON_MAX):
        bc, e = series(p), np.exp(0.5 * w + 1.5 * s)
        g = SOMMERFELD_LAMBDA * 144.0 * math.exp(-w[-1]) / T_GRID_MAX ** 3
        resid = np.r_[(np.r_[D @ w, D @ v] - _bvp_rhs(s, (w, v)).ravel())[1:-1],
                      w[0] - bc[0], v[-1] + 3.0 + SOMMERFELD_LAMBDA - g, v[0] - bc[1]]
        jac = np.zeros((2 * n + 3, 2 * n + 3))
        jac[:-3, :-1] = np.block([[D, -np.eye(n + 1)],
                                  [-0.5 * np.diag(e), D - np.diag(1.0 - 2.0 * v)]])[1:-1]
        jac[[-3, -2, -2, -1], [0, n, 2 * n + 1, n + 1]] = 1.0, g, 1.0, 1.0
        jac[[-3, -1], -1] = (series(p - 1e-6) - series(p + 1e-6)) / 2e-6
        step = np.linalg.solve(jac, -resid)
        w, v, p = w + step[:n + 1], v + step[n + 1:-1], p + step[-1]
        if np.max(np.abs(step)) < 1e-12:
            break
    else:
        raise TFConvergenceError(f"collocation failed: no convergence in {NEWTON_MAX} Newton steps")
    return float(p), _chebyshev_coefficients(w), _chebyshev_coefficients(v)


def _chebyshev_coefficients(values):
    """Chebyshev coefficients of the interpolant through values at the points -cos(pi j/n),
    j = 0..n: the DCT-I, one real FFT of the even extension."""
    n = values.size - 1
    f = values[::-1]  # at cos(pi j/n)
    c = np.fft.rfft(np.r_[f, f[-2:0:-1]]).real / n
    c[[0, n]] /= 2.0
    return c


def _chebyshev_eval(coef, s):
    """The Chebyshev series coef at s = log t, mapped from [log T_SERIES, log T_GRID_MAX]."""
    a, b = math.log(T_SERIES), math.log(T_GRID_MAX)
    return chebval((2.0 * s - a - b) / (b - a), coef)


@dataclass(frozen=True, kw_only=True)
class TFProfile:
    """The universal screening profile phi(t) from its three stitched pieces.

    series covers t < T_SERIES; the Chebyshev series w_coef and v_coef of
    (w, v) = (log phi, its log-t derivative) in s = log t cover the grid;
    the Sommerfeld tail with relative amplitude xi_tail at the grid end
    covers t beyond it.
    """

    slope0: float
    series: np.ndarray
    w_coef: np.ndarray
    v_coef: np.ndarray
    xi_tail: float

    def phi(self, t):
        return self._evaluate(t, 0)

    def dphi(self, t):
        return self._evaluate(t, 1)

    def _evaluate(self, t, deriv: int):
        """phi (deriv 0) or phi' (deriv 1): series, Chebyshev series or tail by region."""
        t = np.asarray(t, dtype=float)
        scalar = t.ndim == 0
        t = np.atleast_1d(t)
        out = np.empty_like(t)
        lo = t < T_SERIES
        hi = t > T_GRID_MAX
        mid = ~(lo | hi)
        if lo.any():
            out[lo] = _series_eval(self.series, t[lo], deriv)
        if mid.any():
            s = np.log(t[mid])
            phi = np.exp(_chebyshev_eval(self.w_coef, s))
            out[mid] = phi if deriv == 0 else _chebyshev_eval(self.v_coef, s) * phi / t[mid]
        if hi.any():
            th = t[hi]
            xi = self.xi_tail * (th / T_GRID_MAX) ** (-SOMMERFELD_LAMBDA)
            out[hi] = (144.0 / th ** 3 * (1.0 + xi) if deriv == 0 else
                       144.0 / th ** 4 * (-3.0 * (1.0 + xi) - SOMMERFELD_LAMBDA * xi))
        return float(out[0]) if scalar else out

    def profile_table(self) -> np.ndarray:
        """Columns (t, phi, phi') on the export grid."""
        t = np.geomspace(T_GRID_MIN, T_GRID_MAX, N_GRID)
        return np.column_stack([t, self.phi(t), self.dphi(t)])


@dataclass(frozen=True, kw_only=True)
class TFSolution(TFProfile):
    """Universal TF profile plus the z = 1 energy bookkeeping.

    V(r, z) evaluates the potential of a neutral atom of charge z at radius
    r; E_atom is the energy coefficient with E(z) = E_atom * z^(7/3).
    phase_space is the quadrature of the momentum-reduced integral
    2 (2 pi)^-3 iint [p^2 - V]_-, and phase_space_coeff the same quantity
    from the functional, E_atom + D_rho.
    """

    residual_sup: float
    E_atom: float
    D_rho: float
    kinetic: float
    attraction: float
    mass: float
    phase_space: float

    @property
    def phase_space_coeff(self) -> float:
        return self.E_atom + self.D_rho

    def V(self, r, z: float = 1.0):
        """Thomas-Fermi potential of a neutral atom of charge z at radius r."""
        r = np.asarray(r, dtype=float)
        rs = z ** (1.0 / 3.0) * r
        return z ** (4.0 / 3.0) * self.phi(rs / B_LENGTH) / np.maximum(rs, 1e-300)

    def potential(self, z: float = 1.0):
        return lambda r: self.V(r, z=z)


def solve_tf_atom() -> TFSolution:
    """Solve the universal atomic TF problem.

    Raises TFConvergenceError if the collocation fails, or if the
    TF-equation residual ends up above RESIDUAL_TOL.
    """
    return _assemble(*_solve_profile())


def _assemble(slope0, w_coef, v_coef) -> TFSolution:
    """The one constructor of TFSolution, for a fresh solve and a cached one alike.

    Builds the profile from the slope and the Chebyshev coefficients of w and
    w', takes the tail amplitude xi_tail from w at T_GRID_MAX, raises
    ValueError unless the slope is finite and each array holds CHEB_ORDER + 1
    finite values, and TFConvergenceError when the equation residual exceeds
    RESIDUAL_TOL, then computes the energies.
    """
    w_coef, v_coef = (np.asarray(c, dtype=float) for c in (w_coef, v_coef))
    if not (math.isfinite(slope0) and all(c.shape == (CHEB_ORDER + 1,) and np.all(np.isfinite(c))
                                          for c in (w_coef, v_coef))):
        raise ValueError(f"need a finite slope and {CHEB_ORDER + 1} finite coefficients of w, v")
    profile = TFProfile(
        slope0=slope0, series=baker_coefficients(slope0), w_coef=w_coef, v_coef=v_coef,
        xi_tail=math.exp(chebval(1.0, w_coef) + 3.0 * math.log(T_GRID_MAX)) / 144.0 - 1.0,
    )
    residual = equation_residual(profile)
    if residual > RESIDUAL_TOL:
        raise TFConvergenceError(
            f"TF residual {residual:.3e} above tolerance {RESIDUAL_TOL:.1e}")
    mass, attraction, kinetic, d_rho, ps = _energy_integrals(profile)
    return TFSolution(
        **vars(profile), residual_sup=residual, E_atom=kinetic - attraction + d_rho,
        D_rho=d_rho, kinetic=kinetic, attraction=attraction, mass=mass,
        phase_space=ps,
    )


# ---------------------------------------------------------------------------
# residual and quadratures
# ---------------------------------------------------------------------------

_GL12 = leggauss(12)
_GL16 = leggauss(16)
# [k, j] = int_-1^(x_k) l_j, l_j the Lagrange basis polynomial of Gauss-16 node j, whose Legendre
# coefficients are (n + 1/2) w_j P_n(x_j) by the discrete orthogonality of P_n at the nodes
_GL16_CUM = ((legval(_GL16[0], legint(np.eye(16), lbnd=-1.0)).T * (np.arange(16) + 0.5))
             @ (legvander(_GL16[0], 15) * _GL16[1][:, None]).T)


def equation_residual(profile: TFProfile) -> float:
    """Sup over cells of the relative TF-equation residual.

    Per cell [t1, t2]: |phi'(t2) - phi'(t1) - int phi^(3/2) t^(-1/2) dt|
    divided by the integral itself.  The series region is checked pointwise
    through its analytic second derivative; the collocation region through
    the integrated first-order form (robust against the 1/t amplification
    a pointwise second-derivative reconstruction would suffer near t = 0).
    """
    # series region: direct pointwise check
    ts = np.geomspace(1e-6, T_SERIES, 40)
    rhs = _series_eval(profile.series, ts) ** 1.5 / np.sqrt(ts)
    lhs = _series_eval(profile.series, ts, 2)
    series_worst = np.max(np.abs(lhs - rhs) / rhs)
    # collocation region: cell-integrated check, all cells at once
    w, v = profile.w_coef, profile.v_coef
    s_edges = np.linspace(math.log(T_SERIES), math.log(T_GRID_MAX), RESIDUAL_CELLS + 1)
    dphi_edges = _chebyshev_eval(v, s_edges) * np.exp(_chebyshev_eval(w, s_edges) - s_edges)
    s, ws = gauss(s_edges[:-1], s_edges[1:], _GL12)
    integral = np.sum(ws * np.exp(1.5 * _chebyshev_eval(w, s) + 0.5 * s), axis=-1)
    cell_worst = np.max(np.abs(np.diff(dphi_edges) - integral) / integral)
    return float(max(series_worst, cell_worst))


# edges of 700 geometric panels in x = sqrt(t) on [0, 100]
_X_EDGES = np.concatenate([[0.0], np.geomspace(100.0 * 1e-6, 100.0, 700)])


def _density(phi, t):
    """TF density at r = B t for z = 1 from the profile values phi = phi(t)."""
    return _RHO_COEFF * (phi / (B_LENGTH * t)) ** 1.5


def _volume(t):
    """Volume element 4 pi r^2 dr/dt at r = B t."""
    return 4.0 * np.pi * (B_LENGTH * t) ** 2 * B_LENGTH


def _energy_integrals(profile: TFProfile):
    """(mass, attraction, kinetic, D, phase-space) for z = 1 from the profile.

    phi is evaluated once, on the Gauss-16 nodes of the panels _X_EDGES in
    x = sqrt(t), which carry all five integrals; panel totals are added left
    to right.  The quadratures stop at t = T_GRID_MAX.  The mass beyond it,
    about 6e-10, is added in closed form from the Sommerfeld tail to first
    order in xi_tail; the other tails (attraction and D 2.4e-14, kinetic and
    phase space about 1e-24) are below the printed precision and left out.
    """
    x, wx = gauss(_X_EDGES[:-1], _X_EDGES[1:], _GL16)
    t = x ** 2
    phi = profile.phi(t)
    rho, vol, r = _density(phi, t), _volume(t), B_LENGTH * t

    def total(f):  # integral f(t) dt, panel totals added left to right
        return float(np.cumsum(np.sum(wx * 2.0 * x * f, axis=-1))[-1])

    mass_tail = (4.0 * math.pi * B_LENGTH ** 3 * _RHO_COEFF * (144.0 / B_LENGTH) ** 1.5
                 / T_GRID_MAX ** 3
                 * (1.0 / 3.0 + 1.5 * profile.xi_tail / (3.0 + SOMMERFELD_LAMBDA)))
    mass = total(vol * rho) + mass_tail
    attraction = total(vol * rho / r)
    kinetic = _KIN_COEFF * total(vol * rho ** (5.0 / 3.0))
    ps = -_PS_COEFF * total(vol * (phi / r) ** 2.5)

    # Coulomb self-energy by Newton's theorem, D = 1/2 int dm (m / r + w) with m the enclosed
    # mass and w = int_r^inf dm / r'.  At each node the panels to its left enter through
    # cumulative sums, its own panel through _GL16_CUM on the panel's degree-15 interpolant of
    # dm/dx and dw/dx (einsum without optimize calls no BLAS: the bits ignore the thread count).
    def before(panels):
        return np.concatenate([[0.0], np.cumsum(panels)[:-1]])[:, None]

    dm = 2.0 * x * vol * rho
    dw = 2.0 * x * 4.0 * np.pi * B_LENGTH * t * rho * B_LENGTH
    half = 0.5 * np.diff(_X_EDGES)[:, None]
    panel_m, panel_w = np.sum(wx * dm, axis=1), np.sum(wx * dw, axis=1)
    m_loc = before(panel_m) + half * np.einsum("pj,kj->pk", dm, _GL16_CUM)
    w_loc = (float(np.sum(panel_w)) - before(panel_w)
             - half * np.einsum("pj,kj->pk", dw, _GL16_CUM))
    d_panels = np.sum(wx * 2.0 * x * vol * rho * (m_loc / r + w_loc), axis=1)
    return mass, attraction, kinetic, 0.5 * float(np.cumsum(d_panels)[-1]), ps


# ---------------------------------------------------------------------------
# consistency reports
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TFConsistencyReport:
    rel_gap: float
    virial_ratio: float
    mass_error: float


def tf_energy_consistency(sol: TFSolution) -> TFConsistencyReport:
    """Evaluate the TF energy two independent ways and the virial identity.

    (a) functional: (3/5)(3 pi^2)^(2/3) int rho^(5/3) - int V_nuc rho + D(rho);
    (b) phase space: 2 (2 pi)^-3 iint [p^2 - V]_- - D(rho).
    The virial ratio is |2K + U| / |E| with U = -attraction + D.  Both
    energies are the ones stored on sol.
    """
    e_func = sol.E_atom
    e_ps = sol.phase_space - sol.D_rho
    return TFConsistencyReport(
        rel_gap=abs(e_func - e_ps) / abs(e_func),
        virial_ratio=abs(2.0 * sol.kinetic - sol.attraction + sol.D_rho) / abs(e_func),
        mass_error=sol.mass - 1.0,
    )
