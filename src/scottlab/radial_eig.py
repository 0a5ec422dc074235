"""Negative-eigenvalue traces of radial Schroedinger operators -h^2 Delta - V.

Partial waves reduce the problem to symmetric tridiagonal eigenproblems,
one per angular momentum channel, solved by LAPACK bisection with Sturm
counting (stebz) so that counts below a threshold are certified.  The
default mesh is sinh-mapped, r = r_core sinh(xi): uniform with spacing
r_core d(xi) at the Coulomb core and log-like in the tail, so u(0) = 0
is exact and the l-dependent regular behaviour u ~ r^(l+1) needs no
boundary surgery.  A pure log mesh is also available but carries two
documented penalties: a hard-wall error O(|u'(0)|^2 r_min) from the
Dirichlet truncation at r_min (eliminating it through a ghost ratio is
hopeless, the stencil weight amplifies ratio errors by ~(r_min dy)^-2),
and ill conditioning for absolute eigenvalue queries, since bisection
resolves only ~eps * ||T|| with ||T|| ~ (h / (r_min dy))^2; the sinh
mesh keeps ||T|| ~ (h / (r_core dxi))^2 bounded instead.
Cutoff sandwiches phi (H phi .) phi stay tridiagonal (diagonal
congruence), and their negative spectrum is exactly supported inside
supp phi, so the mesh can stop at the cutoff radius.
"""

from __future__ import annotations

import math
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np
from scipy.linalg import eigvalsh_tridiagonal

from .core import ScottEstimate
from .cutoffs import SmoothCutoff
from .weyl import WeylIntegrand, weyl_integral


class ChannelCascadeError(RuntimeError):
    """More channels carry negative eigenvalues than the configured cap."""


# ---------------------------------------------------------------------------
# grids
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RadialGrid:
    """Radial mesh with mapping metadata and the unit (h = 1) kinetic stencil."""

    mapping: str
    r: np.ndarray
    kin_diag: np.ndarray
    kin_off: np.ndarray
    r_core: float
    r_max: float
    n: int

    def refined(self) -> "RadialGrid":
        return make_grid(self.mapping, self.r_core, self.r_max, 2 * self.n)


def make_grid(mapping: str, r_core: float, r_max: float, n: int) -> RadialGrid:
    if n < 8:
        raise ValueError("grid too small")
    if mapping == "sinh":
        xi_max = math.asinh(r_max / r_core)
        xi = np.linspace(0.0, xi_max, n + 2)[1:-1]
        dxi = xi_max / (n + 1)
        r = r_core * np.sinh(xi)
        gp = r_core * np.cosh(xi)
        W = 0.5 - 0.75 * np.tanh(xi) ** 2
        kin_diag = (2.0 / dxi ** 2 - W) / gp ** 2
        kin_off = -(1.0 / dxi ** 2) / (gp[:-1] * gp[1:])
    elif mapping == "log":
        y = np.linspace(math.log(r_core), math.log(r_max), n + 2)[1:-1]
        dy = (math.log(r_max) - math.log(r_core)) / (n + 1)
        r = np.exp(y)
        kin_diag = (2.0 / dy ** 2 + 0.25) * np.exp(-2.0 * y)
        kin_off = -(1.0 / dy ** 2) * np.exp(-(y[:-1] + y[1:]))
    elif mapping == "uniform":
        r = np.linspace(0.0, r_max, n + 2)[1:-1]
        dr = r_max / (n + 1)
        kin_diag = np.full(n, 2.0 / dr ** 2)
        kin_off = np.full(n - 1, -1.0 / dr ** 2)
    else:
        raise ValueError(f"unknown mapping {mapping!r}")
    return RadialGrid(mapping=mapping, r=r, kin_diag=kin_diag, kin_off=kin_off,
                      r_core=r_core, r_max=r_max, n=n)


def _outermost_radius(V, threshold: float, r_probe_max: float = 1e12):
    probe = np.geomspace(1e-6, r_probe_max, 121)
    above = np.asarray(V(probe)) > threshold
    if not above.any():
        return None
    return float(probe[np.nonzero(above)[0].max()])


def _resolution_nodes(V, h, mu, r_core, r_max, resolution, n_cap):
    """Node count so the mesh tracks the local de Broglie length / resolution."""
    xi_max = math.asinh(r_max / r_core)
    probe = np.geomspace(max(r_core / 4.0, 1e-6), r_max, 200)
    v = np.maximum(np.asarray(V(probe), dtype=float), 0.0)
    # local wavenumber from the potential, with a soft floor so the
    # requirement stays finite in the classically forbidden tail
    k_loc = np.sqrt(v + mu + (h / (probe + 8.0 * r_core)) ** 2)
    dr_req = h / (resolution * k_loc)
    dxi_req = float(np.min(dr_req / np.sqrt(probe ** 2 + r_core ** 2)))
    return int(np.clip(math.ceil(xi_max / dxi_req), 400, n_cap))


def auto_grid(V, h: float, mu: float, r_max: Optional[float] = None,
              resolution: float = 20.0, r_cap: float = 1e4,
              n_cap: int = 60000) -> RadialGrid:
    """Heuristic sinh grid: r_max from the outermost classical turning radius
    (times 4), core scale ~ h^2, spacing ~ local de Broglie length / resolution."""
    r_core = min(0.3, max(5e-4, 0.5 * h * h))
    if r_max is None:
        if mu > 0.0:
            r_t = _outermost_radius(V, mu)
            if r_t is None:
                r_max = 50.0 * h
            else:
                r_max = min(r_cap, 4.0 * r_t)
        else:
            # last WKB-bound scale: largest r with r^2 V(r) >= (h/2)^2
            r_t = _outermost_radius(lambda r: r * r * np.asarray(V(r)), 0.25 * h * h)
            if r_t is None:
                r_max = 50.0 * h
            elif r_t > 0.5e12:
                raise ValueError(
                    "V does not decay fast enough for a finite mu = 0 trace")
            else:
                r_max = min(r_cap, 6.0 * r_t)
    n = _resolution_nodes(V, h, mu, r_core, r_max, resolution, n_cap)
    return make_grid("sinh", r_core, r_max, n)


# ---------------------------------------------------------------------------
# channel operators
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ChannelOperator:
    """Symmetric tridiagonal representation of one angular momentum channel."""

    ell: int
    h: float
    grid: RadialGrid
    diag: np.ndarray
    off: np.ndarray
    V: Callable = field(compare=False, repr=False, default=None)
    cutoff: Optional[Callable] = field(compare=False, repr=False, default=None)


def build_channel(V, h: float, ell: int, grid: RadialGrid,
                  cutoff: Optional[Callable] = None) -> ChannelOperator:
    r = grid.r
    h2 = h * h
    d = h2 * grid.kin_diag + h2 * ell * (ell + 1) / r ** 2 - np.asarray(V(r), dtype=float)
    e = h2 * grid.kin_off.copy()
    if cutoff is not None:
        f = np.asarray(cutoff(r), dtype=float)
        d = d * f * f
        e = e * f[:-1] * f[1:]
    return ChannelOperator(ell=ell, h=h, grid=grid, diag=d, off=e, V=V, cutoff=cutoff)


def negative_eigenvalues(op: ChannelOperator, mu: float = 0.0,
                         verify_count: bool = False) -> np.ndarray:
    """All eigenvalues below -mu, ascending, via LAPACK bisection (Sturm counts).

    With verify_count=True the count is recomputed on a once-refined grid and
    a grid-too-coarse warning is emitted if it changes.
    """
    if mu < 0:
        raise ValueError("mu must be nonnegative")
    d, e = op.diag, op.off
    # bisection resolves eigenvalues to ~eps * ||T||; eigenvalues inside the
    # pad band are numerically indistinguishable from the threshold and their
    # true contribution to a shifted trace is below the pad anyway
    norm_est = float(np.max(np.abs(d))) + 2.0 * float(np.max(np.abs(e)))
    pad = 128.0 * np.finfo(float).eps * norm_est
    lo = float(np.min(d)) - 2.0 * float(np.max(np.abs(e))) - 1.0
    vu = -mu - pad
    if lo >= vu:
        return np.array([])
    vals = eigvalsh_tridiagonal(d, e, select="v", select_range=(lo, vu))
    vals = np.sort(vals[vals < vu])
    if verify_count:
        fine = build_channel(op.V, op.h, op.ell, op.grid.refined(), cutoff=op.cutoff)
        fine_vals = negative_eigenvalues(fine, mu=mu, verify_count=False)
        if fine_vals.size != vals.size:
            warnings.warn(
                f"channel l={op.ell}: eigenvalue count changed under refinement "
                f"({vals.size} -> {fine_vals.size}); grid too coarse",
                RuntimeWarning, stacklevel=2)
    return vals


# ---------------------------------------------------------------------------
# traces
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SpectralSum:
    """Per-channel negative eigenvalues and the spin-weighted shifted trace."""

    eigenvalues: dict
    mu: float
    h: float
    ell_max: int
    grid_n: int
    grid_mapping: str

    @property
    def trace(self) -> float:
        total = 0.0
        for ell, vals in self.eigenvalues.items():
            total += 2.0 * (2 * ell + 1) * float(np.sum(vals + self.mu))
        return total

    @property
    def n_states(self) -> int:
        return int(sum((2 * ell + 1) * vals.size for ell, vals in self.eigenvalues.items()))


def _assemble(V, h, mu, grid, cutoff, lmax_cap, max_workers):
    found = {}

    def solve(ell):
        return negative_eigenvalues(build_channel(V, h, ell, grid, cutoff), mu=mu)

    if max_workers <= 1:
        for ell in range(lmax_cap + 1):
            vals = solve(ell)
            if vals.size == 0:
                return found, ell - 1
            found[ell] = vals
    else:
        block = max(2, max_workers)
        ell0 = 0
        with ThreadPoolExecutor(max_workers=max_workers) as pool:
            while ell0 <= lmax_cap:
                ells = list(range(ell0, min(ell0 + block, lmax_cap + 1)))
                for ell, vals in zip(ells, pool.map(solve, ells)):
                    if vals.size == 0:
                        return found, ell - 1
                    found[ell] = vals
                ell0 += block
    raise ChannelCascadeError(f"channels still nonempty at the l cap {lmax_cap}")


def _spectral_sum(V, h, mu, grid, cutoff, lmax_cap, refine, max_workers) -> SpectralSum:
    """The channel sum on grid, or with refine its two-grid Richardson value."""
    found, ell_max = _assemble(V, h, mu, grid, cutoff, lmax_cap, max_workers)
    coarse = SpectralSum(found, mu, h, ell_max, grid.n, grid.mapping)
    if not refine:
        return coarse
    fine_grid = grid.refined()
    found, ell_max = _assemble(V, h, mu, fine_grid, cutoff, lmax_cap, max_workers)
    fine = SpectralSum(found, mu, h, ell_max, fine_grid.n, grid.mapping)
    # store the fine eigenvalues; the extrapolated trace is exposed by RichardsonSum
    return RichardsonSum(**vars(fine), coarse_trace=coarse.trace, fine_trace=fine.trace)


def trace_neg(V, h: float, mu: float = 0.0, grid: Optional[RadialGrid] = None,
              lmax_cap: int = 200, refine: bool = False,
              resolution: float = 20.0, max_workers: int = 1) -> SpectralSum:
    """Sum of 2 (2 l + 1) (e + mu) over all channel eigenvalues e < -mu.

    Channels are assembled until the first empty one (emptiness is monotone
    in l since the centrifugal term grows with l).  refine=True replaces
    each channel's contribution by the (4 T_2n - T_n)/3 Richardson value.
    """
    if grid is None:
        grid = auto_grid(V, h, mu, resolution=resolution)
    return _spectral_sum(V, h, mu, grid, None, lmax_cap, refine, max_workers)


@dataclass(frozen=True)
class RichardsonSum(SpectralSum):
    """SpectralSum whose trace is the two-grid Richardson extrapolation."""

    coarse_trace: float = 0.0
    fine_trace: float = 0.0

    @property
    def trace(self) -> float:
        return (4.0 * self.fine_trace - self.coarse_trace) / 3.0


def localized_trace_neg(V, phi, h: float, grid: Optional[RadialGrid] = None,
                        lmax_cap: int = 200, refine: bool = False,
                        resolution: float = 24.0,
                        max_workers: int = 1) -> SpectralSum:
    """Trace of [phi (T_h - V) phi]_- for a radial cutoff phi.

    phi must expose its support radius as phi.R (a SmoothCutoff does); the
    negative spectrum is exactly supported inside supp phi, so the mesh
    stops there.
    """
    R = getattr(phi, "R", None)
    if R is None:
        raise ValueError("cutoff must carry its support radius as attribute R")
    if grid is None:
        r_core = min(0.3, max(5e-4, 0.5 * h * h))
        n = _resolution_nodes(V, h, 0.0, r_core, R, resolution, 60000)
        grid = make_grid("sinh", r_core, R, n)
    return _spectral_sum(V, h, 0.0, grid, phi, lmax_cap, refine, max_workers)


# ---------------------------------------------------------------------------
# Scott via finite cutoff radius
# ---------------------------------------------------------------------------


def cutoff_weyl_coulomb(phi: SmoothCutoff, h: float = 1.0) -> float:
    """2 (2 pi h)^-3 iint phi^2(q) [p^2 - 1/|q|]_- dp dq."""
    return weyl_integral(WeylIntegrand(V=lambda r: 1.0 / r, weight=phi.sq,
                                       mu=0.0, h=h, support=phi.R))


def scott_cutoff_value(R: float, inner: float = 0.5, refine: bool = True,
                       resolution: float = 24.0) -> float:
    """d(R) = Tr[phi_R (-Delta - 1/|x|) phi_R]_- minus the cutoff Weyl term."""
    phi = SmoothCutoff(R, inner=inner)
    tr = localized_trace_neg(lambda r: 1.0 / r, phi, h=1.0,
                             refine=refine, resolution=resolution)
    return tr.trace - cutoff_weyl_coulomb(phi)


def scott_cutoff_schedule(R_list, inner: float = 0.5,
                          refine: bool = True) -> ScottEstimate:
    """Evaluate d(R) over a radius schedule; the estimate records the largest R.

    meta carries the per-R values and the R^(-1/2)-eliminated pair
    extrapolation of the last two radii (the empirical finite-R decay).
    """
    Rs = sorted(float(R) for R in R_list)
    if len(Rs) < 1:
        raise ValueError("need at least one radius")
    vals = [scott_cutoff_value(R, inner=inner, refine=refine) for R in Rs]
    meta = {"R_values": Rs, "d_values": vals}
    if len(Rs) >= 2:
        r1, r2 = Rs[-2], Rs[-1]
        d1, d2 = vals[-2], vals[-1]
        w = math.sqrt(r2 / r1)
        meta["extrapolated"] = (w * d2 - d1) / (w - 1.0)
    return ScottEstimate(value=vals[-1], route="cutoff-R", kappa=0.0,
                         R=Rs[-1], meta=meta)


# ---------------------------------------------------------------------------
# semiclassical fit
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FitResult:
    c3: float
    c2: float
    max_rel_residual: float
    pinned: bool


def fit_expansion(samples, weyl_coeff: Optional[float] = None) -> FitResult:
    """Least squares of trace(h) ~ c3 h^-3 + c2 h^-2 over (h, trace) samples.

    With weyl_coeff given, c3 is pinned to it.  Residuals are taken in
    units of h^-2 (multiply by h^2) so every sample weighs the Scott-scale
    coefficient equally.
    """
    pts = [(float(h), float(t)) for h, t in samples]
    hs = np.array([p[0] for p in pts])
    ts = np.array([p[1] for p in pts])
    if np.unique(hs).size < 3:
        raise ValueError("need at least 3 distinct h values")
    y = ts * hs ** 2
    if weyl_coeff is not None:
        c3 = float(weyl_coeff)
        c2 = float(np.mean(y - c3 / hs))
        pinned = True
    else:
        if np.unique(hs).size < 2:
            raise ValueError("rank-deficient design: need 2 distinct h for a free c3")
        A = np.vstack([1.0 / hs, np.ones_like(hs)]).T
        sol, *_ = np.linalg.lstsq(A, y, rcond=None)
        c3, c2 = float(sol[0]), float(sol[1])
        pinned = False
    model = c3 * hs ** -3 + c2 * hs ** -2
    max_rel = float(np.max(np.abs(model - ts) / np.maximum(np.abs(ts), 1e-300)))
    return FitResult(c3=c3, c2=c2, max_rel_residual=max_rel, pinned=pinned)


def scott_spectral_fit(tf_solution, h_list=(0.125, 0.1, 1.0 / 12.0, 1.0 / 16.0, 0.05),
                       refine: bool = True, resolution: float = 20.0,
                       max_workers: int = 1) -> ScottEstimate:
    """Fit the two-term expansion of Tr[-h^2 Delta - V_TF]_- across an h sweep.

    c3 is pinned to the solution's phase-space coefficient; the fitted c2
    estimates 2 S(0).
    """
    samples = []
    for h in h_list:
        s = trace_neg(tf_solution.potential(), h, mu=0.0, refine=refine,
                      resolution=resolution, max_workers=max_workers)
        samples.append((h, s.trace))
    fit = fit_expansion(samples, weyl_coeff=tf_solution.phase_space_coeff)
    return ScottEstimate(value=fit.c2, route="spectral-fit", kappa=0.0,
                         meta={"samples": samples, "c3": fit.c3,
                               "max_rel_residual": fit.max_rel_residual})
