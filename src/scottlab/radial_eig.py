"""Negative-eigenvalue traces of radial Schroedinger operators -h^2 Delta - V.

Partial waves reduce the problem to symmetric tridiagonal eigenproblems,
one per angular momentum channel, solved by LAPACK bisection with Sturm
counting (dstebz, called through ctypes in scipy's bundled OpenBLAS) so
that counts below a threshold are certified.  The mesh is sinh-mapped,
r = r_core sinh(xi): uniform with spacing r_core d(xi) at the Coulomb
core and log-like in the tail, so u(0) = 0 is exact and the l-dependent
regular behaviour u ~ r^(l+1) needs no boundary surgery.  It is sinh and
not log because a log mesh cut off at r_min carries a Dirichlet wall
error O(|u'(0)|^2 r_min) and a stencil norm ~(h / (r_min dy))^2 that
bisection resolves only to eps times it, while the sinh mesh keeps
||T|| ~ (h / (r_core dxi))^2 bounded.  Cutoff sandwiches phi (H phi .) phi
stay tridiagonal (diagonal congruence), and their negative spectrum is
exactly supported inside supp phi, so the mesh can stop at the cutoff radius.

On a machine with two or more usable cores, a sum whose grid has at
least POOL_MIN_NODES nodes forks one child per usable core, pinned to it,
for that sum alone.  Child i solves the channels l = i (mod k) of each
grid up to its own first empty one and sends their eigenvalues back; the
parent merges them in l order and stops at the first empty channel, as
the in-process loop does, and reaps every child before it returns.  Both
paths run the same code on the same arrays, so a sum is bit for bit the
same either way.  Processes, not threads: the ctypes call to dstebz
releases the interpreter lock, but threads were never measured.  Smaller
grids stay in-process, where forking would cost more (README table).
"""

from __future__ import annotations

import ctypes
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import ScottEstimate, fork_cores, fork_join, neg_part_sum, scipy_openblas
from .cutoffs import SmoothCutoff
from .weyl import WeylIntegrand, weyl_integral


class ChannelCascadeError(RuntimeError):
    """More channels carry negative eigenvalues than the configured cap."""


# outer radius cap, node cap and largest probed radius of the automatic grids,
# and the highest angular momentum channel a sum may reach
R_CAP, N_CAP, R_PROBE_MAX, LMAX_CAP = 1e4, 60000, 1e12, 200

# nodes per local de Broglie length of the cutoff-localized meshes
LOCALIZED_RESOLUTION = 24.0

# nodes of a sum's grid from which its channels go to forked children: the
# smallest grids on which one sum saves more than forking costs
POOL_MIN_NODES = 3000


# ---------------------------------------------------------------------------
# grids
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RadialGrid:
    """Sinh radial mesh and the unit (h = 1) kinetic stencil."""

    r: np.ndarray
    kin_diag: np.ndarray
    kin_off: np.ndarray
    r_core: float
    r_max: float
    n: int

    def refined(self) -> "RadialGrid":
        return make_grid(self.r_core, self.r_max, 2 * self.n)


def make_grid(r_core: float, r_max: float, n: int) -> RadialGrid:
    if n < 8:
        raise ValueError("grid too small")
    xi_max = math.asinh(r_max / r_core)
    xi = np.linspace(0.0, xi_max, n + 2)[1:-1]
    dxi = xi_max / (n + 1)
    r = r_core * np.sinh(xi)
    gp = r_core * np.cosh(xi)
    W = 0.5 - 0.75 * np.tanh(xi) ** 2
    kin_diag = (2.0 / dxi ** 2 - W) / gp ** 2
    kin_off = -(1.0 / dxi ** 2) / (gp[:-1] * gp[1:])
    return RadialGrid(r=r, kin_diag=kin_diag, kin_off=kin_off,
                      r_core=r_core, r_max=r_max, n=n)


def core_radius(h: float) -> float:
    """r_core of the sinh mesh: ~h^2 (the Coulomb core scale), kept in [5e-4, 0.3]."""
    return min(0.3, max(5e-4, 0.5 * h * h))


def _outermost_radius(V, threshold: float):
    probe = np.geomspace(1e-6, R_PROBE_MAX, 121)
    above = np.asarray(V(probe)) > threshold
    if not above.any():
        return None
    return float(probe[np.nonzero(above)[0].max()])


def _resolution_nodes(V, h, mu, r_core, r_max, resolution):
    """Node count so the mesh tracks the local de Broglie length / resolution."""
    xi_max = math.asinh(r_max / r_core)
    probe = np.geomspace(max(r_core / 4.0, 1e-6), r_max, 200)
    v = np.maximum(np.asarray(V(probe), dtype=float), 0.0)
    # local wavenumber from the potential, with a soft floor so the
    # requirement stays finite in the classically forbidden tail
    k_loc = np.sqrt(v + mu + (h / (probe + 8.0 * r_core)) ** 2)
    dr_req = h / (resolution * k_loc)
    dxi_req = float(np.min(dr_req / np.sqrt(probe ** 2 + r_core ** 2)))
    return int(np.clip(math.ceil(xi_max / dxi_req), 400, N_CAP))


def auto_grid(V, h: float, mu: float, r_max: Optional[float] = None,
              resolution: float = 20.0) -> RadialGrid:
    """Heuristic sinh grid: r_max from the outermost classical turning radius
    (times 4), core scale ~ h^2, spacing ~ local de Broglie length / resolution."""
    r_core = core_radius(h)
    if r_max is None:
        if mu > 0.0:
            r_t = _outermost_radius(V, mu)
            if r_t is None:
                r_max = 50.0 * h
            else:
                r_max = min(R_CAP, 4.0 * r_t)
        else:
            # last WKB-bound scale: largest r with r^2 V(r) >= (h/2)^2
            r_t = _outermost_radius(lambda r: r * r * np.asarray(V(r)), 0.25 * h * h)
            if r_t is None:
                r_max = 50.0 * h
            elif r_t > 0.5 * R_PROBE_MAX:
                raise ValueError(
                    "V does not decay fast enough for a finite mu = 0 trace")
            else:
                r_max = min(R_CAP, 6.0 * r_t)
    n = _resolution_nodes(V, h, mu, r_core, r_max, resolution)
    return make_grid(r_core, r_max, n)


# ---------------------------------------------------------------------------
# channel operators
# ---------------------------------------------------------------------------


def build_channel(v: np.ndarray, h: float, ell: int, grid: RadialGrid,
                  f: Optional[np.ndarray] = None):
    """Tridiagonal (d, e) of channel ell of -h^2 Delta - V, v = V(grid.r), sandwiched by f if given."""
    r = grid.r
    h2 = h * h
    d = h2 * grid.kin_diag + h2 * ell * (ell + 1) / r ** 2 - v
    e = h2 * grid.kin_off
    if f is not None:
        d = d * f * f
        e = e * f[:-1] * f[1:]
    return d, e


def _stebz(d: np.ndarray, e: np.ndarray, vl: float, vu: float) -> np.ndarray:
    """The eigenvalues of the tridiagonal (d, e) in (vl, vu], ascending, by LAPACK dstebz as
    eigvalsh_tridiagonal(d, e, select="v", select_range=(vl, vu)) calls it: through ctypes
    in scipy_openblas(), or else through scipy.linalg.lapack."""
    lib = scipy_openblas()
    if lib is None:
        from scipy.linalg.lapack import dstebz
        m, w, _, _, info = dstebz(d, e, 1, vl, vu, 1, 1, 0.0, "E")
    else:
        n, i32, f64, ref = d.size, ctypes.c_int32, ctypes.c_double, ctypes.byref
        m, nsplit, info, w, work = i32(), i32(), i32(), np.empty(n), np.empty(4 * n)
        iblock, isplit, iwork = (np.empty(k * n, dtype=np.int32) for k in (1, 1, 3))
        dstebz = lib.scipy_dstebz_  # one object per cached handle: typed on the first call
        if dstebz.restype is not None:
            pi, pf, p = ctypes.POINTER(i32), ctypes.POINTER(f64), ctypes.c_void_p
            # RANGE ORDER N VL VU IL IU ABSTOL D E M NSPLIT W IBLOCK ISPLIT WORK IWORK INFO, lengths
            dstebz.argtypes = ([ctypes.c_char_p] * 2 + [pi, pf, pf, pi, pi, pf, p, p, pi, pi]
                               + [p] * 5 + [pi] + [ctypes.c_size_t] * 2)
            dstebz.restype = None
        dstebz(b"V", b"E", ref(i32(n)), ref(f64(vl)), ref(f64(vu)), ref(i32(1)), ref(i32(1)),
               ref(f64(0.0)), d.ctypes.data, e.ctypes.data, ref(m), ref(nsplit),
               *(a.ctypes.data for a in (w, iblock, isplit, work, iwork)), ref(info), 1, 1)
        m, info = m.value, info.value
    if info != 0:  # LinAlgError is a ValueError
        raise np.linalg.LinAlgError(f"LAPACK dstebz returned INFO = {info}")
    return w[:m]


def negative_eigenvalues(op, mu: float = 0.0) -> np.ndarray:
    """All eigenvalues below -mu of the channel op = (d, e), ascending, via LAPACK bisection."""
    if mu < 0:
        raise ValueError("mu must be nonnegative")
    d, e = (np.ascontiguousarray(a, dtype=float) for a in op)
    if d.ndim != 1 or e.shape != (d.size - 1,):
        raise ValueError("a channel is d of n entries and e of n - 1")
    # bisection resolves eigenvalues to ~eps * ||T||; eigenvalues inside the
    # pad band are numerically indistinguishable from the threshold and their
    # true contribution to a shifted trace is below the pad anyway
    norm_est = float(np.max(np.abs(d))) + 2.0 * float(np.max(np.abs(e)))
    if not (math.isfinite(norm_est) and math.isfinite(mu)):  # else the threshold is not
        raise ValueError("channel entries, their norm and mu must be finite")
    pad = 128.0 * np.finfo(float).eps * norm_est
    lo = float(np.min(d)) - 2.0 * float(np.max(np.abs(e))) - 1.0
    vu = -mu - pad
    if lo >= vu:
        return np.array([])
    vals = _stebz(d, e, lo, vu)
    return np.sort(vals[vals < vu])


# ---------------------------------------------------------------------------
# traces
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SpectralSum:
    """Per-channel negative eigenvalues and the spin-weighted shifted trace.

    With coarse_trace set (a refined sum) the eigenvalues are those of the
    fine grid and the trace is the two-grid Richardson value
    (4 T_fine - T_coarse) / 3.  workers counts the processes that solved
    the channels, 0 when they were solved in-process.
    """

    eigenvalues: dict
    mu: float
    ell_max: int
    coarse_trace: Optional[float] = None
    workers: int = 0

    @property
    def trace(self) -> float:
        total = 0.0
        for ell, vals in self.eigenvalues.items():
            total += 2.0 * (2 * ell + 1) * neg_part_sum(vals + self.mu)
        if self.coarse_trace is None:
            return total
        return (4.0 * total - self.coarse_trace) / 3.0

    @property
    def n_states(self) -> int:
        return int(sum((2 * ell + 1) * vals.size for ell, vals in self.eigenvalues.items()))


def _merge(parts):
    """Channels 0, 1, ... up to the first empty one, parts[i] holding l = i (mod k).

    Each part runs up to and including its own first empty channel, so
    every channel up to the first empty one overall is there.
    """
    found = {}
    for ell in range(LMAX_CAP + 1):
        vals = parts[ell % len(parts)][ell]
        if vals.size == 0:
            return found, ell - 1
        found[ell] = vals
    raise ChannelCascadeError(f"channels still nonempty at the l cap {LMAX_CAP}")


def _spectral_sum(V, h, mu, grid, cutoff, refine) -> SpectralSum:
    """The channel sum on grid, or with refine its two-grid Richardson value.

    V and the cutoff are evaluated once on each grid.  Where core.fork_cores
    gives k cores (two or more usable ones, and a process that runs one
    thread) and the grid has at least POOL_MIN_NODES nodes, child i of k
    forked ones solves the channels l = i (mod k) of every grid; otherwise
    work(0) runs here with k = 1.
    """
    grids = [grid, grid.refined()] if refine else [grid]
    fields = [(np.asarray(V(g.r), dtype=float),
               None if cutoff is None else np.asarray(cutoff(g.r), dtype=float))
              for g in grids]
    cpus = fork_cores()
    pooled = bool(cpus) and grid.n >= POOL_MIN_NODES
    k = len(cpus) if pooled else 1

    def work(i):
        """Channels i, i + k, ... of each grid, up to and including its first empty one."""
        out = []
        for g, (v, f) in zip(grids, fields):
            found = {}
            for ell in range(i, LMAX_CAP + 1, k):
                found[ell] = negative_eigenvalues(build_channel(v, h, ell, g, f), mu=mu)
                if found[ell].size == 0:
                    break
            out.append(found)
        return out

    if pooled:
        if scipy_openblas() is None:  # loaded once here, inherited by the children
            import scipy.linalg.lapack  # noqa: F401
        parts = fork_join(work, cpus)
    else:
        parts = [work(0)]
    total = None
    for g, *found in zip(grids, *parts):
        channels, ell_max = _merge(found)
        total = SpectralSum(channels, mu, ell_max,
                            coarse_trace=None if total is None else total.trace,
                            workers=k if pooled else 0)
    return total


def trace_neg(V, h: float, mu: float = 0.0, grid: Optional[RadialGrid] = None,
              refine: bool = False, resolution: float = 20.0) -> SpectralSum:
    """Sum of 2 (2 l + 1) (e + mu) over all channel eigenvalues e < -mu.

    Channels are assembled until the first empty one (emptiness is monotone
    in l since the centrifugal term grows with l), at most up to LMAX_CAP.  refine=True replaces
    each channel's contribution by the (4 T_2n - T_n)/3 Richardson value.
    """
    if grid is None:
        grid = auto_grid(V, h, mu, resolution=resolution)
    return _spectral_sum(V, h, mu, grid, None, refine)


def localized_trace_neg(V, phi, h: float, refine: bool = False) -> SpectralSum:
    """Trace of [phi (T_h - V) phi]_- for a radial cutoff phi.

    phi must expose its support radius as phi.R (a SmoothCutoff does); the
    negative spectrum is exactly supported inside supp phi, so the mesh
    stops there.  Its nodes follow the local de Broglie length at
    LOCALIZED_RESOLUTION.
    """
    R = getattr(phi, "R", None)
    if R is None:
        raise ValueError("cutoff must carry its support radius as attribute R")
    r_core = core_radius(h)
    n = _resolution_nodes(V, h, 0.0, r_core, R, LOCALIZED_RESOLUTION)
    return _spectral_sum(V, h, 0.0, make_grid(r_core, R, n), phi, refine)


# ---------------------------------------------------------------------------
# Scott via finite cutoff radius
# ---------------------------------------------------------------------------


def cutoff_weyl_coulomb(phi: SmoothCutoff) -> float:
    """2 (2 pi)^-3 iint phi^2(q) [p^2 - 1/|q|]_- dp dq."""
    return weyl_integral(WeylIntegrand(V=lambda r: 1.0 / r, weight=phi.sq,
                                       mu=0.0, h=1.0, support=phi.R))


def scott_cutoff_value(R: float, refine: bool = True) -> float:
    """d(R) = Tr[phi_R (-Delta - 1/|x|) phi_R]_- minus the cutoff Weyl term."""
    phi = SmoothCutoff(R)
    tr = localized_trace_neg(lambda r: 1.0 / r, phi, h=1.0, refine=refine)
    return tr.trace - cutoff_weyl_coulomb(phi)


def scott_cutoff_schedule(R_list, refine: bool = True) -> ScottEstimate:
    """Evaluate d(R) over a radius schedule; the estimate records the largest R.

    meta carries the per-R values and the R^(-1/2)-eliminated pair
    extrapolation of the last two radii (the empirical finite-R decay).
    """
    Rs = sorted(float(R) for R in R_list)
    if len(Rs) < 1:
        raise ValueError("need at least one radius")
    if len(set(Rs)) < len(Rs):
        raise ValueError("radii must be distinct")
    vals = [scott_cutoff_value(R, refine=refine) for R in Rs]
    meta = {"R_values": Rs, "d_values": vals}
    if len(Rs) >= 2:
        r1, r2 = Rs[-2], Rs[-1]
        d1, d2 = vals[-2], vals[-1]
        w = math.sqrt(r2 / r1)
        meta["extrapolated"] = (w * d2 - d1) / (w - 1.0)
    return ScottEstimate(value=vals[-1], route="cutoff-R", R=Rs[-1], meta=meta)


# ---------------------------------------------------------------------------
# semiclassical fit
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FitResult:
    c3: float
    c2: float
    max_rel_residual: float


def fit_expansion(samples, weyl_coeff: float) -> FitResult:
    """Least squares of trace(h) ~ c3 h^-3 + c2 h^-2 with c3 pinned to weyl_coeff.

    Residuals are taken in units of h^-2 (multiply by h^2) so every sample
    weighs the Scott-scale coefficient equally.
    """
    pts = [(float(h), float(t)) for h, t in samples]
    hs = np.array([p[0] for p in pts])
    ts = np.array([p[1] for p in pts])
    if np.unique(hs).size < 3:
        raise ValueError("need at least 3 distinct h values")
    c3 = float(weyl_coeff)
    c2 = float(np.mean(ts * hs ** 2 - c3 / hs))
    model = c3 * hs ** -3 + c2 * hs ** -2
    max_rel = float(np.max(np.abs(model - ts) / np.maximum(np.abs(ts), 1e-300)))
    return FitResult(c3=c3, c2=c2, max_rel_residual=max_rel)


def scott_spectral_fit(tf_solution, h_list=(0.125, 0.1, 1.0 / 12.0, 1.0 / 16.0, 0.05),
                       refine: bool = True, resolution: float = 20.0) -> ScottEstimate:
    """Fit the two-term expansion of Tr[-h^2 Delta - V_TF]_- across an h sweep.

    c3 is pinned to the solution's phase-space coefficient; the fitted c2
    estimates 2 S(0).
    """
    samples = []
    for h in h_list:
        s = trace_neg(tf_solution.potential(), h, mu=0.0, refine=refine,
                      resolution=resolution)
        samples.append((h, s.trace))
    fit = fit_expansion(samples, weyl_coeff=tf_solution.phase_space_coeff)
    return ScottEstimate(value=fit.c2, route="spectral-fit",
                         meta={"samples": samples, "c3": fit.c3,
                               "max_rel_residual": fit.max_rel_residual})
