"""Negative-eigenvalue traces of radial Schroedinger operators -h^2 Delta - V.

Partial waves reduce the problem to symmetric tridiagonal eigenproblems,
one per angular momentum channel, solved by LAPACK bisection with Sturm
counting (dstebz, called through ctypes in numpy's bundled OpenBLAS) so
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

dstebz bisects a fixed tree: its root is the Gershgorin interval, widened
by FUDGE and clipped to (vl, vu], and it splits each node holding
eigenvalues at its midpoint until the node is narrower than its tolerance.
Computed Sturm counts are monotone, so a node gives the same final
intervals wherever the bisection started.  A refined sum's large fine
channels start (dlaebz) at the deepest unconverged nodes with midpoints
outside a window around each coarse eigenvalue, if the counts add up.

A sum runs its channels on one thread per usable core, the calling thread
included, started for that sum alone and joined before it returns or
raises.  The ctypes calls to LAPACK release the interpreter lock, so the
bisections run in parallel.  The threads take (grid, l) tasks from one
queue, every coarse channel in l order before the fine ones (each of which
takes its coarse eigenvalues as guesses if they are there), and skip those
above the first empty channel found so far on their grid; the channels are
then read in l order up to the first empty one, as a loop on one thread
reads them, so a sum is bit for bit the same on any number of threads.
"""

from __future__ import annotations

import contextvars
import ctypes
import logging
import math
import os
import threading
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import ScottEstimate, SpectralSum, numpy_openblas
from .cutoffs import SmoothCutoff
from .weyl import WeylIntegrand, weyl_integral


log = logging.getLogger(__name__)


class ChannelCascadeError(RuntimeError):
    """More channels carry negative eigenvalues than the configured cap."""


# outer radius cap, node cap and largest probed radius of the automatic grids,
# and the highest angular momentum channel a sum may reach
R_CAP, N_CAP, R_PROBE_MAX, LMAX_CAP = 1e4, 60000, 1e12, 200

# nodes per local de Broglie length of the cutoff-localized meshes
LOCALIZED_RESOLUTION = 24.0

# LAPACK's dlamch("P") and dlamch("S"), dstebz's FUDGE and every bisection's ABSTOL (0: its own)
ULP, SAFEMIN, FUDGE, ABSTOL = np.finfo(float).eps, np.finfo(float).tiny, 2.1, 0.0

# the smallest channel whose bisection guesses speed up (the walk down the tree costs ~1 ms)
GUIDED_N = 4000


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
        # at mu = 0 the last WKB-bound scale: largest r with r^2 V(r) >= (h/2)^2
        r_t = (_outermost_radius(V, mu) if mu > 0.0 else
               _outermost_radius(lambda r: r * r * np.asarray(V(r)), 0.25 * h * h))
        if not mu > 0.0 and r_t is not None and r_t > 0.5 * R_PROBE_MAX:
            raise ValueError("V does not decay fast enough for a finite mu = 0 trace")
        r_max = 50.0 * h if r_t is None else min(R_CAP, (4.0 if mu > 0.0 else 6.0) * r_t)
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
    in numpy_openblas(), with 64-bit integers, or else through scipy.linalg.lapack."""
    lib = numpy_openblas()
    if lib is None:
        from scipy.linalg.lapack import dstebz
        m, w, _, _, info = dstebz(d, e if e.size else np.zeros(1), 1, vl, vu, 1, 1, ABSTOL, "E")
    else:
        n, i64, f64, ref = d.size, ctypes.c_int64, ctypes.c_double, ctypes.byref
        m, nsplit, info, w, work = i64(), i64(), i64(), np.empty(n), np.empty(4 * n)
        iblock, isplit, iwork = (np.empty(k * n, dtype=np.int64) for k in (1, 1, 3))
        lib.scipy_dstebz_64_(b"V", b"E", ref(i64(n)), ref(f64(vl)), ref(f64(vu)), ref(i64(1)),
                             ref(i64(1)), ref(f64(ABSTOL)), d.ctypes.data, e.ctypes.data, ref(m),
                             ref(nsplit), *(a.ctypes.data for a in (w, iblock, isplit, work,
                                                                     iwork)), ref(info), 1, 1)
        m, info = m.value, info.value
    if info != 0:  # LinAlgError is a ValueError
        raise np.linalg.LinAlgError(f"LAPACK dstebz returned INFO = {info}")
    return w[:m]


def _laebz(lib, ijob: int, nitmax: int, minp: int, d, e, e2, ab, nab, c, atoli, pivmin):
    """LAPACK dlaebz as dstebz calls it (NBMIN = 0) on minp intervals, ab and nab holding 2 MMAX
    entries, lower ends first, and MMAX points c (IJOB = 3's, with NVAL -1); (MOUT, INFO)."""
    i64, f64, ref = ctypes.c_int64, ctypes.c_double, ctypes.byref
    mmax = ab.size // 2
    nval, work, iwork = np.full(mmax, -1, dtype=np.int64), np.empty(mmax), np.empty_like(nab)
    mout, info = i64(), i64()
    lib.scipy_dlaebz_64_(*(ref(i64(k)) for k in (ijob, nitmax, d.size, mmax, minp, 0)),
                         *(ref(f64(x)) for x in (atoli, 2.0 * ULP, pivmin)),
                         *(a.ctypes.data for a in (d, e, e2, nval, ab, c)), ref(mout),
                         *(a.ctypes.data for a in (nab, work, iwork)), ref(info))
    return mout.value, info.value


def _from_root(n: int, nodes: int, reason: str) -> None:
    log.debug("channel of n = %d, %d guided nodes, bisected from the root: %s", n, nodes, reason)


def _guided(d, e, vl: float, vu: float, guesses):
    """_stebz(d, e, vl, vu), unsorted, from the tree nodes the guesses locate; None: the root."""
    lib, n = numpy_openblas(), d.size
    if not hasattr(lib, "scipy_dlaebz_64_"):
        return _from_root(n, 0, "no dlaebz")
    e2 = e * e
    if np.any(np.abs(d[1:] * d[:-1]) * ULP ** 2 + SAFEMIN > e2):
        return _from_root(n, 0, "split")
    # dstebz's set-up of its one block
    pivmin = max(1.0, float(np.max(e2))) * SAFEMIN
    left, right = np.append(0.0, np.abs(e)), np.append(np.abs(e), 0.0)
    gl, gu = float(np.min(d - left - right)), float(np.max(d + left + right))
    fudge = FUDGE * max(abs(gl), abs(gu)) * ULP * n
    gl, gu = gl - fudge - FUDGE * pivmin, gu + fudge + FUDGE * pivmin
    atoli = ABSTOL if ABSTOL > 0.0 else ULP * max(abs(gl), abs(gu))
    gl, gu, tol = max(gl, vl), min(gu, vu), max(atoli, pivmin)
    if gl >= gu:
        return np.empty(0)
    itmax = int((math.log(gu - gl + pivmin) - math.log(pivmin)) / math.log(2.0)) + 2
    # per guess, the deepest unconverged node whose midpoint is outside the guess's window
    g = np.unique(guesses)
    w = 1e-4 * np.abs(g) + 4.0 * atoli
    a, b = np.full(g.size, gl), np.full(g.size, gu)
    depth, live = np.zeros(g.size, dtype=np.int64), np.ones(g.size, dtype=bool)
    for _ in range(itmax):
        c = 0.5 * (a + b)
        up, down = c < g - w, c > g + w
        na, nb = np.where(up, c, a), np.where(down, c, b)
        live &= (up | down) & (nb - na >= np.maximum(tol, 2.0 * ULP * np.maximum(-na, nb)))
        if not live.any():
            break
        a, b, depth = np.where(live, na, a), np.where(live, nb, b), depth + live
    # tree nodes nest or are disjoint: keep the outermost of each nest
    order = np.lexsort((-b, a))
    a, b, depth = a[order], b[order], depth[order]
    keep = np.append(True, b[1:] > np.maximum.accumulate(b)[:-1])
    a, b, depth = a[keep], b[keep], depth[keep]
    # one Sturm count per distinct node end, the root's included, by one IJOB = 3 step from
    # [p, p] at c = p: the count a bisection step takes (dstebz's IJOB = 1 count of the root's
    # ends differs from it only where a pivot equals PIVMIN exactly)
    ends = np.unique(np.concatenate(([gl, gu], a, b)))
    counts = np.zeros(2 * ends.size, dtype=np.int64)
    _laebz(lib, 3, 1, ends.size, d, e, e2, np.tile(ends, 2), counts, ends, atoli, pivmin)
    lo, hi = (counts[ends.size + np.searchsorted(ends, x)] for x in (a, b))
    if np.any(hi < lo) or np.sum(hi - lo) != counts[-1] - counts[ends.size]:
        return _from_root(n, a.size, "count mismatch")
    start, minp = hi > lo, int(np.count_nonzero(hi > lo))
    ab, nab = np.empty(2 * n), np.empty(2 * n, dtype=np.int64)
    ab[:minp], ab[n:n + minp] = a[start], b[start]
    nab[:minp], nab[n:n + minp] = lo[start], hi[start]
    mout, info = _laebz(lib, 2, itmax - int(depth[start].max(initial=0)), minp, d, e, e2, ab,
                        nab, np.empty(n), atoli, pivmin)
    if info != 0:
        return _from_root(n, minp, f"{info} intervals not converged")
    return np.repeat(0.5 * (ab[:mout] + ab[n:n + mout]), nab[n:n + mout] - nab[:mout])


def negative_eigenvalues(op, mu: float = 0.0, guesses=()) -> np.ndarray:
    """All eigenvalues below -mu of the channel op = (d, e), ascending, via LAPACK bisection;
    guesses (a coarser grid's eigenvalues of the channel) only choose where it starts."""
    if mu < 0:
        raise ValueError("mu must be nonnegative")
    d, e = (np.ascontiguousarray(a, dtype=float) for a in op)
    if d.ndim != 1 or e.shape != (d.size - 1,):
        raise ValueError("a channel is d of n entries and e of n - 1")
    # bisection resolves eigenvalues to ~eps * ||T||; eigenvalues inside the
    # pad band are numerically indistinguishable from the threshold and their
    # true contribution to a shifted trace is below the pad anyway
    e_max = float(np.max(np.abs(e))) if e.size else 0.0
    norm_est = float(np.max(np.abs(d))) + 2.0 * e_max
    if not (math.isfinite(norm_est) and math.isfinite(mu)):  # else the threshold is not
        raise ValueError("channel entries, their norm and mu must be finite")
    pad = 128.0 * np.finfo(float).eps * norm_est
    lo = float(np.min(d)) - 2.0 * e_max - 1.0
    vu = -mu - pad
    if lo >= vu:
        return np.array([])
    guesses = np.asarray(guesses, dtype=float)
    vals = _guided(d, e, lo, vu, guesses) if guesses.size and d.size >= GUIDED_N else None
    if vals is None:
        vals = _stebz(d, e, lo, vu)
    return np.sort(vals[vals < vu])


# ---------------------------------------------------------------------------
# traces
# ---------------------------------------------------------------------------


def _merge(found):
    """Channels 0, 1, ... of found up to the first empty one."""
    channels = {}
    for ell in range(LMAX_CAP + 1):
        if found[ell].size == 0:
            return channels
        channels[ell] = found[ell]
    raise ChannelCascadeError(f"channels still nonempty at the l cap {LMAX_CAP}")


def _spectral_sum(V, h, mu, grid, cutoff, refine) -> SpectralSum:
    """The channel sum on grid, or with refine its two-grid Richardson value.

    V and the cutoff are evaluated once on each grid.  The calling thread
    and k - 1 started ones (k usable cores) then solve the channels as the
    module docstring says, taking the tasks (coarse, 0), (coarse, 1), ...,
    then (fine, 0), (fine, 1), ...  The first exception raised is raised
    here, after every thread is joined.
    """
    grids = [(g, np.asarray(V(g.r), dtype=float),
              None if cutoff is None else np.asarray(cutoff(g.r), dtype=float))
             for g in ([grid, grid.refined()] if refine else [grid])]
    numpy_openblas()  # loaded, and its LAPACK declared, before any thread calls it
    tasks = ((ell, i) for i in range(len(grids)) for ell in range(LMAX_CAP + 1))
    found, first_empty = [{} for _ in grids], [LMAX_CAP + 1] * len(grids)
    errors, lock = [], threading.Lock()

    def take():
        """The next task below its grid's first empty channel, with the coarse eigenvalues of
        a fine task's channel where they are solved already; None once one has raised."""
        with lock:
            if not errors:
                for ell, i in tasks:
                    if ell < first_empty[i]:
                        return ell, i, found[0].get(ell, ()) if i else ()

    def work():
        try:
            while (task := take()) is not None:
                ell, i, guesses = task
                g, v, f = grids[i]
                vals = negative_eigenvalues(build_channel(v, h, ell, g, f), mu=mu,
                                            guesses=guesses)
                with lock:
                    found[i][ell] = vals
                    if vals.size == 0:
                        first_empty[i] = min(first_empty[i], ell)
        except BaseException as exc:  # raised below, once every thread is joined
            with lock:
                errors.append(exc)

    # each thread runs in a copy of the caller's context, so a numpy errstate
    # around the sum holds for every channel, whichever thread solves it
    k = len(os.sched_getaffinity(0))
    threads = [threading.Thread(target=contextvars.copy_context().run, args=(work,))
               for _ in range(k - 1)]
    try:
        for t in threads:
            t.start()
        work()
    except BaseException as exc:  # a thread that would not start
        with lock:
            errors.append(exc)
    for t in threads:
        while t.is_alive():
            try:
                t.join()
            except BaseException as exc:  # a signal handler's: the threads stop after their channel
                with lock:
                    errors.append(exc)
    if errors:
        raise errors[0]
    total = None
    for parts in found:
        channels = _merge(parts)
        total = SpectralSum(channels, {ell: 2 * ell + 1 for ell in channels}, 2.0, mu,
                            coarse_trace=None if total is None else total.trace,
                            workers=k if k > 1 else 0)
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
    grid = auto_grid(V, h, 0.0, r_max=R, resolution=LOCALIZED_RESOLUTION)
    return _spectral_sum(V, h, 0.0, grid, phi, refine)


# ---------------------------------------------------------------------------
# Scott via finite cutoff radius
# ---------------------------------------------------------------------------


def cutoff_weyl_coulomb(phi: SmoothCutoff) -> float:
    """2 (2 pi)^-3 iint phi^2(q) [p^2 - 1/|q|]_- dp dq."""
    return weyl_integral(WeylIntegrand(V=lambda r: 1.0 / r, weight=phi.sq,
                                       mu=0.0, h=1.0, support=phi.R))


def scott_cutoff_schedule(R_list, refine: bool = True) -> ScottEstimate:
    """Evaluate d(R) over a radius schedule; the estimate records the largest R.

    meta carries the per-R values, their Weyl terms and the R^(-1/2)-eliminated pair
    extrapolation of the last two radii (the empirical finite-R decay).
    """
    Rs = sorted(float(R) for R in R_list)
    if len(Rs) < 1:
        raise ValueError("need at least one radius")
    if len(set(Rs)) < len(Rs):
        raise ValueError("radii must be distinct")
    vals, weyls = [], []
    for R in Rs:  # d(R) = Tr[phi_R (-Delta - 1/|x|) phi_R]_- minus the cutoff Weyl term
        phi = SmoothCutoff(R)
        trace = localized_trace_neg(lambda r: 1.0 / r, phi, h=1.0, refine=refine).trace
        weyls.append(cutoff_weyl_coulomb(phi))
        vals.append(trace - weyls[-1])
    meta = {"R_values": Rs, "d_values": vals, "weyl_values": weyls}
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
