"""Negative-eigenvalue traces of radial Schroedinger operators -h^2 Delta - V.

Partial waves reduce the problem to symmetric tridiagonal eigenproblems,
one per angular momentum channel, solved by LAPACK bisection with Sturm
counting so that counts below a threshold are certified (dstebz's set-up
in numpy and dlaebz by ctypes in numpy's bundled OpenBLAS, with dstebz's
bits; scipy.linalg.lapack's dstebz without it).  The mesh is sinh-mapped,
r = r_core sinh(xi): uniform with spacing r_core d(xi) at the Coulomb
core and log-like in the tail, so u(0) = 0 is exact and the l-dependent
regular behaviour u ~ r^(l+1) needs no boundary surgery.  It is sinh and
not log because a log mesh cut off at r_min carries a Dirichlet wall
error O(|u'(0)|^2 r_min) and a stencil norm ~(h / (r_min dy))^2 that
bisection resolves only to eps times it, while the sinh mesh keeps
||T|| ~ (h / (r_core dxi))^2 bounded.  Cutoff sandwiches phi (H phi .) phi
stay tridiagonal (diagonal congruence), and their negative spectrum is
exactly supported inside supp phi, so the mesh can stop at the cutoff radius.

dstebz bisects a fixed tree per split block: its root is the block's
Gershgorin interval, widened by FUDGE and clipped to (vl, vu], and it
splits each node holding eigenvalues at its midpoint until the node is
narrower than its tolerance.  Computed Sturm counts are monotone, so a
node gives the same final intervals wherever the bisection started.  A
refined sum's fine blocks of GUIDED_N nodes or more start at the deepest
unconverged nodes with midpoints outside a window around each coarse
eigenvalue if the counts add up, and every other block at its root.
Every interval dlaebz keeps holds an eigenvalue, so its workspace holds
MMAX = m intervals, m the block's eigenvalue count from those counts,
where dstebz gives it the block's size n; with the set-up's few arrays of
n, a channel solve allocates about five arrays of n in all.

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

# the smallest block whose bisection guesses speed up (the walk down the tree costs ~1 ms)
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
    """Tridiagonal (d, e) of channel ell of -h^2 Delta - V, v = V(grid.r), sandwiched by f if given.

    d = (h^2 kin_diag + h^2 l (l + 1) / r^2 - v) f f is built in one buffer, e in another."""
    h2 = h * h
    d = np.square(grid.r)
    np.divide(h2 * ell * (ell + 1), d, out=d)
    d += h2 * grid.kin_diag  # floating-point addition commutes
    d -= v
    e = h2 * grid.kin_off
    if f is not None:
        d *= f
        d *= f
        e *= f[:-1]
        e *= f[1:]
    return d, e


def _check(routine: str, info: int) -> None:
    if info != 0:  # LinAlgError is a ValueError
        raise np.linalg.LinAlgError(f"LAPACK {routine} returned INFO = {info}")


def _stebz(d: np.ndarray, e: np.ndarray, vl: float, vu: float, guesses=()) -> np.ndarray:
    """The eigenvalues of the tridiagonal (d, e) in (vl, vu], ascending, as LAPACK dstebz gives
    them: scipy.linalg.lapack's where numpy_openblas() finds nothing, else dstebz's set-up here
    and _bisect on each split block, given the guesses if it has GUIDED_N nodes or more.  The
    set-up's scratch is e^2 and two more arrays of n; each block's dlaebz MMAX is its
    eigenvalue count, where dstebz's is the block's size."""
    lib, n = numpy_openblas(), d.size
    if lib is None:
        from scipy.linalg.lapack import dstebz
        m, w, _, _, info = dstebz(d, e if e.size else np.zeros(1), 1, vl, vu, 1, 1, ABSTOL, "E")
        _check("dstebz", info)
        return w[:m]
    _check("dstebz", 0 if vl < vu else -5)  # dstebz's check of its argument VU
    if n == 1:
        return d[(vl < d) & (d <= vu)]
    # the split test |d_i d_i+1| ULP^2 + SAFEMIN > e_i^2 in one buffer, and PIVMIN
    e2, t = e * e, d[1:] * d[:-1]
    np.abs(t, out=t)
    t *= ULP ** 2
    t += SAFEMIN
    split = t > e2
    pivmin = max(1.0, float(np.max(e2, where=~split, initial=0.0))) * SAFEMIN
    # per block the Gershgorin interval, (d_i - |e_i-1|) - |e_i| and (d_i + |e_i-1|) + |e_i|
    # with split e_i read as 0, from one copy of d; then FUDGE, ATOLI and clipping
    np.abs(e, out=t)
    t[split] = 0.0
    first = np.append(0, np.flatnonzero(split) + 1)
    size = np.append(first[1:], n) - first
    g = d.copy()
    g[1:] -= t
    g[:-1] -= t
    gl = np.minimum.reduceat(g, first)
    np.copyto(g, d)
    g[1:] += t
    g[:-1] += t
    gu = np.maximum.reduceat(g, first)
    del t, g, split
    fudge = FUDGE * np.maximum(np.abs(gl), np.abs(gu)) * ULP * size
    gl, gu = gl - fudge - FUDGE * pivmin, gu + fudge + FUDGE * pivmin
    atoli = np.where(ABSTOL > 0.0, ABSTOL, ULP * np.maximum(np.abs(gl), np.abs(gu)))
    gl, gu = np.maximum(gl, vl), np.minimum(gu, vu)
    # a 1 x 1 block holds d where vl < d - PIVMIN <= vu
    ones = d[first[size == 1]]
    found = [ones[(vl < ones - pivmin) & (ones - pivmin <= vu)]]
    for b, m, lo, hi, tol in zip(first, size, gl, gu, atoli):
        if m > 1 and lo < hi:
            found.append(_bisect(lib, d[b:b + m], e[b:b + m - 1], e2[b:b + m - 1], lo, hi, tol,
                                 pivmin, guesses if m >= GUIDED_N else ()))
    return np.sort(np.concatenate(found))


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


def _bisect(lib, d, e, e2, gl: float, gu: float, atoli: float, pivmin: float, guesses):
    """The eigenvalues in (gl, gu] of a block of n > 1 nodes by dlaebz (IJOB = 2), from the tree
    nodes the guesses locate if their counts add up, else from the root counted by IJOB = 1.

    MMAX is the block's eigenvalue count m, read from those counts: each interval dlaebz keeps
    holds at least one eigenvalue, so it never holds more than m (a deeper queue would come
    back as INFO = MMAX + 1 and raise)."""
    n, tol = d.size, max(atoli, pivmin)
    g = np.unique(guesses) if len(guesses) else np.empty(0)
    itmax = int((math.log(gu - gl + pivmin) - math.log(pivmin)) / math.log(2.0)) + 2
    # per guess, the deepest unconverged node whose midpoint is outside the window
    # rel |g| + 4 ATOLI; a narrow window first (deeper nodes), a wide one if its nodes miss
    for rel in (1e-4, 3e-3) if g.size else ():
        w = rel * np.abs(g) + 4.0 * atoli
        a, b = np.full(g.size, gl), np.full(g.size, gu)
        depth, live = np.zeros(g.size, dtype=np.int64), np.ones(g.size, dtype=bool)
        for _ in range(itmax):
            mid = 0.5 * (a + b)
            up, down = mid < g - w, mid > g + w
            na, nb = np.where(up, mid, a), np.where(down, mid, b)
            live &= (up | down) & (nb - na >= np.maximum(tol, 2.0 * ULP * np.maximum(-na, nb)))
            if not live.any():
                break
            a, b, depth = np.where(live, na, a), np.where(live, nb, b), depth + live
        # tree nodes nest or are disjoint: keep the outermost of each nest
        order = np.lexsort((-b, a))
        keep = order[np.append(True, b[order][1:] > np.maximum.accumulate(b[order])[:-1])]
        a, b, depth = a[keep], b[keep], depth[keep]
        # a bisection step's count at each distinct node end, the root's too, by one IJOB = 3
        # step from [p, p] at p (IJOB = 1's differs where a pivot equals PIVMIN exactly)
        ends = np.unique(np.concatenate(([gl, gu], a, b)))
        counts = np.zeros(2 * ends.size, dtype=np.int64)
        _laebz(lib, 3, 1, ends.size, d, e, e2, np.tile(ends, 2), counts, ends, atoli, pivmin)
        lo, hi = (counts[ends.size + np.searchsorted(ends, x)] for x in (a, b))
        m = int(counts[-1] - counts[ends.size])
        if np.all(hi >= lo) and np.sum(hi - lo) == m:
            start = hi > lo
            a, b, lo, hi = a[start], b[start], lo[start], hi[start]
            itmax -= int(depth[start].max(initial=0))
            break
    else:
        if g.size:
            log.debug("block of n = %d, %d guided nodes, bisected from the root: count "
                      "mismatch", n, a.size)
        root, counts = np.array([gl, gu]), np.zeros(2, dtype=np.int64)
        m = _laebz(lib, 1, 0, 1, d, e, e2, root, counts, np.empty(1), atoli, pivmin)[0]
        a, b, lo, hi = root[:1], root[1:], counts[:1], counts[1:]
    if m == 0:
        return np.empty(0)
    minp = a.size
    ab, nab = np.empty(2 * m), np.empty(2 * m, dtype=np.int64)
    ab[:minp], ab[m:m + minp], nab[:minp], nab[m:m + minp] = a, b, lo, hi
    mout, info = _laebz(lib, 2, itmax, minp, d, e, e2, ab, nab, np.empty(m), atoli, pivmin)
    _check("dlaebz", info)
    return np.repeat(0.5 * (ab[:mout] + ab[m:m + mout]), nab[m:m + mout] - nab[:mout])


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
    # (max |x| as max(max x, -min x), with no copy of x; NaN stays NaN)
    e_max = float(np.maximum(e.max(), -e.min())) if e.size else 0.0
    norm_est = float(np.maximum(d.max(), -d.min())) + 2.0 * e_max
    if not (math.isfinite(norm_est) and math.isfinite(mu)):  # else the threshold is not
        raise ValueError("channel entries, their norm and mu must be finite")
    pad = 128.0 * np.finfo(float).eps * norm_est
    lo = float(d.min()) - 2.0 * e_max - 1.0
    vu = -mu - pad
    if lo >= vu:
        return np.array([])
    vals = _stebz(d, e, lo, vu, np.asarray(guesses, dtype=float))
    return vals[vals < vu]


# ---------------------------------------------------------------------------
# traces
# ---------------------------------------------------------------------------


def _spectral_sum(V, h, mu, grid, cutoff, refine) -> SpectralSum:
    """The channel sum on grid, or with refine its two-grid Richardson value.

    V and the cutoff are evaluated once on each grid.  Channel LMAX_CAP is
    solved first on each grid, on the calling thread: emptiness is monotone
    in l, so if it holds a state the sum cannot end below the cap, and
    ChannelCascadeError is raised before any other channel is solved.  The
    calling thread and k - 1 started ones (k usable cores) then solve the
    channels below the cap as the module docstring says, taking the tasks
    (coarse, 0), (coarse, 1), ..., then (fine, 0), (fine, 1), ...  The first
    exception raised is raised here, after every thread is joined.
    """
    grids = [(g, np.asarray(V(g.r), dtype=float),
              None if cutoff is None else np.asarray(cutoff(g.r), dtype=float))
             for g in ([grid, grid.refined()] if refine else [grid])]
    numpy_openblas()  # loaded, and its LAPACK declared, before any thread calls it
    for g, v, f in grids:
        if negative_eigenvalues(build_channel(v, h, LMAX_CAP, g, f), mu=mu).size:
            raise ChannelCascadeError(f"channels still nonempty at the l cap {LMAX_CAP}")
    tasks = ((ell, i) for i in range(len(grids)) for ell in range(LMAX_CAP))
    found, first_empty = [{} for _ in grids], [LMAX_CAP] * len(grids)
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
    for parts, first in zip(found, first_empty):  # every channel below first is solved
        channels = {ell: parts[ell] for ell in range(first)}
        total = SpectralSum(channels, {ell: 2 * ell + 1 for ell in channels}, 2.0, mu,
                            coarse_trace=None if total is None else total.trace,
                            workers=k if k > 1 else 0)
    return total


def trace_neg(V, h: float, mu: float = 0.0, grid: Optional[RadialGrid] = None,
              refine: bool = False, resolution: float = 20.0) -> SpectralSum:
    """Sum of 2 (2 l + 1) (e + mu) over all channel eigenvalues e < -mu.

    Channels are assembled until the first empty one (emptiness is monotone
    in l since the centrifugal term grows with l); ChannelCascadeError is raised, before any
    other channel is solved, where channel LMAX_CAP holds a state.  refine=True replaces
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
