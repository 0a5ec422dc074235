"""Magnetic sector: Pauli quadratic forms, field energy, the localized
Scott functional and its second-order response at A = 0.

Axisymmetric divergence-free vector potentials A = a(rho, z) e_phi
conserve j_z = m + s_z, so the Pauli operator [sigma.(-i h grad + A)]^2 - V
splits into two-component blocks over the cylindrical half-plane: the
spin-up component carries orbital angular momentum m, spin-down m + 1,
with diagonal terms (h m / rho + a)^2 -+ h B_z and off-diagonal coupling
-h B_rho.  Blocks are discretized by a symmetric finite-volume scheme on
a sinh-graded (rho, z) tensor mesh (fine at the Coulomb core, natural
flux condition at the axis) and their lowest eigenvalues extracted by
shift-invert Lanczos.  Spinors are explicit, so no extra spin factor is
applied anywhere in this module.

Blocks j and -j are degenerate only at A = 0 (for A != 0 they map into
each other under a field flip), so traces loop over signed blocks.  The
blocks differ only in the diagonal terms (h k / rho + a)^2 with k = m, m + 1:
the kinetic stencil, V, mu, the Zeeman term and the B_rho coupling are the
same for every m, and the phi sandwich is a congruence.  Where
h |j| >= max(-side a rho) over the mesh, one step outward on that side
raises every diagonal term, so each later block dominates block j in the
Loewner order, parity sector by parity sector (below).  Once a sector of
such a block is empty, so is that sector of every later block on its side:
the sector leaves the walk there, and the walk stops once both have left.

The mesh covers z > 0 only.  V and phi are radial and every FieldAnsatz
has a(rho, z) even in z, so B_z is even and B_rho odd; the reflection
(u, d)(z) -> (u(-z), -d(-z)) then commutes with every block, and
u(z) -> u(-z) with every zero-field channel.  Each operator is therefore the
direct sum of two parity sectors on the half mesh, each with half its
unknowns.  The kinetic operator comes as the pair (K_0, K_1) = (K_even,
K_odd): K_even closes the mirror face z = 0 with no flux, like the axis face,
and K_odd closes it against a Dirichlet wall, like the outer faces.  Sector p
of a block puts its up component on K_p and its down component on K_{1-p};
sector p of a channel is on K_p.  Each sector is certified by its own
inertia count, an operator's eigenvalues are the sorted union of its two
sectors', and it is empty only when both are.  A potential, cutoff or field
without this z-parity would couple the sectors, and the split would be wrong.
Each sector's SuperLU factor uses one-column panels: at the same fill, they
factored the block and channel sectors at R = 8 on 64x128 and R = 20 on
80x160 17-22% faster than the default panels.

At A = 0 the operator is (-h^2 Lap - V) (x) I_2, so block j = m + 1/2 is
the direct sum of the scalar channels m and m + 1, each
phi (K + (h m / rho)^2 - V + mu) phi on the nr nz cells (in two sectors),
and block -j is block j again.  A zero-field trace therefore walks the
channels m = 0, 1, ... instead of the blocks, and factors and solves each
channel once, at half the size of a block.  Channel m + 1 adds the
positive diagonal (h / rho)^2 (2 m + 1) to channel m, so each sector of it
dominates that sector of channel m and leaves the walk at its first empty
channel.  The blocks +-(m + 1/2) are then the sorted union of the
eigenvalues of channels m and m + 1 (a sector that has left has none), and
the trace sums them in the order of the block walk.

The same walk keeps each negative state's Ritz vector, and from them alone
gives the trace's second-order response to mode fields at A = 0: the
Hessian d^2 Tr / d theta_i d theta_j that decides whether A = 0 is a local
minimum of the Scott functional.  Each negative state needs one
Sternheimer solve per channel sector that its first-order coupling
reaches, on the range orthogonal to the negative states (_trace_response),
so the Hessian costs one LU per such sector and state, not A != 0 traces.

The two side walks share nothing but the evaluated fields.  For A != 0,
on a machine with two or more usable cores and from a process that runs
one thread (core.fork_cores), the caller walks the +j side while one
child, forked for that trace alone and pinned to the second usable core,
walks the -j side; the caller inserts the +j blocks and then the -j
blocks, in the order the in-process walks do, and reaps the child before
it returns.  A process, not a thread, because it measured faster: six
A != 0 traces (R = 8, 64x128, phi_8) took 1.16-1.17 s on two forked
children against 1.39-1.43 s on two threads, with identical traces.
SuperLU releases the interpreter lock only in part: two threads each
factoring one 64x128 A != 0 sector (n = 8,192) six times took a median
1.15-1.25 times as long as one thread doing six, and 400 solves each
1.59-1.72 times.  The A = 0 channel walk runs in-process.

A whole trace runs with scipy's OpenBLAS at one thread
(core.one_blas_thread), and the child forks under that cap.  The pinned
child then keeps no BLAS worker on its one core, and both paths run the
same walk on the same arrays with the same BLAS, so a trace is bit for bit
the same either way and whatever the process's default BLAS thread count.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np
import scipy.sparse as sp
from numpy.polynomial.legendre import leggauss
from scipy.linalg import eigh
from scipy.sparse.linalg import ArpackNoConvergence, LinearOperator, eigsh, splu

from .core import (ScottEstimate, SpectralSum, check_coupling, fork_cores, fork_join, gauss,
                   one_blas_thread)
from .cutoffs import SmoothCutoff, bump_profile
from .radial_eig import cutoff_weyl_coulomb

log = logging.getLogger(__name__)


class BlockCascadeError(RuntimeError):
    """A side's block walk, or the A = 0 channel walk, reached the cap JMAX
    without a certified stop."""


# shift-invert shift, below the zero-field block spectra (eigs_below moves
# it when a field pulls states under it), and the cap on blocks per side
# (on channels at A = 0)
SIGMA, JMAX = -0.75, 30

# interval width at which inertia bisection stops
BISECT_TOL = 1e-8

# core scale of the sinh-graded faces of PauliGrid.for_ball
R_CORE = 0.15

# first step of minimize_scott's ray walk above the critical coupling
RAY_STEP = 0.2

# the response's refinement stops at this relative step, and fails after
# REFINE_STEPS steps (each gains about two digits: _sternheimer)
REFINE_TOL, REFINE_STEPS = 1e-11, 30


# ---------------------------------------------------------------------------
# field ansatz
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FieldAnsatz:
    """Sum of azimuthal bump modes, automatically divergence free.

    Mode k is a_k = (rho / s_k) e bump(|x| / s_k) with s_k = support_radius
    * scale_k, where bump = cutoffs.bump_profile (so e bump peaks at 1); the
    coefficient vector theta mixes them linearly.  B = curl A has components
    B_rho = -da/dz and B_z = da/drho + a/rho.
    """

    theta: tuple
    support_radius: float
    scales: tuple = (1.0, 0.5, 0.25)

    def __post_init__(self):
        th = tuple(float(v) for v in self.theta)
        object.__setattr__(self, "theta", th)
        if len(th) > len(self.scales):
            raise ValueError("more coefficients than modes")
        if not all(map(math.isfinite, th)):
            raise ValueError("theta must be finite")
        if not (math.isfinite(self.support_radius) and self.support_radius > 0):
            raise ValueError("support radius must be finite and positive")

    @property
    def is_zero(self) -> bool:
        return all(v == 0.0 for v in self.theta)

    def _mode_fields(self, rho, z):
        rho = np.asarray(rho, dtype=float)
        z = np.asarray(z, dtype=float)
        s_all = np.sqrt(rho ** 2 + z ** 2)
        a = np.zeros_like(rho)
        da_drho = np.zeros_like(rho)
        da_dz = np.zeros_like(rho)
        for th, frac in zip(self.theta, self.scales):
            if th == 0.0:
                continue
            s = self.support_radius * frac
            q = s_all / s
            b = math.e * bump_profile(q)
            db = np.zeros_like(q)
            inside = q < 1.0
            db[inside] = b[inside] * (-2.0 * q[inside] / (1.0 - q[inside] ** 2) ** 2)
            qsafe = np.maximum(q, 1e-300)
            a += th * (rho / s) * b
            da_drho += th * (b / s + (rho ** 2 / (s ** 3 * qsafe)) * db)
            da_dz += th * (rho * z / (s ** 3 * qsafe)) * db
        return a, da_drho, da_dz

    def fields(self, rho, z):
        """(a, B_rho, B_z): the potential and the two components of its curl."""
        a, dr, dz = self._mode_fields(rho, z)
        rho = np.asarray(rho, dtype=float)
        return a, -dz, dr + a / np.maximum(rho, 1e-300)


_GL32 = leggauss(32)


def _polar_panels(f, radius):
    """2 pi int f(rho, z) rho ds dtheta over the ball |x| < radius (40 radial panels)."""
    xg, wg = _GL32
    th = 0.5 * math.pi * (xg + 1.0)
    wth = 0.5 * math.pi * wg
    edges = np.linspace(0.0, radius, 41)
    s, ws = gauss(edges[:-1], edges[1:], _GL32)
    S = s[:, :, None]  # (panel, radial node, polar node)
    rho = S * np.sin(th)
    vals = f(rho, S * np.cos(th)) * rho * S
    # cumsum, not sum: panel totals are added strictly left to right
    return 2.0 * math.pi * float(np.cumsum(np.einsum("pi,j,pij->p", ws, wth, vals))[-1])


def field_energy(A: FieldAnsatz) -> float:
    """int |grad A|^2 over the ball of support, which holds all of it.

    For the divergence-free azimuthal family the Frobenius density is
    (da/drho)^2 + (da/dz)^2 + (a/rho)^2, and the integral equals
    int |curl A|^2 (checked in the tests by quadrature of both forms).
    """
    if A.is_zero:
        return 0.0

    def dens(rho, z):
        a, dr, dz = A._mode_fields(rho, z)
        return dr ** 2 + dz ** 2 + (a / np.maximum(rho, 1e-300)) ** 2

    return _polar_panels(dens, A.support_radius)


# ---------------------------------------------------------------------------
# cylindrical mesh and block assembly
# ---------------------------------------------------------------------------


def _graded_faces(scale, span, n):
    xi = np.linspace(0.0, math.asinh(span / scale), n + 1)
    return scale * np.sinh(xi)


@dataclass
class PauliGrid:
    """Tensor (rho, z) finite-volume mesh over the half plane z > 0 (module docstring)."""

    rho_faces: np.ndarray
    z_faces: np.ndarray

    @classmethod
    def for_ball(cls, radius: float, n_rho: int = 96, n_z: int = 192) -> "PauliGrid":
        """The half of the ball |x| < radius above z = 0: n_z / 2 cells in z, n_z even."""
        if n_z % 2:
            raise ValueError(f"n_z ({n_z}) must be even: the mesh holds the n_z / 2 cells "
                             "above z = 0")
        return cls(rho_faces=_graded_faces(R_CORE, radius, n_rho),
                   z_faces=_graded_faces(R_CORE, radius, n_z // 2))

    def __post_init__(self):
        if self.z_faces[0] != 0.0:
            raise ValueError("the z faces start at the mirror plane z = 0")
        self.rho = 0.5 * (self.rho_faces[1:] + self.rho_faces[:-1])
        self.z = 0.5 * (self.z_faces[1:] + self.z_faces[:-1])
        self.drho = np.diff(self.rho_faces)
        self.dz = np.diff(self.z_faces)
        self.nr = self.rho.size
        self.nz = self.z.size
        self.R, self.Z = np.meshgrid(self.rho, self.z, indexing="ij")

    def kinetic(self, h: float) -> tuple:
        """(K_even, K_odd): the symmetrized FV of -h^2 (rho^-1 d_rho rho d_rho + d_zz)
        as K_rho (x) I + I (x) K_z for functions even and odd in z."""
        h2 = h * h
        rho, drho, rf = self.rho, self.drho, self.rho_faces
        z, dz, zf = self.z, self.dz, self.z_faces
        # conductances of rho faces 1..nr (the axis face conducts nothing) and
        # of z faces 1..nz; the outermost faces close against the Dirichlet wall
        g_rho = h2 * rf[1:] / np.diff(np.append(rho, rf[-1]))
        g_z = h2 / np.diff(np.append(z, zf[-1]))
        d_rho = (np.append(0.0, g_rho[:-1]) + g_rho) / (rho * drho)
        c_rho = -h2 * rf[1:-1] / (np.diff(rho) * np.sqrt(rho[:-1] * drho[:-1] * rho[1:] * drho[1:]))
        c_z = -h2 / (np.diff(z) * np.sqrt(dz[:-1] * dz[1:]))
        k_rho = sp.kron(sp.diags([c_rho, d_rho, c_rho], [-1, 0, 1]), sp.identity(self.nz),
                        format="csr")
        # the mirror face z = 0 conducts nothing for even functions, like the
        # axis face, and closes against a Dirichlet wall for odd ones
        k_z = [sp.diags([c_z, (np.append(g_0, g_z[:-1]) + g_z) / dz, c_z], [-1, 0, 1])
               for g_0 in (0.0, h2 / (z[0] - zf[0]))]
        return tuple(k_rho + sp.kron(sp.identity(self.nr), k, format="csr") for k in k_z)


def block_matrix(grid: PauliGrid, K: tuple, h: float, m: int, p: int, V2d: np.ndarray,
                 a2d: np.ndarray, Bz2d: np.ndarray, Brho2d: np.ndarray,
                 mu: float = 0.0, phi2d: Optional[np.ndarray] = None):
    """Assemble parity sector p of the j = m + 1/2 block: up component m on K[p], down
    m + 1 on K[1 - p]; K = grid.kinetic(h)."""
    R = grid.R
    blocks = []
    for mm, sgn, Kp in ((m, +1, K[p]), (m + 1, -1, K[1 - p])):
        U = (h * mm / R + a2d) ** 2 - V2d + mu - sgn * h * Bz2d
        blocks.append(Kp + sp.diags(U.ravel()))
    coupling = sp.diags(-h * Brho2d.ravel())
    H = sp.bmat([[blocks[0], coupling], [coupling, blocks[1]]], format="csc")
    return H if phi2d is None else _sandwich(H, np.concatenate([phi2d.ravel(), phi2d.ravel()]))


def _sandwich(H, f):
    """D H D in CSC, D the diagonal of the cell values f of the cutoff phi."""
    Dw = sp.diags(f)
    return (Dw @ H @ Dw).tocsc()


def _symmetric_lu(H, tau: float):
    """Unpivoted SuperLU factor of H - tau I in symmetric mode (MMD on A^T + A).

    Diagonal pivots only: when the row and column permutations agree the
    factorization is a symmetric congruence, which the inertia count needs;
    the shift-invert solves share the mode for its lower fill.  One-column
    panels, for speed at the same fill (module docstring).
    """
    A = (H - tau * sp.identity(H.shape[0], format="csc")).tocsc()
    lu = splu(A, diag_pivot_thresh=0.0, permc_spec="MMD_AT_PLUS_A", panel_size=1,
              options=dict(SymmetricMode=True))
    if not np.array_equal(lu.perm_r, lu.perm_c):
        raise RuntimeError("row pivoting occurred; the factor is not a congruence")
    return lu


def inertia_below(H, tau: float) -> int:
    """Number of eigenvalues of the sparse symmetric H strictly below tau.

    Sylvester's law: the signs of diag(U) of the congruence H - tau I = L U
    carry the inertia.
    """
    return int(np.sum(_symmetric_lu(H, tau).U.diagonal() < 0.0))


def _bisect_eigenvalues(H, lo, hi, count, _n_lo=None):
    """Approximate the count eigenvalues in (lo, hi) by inertia bisection."""
    if count == 0:
        return []
    if hi - lo < BISECT_TOL:
        return [0.5 * (lo + hi)] * count
    mid = 0.5 * (lo + hi)
    n_mid = inertia_below(H, mid)
    n_lo = inertia_below(H, lo) if _n_lo is None else _n_lo
    left = n_mid - n_lo
    return (_bisect_eigenvalues(H, lo, mid, left, _n_lo=n_lo)
            + _bisect_eigenvalues(H, mid, hi, count - left, _n_lo=n_mid))


def _ritz_below(H, k: int, threshold: float, sigma: float, vectors: bool = False):
    """Sorted shift-invert Ritz values below threshold of the k eigenvalues nearest sigma,
    and with vectors their Ritz vectors as columns in the same order (else None)."""
    n = H.shape[0]
    lu = _symmetric_lu(H, sigma)
    op = LinearOperator(H.shape, matvec=lu.solve, dtype=H.dtype)
    # fixed start vector keeps repeated runs byte-identical
    v0 = np.full(n, 1.0 / math.sqrt(n), dtype=float)
    try:
        got = eigsh(H, k=k, sigma=sigma, which="LM", OPinv=op, v0=v0,
                    maxiter=1000, ncv=min(n - 1, max(2 * k + 1, 20)),
                    return_eigenvectors=vectors)
    except ArpackNoConvergence as exc:
        log.warning("ARPACK did not converge: %d of %d Ritz values (n = %d, sigma = %g)",
                    len(exc.eigenvalues), k, n, sigma)
        got = (exc.eigenvalues, exc.eigenvectors) if vectors else exc.eigenvalues
    vals, vecs = got if vectors else (got, None)
    vals = np.asarray(vals)
    keep = np.argsort(vals)
    keep = keep[vals[keep] < threshold]
    return vals[keep], None if vecs is None else vecs[:, keep]


def eigs_below(H, threshold: float, sigma: float, vectors: Optional[list] = None) -> np.ndarray:
    """All eigenvalues below threshold, certified by an inertia count.

    Cutoff-sandwiched operators carry a dense near-zero cluster (the
    exterior region), which stalls any Lanczos window whose boundary lands
    inside it; counting first and requesting exactly that many shift-invert
    eigenpairs keeps the window boundary out of the cluster.  The negative
    sigma need not lie below the spectrum: count Ritz values below the
    threshold are exactly the count eigenvalues there, wherever sigma lies.
    With fewer, sigma is doubled until no state lies under it and the solve
    repeated; shallow stragglers still missing are refined by inertia
    bisection.  An operator with more states below threshold than ARPACK can
    return (count > n - 2) is solved densely instead, and bisected only if
    that count differs from the inertia count.  Given a list, vectors gets
    one array appended: the eigenvectors of the values found by a solve, as
    columns in their order.  A straggler has no Ritz vector, so that array
    then has fewer columns than there are eigenvalues.
    """
    if not sigma < 0.0:
        raise ValueError(f"sigma must be negative, got {sigma:g}")
    count, n = inertia_below(H, threshold), H.shape[0]
    vals, vecs = np.array([]), np.empty((n, 0))
    # ARPACK needs 0 < k < n - 1
    arpack, want = count <= n - 2, vectors is not None
    if count and arpack:
        vals, vecs = _ritz_below(H, count, threshold, sigma, want)
    elif count:
        w, v = eigh(H.toarray())
        if np.sum(w < threshold) == count:
            vals, vecs = w[:count], v[:, :count]
    if vals.size < count:
        moved = sigma
        while inertia_below(H, moved) > 0:
            moved *= 2.0
        if moved != sigma:
            log.warning("shift %g lies above part of the spectrum; moved to %g", sigma, moved)
            sigma = moved
            if arpack:
                vals, vecs = _ritz_below(H, count, threshold, sigma, want)
    if vals.size < count:
        log.warning("bisecting %d of %d eigenvalues below %g", count - vals.size, count,
                    threshold)
        lo = float(vals[-1]) if vals.size else float(sigma)
        extra = _bisect_eigenvalues(H, lo + 1e-12, threshold, count - vals.size)
        vals = np.sort(np.concatenate([vals, extra]))
    if vectors is not None:
        vectors.append(vecs)
    return vals


@dataclass(frozen=True)
class TraceResponse:
    """Second-order response of a zero-field trace to mode fields: hessian[i, j] is
    d^2 Tr / d theta_i d theta_j at theta = 0, lu the LUs its solves factored and
    residual their worst final relative refinement step."""

    hessian: np.ndarray
    lu: int
    residual: float


def _sternheimer(H, lam: float, rhs: np.ndarray, vecs: np.ndarray) -> tuple:
    """(y, last relative step): y solves (H - lam) y = -Q rhs on the range of
    Q = I - vecs vecs^T, column by column, where vecs holds every eigenvector of H
    below zero and lam < 0.

    On that range H - lam >= |lam|, so the LU of H - sigma at sigma = lam - 0.01 |lam|
    preconditions a projected refinement that gains about two digits a step.  It stops
    once every column's step is at most REFINE_TOL of the column; RuntimeError after
    REFINE_STEPS steps, so no result that did not converge is returned.
    """
    lu = _symmetric_lu(H, lam - 0.01 * abs(lam))

    def project(x):
        return x - vecs @ (vecs.T @ x)

    b = -project(rhs)
    y, r = np.zeros_like(b), b
    for _ in range(REFINE_STEPS):
        step = project(lu.solve(r))
        y += step
        rel = float(np.max(np.linalg.norm(step, axis=0)
                           / np.maximum(np.linalg.norm(y, axis=0), np.finfo(float).tiny)))
        if rel <= REFINE_TOL:
            return y, rel
        r = b - (H @ y - lam * y)
    raise RuntimeError(f"response solve at {lam:g}: relative step {rel:.1e} after "
                       f"{REFINE_STEPS} steps, not {REFINE_TOL:g}")


def _trace_response(states: dict, sector, fields: list, f: np.ndarray, h: float,
                    h_rho: np.ndarray) -> TraceResponse:
    """The response of the zero-field trace whose channel walk left states[m, p] = (negative
    eigenvalues, their Ritz vectors) for every channel sector it solved (one it did not
    has none), each of which sector(m, p) assembles; fields[i] = (a, B_rho, B_z) of mode i,
    f the sandwich phi^2 and h_rho = h / rho, all per cell.

    The block operator is exactly quadratic in theta: its first derivative B1_i holds
    2 h k a_i / rho -+ h B_z,i on the up (k = m) and down (k = m + 1) diagonals and
    -h B_rho,i off them, its second B2_ij = 2 a_i a_j on both diagonals, each times f.
    For each negative state u (eigenvalue lam) of each block,
    d^2 lam / d theta_i d theta_j summed over the block's negative states is
    <u, B2_ij u> + 2 <B1_i u, y_j> with (B0 - lam) y_j = -Q B1_j u on the range of
    Q = I - P_neg (second-order perturbation theory; the terms between two negative
    states cancel in pairs).  At A = 0 block m + 1/2 is channel m (up) beside channel
    m + 1 (down), so B1_j u has a part on u's own channel sector and one, from the odd
    B_rho, on the neighbouring channel in the other sector, and each part is one
    _sternheimer solve.  A channel-m state in sector q sits in block m + 1/2 as the up
    component, beside channel m + 1, and for m >= 1 in block m - 1/2 as the down one,
    beside channel m - 1; its own solves share one LU.  Block -j at theta is block j
    at -theta, so the blocks j < 0 give the same Hessian as those j > 0: it is counted
    twice.  A negative state without a Ritz vector (a bisected straggler) is a
    RuntimeError: dropping it would change the Hessian silently.
    """
    n, a_modes = len(fields), np.column_stack([a for a, _, _ in fields])
    hess, lus, worst = np.zeros((n, n)), 0, 0.0
    for (m, q), (vals, vecs) in states.items():
        if vecs.shape[1] != vals.size:
            raise RuntimeError(f"channel {m}, sector {q}: {vals.size - vecs.shape[1]} of "
                               f"{vals.size} negative states have no Ritz vector")
        # (sign of the Zeeman term on u's diagonal, the neighbouring channel)
        sides = [(-1.0, m + 1)] + ([(1.0, m - 1)] if m else [])
        for lam, u in zip(vals, vecs.T):
            fu = f * u
            own = np.column_stack([(2.0 * m * h_rho * a + sign * h * bz) * fu
                                   for sign, _ in sides for a, _, bz in fields])
            coupling = np.column_stack([-h * br * fu for _, br, _ in fields])
            y, rel = _sternheimer(sector(m, q), lam, own, vecs)
            cross = sum(own[:, k:k + n].T @ y[:, k:k + n] for k in range(0, own.shape[1], n))
            lus, worst = lus + 1, max(worst, rel)
            for _, other in sides:
                y, rel = _sternheimer(sector(other, 1 - q), lam, coupling,
                                      states.get((other, 1 - q), (None, vecs[:, :0]))[1])
                cross = cross + coupling.T @ y
                lus, worst = lus + 1, max(worst, rel)
            hess += len(sides) * 2.0 * (a_modes.T * (fu * u)) @ a_modes + 2.0 * cross
    hess = hess + hess.T  # twice the symmetric part: the blocks j > 0 and j < 0
    return TraceResponse(hess, lus, worst)


@one_blas_thread()
def pauli_trace_neg(A: Optional[FieldAnsatz], V, h: float = 1.0,
                    phi: Optional[SmoothCutoff] = None, mu: float = 0.0,
                    grid: Optional[PauliGrid] = None,
                    domain_radius: Optional[float] = None,
                    mesh=(96, 192), modes: tuple = ()) -> SpectralSum:
    """Trace of [phi (T_h(A) - V) phi + mu]_- summed over signed j_z blocks.

    V is a radial accessor V(|x|); phi an optional radial cutoff (the
    negative spectrum then lives inside supp phi, so a mesh over that ball
    suffices).  The mesh is grid, or else the (n_rho, n_z) = mesh ball of
    radius domain_radius.  Every block and channel is solved in its two
    parity sectors on the half mesh, each factored with one-column SuperLU
    panels, 17-22% faster at the same fill (module docstring).  On each side a
    sector leaves the walk at its first empty block with h |j| >=
    max(-side a rho), whose sector every later block on that side dominates,
    and the walk stops once both sectors have left (module docstring).  At
    A = 0 the walk runs over the scalar channels m >= 0, each sector to its
    first empty one; the blocks are built from them (module docstring).
    For A != 0, where core.fork_cores allows it, the caller walks the +j
    side and one forked child the -j side; the whole trace runs with scipy's
    OpenBLAS at one thread, the child included (module docstring).  No extra
    spin factor: the spinor components are explicit, so the record keys the
    blocks by j with degeneracy 1, spin 1.0 and shift 0.0 (mu is in the
    operator).  With modes, a sequence of FieldAnsatz (A zero only), the
    record's response is the trace's second-order response to them
    (TraceResponse).  A mesh whose geometry overflows raises
    FloatingPointError; V, phi, the field or a mode field that is not finite
    on every cell raises ValueError before any factorization.
    """
    zero = A is None or A.is_zero
    if modes and not zero:
        raise ValueError("the response to modes is taken at A = 0")
    if grid is None:
        if domain_radius is None:
            raise ValueError("pauli_trace_neg needs grid or domain_radius")
        grid = PauliGrid.for_ball(domain_radius, n_rho=mesh[0], n_z=mesh[1])
    # a mesh too wide for floating point would give zero stencil entries and
    # an empty spectrum, not an error
    with np.errstate(over="raise"):
        S = np.sqrt(grid.R ** 2 + grid.Z ** 2)
        K = grid.kinetic(h)
    V2d = np.asarray(V(S), dtype=float)
    phi2d = None if phi is None else np.asarray(phi(S), dtype=float)
    field = () if zero else A.fields(grid.R, grid.Z)
    mode_fields = [tuple(x.ravel() for x in M.fields(grid.R, grid.Z)) for M in modes]
    # splu was seen to crash the interpreter on a NaN operator
    if not all(np.all(np.isfinite(c)) for c in (V2d, 1.0 if phi2d is None else phi2d,
                                                 *field, *sum(mode_fields, ()))):
        raise ValueError("V, phi, the field and the mode fields must be finite on every cell")

    def walk(solved, side, reach):
        """{m: eigenvalues} of the nonempty operators m of one walk, out to its certified
        stop; solved(m, p) gives the eigenvalues of parity sector p of operator m.  A
        sector leaves at its first empty operator with h |m + 1/2| >= reach, past which
        every operator of that sector dominates it, and the walk stops once both have."""
        found, live = {}, (0, 1)
        m = 0 if side > 0 else -1
        for _ in range(JMAX):
            parts = [solved(m, p) for p in live]
            vals = np.sort(np.concatenate(parts))
            if vals.size:
                found[m] = vals
            if h * abs(m + 0.5) >= reach:
                live = tuple(p for p, v in zip(live, parts) if v.size)
                if not live:
                    return found
            m += side
        raise BlockCascadeError(f"no certified stop within {JMAX} steps")

    # insertion order is that of the block walks, and the sum runs in it
    response = None
    if zero:
        def sector(m, p):
            H = K[p] + sp.diags(((h * m / grid.R) ** 2 - V2d + mu).ravel())
            return H.tocsc() if phi2d is None else _sandwich(H, phi2d.ravel())

        states = {}  # (m, p) -> the negative eigenvalues and Ritz vectors of that sector

        def channel(m, p):
            vecs = []
            vals = eigs_below(sector(m, p), -1e-12, SIGMA, vectors=vecs)
            states[m, p] = vals, vecs[0]
            return vals

        # reach 0: each channel sector dominates the one before, so its first
        # empty one ends its walk
        channels, blocks, cpus = walk(channel, 1, 0.0), {}, []
        for m, vals in channels.items():
            vals = np.sort(np.concatenate([vals, channels.get(m + 1, vals[:0])]))
            blocks[m + 0.5], blocks[-m - 0.5] = vals, vals.copy()
        if modes:
            f = (np.ones_like(S) if phi2d is None else phi2d ** 2).ravel()
            response = _trace_response(states, sector, mode_fields, f, h, (h / grid.R).ravel())
    else:
        a2d, Br, Bz = field
        # -a rho on the +j side, a rho on the -j side: once h |j| reaches its
        # largest value the walk is monotone (module docstring)
        a_rho = a2d * grid.R

        def block(m, p):
            return eigs_below(block_matrix(grid, K, h, m, p, V2d, a2d, Bz, Br, mu=mu,
                                           phi2d=phi2d), -1e-12, SIGMA)

        def side_walk(i):
            side = (1, -1)[i]
            return walk(block, side, float(np.max(-side * a_rho)))

        cpus = fork_cores()[:2]
        parts = fork_join(side_walk, cpus) if cpus else [side_walk(0), side_walk(1)]
        blocks = {m + 0.5: vals for found in parts for m, vals in found.items()}
    return SpectralSum(blocks, dict.fromkeys(blocks, 1), 1.0, 0.0, workers=len(cpus),
                       response=response)


# ---------------------------------------------------------------------------
# the localized Scott functional
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ScottFunctionalParts:
    """trace + field_inner / kappa - weyl, and the trace's response where it was asked for."""

    trace: float
    field_inner: float
    weyl: float
    response: Optional[TraceResponse] = None

    def value(self, kappa: float, beta: float) -> float:
        """The functional at coupling kappa.

        beta weighs only field energy outside B(R/4), which no ansatz here
        has, so it enters only through the admissibility rule check_coupling.
        """
        check_coupling(kappa, beta)
        return self.trace + self.field_inner / kappa - self.weyl


def scott_functional_parts(A: Optional[FieldAnsatz], R: float, grid: PauliGrid,
                           modes: tuple = ()) -> ScottFunctionalParts:
    """kappa- and beta-independent pieces of the localized Scott functional on grid.

    The trace is Tr[phi_R (T_1(A) - 1/|x|) phi_R]_-; field_inner is the
    field energy inside B(R/4), weighted 1/kappa; the Weyl term is the
    phi_R^2-weighted Coulomb phase-space integral.  The paper weighs field
    energy outside B(R/4) by beta; every ansatz here lives inside B(R/4),
    so that zone is empty, and an ansatz with larger support is rejected.
    With modes (A = None only), response is the trace's second-order
    response to those fields, from the same channel walk (pauli_trace_neg).
    """
    if A is not None and A.support_radius > R / 4.0 + 1e-12:
        raise ValueError(f"ansatz support {A.support_radius:g} exceeds R/4 = {R / 4.0:g}")
    phi = SmoothCutoff(R)
    tr = pauli_trace_neg(A, lambda r: 1.0 / r, h=1.0, phi=phi, grid=grid, modes=modes)
    return ScottFunctionalParts(trace=tr.trace,
                                field_inner=0.0 if A is None else field_energy(A),
                                weyl=cutoff_weyl_coulomb(phi), response=tr.response)


@dataclass(frozen=True)
class MinimizeScottResult:
    estimate: ScottEstimate
    theta: tuple
    history: list
    budget_exhausted: bool
    zero_field_value: float


def minimize_scott(kappa: float, beta: float, R: float, grid: PauliGrid,
                   n_modes: int = 2, budget: int = 60, seed: int = 0) -> MinimizeScottResult:
    """Upper bound on 2 S(R, kappa, beta) over the n_modes ansatz family on grid.

    The trace is even in theta and the field energy is theta^T G theta.  One
    zero-field evaluation gives the value at theta = 0 and, from its channel
    walk, the trace Hessian H_T: the trace's second-order response to the
    unit modes (scott_functional_parts); G comes from field_energy at e_i
    and e_i + e_j.  For kappa < kappa_c = 2 / |lambda_min(H_T, G)| (inf if
    lambda_min >= 0) H_T + 2 G / kappa is positive definite and theta = 0 is
    returned as a certified strict local minimum, at the cost of that one
    evaluation; the certificate is local, not global.  Otherwise the ray
    along the lowest generalized eigenvector is walked in steps
    RAY_STEP 2^k while the value falls and the budget lasts.  budget bounds
    the evaluations, the zero-field one included, so it can run out only on
    that ray.  The value is the least one evaluated: always an upper bound,
    never above the A = 0 value.  The path is deterministic: the result does
    not depend on seed, only meta records it.
    """
    check_coupling(kappa, beta)
    if budget < 1:
        raise ValueError(f"budget ({budget}) must be at least 1")
    if n_modes < 1:
        raise ValueError(f"n_modes ({n_modes}) must be at least 1")
    n, eye = n_modes, np.eye(n_modes)

    def ansatz(theta):
        return FieldAnsatz(theta=tuple(theta), support_radius=R / 4.0,
                           scales=tuple(0.5 ** i for i in range(n)))

    zero = scott_functional_parts(None, R, grid=grid, modes=tuple(ansatz(e) for e in eye))
    history, thetas = [(1, 0.0, zero.value(kappa, beta))], [np.zeros(n)]
    G = np.diag([field_energy(ansatz(e)) for e in eye])
    for i in range(n):
        for j in range(i + 1, n):
            G[i, j] = G[j, i] = 0.5 * (field_energy(ansatz(eye[i] + eye[j])) - G[i, i] - G[j, j])
    lam, vecs = eigh(zero.response.hessian, G)
    kappa_c = 2.0 / -float(lam[0]) if lam[0] < 0.0 else math.inf
    exhausted = False
    if kappa >= kappa_c:
        v = vecs[:, 0] / np.linalg.norm(vecs[:, 0])
        s, last = RAY_STEP, history[0][2]
        while len(history) < budget:
            thetas.append(s * v)
            p = scott_functional_parts(ansatz(s * v), R, grid=grid)
            history.append((len(history) + 1, float(np.linalg.norm(s * v)), p.value(kappa, beta)))
            if history[-1][2] >= last:
                break
            s, last = 2.0 * s, history[-1][2]
        else:
            exhausted = True
    best = min(range(len(history)), key=lambda i: history[i][2])
    est = ScottEstimate(value=history[best][2], route="ansatz-min", R=R,
                        meta={"seed": seed, "evaluations": len(history),
                              "kappa_c": kappa_c, "certified": kappa < kappa_c,
                              "response_lu": zero.response.lu,
                              "response_residual": zero.response.residual})
    return MinimizeScottResult(estimate=est, theta=tuple(float(v) for v in thetas[best]),
                               history=history, budget_exhausted=exhausted,
                               zero_field_value=history[0][2])
