import math
import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp

from scottlab import pauli, radial_eig
from scottlab.core import neg_part_sum, one_blas_thread
from scottlab.cutoffs import SmoothCutoff
from scottlab.pauli import (FieldAnsatz, PauliGrid, field_energy, minimize_scott,
                            pauli_trace_neg, scott_functional_parts)

SRC = Path(__file__).resolve().parents[1] / "src"
VC = lambda r: 1.0 / r
SMALL_MESH = (48, 96)
# max(a rho) = 3.26 on the -j side: that walk visits four blocks, the +j walk two
STRONG = FieldAnsatz(theta=(8.0, 0.0), support_radius=2.0)
WEAK = FieldAnsatz(theta=(0.3, 0.2), support_radius=2.0)


def ball8(mesh):
    """The (n_rho, n_z) = mesh grid over the R = 8 ball of the functional tests."""
    return PauliGrid.for_ball(8.0, n_rho=mesh[0], n_z=mesh[1])


def curl_energy(A):
    """int |curl A|^2 over the ball of support: the reference form of field_energy."""

    def dens(rho, z):
        _, br, bz = A.fields(rho, z)
        return br ** 2 + bz ** 2

    return pauli._polar_panels(dens, A.support_radius)


# ---------------------------------------------------------------------------
# field ansatz and field energy
# ---------------------------------------------------------------------------


def test_field_energy_zero_field():
    A = FieldAnsatz(theta=(0.0, 0.0), support_radius=3.0)
    assert A.is_zero
    assert field_energy(A) == 0.0


def test_field_energy_quadratic_scaling():
    A1 = FieldAnsatz(theta=(0.3, -0.2), support_radius=2.5)
    A2 = FieldAnsatz(theta=(0.6, -0.4), support_radius=2.5)
    assert field_energy(A2) == pytest.approx(4.0 * field_energy(A1), rel=1e-10)


def test_field_energy_equals_curl_energy():
    # div A = 0 for the azimuthal family, so both quadratic forms agree
    A = FieldAnsatz(theta=(0.7, 0.4, -0.1), support_radius=3.0,
                    scales=(1.0, 0.6, 0.3))
    assert field_energy(A) == pytest.approx(curl_energy(A), rel=1e-9)


def test_uniform_field_energy_closed_form():
    # a = B0 rho / 2 in a ball of radius 1: int_ball |grad A|^2 = 2 pi B0^2 / 3
    B0 = 1.3

    def dens(rho, z):
        return np.full_like(rho, B0 ** 2 / 2.0)

    val = pauli._polar_panels(dens, 1.0)
    assert val == pytest.approx(2.0 * math.pi * B0 ** 2 / 3.0, rel=1e-10)


def test_ansatz_field_components_match_finite_differences():
    A = FieldAnsatz(theta=(0.8,), support_radius=2.0, scales=(1.0,))
    eps = 1e-6

    def a_at(rho, z):
        return A.fields(np.array([rho]), np.array([z]))[0]

    for rho, z in ((0.3, 0.4), (1.0, -0.7), (0.05, 0.0)):
        a, br, bz = A.fields(np.array([rho]), np.array([z]))
        da_dz = (a_at(rho, z + eps) - a_at(rho, z - eps)) / (2 * eps)
        da_drho = (a_at(rho + eps, z) - a_at(rho - eps, z)) / (2 * eps)
        assert br[0] == pytest.approx(-da_dz[0], abs=1e-7)
        assert bz[0] == pytest.approx(da_drho[0] + a[0] / rho, abs=1e-6)


# ---------------------------------------------------------------------------
# spinor blocks
# ---------------------------------------------------------------------------


def test_zero_field_reduction_matches_scalar_trace():
    mu = 0.1
    res = pauli_trace_neg(None, VC, h=1.0, mu=mu, domain_radius=18.0,
                          mesh=(64, 128))
    scalar = radial_eig.trace_neg(VC, 1.0, mu=mu).trace
    assert abs(res.trace - scalar) / abs(scalar) < 1e-2
    # two degenerate blocks, one 1s level each
    assert set(res.eigenvalues) == {0.5, -0.5}


def test_pauli_trace_nonpositive_potential():
    res = pauli_trace_neg(None, lambda r: -1.0 / (1.0 + r), h=1.0, mu=0.0,
                          domain_radius=6.0, mesh=(24, 48))
    assert res.trace == 0.0


def test_weak_field_continuity():
    mu = 0.1
    base = pauli_trace_neg(None, VC, h=1.0, mu=mu, domain_radius=14.0,
                           mesh=SMALL_MESH).trace
    diffs = []
    for t in (0.2, 0.1):
        A = FieldAnsatz(theta=(t,), support_radius=2.0, scales=(1.0,))
        tr = pauli_trace_neg(A, VC, h=1.0, mu=mu, domain_radius=14.0,
                             mesh=SMALL_MESH).trace
        diffs.append(abs(tr - base))
    # quadratic-form continuity: difference shrinks at least ~ theta^2
    assert diffs[1] < 0.5 * diffs[0] + 1e-8
    assert diffs[1] < 5e-3


def test_zeeman_splitting_signs():
    # uniform-field-like mode: j = +1/2 block gains, j = -1/2 loses
    A = FieldAnsatz(theta=(0.5,), support_radius=6.0, scales=(1.0,))
    res = pauli_trace_neg(A, VC, h=1.0, mu=0.1, domain_radius=10.0,
                          mesh=SMALL_MESH)
    assert 0.5 in res.eigenvalues and -0.5 in res.eigenvalues
    assert res.eigenvalues[0.5][0] < res.eigenvalues[-0.5][0]


def test_pauli_trace_needs_a_domain():
    with pytest.raises(ValueError, match="needs grid or domain_radius"):
        pauli_trace_neg(None, VC, h=1.0, mu=0.1)
    # a cutoff alone does not set the mesh
    with pytest.raises(ValueError, match="needs grid or domain_radius"):
        pauli_trace_neg(None, VC, h=1.0, phi=SmoothCutoff(8.0))


def kinetic_by_cells(rho_faces, z_faces, h, floor):
    """The finite-volume kinetic operator cell by cell on the tensor mesh of the faces, the
    reference of PauliGrid.kinetic: no flux through the axis, a Dirichlet wall at the outer
    rho face and the top z face, and at the bottom z face a wall (floor "wall") or no flux
    (floor "no-flux")."""
    rho, z = 0.5 * (rho_faces[1:] + rho_faces[:-1]), 0.5 * (z_faces[1:] + z_faces[:-1])
    drho, dz, rf, zf = np.diff(rho_faces), np.diff(z_faces), rho_faces, z_faces
    nr, nz = rho.size, z.size
    h2 = h * h
    K = {}
    for i in range(nr):
        for j in range(nz):
            k = i * nz + j
            g_in = 0.0 if i == 0 else h2 * rf[i] / (rho[i] - rho[i - 1])
            g_out = h2 * rf[i + 1] / ((rho[i + 1] - rho[i]) if i + 1 < nr else (rf[i + 1] - rho[i]))
            if j > 0:
                g_dn = h2 / (z[j] - z[j - 1])
            else:
                g_dn = h2 / (z[j] - zf[0]) if floor == "wall" else 0.0
            g_up = h2 / ((z[j + 1] - z[j]) if j + 1 < nz else (zf[-1] - z[j]))
            K[k, k] = (g_in + g_out) / (rho[i] * drho[i]) + (g_dn + g_up) / dz[j]
            if i + 1 < nr:
                K[k, k + nz] = K[k + nz, k] = -h2 * rf[i + 1] / (
                    (rho[i + 1] - rho[i]) * np.sqrt(rho[i] * drho[i] * rho[i + 1] * drho[i + 1]))
            if j + 1 < nz:
                K[k, k + 1] = K[k + 1, k] = -h2 / ((z[j + 1] - z[j]) * np.sqrt(dz[j] * dz[j + 1]))
    rows, cols = np.array(list(K)).T
    return sp.csr_matrix((list(K.values()), (rows, cols)), shape=(nr * nz,) * 2)


@pytest.mark.parametrize("mesh", [(1, 2), (2, 2), (5, 6), (12, 20)])
def test_kinetic_matches_cell_loop(mesh):
    grid = PauliGrid.for_ball(8.0, n_rho=mesh[0], n_z=mesh[1])
    assert grid.nz == mesh[1] // 2 and grid.z_faces[0] == 0.0
    for h in (1.0, 0.3):
        for K, floor in zip(grid.kinetic(h), ("no-flux", "wall")):
            want = kinetic_by_cells(grid.rho_faces, grid.z_faces, h, floor).toarray()
            # same entries, bit for bit, and no stored zeros
            np.testing.assert_array_equal(K.toarray(), want)
            assert K.nnz == np.count_nonzero(want)


def test_mesh_is_the_upper_half():
    # an odd n_z used to be rounded down to the next even count
    with pytest.raises(ValueError, match="must be even"):
        PauliGrid.for_ball(8.0, 16, 33)
    with pytest.raises(ValueError, match="mirror plane"):
        PauliGrid(rho_faces=np.linspace(0.0, 1.0, 3), z_faces=np.linspace(-1.0, 1.0, 3))


def test_inertia_count_matches_dense():
    grid = PauliGrid.for_ball(8.0, n_rho=24, n_z=48)
    S = np.sqrt(grid.R ** 2 + grid.Z ** 2)
    z = np.zeros_like(S)
    for p in (0, 1):
        H = pauli.block_matrix(grid, grid.kinetic(1.0), 1.0, 0, p, 1.0 / S, z, z, z, mu=0.05)
        dense = np.linalg.eigvalsh(H.toarray())
        want = int(np.sum(dense < -1e-9))
        assert pauli.inertia_below(H, -1e-9) == want
        vals = pauli.eigs_below(H, -1e-9, sigma=-0.75)
        assert vals.size == want
        np.testing.assert_allclose(vals, dense[dense < -1e-9], atol=1e-7)


def cutoff_block(grid, m, p, A=None):
    """Parity sector p of the j = m + 1/2 block of phi_8 (T_1(A) - 1/|x|) phi_8 on grid."""
    S = np.sqrt(grid.R ** 2 + grid.Z ** 2)
    if A is None:
        a = br = bz = np.zeros_like(S)
    else:
        a, br, bz = A.fields(grid.R, grid.Z)
    return pauli.block_matrix(grid, grid.kinetic(1.0), 1.0, m, p, VC(S), a, bz, br,
                              phi2d=SmoothCutoff(8.0)(S))


def sector_eigs(grid, m, A=None):
    """The eigenvalues below -1e-12 of the cutoff block j = m + 1/2: the sorted union of its
    two sectors', as the trace's walk takes them."""
    return np.sort(np.concatenate([pauli.eigs_below(cutoff_block(grid, m, p, A), -1e-12,
                                                    pauli.SIGMA) for p in (0, 1)]))


def full_block(grid, m, V, A=None, phi=None, mu=0.0):
    """The j = m + 1/2 block of phi (T_1(A) - V) phi + mu on the whole mesh of grid, its z
    faces reflected through z = 0 and closed by Dirichlet walls at both ends: the operator
    that the two parity sectors of pauli.block_matrix split."""
    zf = np.concatenate([-grid.z_faces[::-1], grid.z_faces[1:]])
    R, Z = np.meshgrid(grid.rho, 0.5 * (zf[1:] + zf[:-1]), indexing="ij")
    S = np.sqrt(R ** 2 + Z ** 2)
    a, br, bz = (np.zeros_like(S),) * 3 if A is None else A.fields(R, Z)
    K = kinetic_by_cells(grid.rho_faces, zf, 1.0, "wall")
    up, down = (K + sp.diags(((k / R + a) ** 2 - V(S) + mu - sgn * bz).ravel())
                for k, sgn in ((m, 1), (m + 1, -1)))
    coupling = sp.diags(-br.ravel())
    H = sp.bmat([[up, coupling], [coupling, down]], format="csc")
    if phi is None:
        return H
    D = sp.diags(np.tile(phi(S).ravel(), 2))
    return (D @ H @ D).tocsc()


def sector_isometry(grid, p):
    """Q with Q^T Q = I mapping sector p on grid to the whole mesh: the up component is
    extended to z < 0 even for p = 0 and odd for p = 1, the down component the other way."""
    nr, nz = grid.nr, grid.nz
    cell = np.arange(nr * nz)
    i, k = np.divmod(cell, nz)
    upper, mirror = i * 2 * nz + nz + k, i * 2 * nz + nz - 1 - k
    rows, cols, vals = [], [], []
    for c, parity in ((0, 1 - 2 * p), (1, 2 * p - 1)):
        for full, sign in ((upper, 1.0), (mirror, parity)):
            rows.append(c * 2 * nr * nz + full)
            cols.append(c * nr * nz + cell)
            vals.append(np.full(cell.size, sign / math.sqrt(2.0)))
    return sp.csc_matrix((np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
                         shape=(4 * nr * nz, 2 * nr * nz))


def test_eigs_below_shift_inside_the_spectrum(caplog):
    # sigma = -0.1 lies above the lowest eigenvalue (-0.23694), and the
    # near-zero cluster of the cutoff exterior lies closer to it
    H = cutoff_block(ball8((12, 24)), 0, 0)
    dense = np.linalg.eigvalsh(H.toarray())
    want = dense[dense < -1e-12]
    assert want.size == 1 and want[0] == pytest.approx(-0.23694, abs=1e-5)
    with caplog.at_level("WARNING", logger="scottlab.pauli"):
        vals = pauli.eigs_below(H, -1e-12, sigma=-0.1)
    np.testing.assert_allclose(vals, want, rtol=1e-9)
    assert "moved to" in caplog.text
    with pytest.raises(ValueError, match="sigma must be negative"):
        pauli.eigs_below(H, -1e-12, sigma=0.0)


TOO_SMALL_FOR_ARPACK = pytest.mark.parametrize("H", [
    [[-1.0]], [[-1.0, 0.5], [0.5, 2.0]], [[-0.3, 0.2], [0.2, -2.0]],
    [[-1.0, 0.3, 0.0], [0.3, -0.5, 0.1], [0.0, 0.1, 2.0]],  # count 2 > n - 2
], ids=["1x1", "2x2-one-negative", "2x2-two-negative", "3x3-two-negative"])


@TOO_SMALL_FOR_ARPACK
def test_eigs_below_solves_operators_too_small_for_arpack_densely(H):
    dense = np.linalg.eigvalsh(H)
    vectors = []
    got = pauli.eigs_below(sp.csc_matrix(H), -1e-12, pauli.SIGMA, vectors=vectors)
    np.testing.assert_allclose(got, dense[dense < 0.0], rtol=0.0, atol=1e-14)
    # one vector per value, each an eigenvector of H
    (vecs,) = vectors
    assert vecs.shape == (len(H), got.size)
    assert np.max(np.abs(np.asarray(H) @ vecs - vecs * got)) <= 1e-14


@TOO_SMALL_FOR_ARPACK
def test_dense_count_that_differs_from_the_inertia_is_bisected(monkeypatch, H):
    # the inertia count stays the certificate: a dense solve that finds no state
    # below the threshold is set aside and the counted states are bisected
    dense, solve = np.linalg.eigvalsh(H), pauli.eigh

    def shifted(A):
        w, v = solve(A)
        return w + 10.0, v

    monkeypatch.setattr(pauli, "eigh", shifted)
    vectors = []
    got = pauli.eigs_below(sp.csc_matrix(H), -1e-12, pauli.SIGMA, vectors=vectors)
    np.testing.assert_allclose(got, dense[dense < 0.0], rtol=0.0, atol=pauli.BISECT_TOL)
    assert vectors[0].shape == (len(H), 0)


def test_block_walk_stop_is_certified():
    # theta = (8, 0) gives max(a rho) = 3.26 on the -j side, so that walk
    # passes the empty j = -2.5 block and stops at j = -3.5
    grid = ball8((32, 64))
    A = FieldAnsatz(theta=(8.0, 0.0), support_radius=2.0)
    res = pauli_trace_neg(A, VC, h=1.0, phi=SmoothCutoff(8.0), grid=grid)
    a_rho = A.fields(grid.R, grid.Z)[0] * grid.R

    def count(j):
        return sum(pauli.inertia_below(cutoff_block(grid, int(j - 0.5), p, A), -1e-12)
                   for p in (0, 1))

    stops = {}
    for side in (1, -1):
        reach = np.max(-side * a_rho)
        j = 0.5 * side
        while count(j) or abs(j) < reach:
            j += side
        stops[side] = j
        for _ in range(3):
            j += side
            assert count(j) == 0
    assert stops == {1: 1.5, -1: -3.5}
    assert count(-2.5) == 0
    walk = {}
    for m in range(-7, 7):
        vals = sector_eigs(grid, m, A)
        if vals.size:
            walk[m + 0.5] = vals
    assert set(res.eigenvalues) == set(walk)
    assert res.trace == pytest.approx(sum(np.sum(v) for v in walk.values()), rel=1e-12)


@pytest.mark.parametrize("mesh", [(16, 32), (32, 64)], ids=["16x32", "32x64"])
@pytest.mark.parametrize("A", [None, WEAK, STRONG], ids=["A0", "weak", "strong"])
def test_sectors_split_the_full_mesh_block(mesh, A):
    grid = ball8(mesh)
    phi = SmoothCutoff(8.0)
    nonempty = set()
    # every block the walks visit, and the first empty one past each stop
    for m in range(-5, 3):
        H = full_block(grid, m, VC, A, phi)
        want = pauli.eigs_below(H, -1e-12, pauli.SIGMA)
        counts = []
        for p in (0, 1):
            sector, Q = cutoff_block(grid, m, p, A), sector_isometry(grid, p)
            restricted = (Q.T @ H @ Q).tocsc()
            # the full block restricted to the sector is the sector, up to rounding
            assert abs(restricted - sector).max() <= 1e-13 * abs(sector).max()
            counts.append(pauli.inertia_below(sector, -1e-12))
            assert counts[-1] == pauli.inertia_below(restricted, -1e-12)
            got = pauli.eigs_below(sector, -1e-12, pauli.SIGMA)
            ref = pauli.eigs_below(restricted, -1e-12, pauli.SIGMA)
            assert got.size == ref.size == counts[-1]
            # relative to the largest eigenvalue, the scale of the solver's error
            assert np.all(np.abs(got - ref) <= 1e-12 * np.max(np.abs(ref), initial=0.0))
        assert sum(counts) == pauli.inertia_below(H, -1e-12) == want.size
        got = sector_eigs(grid, m, A)
        assert got.size == want.size
        assert np.all(np.abs(got - want) <= 1e-12 * np.max(np.abs(want), initial=0.0))
        if want.size:
            nonempty.add(m + 0.5)
    assert nonempty == set(cutoff_trace(A, grid).eigenvalues)


def zero_field_block_walk(grid, V, phi, mu):
    """The oracle of an A = 0 trace: the blocks j = m + 1/2 with zero fields on the
    whole mesh, walked outward to the first empty one, each stored as j and -j."""
    blocks = {}
    for m in range(pauli.JMAX):
        vals = pauli.eigs_below(full_block(grid, m, V, phi=phi, mu=mu), -1e-12, pauli.SIGMA)
        if not vals.size:
            break
        blocks[m + 0.5], blocks[-m - 0.5] = vals, vals
    return blocks, float(sum(np.sum(v) for v in blocks.values()))


@pytest.mark.parametrize("mesh", [(16, 32), (32, 64)], ids=["16x32", "32x64"])
@pytest.mark.parametrize("V, cutoff, mu", [
    (VC, True, 0.0),
    (VC, False, 0.1),
    (lambda r: 4.0 / r, False, 0.1),  # three nonempty channels
], ids=["phi-mu0", "nophi-mu0.1", "Z4-nophi-mu0.1"])
def test_zero_field_channels_equal_block_walk(mesh, V, cutoff, mu):
    grid = ball8(mesh)
    phi = SmoothCutoff(8.0) if cutoff else None
    got = pauli_trace_neg(None, V, h=1.0, phi=phi, mu=mu, grid=grid)
    blocks, trace = zero_field_block_walk(grid, V, phi, mu)
    assert list(got.eigenvalues) == list(blocks)
    for j, vals in blocks.items():
        # relative to the block's largest eigenvalue, the scale of the solver's error
        assert np.max(np.abs(got.eigenvalues[j] - vals)) <= 1e-12 * np.max(np.abs(vals))
    assert got.trace == pytest.approx(trace, rel=1e-12, abs=0.0)
    assert got.trace == block_sum(got)
    assert got.n_states == sum(vals.size for vals in blocks.values())


def test_zero_field_factors_scalar_channels(monkeypatch):
    grid = ball8((16, 32))
    shapes, factor = [], pauli._symmetric_lu

    def recorded(H, tau):
        shapes.append(H.shape)
        return factor(H, tau)

    monkeypatch.setattr(pauli, "_symmetric_lu", recorded)
    pauli_trace_neg(None, VC, h=1.0, mu=0.1, grid=grid)
    scott_functional_parts(None, 8.0, grid=grid)
    assert shapes and set(shapes) == {(grid.nr * grid.nz,) * 2}


def test_zero_field_channel_cap(monkeypatch):
    # channel 0 alone is nonempty: a cap of one channel has no certified
    # stop, a cap of two stops at the empty channel 1
    grid = ball8((16, 32))
    monkeypatch.setattr(pauli, "JMAX", 1)
    with pytest.raises(pauli.BlockCascadeError):
        cutoff_trace(None, grid)
    monkeypatch.setattr(pauli, "JMAX", 2)
    assert list(cutoff_trace(None, grid).eigenvalues) == [0.5, -0.5]


def channel_sector(grid, m, p, phi, mu):
    """Parity sector p of the zero-field channel m of phi (T_1 - 1/|x|) phi + mu on grid."""
    S = np.sqrt(grid.R ** 2 + grid.Z ** 2)
    H = grid.kinetic(1.0)[p] + sp.diags(((m / grid.R) ** 2 - VC(S) + mu).ravel())
    D = sp.identity(H.shape[0]) if phi is None else sp.diags(phi(S).ravel())
    return (D @ H @ D).tocsc()


def sector_walks(operator, side, reach):
    """The oracle of one side's sector walks: every (m, p) they solve.  Sector p is walked
    outward from m = 0 (side 1) or m = -1 (side -1) up to and including its first
    operator(m, p) with no state below -1e-12 and |m + 1/2| >= reach."""
    solved = []
    for p in (0, 1):
        m = 0 if side > 0 else -1
        while True:
            solved.append((m, p))
            if abs(m + 0.5) >= reach and not pauli.inertia_below(operator(m, p), -1e-12):
                break
            m += side
    return solved


@pytest.mark.parametrize("mesh", [(16, 32), (32, 64)], ids=["16x32", "32x64"])
@pytest.mark.parametrize("A, cutoff, mu", [
    (None, True, 0.0), (None, False, 0.1), (WEAK, True, 0.0), (STRONG, True, 0.0),
], ids=["A0-phi", "A0-nophi-mu0.1", "weak", "strong"])
def test_each_sector_leaves_the_walk_at_its_certified_stop(monkeypatch, mesh, A, cutoff, mu):
    grid = ball8(mesh)
    phi = SmoothCutoff(8.0) if cutoff else None
    solved = []
    if A is None:
        # a channel sector is known by its operator: the walk solves it once
        candidates = {(m, p): channel_sector(grid, m, p, phi, mu)
                      for m in range(8) for p in (0, 1)}
        solve = pauli.eigs_below

        def eigs(H, threshold, sigma, **kwargs):
            solved.extend(key for key, ref in candidates.items()
                          if abs(H - ref).max() <= 1e-13 * abs(ref).max())
            return solve(H, threshold, sigma, **kwargs)

        monkeypatch.setattr(pauli, "eigs_below", eigs)
        want = sector_walks(lambda m, p: candidates[m, p], 1, 0.0)
    else:
        a_rho = A.fields(grid.R, grid.Z)[0] * grid.R
        want = [key for side in (1, -1) for key in sector_walks(
            lambda m, p: cutoff_block(grid, m, p, A), side, np.max(-side * a_rho))]
        assemble = pauli.block_matrix

        def block(grid, K, h, m, p, *args, **kwargs):
            solved.append((m, p))
            return assemble(grid, K, h, m, p, *args, **kwargs)

        # every side walk in this process, where the wrapper records it
        monkeypatch.setattr(pauli, "fork_cores", lambda: [])
        monkeypatch.setattr(pauli, "block_matrix", block)
    pauli_trace_neg(A, VC, h=1.0, phi=phi, mu=mu, grid=grid)
    # no sector is solved past its own stop, and none twice
    assert sorted(solved) == sorted(want)


@pytest.mark.parametrize("R", [1e100, 1e160, 1e300])
@pytest.mark.parametrize("field", [False, True], ids=["A0", "A"])
def test_overflowing_mesh_raises(R, field):
    # on this mesh the stencil overflows from about R = 1e83 on, S from 1e154
    # on; the A = 0 trace came back as 0.0, or hit JMAX at R = 1e100
    A = FieldAnsatz(theta=(0.3, 0.2), support_radius=R / 4.0) if field else None
    with pytest.raises(ArithmeticError):
        pauli_trace_neg(A, VC, h=1.0, phi=SmoothCutoff(R),
                        grid=PauliGrid.for_ball(R, n_rho=8, n_z=16))


_NON_FINITE = """
import math
import numpy as np
from scottlab.pauli import FieldAnsatz, PauliGrid, field_energy, pauli_trace_neg

VC, grid = lambda r: 1.0 / r, PauliGrid.for_ball(8.0, 16, 32)
bad = FieldAnsatz(theta=(0.3,), support_radius=1.0)
object.__setattr__(bad, "theta", (math.nan,))  # past the constructor's check
cases = {
    "theta": lambda: FieldAnsatz(theta=(math.nan,), support_radius=1.0),
    "radius-nan": lambda: FieldAnsatz(theta=(0.3,), support_radius=math.nan),
    "radius-inf": lambda: FieldAnsatz(theta=(0.3,), support_radius=math.inf),
    "field": lambda: (field_energy(bad), pauli_trace_neg(bad, VC, grid=grid)),
    "V": lambda: pauli_trace_neg(None, lambda r: 1.0 / (r - r.flat[5]), grid=grid),
    "phi": lambda: pauli_trace_neg(None, VC, phi=lambda r: np.full_like(r, math.nan),
                                   grid=grid),
    "mode": lambda: pauli_trace_neg(None, VC, grid=grid, modes=(bad,)),
}
for name, case in cases.items():
    try:
        case()
        print(name, "returned")
    except ValueError as exc:
        print(name, exc)
"""


def test_non_finite_input_raises_before_any_factorization():
    # a NaN field once crashed the interpreter inside splu, so the cases run
    # in a child whose crash fails the test instead of ending pytest
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC)] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    done = subprocess.run([sys.executable, "-W", "ignore", "-c", _NON_FINITE], env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert [line.split()[0] for line in lines] == [
        "theta", "radius-nan", "radius-inf", "field", "V", "phi", "mode"]
    assert all("must be finite" in line for line in lines), lines


# ---------------------------------------------------------------------------
# the two sides walked by the caller and one forked child
# ---------------------------------------------------------------------------

multicore = pytest.mark.skipif(len(os.sched_getaffinity(0)) < 2,
                               reason="forking needs two usable cores")

def cutoff_trace(A, grid):
    return pauli_trace_neg(A, VC, h=1.0, phi=SmoothCutoff(8.0), grid=grid)


def serial_walk(A, grid):
    """The oracle of a forked trace: the +j walk, then the -j walk, one block (its two
    sectors) at a time, under the same one-thread BLAS cap as the trace."""
    a_rho = A.fields(grid.R, grid.Z)[0] * grid.R
    blocks = {}
    with one_blas_thread():
        for side in (1, -1):
            reach, m = np.max(-side * a_rho), 0 if side > 0 else -1
            while True:
                vals = sector_eigs(grid, m, A)
                if vals.size:
                    blocks[m + 0.5] = vals
                elif abs(m + 0.5) >= reach:
                    break
                m += side
    return blocks, float(sum(np.sum(v) for v in blocks.values()))


def block_sum(r):
    """The trace of a Pauli record summed outside it: its blocks' negative parts, in key order."""
    return float(sum(neg_part_sum(v) for v in r.eigenvalues.values()))


def in_children(action):
    """eigs_below, but running action first when called in a forked child."""
    here, solve = os.getpid(), pauli.eigs_below

    def eigs(H, threshold, sigma):
        if os.getpid() != here:
            action()
        return solve(H, threshold, sigma)
    return eigs


def no_fork():
    raise AssertionError("a child was forked")


@multicore
@pytest.mark.parametrize("mesh", [(16, 32), (32, 64)], ids=["16x32", "32x64"])
@pytest.mark.parametrize("A", [WEAK, STRONG], ids=["weak", "strong"])
def test_forked_trace_equals_serial_walk(monkeypatch, reaped, mesh, A):
    grid = ball8(mesh)
    forks, fork = [], os.fork
    monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())
    got = cutoff_trace(A, grid)
    assert got.workers == 2 and len(forks) == 1
    blocks, trace = serial_walk(A, grid)
    assert list(got.eigenvalues) == list(blocks)
    for j, vals in blocks.items():
        assert np.array_equal(got.eigenvalues[j], vals)
    assert got.trace == trace == block_sum(got)
    assert got.n_states == sum(vals.size for vals in blocks.values())


@multicore
def test_child_errors_reach_the_caller(monkeypatch, reaped):
    with monkeypatch.context() as patch:
        patch.setattr(pauli, "JMAX", 1)
        with pytest.raises(pauli.BlockCascadeError):
            cutoff_trace(WEAK, ball8((16, 32)))

    def reject():
        raise ValueError("rejected in a child")

    monkeypatch.setattr(pauli, "eigs_below", in_children(reject))
    with pytest.raises(ValueError, match="rejected in a child"):
        cutoff_trace(WEAK, ball8((16, 32)))


def test_one_usable_core_forks_nothing(monkeypatch):
    grid = ball8((16, 32))
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    monkeypatch.setattr(os, "fork", no_fork)
    got = cutoff_trace(WEAK, grid)
    assert got.workers == 0
    assert got.trace == serial_walk(WEAK, grid)[1] == block_sum(got)


@multicore
def test_children_fork_under_the_one_thread_cap(monkeypatch, blas_count, reaped):
    def report():
        raise ValueError(f"BLAS threads in a child: {blas_count()}")

    monkeypatch.setattr(pauli, "eigs_below", in_children(report))
    with pytest.raises(ValueError, match="BLAS threads in a child: 1$"):
        cutoff_trace(WEAK, ball8((16, 32)))
    assert blas_count() == 2


_BLAS_BITS = """
from scottlab import pauli
from scottlab.cutoffs import SmoothCutoff

def trace():
    return pauli.pauli_trace_neg(pauli.FieldAnsatz(theta=(0.2, 0.0), support_radius=2.0),
                                 lambda r: 1.0 / r, phi=SmoothCutoff(8.0),
                                 grid=pauli.PauliGrid.for_ball(8.0, n_rho=80, n_z=160))

forked = trace()
pauli.fork_cores = lambda: []
serial = trace()
print(forked.workers, serial.workers, repr(forked.trace), repr(serial.trace))
"""


@multicore
def test_trace_bits_do_not_depend_on_the_blas_thread_count():
    # on this mesh the trace used to read -0.46165492867957036 at two
    # OpenBLAS threads and ...57025 at one
    lines = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=os.pathsep.join(
            [str(SRC)] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
        done = subprocess.run([sys.executable, "-c", _BLAS_BITS], env=env,
                              capture_output=True, text=True, timeout=300)
        assert done.returncode == 0, done.stderr
        lines.append(done.stdout.split())
    assert [line[:2] for line in lines] == [["2", "0"]] * 2
    assert len({r for line in lines for r in line[2:]}) == 1, lines


@multicore
def test_second_thread_traces_in_process():
    # fork is safe only from a process that runs one thread
    grid = ball8((16, 32))
    got = []
    worker = threading.Thread(target=lambda: got.append(cutoff_trace(STRONG, grid)))
    worker.start()
    worker.join(timeout=120)
    assert not worker.is_alive()
    assert got[0].workers == 0
    blocks, trace = serial_walk(STRONG, grid)
    assert list(got[0].eigenvalues) == list(blocks)
    assert got[0].trace == trace == block_sum(got[0])


@multicore
def test_zero_field_trace_never_forks(monkeypatch):
    monkeypatch.setattr(os, "fork", no_fork)
    got = cutoff_trace(None, ball8((16, 32)))
    assert got.workers == 0
    # blocks -j follow blocks j, as the in-process walk inserts them
    assert list(got.eigenvalues) == [0.5, -0.5]


# ---------------------------------------------------------------------------
# the localized Scott functional
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def parts_zero():
    return scott_functional_parts(None, 8.0, grid=ball8(SMALL_MESH))


@pytest.fixture(scope="module")
def parts_field():
    A = FieldAnsatz(theta=(0.4, 0.2), support_radius=2.0)
    return scott_functional_parts(A, 8.0, grid=ball8(SMALL_MESH))


def test_functional_zero_field_is_trace_minus_weyl(parts_zero):
    assert parts_zero.field_inner == 0.0
    v = parts_zero.value(0.05, 10.0)
    assert v == pytest.approx(parts_zero.trace - parts_zero.weyl, rel=1e-12)
    # the beta knob is inert at A = 0
    assert parts_zero.value(0.05, 1.0) == pytest.approx(v, rel=1e-12)


def test_functional_kappa_monotone_exact(parts_field):
    kappas = np.linspace(0.01, 0.1, 10)
    vals = [parts_field.value(k, 5.0) for k in kappas]
    assert all(a >= b for a, b in zip(vals, vals[1:]))
    # and nondecreasing in beta
    assert parts_field.value(0.05, 1.0) <= parts_field.value(0.05, 10.0)


def test_functional_field_energy_strictly_adds(parts_zero, parts_field):
    assert parts_field.field_inner > 0.0
    # with the trace held aside, the field terms make the functional larger
    synthetic = parts_zero.trace + parts_field.field_inner / 0.05 - parts_zero.weyl
    assert synthetic > parts_zero.value(0.05, 10.0)


def test_functional_precondition_checks(parts_field):
    with pytest.raises(ValueError):
        parts_field.value(0.1, 5.1)  # beta > 1/(2 kappa)
    with pytest.raises(ValueError):
        parts_field.value(-0.1, 1.0)


def test_functional_rejects_support_beyond_quarter_radius():
    # field outside B(R/4) would carry the beta weight, which no route computes
    A = FieldAnsatz(theta=(0.4,), support_radius=2.5, scales=(1.0,))
    with pytest.raises(ValueError, match="exceeds R/4"):
        scott_functional_parts(A, 8.0, grid=ball8((8, 16)))


def test_functional_coercive_in_theta(parts_zero):
    # the kappa^-1 field term grows quadratically, so scaling theta up must
    # eventually dominate whatever the trace gains
    kappa, beta = 0.05, 10.0
    vals = []
    for scale in (1.0, 2.0, 4.0):
        A = FieldAnsatz(theta=(0.5 * scale, 0.25 * scale), support_radius=2.0)
        p = scott_functional_parts(A, 8.0, grid=ball8((32, 64)))
        vals.append(p.value(kappa, beta))
    assert vals[0] < vals[1] < vals[2]
    assert vals[2] > parts_zero.value(kappa, beta)


def test_minimize_scott_bounded_by_zero_field():
    res = minimize_scott(0.05, 10.0, 8.0, ball8((32, 64)), n_modes=2, budget=18, seed=3)
    assert res.estimate.route == "ansatz-min"
    assert res.estimate.value <= res.zero_field_value + 1e-12
    assert res.estimate.meta["evaluations"] <= 18
    assert len(res.history) == res.estimate.meta["evaluations"]


def test_minimize_scott_budget_flag(certified):
    # the certificate costs the one zero-field evaluation, so below kappa_c a
    # budget of one suffices; above it the ray walk runs the budget out
    below = minimize_scott(0.05, 10.0, 8.0, ball8((32, 64)), n_modes=2, budget=1, seed=0)
    assert not below.budget_exhausted
    assert below.estimate.meta["certified"]
    kappa = 1.25 * certified.estimate.meta["kappa_c"]
    res = minimize_scott(kappa, 0.5 / kappa, 8.0, ball8((32, 64)), n_modes=2, budget=2, seed=0)
    assert res.budget_exhausted
    assert res.estimate.meta["evaluations"] == 2
    assert res.estimate.value <= res.zero_field_value + 1e-12
    assert not res.estimate.meta["certified"]


def test_minimize_scott_validation():
    grid = ball8((8, 16))
    with pytest.raises(ValueError):
        minimize_scott(0.0, 1.0, 8.0, grid)
    with pytest.raises(ValueError):
        minimize_scott(0.1, 6.0, 8.0, grid)


def test_minimize_scott_rejects_empty_budget():
    # budget = 0 used to report one evaluation
    with pytest.raises(ValueError, match="budget"):
        minimize_scott(0.05, 10.0, 8.0, ball8((8, 16)), budget=0)


def test_minimize_scott_rejects_no_modes():
    # n_modes = 0 used to raise IndexError on the empty generalized eigenproblem
    with pytest.raises(ValueError, match="n_modes"):
        minimize_scott(0.05, 10.0, 8.0, ball8((8, 16)), n_modes=0)


@pytest.fixture(scope="module")
def certified():
    return minimize_scott(0.05, 10.0, 8.0, ball8((32, 64)), n_modes=2)


def test_minimize_scott_certifies_zero_field(certified):
    assert certified.theta == (0.0, 0.0)
    assert certified.estimate.meta["evaluations"] == 1
    assert certified.estimate.meta["certified"]
    assert not certified.budget_exhausted
    kappa_c = certified.estimate.meta["kappa_c"]
    assert math.isfinite(kappa_c) and kappa_c > 0.05
    assert certified.estimate.value == certified.zero_field_value
    # the value and the response come from one zero-field walk, the same as the functional's
    assert certified.zero_field_value == scott_functional_parts(
        None, 8.0, ball8((32, 64))).value(0.05, 10.0)
    # one state (channel 0, sector 0): its own channel sector and channel 1 in sector 1
    assert certified.estimate.meta["response_lu"] == 2
    assert 0.0 < certified.estimate.meta["response_residual"] <= pauli.REFINE_TOL


def mode_ansatz(theta):
    """minimize_scott's field at the coefficients theta on the R = 8 ball."""
    return FieldAnsatz(theta=tuple(theta), support_radius=2.0,
                       scales=tuple(0.5 ** i for i in range(len(theta))))


def probe_hessian(grid, t):
    """The oracle of the trace Hessian of two modes: second differences of the cutoff
    trace at theta = 0, t e_i and t (e_1 + e_2), over t^2."""
    def trace(theta):
        return scott_functional_parts(mode_ansatz(theta) if np.any(theta) else None, 8.0,
                                      grid).trace

    eye = np.eye(2)
    t0, (t1, t2) = trace(np.zeros(2)), (trace(t * e) for e in eye)
    t12 = trace(t * (eye[0] + eye[1]))
    return np.array([[2.0 * (t1 - t0), t12 - t1 - t2 + t0],
                     [t12 - t1 - t2 + t0, 2.0 * (t2 - t0)]]) / t ** 2


@pytest.mark.parametrize("mesh", [(32, 64), (64, 128)], ids=["32x64", "64x128"])
def test_trace_response_equals_extrapolated_probes(mesh):
    grid = ball8(mesh)
    got = scott_functional_parts(None, 8.0, grid,
                                 modes=tuple(mode_ansatz(e) for e in np.eye(2))).response
    # the probes' error is O(t^2): Richardson extrapolation from t = 0.2 and 0.1
    want = (4.0 * probe_hessian(grid, 0.1) - probe_hessian(grid, 0.2)) / 3.0
    assert np.max(np.abs(got.hessian - want)) <= 1e-5 * np.max(np.abs(want))
    assert np.array_equal(got.hessian, got.hessian.T)


def test_response_needs_zero_field():
    with pytest.raises(ValueError, match="at A = 0"):
        pauli_trace_neg(WEAK, VC, phi=SmoothCutoff(8.0), grid=ball8((8, 16)),
                        modes=(mode_ansatz((1.0,)),))


def test_response_solve_that_does_not_converge_is_an_error(monkeypatch):
    # each refinement step gains about two digits, so two steps cannot reach 1e-11
    monkeypatch.setattr(pauli, "REFINE_STEPS", 2)
    with pytest.raises(RuntimeError, match="relative step .* after 2 steps"):
        minimize_scott(0.05, 10.0, 8.0, ball8((16, 32)))


def test_state_without_a_ritz_vector_is_a_compute_error(monkeypatch, tmp_path):
    # a straggler that eigs_below bisected, or a pair ARPACK did not deliver, has
    # no Ritz vector; the response must not drop that state
    from scottlab.cli import EXIT_COMPUTE, main

    grid, ritz = ball8((16, 32)), pauli._ritz_below
    want = scott_functional_parts(None, 8.0, grid).trace

    def one_fewer(H, k, threshold, sigma, vectors=False):
        vals, vecs = ritz(H, k, threshold, sigma, vectors)
        return vals[:-1], None if vecs is None else vecs[:, :-1]

    monkeypatch.setattr(pauli, "_ritz_below", one_fewer)
    # the trace still holds the state, by bisection
    assert scott_functional_parts(None, 8.0, grid).trace == pytest.approx(want, abs=1e-7)
    with pytest.raises(RuntimeError, match="have no Ritz vector"):
        minimize_scott(0.05, 10.0, 8.0, grid)
    out = tmp_path / "am.csv"
    assert main(["scott", "--route", "ansatz-min", "--R", "8", "--mesh", "16 32",
                 "--out", str(out)]) == EXIT_COMPUTE
    assert not out.exists()


def test_minimize_scott_walks_the_ray_above_critical_coupling(certified):
    kappa = 4.0 * certified.estimate.meta["kappa_c"]
    # five ray steps past the zero-field evaluation; the functional still falls at each
    res = minimize_scott(kappa, 0.5 / kappa, 8.0, ball8((32, 64)), n_modes=2, budget=6)
    assert not res.estimate.meta["certified"]
    assert res.budget_exhausted
    assert res.estimate.value < min(v for _, _, v in res.history[:1])
    assert res.estimate.value < res.zero_field_value


def test_critical_coupling_separates_the_branches(certified):
    # below kappa_c the first ray step does not beat A = 0; above it, it does
    low, high = (f * certified.estimate.meta["kappa_c"] for f in (0.8, 1.25))
    below = minimize_scott(low, 0.5 / low, 8.0, ball8((32, 64)), n_modes=2)
    assert below.estimate.meta["certified"]
    assert len(below.history) == 1
    above = minimize_scott(high, 0.5 / high, 8.0, ball8((32, 64)), n_modes=2, budget=5)
    assert not above.estimate.meta["certified"]
    assert above.history[1][2] < above.zero_field_value
    # the same step at the coupling below kappa_c, where the walk does not go
    step = pauli.RAY_STEP * np.array(above.theta) / np.linalg.norm(above.theta)
    parts = scott_functional_parts(mode_ansatz(step), 8.0, ball8((32, 64)))
    assert parts.value(low, 0.5 / low) > below.zero_field_value
