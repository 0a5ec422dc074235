"""The three workloads: set-up, the operations of one pass, and their checks.

Every check compares against a value computed here, outside the method
(closed forms, published constants, an independent quadrature), or tests a
property the method must have.  None compares against stored output.
"""

from __future__ import annotations

import json
import math
import resource
import shutil
import subprocess
import sys
from contextlib import nullcontext
from pathlib import Path
from typing import Callable, NamedTuple, Optional

import numpy as np

from scottlab import expansion, hydrogen, pauli, radial_eig, tf, weyl
from scottlab.cutoffs import SmoothCutoff

HERE = Path(__file__).resolve().parent

TWO_S0 = 0.25                 # 2 S(0), the non-magnetic Scott limit
BAKER_SLOPE = -1.588071       # phi'(0) of the TF profile (Baker 1930)
TF_ENERGY = -0.38437          # -0.7687 Hartree; the energy unit here is 2 Hartree
TF_LENGTH = (3.0 * math.pi / 4.0) ** (2.0 / 3.0)   # 0.8853 Bohr radii; Bohr radius = 2


class Op(NamedTuple):
    """One operation: run(tracer or None) is timed, check(result) is not.

    check returns None when the output is right, else what is wrong.  An
    operation with known_fault set fails today because of that fault in the
    program: its wrong output counts as a failure, not as a wrong result.
    """

    name: str
    run: Callable
    check: Callable
    known_fault: str = ""


def coulomb(r):
    return 1.0 / r


def hydrogen_trace(mu: float) -> float:
    """Closed sum of 2 n^2 (e_n + mu) over the levels e_n = -1/(4 n^2) below -mu."""
    total, n = 0.0, 1
    while -0.25 / n ** 2 < -mu:
        total += 2 * n * n * (-0.25 / n ** 2 + mu)
        n += 1
    return total


def coulomb_weyl(mu: float) -> float:
    """-(8/(15 pi)) int (1/r - mu)_+^(5/2) r^2 dr = -(1/6) mu^(-1/2).

    The radial integral is mu^(-1/2) int_0^1 (1/x - 1)^(5/2) x^2 dx and the
    Beta integral equals 5 pi/16.
    """
    return -1.0 / (6.0 * math.sqrt(mu))


def tf_weyl_from_profile(t, phi, h: float, mu: float) -> float:
    """Weyl term -(8/(15 pi)) h^-3 int (V - mu)_+^(5/2) r^2 dr from a tabulated profile.

    V(r) = phi(r/b)/r; trapezoid rule in s = sqrt(r), which removes the
    r^(-1/2) behaviour at the nucleus; below the first node phi = 1 is used.
    """
    r = TF_LENGTH * np.asarray(t)
    s = np.sqrt(r)
    f = np.maximum(np.asarray(phi) / r - mu, 0.0) ** 2.5 * r ** 2 * 2.0 * s
    integral = float(np.trapezoid(f, s)) + 2.0 * math.sqrt(r[0])
    return -(8.0 / (15.0 * math.pi)) * h ** -3 * integral


def tf_problems(slope0, e_atom, residual, mass_error, virial=None, gap=None) -> list:
    """What is wrong with a TF solution, as readable lines (empty when right)."""
    out = []
    if abs(slope0 - BAKER_SLOPE) > 2e-6:
        out.append(f"slope {slope0} is not Baker's {BAKER_SLOPE}")
    if abs(e_atom - TF_ENERGY) > 1e-5:
        out.append(f"E_atom {e_atom} is not {TF_ENERGY}")
    if not residual < 1e-8:
        out.append(f"TF residual {residual} >= 1e-8")
    if not abs(mass_error) < 1e-6:
        out.append(f"|mass - 1| = {abs(mass_error)} >= 1e-6")
    if virial is not None and not virial < 1e-4:
        out.append(f"virial ratio {virial} >= 1e-4")
    if gap is not None and not gap < 1e-4:
        out.append(f"functional/phase-space gap {gap} >= 1e-4")
    return out


def near(value, target, tol, what) -> Optional[str]:
    return None if abs(value - target) <= tol else f"{what} = {value}, not within {tol} of {target}"


def rel_near(value, target, tol, what) -> Optional[str]:
    return near(value, target, tol * abs(target), what)


def first(*problems) -> Optional[str]:
    return next((p for p in problems if p), None)


def decreasing(values) -> bool:
    return all(a > b for a, b in zip(values, values[1:]))


def cutoff_problem(d_values, extrapolated) -> Optional[str]:
    """d(R) must fall with R, and the (80, 160) extrapolation must land near 2S(0)."""
    return first(None if decreasing(d_values) else f"d(R) = {d_values} does not decrease",
                 near(extrapolated, TWO_S0, 0.025, "(80, 160) extrapolation"))


class InProcess:
    """A workload whose operations run in the harness process itself."""

    def __init__(self, seed: int, work_dir: Path):
        """In-process workloads write no files."""

    def end_pass(self) -> None:
        pass

    def peak_rss_kb(self) -> int:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


# ---------------------------------------------------------------------------
# scott-nonmagnetic
# ---------------------------------------------------------------------------


class ScottNonmagnetic(InProcess):
    """The radial layer in-process: full-space and cutoff-localized traces."""

    name = "scott-nonmagnetic"

    def setup(self) -> list:
        self.sol = sol = tf.solve_tf_atom()
        return tf_problems(sol.slope0, sol.E_atom, sol.residual_sup, sol.mass - 1.0)

    def operations(self) -> list:
        sol = self.sol
        c3 = sol.phase_space_coeff
        h40 = 1.0 / 40.0
        mus = [1.0 / (4.0 * n * n) for n in (50, 100, 200, 400)]

        ops = [
            Op("spectral_fit", lambda tr: radial_eig.scott_spectral_fit(sol),
               lambda est: near(est.value, TWO_S0, 0.01, "spectral-fit c2")),
            Op("coulomb_trace",
               lambda tr: radial_eig.trace_neg(coulomb, 1.0, mu=1.0 / 400.0, refine=True),
               lambda s: near(s.trace, hydrogen_trace(1.0 / 400.0), 2e-3, "Coulomb trace")),
            Op("cutoff_schedule",
               lambda tr: radial_eig.scott_cutoff_schedule([20.0, 40.0, 80.0, 160.0]),
               lambda est: cutoff_problem(est.meta["d_values"], est.meta["extrapolated"])),
            Op("mu_limit", lambda tr: hydrogen.scott_mu_limit(mus),
               lambda est: near(est.value, TWO_S0, 1e-3, "mu-limit 2S(0)")),
        ]
        for mu in (1e-2, 1e-3, 1e-4):
            ops.append(Op(
                f"weyl_coulomb_{mu:g}",
                lambda tr, mu=mu: weyl.weyl_integral(weyl.WeylIntegrand(V=coulomb, mu=mu, h=1.0)),
                lambda v, mu=mu: rel_near(v, coulomb_weyl(mu), 1e-6, f"Weyl integral at mu={mu:g}")))
        ops += [
            Op("expansion_sweep",
               lambda tr: expansion.expansion_sweep([8.0, 27.0, 64.0, 125.0], 0.0, sol),
               lambda reps: None if decreasing([r.residual_over_Z2 for r in reps])
               else "residual/Z^2 does not strictly decrease"),
            Op("tf_trace_h40",
               lambda tr: radial_eig.trace_neg(sol.potential(), h40, refine=True),
               lambda s: near((s.trace - c3 * h40 ** -3) * h40 ** 2, TWO_S0, 0.02,
                              "(Tr - c3 h^-3) h^2 at h = 1/40"),
               known_fault="radial_eig.negative_eigenvalues pad drops bound states on fine grids"),
        ]
        return ops


# ---------------------------------------------------------------------------
# scott-magnetic
# ---------------------------------------------------------------------------


class ScottMagnetic(InProcess):
    """The Pauli layer in-process: both block loops, the functional and the minimizer."""

    name = "scott-magnetic"
    R = 8.0
    KAPPA, BETA, BUDGET = 0.05, 10.0, 12

    def __init__(self, seed: int, work_dir: Path):
        super().__init__(seed, work_dir)
        # probe field: fixed strength, seeded direction in the two-mode plane
        angle = np.random.default_rng(seed).uniform(0.0, 2.0 * math.pi)
        self.theta = (0.45 * math.cos(angle), 0.45 * math.sin(angle))

    def setup(self) -> list:
        self.grid = pauli.PauliGrid.for_ball(self.R, n_rho=64, n_z=128)
        self.grid.kinetic(1.0)
        self.scalar_ref = radial_eig.trace_neg(coulomb, 1.0, mu=0.1).trace
        self.local_ref = radial_eig.localized_trace_neg(
            coulomb, SmoothCutoff(self.R), 1.0, refine=True).trace
        return []

    def _ansatz(self, theta):
        return pauli.FieldAnsatz(theta=theta, support_radius=self.R / 4.0, scales=(1.0, 0.5))

    def operations(self) -> list:
        R, grid = self.R, self.grid
        got = {}

        def keep(name, fn):
            def run(tr):
                got[name] = fn()
                return got[name]
            return run

        def monotone(parts):
            vals = [parts.value(k, 5.0) for k in np.linspace(0.01, 0.1, 10)]
            return None if decreasing(vals) else "functional does not decrease in kappa"

        def reversal(parts):
            ref = got["parts_theta"]
            return first(rel_near(parts.trace, ref.trace, 1e-9, "trace(-theta)"),
                         rel_near(parts.field_inner, ref.field_inner, 1e-9, "field energy(-theta)"))

        def minimum(res):
            zero = got["parts_zero"].value(self.KAPPA, self.BETA)
            return first(None if res.estimate.meta["evaluations"] <= self.BUDGET
                         else "evaluation budget exceeded",
                         rel_near(res.zero_field_value, zero, 1e-9, "zero-field value"),
                         None if res.estimate.value <= res.zero_field_value + 1e-12
                         else "minimum above the zero-field value")

        minus = tuple(-v for v in self.theta)
        return [
            Op("zero_field_trace",
               lambda tr: pauli.pauli_trace_neg(None, coulomb, h=1.0, mu=0.1,
                                                domain_radius=18.0, mesh=(96, 192)),
               lambda p: rel_near(p.trace, self.scalar_ref, 1e-2, "zero-field Pauli trace")),
            Op("parts_zero", keep("parts_zero", lambda: pauli.scott_functional_parts(None, R, grid=grid)),
               lambda p: rel_near(p.trace, self.local_ref, 1e-2, "theta = 0 functional trace")),
            Op("parts_theta", keep("parts_theta", lambda: pauli.scott_functional_parts(
                self._ansatz(self.theta), R, grid=grid)), monotone),
            Op("parts_minus_theta", lambda tr: pauli.scott_functional_parts(
                self._ansatz(minus), R, grid=grid), reversal),
            Op("minimize", lambda tr: pauli.minimize_scott(
                self.KAPPA, self.BETA, R, n_modes=2, budget=self.BUDGET, seed=0, grid=grid),
               minimum),
        ]


# ---------------------------------------------------------------------------
# cli-session
# ---------------------------------------------------------------------------


def read_sidecar(path: Path) -> dict:
    out = {}
    for line in path.read_text(encoding="utf-8").splitlines():
        key, _, value = line.partition(": ")
        out[key] = value
    return out


def read_csv(path: Path, **kw) -> np.ndarray:
    return np.atleast_2d(np.loadtxt(path, delimiter=",", skiprows=1, **kw))


class CliSession:
    """One user session: each subcommand in a fresh interpreter, from an empty cache."""

    name = "cli-session"

    def __init__(self, seed: int, work_dir: Path):
        self.seed = seed
        self.work_dir = work_dir
        self.peak_kb = 0
        self.passes = 0

    def setup(self) -> list:
        import scottlab.cli  # noqa: F401  (the set-up checks that the CLI imports)
        self.work_dir.mkdir(parents=True, exist_ok=True)
        return []

    def _run(self, name: str, argv: list, tr):
        """Run `scottlab <argv> --cache-dir cache --out <name>.csv` in a child."""
        result = self.session / f".{name}.json"
        cmd = [sys.executable, str(HERE / "cli_child.py"), str(result), "1" if tr else "0",
               *argv, "--cache-dir", "cache", "--out", f"{name}.csv"]
        with (tr.span("cli.process") if tr else nullcontext()) as sp:
            proc = subprocess.run(cmd, cwd=self.session, stdout=subprocess.DEVNULL,
                                  stderr=subprocess.PIPE, text=True, timeout=150)
        if proc.returncode != 0:
            raise RuntimeError(f"scottlab {' '.join(argv)} exited {proc.returncode}: "
                               f"{proc.stderr.strip()[-400:]}")
        info = json.loads(result.read_text())
        self.peak_kb = max(self.peak_kb, info["maxrss_kb"])
        if tr:
            tr.add_foreign(info["spans"], info["counters"], parent=sp.id)
        return self.session / f"{name}.csv"

    def operations(self) -> list:
        self.passes += 1
        self.session = self.work_dir / f"pass{self.passes}"
        self.session.mkdir()

        def cli(name, *argv):
            return lambda tr: self._run(name, list(argv), tr)

        def meta(csv: Path) -> dict:
            return read_sidecar(csv.with_name(csv.name + ".meta.txt"))

        def tf_check(csv):
            m = meta(csv)
            problems = tf_problems(float(m["slope0"]), float(m["E_atom"]),
                                   float(m["residual_sup"]), float(m["mass_error"]),
                                   float(m["virial_ratio"]), float(m["energy_gap"]))
            if not (self.session / "cache" / "tf_profile.npz").is_file():
                problems.append("no TF cache file written")
            return "; ".join(problems) or None

        def tf_hit_check(csv):
            same = csv.read_bytes() == (self.session / "tf_miss.csv").read_bytes()
            return first(tf_check(csv), None if same else "tf CSVs differ between two runs")

        def weyl_check(csv):
            tf_meta = meta(self.session / "tf_miss.csv")
            value = read_csv(csv, usecols=(3,))[0, 0]
            return rel_near(value, float(tf_meta["phase_space_coeff"]), 1e-8,
                            "TF Weyl integral at mu = 0")

        def tf_trace_check(csv):
            h, mu = 0.1, float(meta(csv)["param mu"])
            profile = read_csv(self.session / "tf_miss.csv")
            w = tf_weyl_from_profile(profile[:, 0], profile[:, 1], h, mu)
            return near((read_csv(csv)[-1, 2] - w) * h * h, TWO_S0, 0.01,
                        "(trace - Weyl) h^2 at h = 0.1")

        def expansion_check(csv):
            return None if decreasing(list(read_csv(csv)[:, 5])) else \
                "residual/Z^2 does not strictly decrease"

        def partition_check(csv):
            vals = read_csv(csv)[:, 4]
            if vals.size != 100:
                return f"{vals.size} partition points, not 100"
            return near(float(np.max(np.abs(vals - 1.0))), 0.0, 1e-6, "partition |value - 1|")

        return [
            Op("tf_miss", cli("tf_miss", "tf"), tf_check),
            Op("tf_hit", cli("tf_hit", "tf"), tf_hit_check),
            Op("weyl_tf", cli("weyl_tf", "weyl", "--potential", "tf", "--mu", "0"), weyl_check),
            Op("trace_tf", cli("trace_tf", "trace", "--potential", "tf", "--h", "0.1", "--refine"),
               tf_trace_check),
            Op("trace_coulomb", cli("trace_coulomb", "trace", "--potential", "coulomb",
                                    "--mu", "0.0025", "--refine"),
               lambda csv: near(read_csv(csv)[-1, 2], hydrogen_trace(0.0025), 2e-3,
                                "Coulomb trace")),
            Op("scott_mu", cli("scott_mu", "scott", "--route", "mu-limit"),
               lambda csv: near(float(meta(csv)["estimate_2S"]), TWO_S0, 1e-3,
                                "mu-limit 2S(0)")),
            Op("scott_cutoff", cli("scott_cutoff", "scott", "--route", "cutoff-R",
                                   "--R-list", "20 40 80 160"),
               lambda csv: cutoff_problem(list(read_csv(csv)[:, 3]),
                                          float(meta(csv)["extrapolated_2S"]))),
            Op("scott_fit", cli("scott_fit", "scott", "--route", "spectral-fit"),
               lambda csv: near(float(meta(csv)["c2_estimate_2S"]), TWO_S0, 0.01,
                                "spectral-fit c2")),
            Op("expansion", cli("expansion", "expansion"), expansion_check),
            Op("partition", cli("partition", "partition-check", "--n-points", "100",
                                "--seed", str(self.seed)), partition_check),
        ]

    def end_pass(self) -> None:
        shutil.rmtree(self.session, ignore_errors=True)

    def peak_rss_kb(self) -> int:
        """The largest child: the parent only starts processes and reads files."""
        return self.peak_kb


WORKLOADS = {w.name: w for w in (CliSession, ScottNonmagnetic, ScottMagnetic)}
