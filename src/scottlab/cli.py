"""Command-line front end: configuration, dispatch, CSV + sidecar emission.

Every run writes a CSV with a header row and a text sidecar recording the
package version, the resolved parameters and the provenance of fixed
constants, once its computation has succeeded.  Exit codes: 0 success,
2 usage / unknown subcommand (argparse), 3 validation failure, 4 I/O
failure, 5 computation failure (memory exhaustion included).  Identical
configuration (seeds included) produces byte-identical CSV output.
"""

from __future__ import annotations

import argparse
import math
import os
import sys

import numpy as np

from . import __version__, core, expansion, hydrogen, multiscale, radial_eig, tf
from .weyl import WeylIntegrand, weyl_coulomb_mu, weyl_integral

EXIT_OK = 0
EXIT_VALIDATION = 3
EXIT_IO = 4
EXIT_COMPUTE = 5

PROVENANCE = {
    "units": "length hbar^2/(2 m e^2), energy 2 m e^4/hbar^2; kinetic -Delta",
    "S0": "S(0) = 1/8 (non-magnetic Scott coefficient)",
    "neg_part": "negative-part traces stored as sums of negative eigenvalues (<= 0)",
    "weyl_coulomb": "closed form -(z^3/6) mu^(-1/2) via B(1/2,7/2) = 5 pi/16",
}


class ValidationError(ValueError):
    pass


def _fmt(x) -> str:
    if isinstance(x, float):
        return "%.12e" % x
    return str(x)


def write_csv(path: str, header, rows) -> None:
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(",".join(header) + "\n")
            for row in rows:
                fh.write(",".join(_fmt(v) for v in row) + "\n")
    except OSError as exc:
        raise IOError(f"cannot write {path}: {exc}") from exc


def write_sidecar(path: str, params: dict, extra: dict) -> None:
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(f"version: scottlab {__version__}\n")
            for k, v in sorted(params.items()):
                fh.write(f"param {k}: {v}\n")
            for k, v in PROVENANCE.items():
                fh.write(f"constant {k}: {v}\n")
            for k, v in extra.items():
                fh.write(f"{k}: {v}\n")
    except OSError as exc:
        raise IOError(f"cannot write {path}: {exc}") from exc


def load_config(path: str) -> dict:
    """Flat key=value file, UTF-8, # comments, keys use '-' like the flags."""
    out = {}
    try:
        with open(path, encoding="utf-8") as fh:
            for lineno, raw in enumerate(fh, 1):
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise ValidationError(f"{path}:{lineno}: expected key=value")
                key, val = line.split("=", 1)
                out[key.strip().replace("-", "_")] = val.strip()
    except OSError as exc:
        raise IOError(f"cannot read config {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ValidationError(f"config {path} is not valid UTF-8: {exc}") from None
    return out


def _floats(text: str):
    try:
        return [float(v) for v in str(text).replace(",", " ").split()]
    except ValueError:
        raise ValidationError(f"expected a list of numbers, got {text!r}") from None


def _positive(values, name: str):
    """Return values after checking that each is finite and positive."""
    if not all(math.isfinite(v) and v > 0 for v in values):
        raise ValidationError(f"{name} values must be positive and finite")
    return values


# ---------------------------------------------------------------------------
# TF solution cache
# ---------------------------------------------------------------------------


def get_tf_solution(cache_dir: str | None) -> tf.TFSolution:
    """The TF solution, solved or rebuilt from cache_dir/tf_profile.npz.

    The cache holds the slope and the Chebyshev coefficients of a solve and
    the package version.  A file that cannot be read, lacks a key or carries
    another version is a miss, and so are data tf._assemble rejects or whose
    residual exceeds tf.RESIDUAL_TOL (cached data go through the same
    constructor as a solve): the profile is solved again and the file
    rewritten.
    """
    if not cache_dir:
        return tf.solve_tf_atom()
    os.makedirs(cache_dir, exist_ok=True)
    cache_file = os.path.join(cache_dir, "tf_profile.npz")
    try:
        with np.load(cache_file) as data:
            cached = (str(data["version"]), float(data["slope0"]), data["w"], data["v"])
    except Exception:  # missing, truncated or not an npz archive: a miss
        cached = None
    if cached is not None and cached[0] == __version__:
        try:
            return tf._assemble(*cached[1:])
        except (ValueError, tf.TFConvergenceError):  # malformed data, or a failed residual check
            pass
    sol = tf.solve_tf_atom()
    np.savez(cache_file, version=__version__, slope0=sol.slope0, w=sol.w_coef, v=sol.v_coef)
    return sol


# ---------------------------------------------------------------------------
# subcommands: each validates its input, computes and returns (CSV header,
# CSV rows, sidecar extra lines, summary lines); main writes and prints them
# ---------------------------------------------------------------------------


def cmd_tf(args):
    sol = get_tf_solution(args.cache_dir)
    rep = tf.tf_energy_consistency(sol)
    return ["t", "phi", "dphi"], sol.profile_table().tolist(), {
        "slope0": _fmt(sol.slope0),
        "E_atom": _fmt(sol.E_atom),
        "D_rho": _fmt(sol.D_rho),
        "phase_space_coeff": _fmt(sol.phase_space_coeff),
        "residual_sup": _fmt(sol.residual_sup),
        "virial_ratio": _fmt(rep.virial_ratio),
        "energy_gap": _fmt(rep.rel_gap),
        "mass_error": _fmt(rep.mass_error),
    }, [f"TF atom: slope0 = {sol.slope0:.9f}, E_atom = {sol.E_atom:.9f}, "
        f"residual = {sol.residual_sup:.3e}"]


def cmd_weyl(args):
    _positive([args.h, args.z], "h and z")
    if not (math.isfinite(args.mu) and args.mu >= 0):
        raise ValidationError("mu must be nonnegative and finite")
    if args.potential == "coulomb":
        if args.mu <= 0:
            raise ValidationError("coulomb Weyl integral needs mu > 0")
        value = weyl_integral(WeylIntegrand(V=lambda r: args.z / r, mu=args.mu, h=args.h))
        closed = weyl_coulomb_mu(args.mu, args.z)
    else:
        sol = get_tf_solution(args.cache_dir)
        value = weyl_integral(WeylIntegrand(V=sol.potential(args.z), mu=args.mu, h=args.h))
        closed = float("nan")
    return (["potential", "mu", "h", "value", "closed_form"],
            [[args.potential, args.mu, args.h, value, closed]], {},
            [f"weyl integral = {value:.9e}"])


def _resolve_potential(args):
    if args.potential == "coulomb":
        return lambda r: 1.0 / r
    if args.potential == "tf":
        sol = get_tf_solution(args.cache_dir)
        return sol.potential()
    if not args.file:
        raise ValidationError("potential=file needs --file")
    try:
        data = np.loadtxt(args.file, delimiter=",", skiprows=1, ndmin=2)
    except OSError as exc:
        raise IOError(f"cannot read {args.file}: {exc}") from exc
    except ValueError as exc:
        raise ValidationError(f"cannot parse {args.file}: {exc}") from exc
    if data.shape[0] < 2 or data.shape[1] != 2:
        raise ValidationError(f"{args.file} needs at least two (r, V) rows "
                              f"of two columns, got shape {data.shape}")
    if not np.all(np.isfinite(data)):
        raise ValidationError(f"{args.file}: r and V must be finite")
    r, v = data[:, 0], data[:, 1]
    if not np.all(np.diff(r) > 0):
        raise ValidationError(f"{args.file}: the r column must be strictly increasing")
    return lambda q: np.interp(q, r, v, left=v[0], right=0.0)


def cmd_trace(args):
    _positive([args.h, args.resolution], "h and resolution")
    if not (math.isfinite(args.mu) and args.mu >= 0):
        raise ValidationError("mu must be nonnegative and finite")
    if args.r_max is not None:
        _positive([args.r_max], "r-max")
    if args.n is not None and not 8 <= args.n <= radial_eig.N_CAP:
        raise ValidationError(f"n must lie in [8, {radial_eig.N_CAP}]")
    if args.potential == "coulomb" and args.mu == 0.0:
        raise ValidationError("the mu = 0 Coulomb trace has infinitely many channels")
    V = _resolve_potential(args)
    if args.n is None:
        grid = radial_eig.auto_grid(V, args.h, args.mu, r_max=args.r_max,
                                    resolution=args.resolution)
    else:
        r_max = 4.0 / max(args.mu, 1e-2) if args.r_max is None else args.r_max
        grid = radial_eig.make_grid(radial_eig.core_radius(args.h), r_max, args.n)
    s = radial_eig.trace_neg(V, args.h, mu=args.mu, grid=grid, refine=args.refine)
    ell_max = max(s.eigenvalues, default=-1)
    rows = []
    for ell in sorted(s.eigenvalues):
        for k, e in enumerate(s.eigenvalues[ell]):
            rows.append([ell, k, float(e)])
    rows.append([-1, -1, s.trace])
    return ["l", "k", "value"], rows, {
        "trace": _fmt(s.trace),
        "n_states": str(s.n_states),
        "ell_max": str(ell_max),
        "summary_row": "final row l=-1,k=-1 holds the spin-weighted shifted trace",
        "workers": str(s.workers),
    }, [f"trace = {s.trace:.9e} over {s.n_states} states, l <= {ell_max}"]


def cmd_scott(args):
    if args.route == "mu-limit":
        Ns = _positive(_floats(args.N_list), "N")
        if not all(v.is_integer() for v in Ns):
            raise ValidationError(f"--N-list needs integers, got {args.N_list!r}")
        Ns = sorted({int(v) for v in Ns})
        if len(Ns) < 3 or Ns[0] < 1:
            raise ValidationError("mu-limit needs at least three distinct N values >= 1")
        mus = [1.0 / (4.0 * n * n) for n in Ns]
        est = hydrogen.scott_mu_limit(mus)
        rows = [[mu, t, w, t - w] for mu, t, w in zip(mus, est.meta["traces"], est.meta["weyl"])]
        return (["mu", "trace", "weyl", "difference"], rows,
                {"estimate_2S": _fmt(est.value), "route": est.route},
                [f"2S(0) ≈ {est.value:.4f}"])

    if args.route == "cutoff-R":
        Rs = _positive(_floats(args.R_list) if args.R_list else [args.R], "R")
        if len(set(Rs)) < len(Rs):
            raise ValidationError("cutoff-R needs distinct R values")
        est = radial_eig.scott_cutoff_schedule(Rs, refine=args.refine)
        rows = [[R, d + w, w, d] for R, d, w in
                zip(est.meta["R_values"], est.meta["d_values"], est.meta["weyl_values"])]
        extra = {"estimate_2S_at_largest_R": _fmt(est.value), "route": est.route}
        if "extrapolated" in est.meta:
            extra["extrapolated_2S"] = _fmt(est.meta["extrapolated"])
        return (["R", "trace", "weyl", "difference"], rows, extra,
                [f"2S(0) finite-R estimate at R={est.R:g}: {est.value:.4f}"])

    if args.route == "spectral-fit":
        hs = _positive(_floats(args.h_list), "h")
        if len(set(hs)) < 3:
            raise ValidationError("spectral-fit needs at least three distinct h values")
        _positive([args.resolution], "resolution")
        sol = get_tf_solution(args.cache_dir)
        est = radial_eig.scott_spectral_fit(sol, h_list=hs, refine=args.refine,
                                            resolution=args.resolution)
        return ["h", "trace"], est.meta["samples"], {
            "c3_pinned": _fmt(est.meta["c3"]),
            "c2_estimate_2S": _fmt(est.value),
            "max_rel_residual": _fmt(est.meta["max_rel_residual"]),
        }, [f"spectral fit: c2 ≈ {est.value:.4f} (2S(0) target 0.25)"]

    from . import pauli  # ansatz-min, scipy.sparse throughout: loaded only by this route

    _positive([args.kappa, args.R], "kappa and R")
    if min(args.modes, args.budget) < 1:
        raise ValidationError("modes and budget must be at least 1")
    mesh = _floats(args.mesh)
    # the mesh holds the n_z / 2 cells above z = 0, so n_z must be even and at least 2
    if not (len(mesh) == 2 and all(v.is_integer() for v in mesh)
            and mesh[0] >= 1 and mesh[1] >= 2 and mesh[1] % 2 == 0):
        raise ValidationError(f"--mesh needs two integers n_rho >= 1 and an even n_z >= 2, "
                              f"got {args.mesh!r}")
    grid = pauli.PauliGrid.for_ball(args.R, n_rho=int(mesh[0]), n_z=int(mesh[1]))
    # beta = 1/(2 kappa), its largest admissible value, weighs no field inside B(R/4)
    res = pauli.minimize_scott(args.kappa, 0.5 / args.kappa, args.R, grid,
                               n_modes=args.modes, budget=args.budget)
    return ["iteration", "theta_norm", "functional"], res.history, {
        "estimate_2S_upper_bound": _fmt(res.estimate.value),
        "zero_field_value": _fmt(res.zero_field_value),
        "theta_best": " ".join(_fmt(t) for t in res.theta),
        "budget_exhausted": str(res.budget_exhausted),
        "beats_zero_field": str(res.estimate.value < res.zero_field_value - 1e-6),
        "kappa_c": _fmt(res.estimate.meta["kappa_c"]),
        "certified": str(res.estimate.meta["certified"]),
        "response_lu": str(res.estimate.meta["response_lu"]),
        "response_residual": _fmt(res.estimate.meta["response_residual"]),
        # the traces ran under core.one_blas_thread, a no-op without the library
        "pauli_blas_threads": ("1 (scipy OpenBLAS)" if core.scipy_openblas() is not None
                               else "default (scipy OpenBLAS not found)"),
    }, [f"ansatz-min upper bound on 2S({args.kappa:g}) at R={args.R:g}: "
        f"{res.estimate.value:.4f} (A=0 value {res.zero_field_value:.4f})"]


def cmd_partition_check(args):
    if args.n_points < 1:
        raise ValidationError("n-points must be at least 1")
    if args.seed < 0:
        raise ValidationError("seed must be nonnegative")
    _positive([args.r0, args.d_min, args.d_max], "r0, d-min and d-max")
    if args.d_min > args.d_max:
        raise ValidationError("d-min must not exceed d-max")
    sf = multiscale.ScaleFunctions(r0=args.r0)
    rng = np.random.default_rng(args.seed)
    rows = []
    worst = 0.0
    for _ in range(args.n_points):
        d = math.exp(rng.uniform(math.log(args.d_min), math.log(args.d_max)))
        direction = rng.normal(size=3)
        direction /= np.linalg.norm(direction)
        x = d * direction
        val = multiscale.partition_check(x, sf)
        worst = max(worst, abs(val - 1.0))
        rows.append([x[0], x[1], x[2], d, val])
    return (["x1", "x2", "x3", "d", "integral"], rows, {"max_abs_deviation": _fmt(worst)},
            [f"partition identity: max |value - 1| = {worst:.3e} over {args.n_points} points"])


def cmd_expansion(args):
    Zs = _positive(_floats(args.Z_list), "Z")
    _positive([args.resolution], "resolution")
    sol = get_tf_solution(args.cache_dir)
    reports = expansion.expansion_sweep(Zs, 0.0, sol, refine=args.refine,
                                        resolution=args.resolution)
    rows = [[r.Z, r.leading, r.scott, r.mean_field, r.residual, r.residual_over_Z2]
            for r in reports]
    return (["Z", "leading", "scott", "mean_field", "residual", "residual_over_Z2"], rows, {},
            [f"Z={r.Z:g}: residual/Z^2 = {r.residual_over_Z2:.6f}" for r in reports])


# ---------------------------------------------------------------------------
# parser and dispatch
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="scottlab",
                                description="Semiclassical Scott-correction toolkit")
    p.add_argument("--config", help="flat key=value config file; flags override it")
    sub = p.add_subparsers(dest="command")

    def common(sp):
        sp.add_argument("--out", default="scottlab_out.csv", help="output CSV path")
        sp.add_argument("--cache-dir", default=None)

    sp = sub.add_parser("tf", help="solve the universal TF atom, export the profile")
    common(sp)
    sp.set_defaults(func=cmd_tf)

    sp = sub.add_parser("weyl", help="phase-space integral for a named potential")
    common(sp)
    sp.add_argument("--potential", choices=["coulomb", "tf"], default="coulomb")
    sp.add_argument("--mu", type=float, default=1e-2)
    sp.add_argument("--h", type=float, default=1.0)
    sp.add_argument("--z", type=float, default=1.0)
    sp.set_defaults(func=cmd_weyl)

    sp = sub.add_parser("trace", help="negative-eigenvalue trace of -h^2 Delta - V")
    common(sp)
    sp.add_argument("--potential", choices=["coulomb", "tf", "file"], default="coulomb")
    sp.add_argument("--file", default=None, help="CSV (r, V) when potential=file")
    sp.add_argument("--h", type=float, default=1.0)
    sp.add_argument("--mu", type=float, default=2.5e-3)
    sp.add_argument("--resolution", type=float, default=20.0,
                    help="nodes per local de Broglie length of the automatic grid; "
                         "an explicit --n fixes the node count, so it does not apply")
    sp.add_argument("--refine", action="store_true")
    sp.add_argument("--r-max", type=float, default=None)
    sp.add_argument("--n", type=int, default=None,
                    help=f"node count of the radial grid (8 to {radial_eig.N_CAP}); an "
                         "explicit --n fixes the node count, so --resolution does not apply")
    sp.set_defaults(func=cmd_trace)

    sp = sub.add_parser("scott", help="Scott-function estimates by route")
    common(sp)
    sp.add_argument("--route", choices=["mu-limit", "cutoff-R", "spectral-fit",
                                        "ansatz-min"], default="mu-limit")
    sp.add_argument("--N-list", default="50 100 200 400",
                    help="mu-limit: thresholds mu = 1/(4 N^2)")
    sp.add_argument("--R", type=float, default=20.0)
    sp.add_argument("--R-list", default=None)
    sp.add_argument("--h-list", default="0.125 0.1 0.0833333333333333 0.0625 0.05")
    sp.add_argument("--kappa", type=float, default=0.05)
    sp.add_argument("--budget", type=int, default=60)
    sp.add_argument("--modes", type=int, default=2)
    sp.add_argument("--mesh", default="80 160")
    sp.add_argument("--resolution", type=float, default=20.0)
    sp.add_argument("--refine", action=argparse.BooleanOptionalAction, default=True)
    sp.set_defaults(func=cmd_scott)

    sp = sub.add_parser("partition-check", help="partition-of-unity identity sweep")
    common(sp)
    sp.add_argument("--n-points", type=int, default=20)
    sp.add_argument("--r0", type=float, default=1.0)
    sp.add_argument("--d-min", type=float, default=1e-3)
    sp.add_argument("--d-max", type=float, default=1e3)
    sp.add_argument("--seed", type=int, default=0)
    sp.set_defaults(func=cmd_partition_check)

    sp = sub.add_parser("expansion", help="two-term vs mean-field energy sweep")
    common(sp)
    sp.add_argument("--Z-list", default="8 27 64 125")
    sp.add_argument("--resolution", type=float, default=20.0)
    sp.add_argument("--refine", action=argparse.BooleanOptionalAction, default=True)
    sp.set_defaults(func=cmd_expansion)

    return p


def main(argv=None) -> int:
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)

    try:
        # first pass just to find --config; then reparse with file values as defaults
        probe, _ = parser.parse_known_args(argv)
        if probe.config:
            cfg = load_config(probe.config)
            sub_parsers = parser._subparsers._group_actions[0].choices
            known = {a.dest for sp in sub_parsers.values() for a in sp._actions} - {"help"}
            unknown = sorted(k.replace("_", "-") for k in cfg if k not in known)
            if unknown:  # a key of another subcommand is fine: one file may feed several
                raise ValidationError(f"{probe.config}: unknown config keys: {', '.join(unknown)}")
            if probe.command:  # only the subcommand that runs takes the file's values
                sub_parser = sub_parsers[probe.command]
                sub_parser.set_defaults(**{a.dest: _coerce(a, cfg[a.dest])
                                           for a in sub_parser._actions if a.dest in cfg})
        args = parser.parse_args(argv)
        if not getattr(args, "command", None):
            parser.print_usage(sys.stderr)
            return 2
        header, rows, extra, summary = args.func(args)
        write_csv(args.out, header, rows)
        write_sidecar(args.out + ".meta.txt",
                      {k: v for k, v in vars(args).items() if k != "func"}, extra)
        for line in summary:
            print(line)
        return EXIT_OK
    except ValidationError as exc:
        print(f"error:validation: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except (ValueError, RuntimeError, ArithmeticError, MemoryError) as exc:
        print(f"error:compute: {exc}", file=sys.stderr)
        return EXIT_COMPUTE
    except IOError as exc:
        print(f"error:io: {exc}", file=sys.stderr)
        return EXIT_IO


def _coerce(action, value):
    """Config value as the default of action: a boolean word for a switch, else the raw
    string, which argparse converts through the action's type.  argparse checks no
    default against the action's choices, so a value outside them is rejected here."""
    if isinstance(action.default, bool) or isinstance(getattr(action, "const", None), bool):
        word = str(value).strip().lower()
        if word in ("1", "true", "yes", "on"):
            return True
        if word in ("0", "false", "no", "off"):
            return False
        raise ValidationError(f"{action.dest} must be a boolean word, got {value!r}")
    if action.choices is not None and value not in action.choices:
        raise ValidationError(f"{action.dest} must be one of {', '.join(action.choices)}, "
                              f"got {value!r}")
    return value


if __name__ == "__main__":
    sys.exit(main())
