import argparse
import io
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scottlab import __version__, tf
from scottlab.cli import build_parser, main


def run(tmp_path, *args):
    return main([a.format(d=tmp_path) for a in args])


def test_empty_invocation_prints_usage(capsys):
    assert main([]) == 2
    assert "usage" in capsys.readouterr().err.lower()


def test_unknown_subcommand_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_scott_mu_limit_csv_and_summary(tmp_path, capsys):
    out = tmp_path / "mu.csv"
    assert main(["scott", "--route", "mu-limit", "--out", str(out)]) == 0
    text = out.read_text().splitlines()
    assert text[0] == "mu,trace,weyl,difference"
    assert len(text) == 5
    assert "0.2500" in capsys.readouterr().out
    meta = (tmp_path / "mu.csv.meta.txt").read_text()
    assert "version: scottlab" in meta
    assert "estimate_2S" in meta


def test_determinism_byte_identical(tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    for out in (a, b):
        assert main(["scott", "--route", "mu-limit", "--out", str(out)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_trace_csv_summary_row(tmp_path):
    out = tmp_path / "tr.csv"
    assert main(["trace", "--potential", "coulomb", "--mu", "0.01",
                 "--out", str(out)]) == 0
    rows = out.read_text().splitlines()
    assert rows[0] == "l,k,value"
    last = rows[-1].split(",")
    assert last[0] == "-1" and last[1] == "-1"
    # the summary row equals the sum over spin-weighted shifted eigenvalues
    table = [r.split(",") for r in rows[1:-1]]
    total = sum(2 * (2 * int(l) + 1) * (float(v) + 0.01) for l, _, v in table)
    assert float(last[2]) == pytest.approx(total, rel=1e-12)


def test_pooled_trace_exits_cleanly(tmp_path):
    # the run ends without a word on stderr, and the sidecar says how many
    # threads solved the channels
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(src)] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    done = subprocess.run([sys.executable, "-m", "scottlab.cli", "trace", "--potential",
                           "coulomb", "--mu", "0.0025", "--refine", "--out", "t.csv"],
                          cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0
    assert done.stderr == ""
    cores = len(os.sched_getaffinity(0))
    sidecar = (tmp_path / "t.csv.meta.txt").read_text().splitlines()
    assert sidecar[-1] == f"workers: {cores if cores > 1 else 0}"


def test_mu_limit_beyond_float_resolution_ends(tmp_path):
    # from n ~ 1e23 on a step of one no longer moves -1/(4 n^2) + mu, so the
    # threshold search must refuse such N instead of looping
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(src)] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    done = subprocess.run([sys.executable, "-m", "scottlab.cli", "scott", "--route", "mu-limit",
                           "--N-list", "1e30 2e30 3e30", "--out", "m.csv"],
                          cwd=tmp_path, env=env, capture_output=True, text=True, timeout=10)
    assert done.returncode in (3, 5)


def test_trace_validation_exit(tmp_path):
    assert main(["trace", "--mu", "-0.5", "--out", str(tmp_path / "x.csv")]) == 3
    assert main(["trace", "--potential", "coulomb", "--mu", "0",
                 "--out", str(tmp_path / "x.csv")]) == 3


def test_trace_from_potential_file(tmp_path):
    # tabulated Coulomb-with-range potential, interpolated back by the CLI
    r = np.geomspace(1e-4, 80.0, 4000)
    v = 1.0 / r
    src = tmp_path / "pot.csv"
    src.write_text("r,V\n" + "\n".join(f"{a:.16e},{b:.16e}" for a, b in zip(r, v)))
    out = tmp_path / "tr.csv"
    assert main(["trace", "--potential", "file", "--file", str(src),
                 "--mu", "0.05", "--out", str(out)]) == 0
    last = out.read_text().splitlines()[-1].split(",")
    # levels below -0.05: n = 1 and n = 2, trace = 2(-0.2) + 8(-0.0125) = -0.5
    assert float(last[2]) == pytest.approx(-0.5, abs=5e-3)
    assert main(["trace", "--potential", "file", "--mu", "0.05",
                 "--out", str(out)]) == 3  # missing --file
    # a config value meets the flag's choices, and file is one of trace's
    cfg = tmp_path / "file.cfg"
    cfg.write_text("potential = file\n")
    assert main(["--config", str(cfg), "trace", "--file", str(src), "--mu", "0.05",
                 "--out", str(tmp_path / "tr2.csv")]) == 0
    assert (tmp_path / "tr2.csv").read_bytes() == out.read_bytes()


@pytest.mark.parametrize("text", ["r,V\n", "r,V\n1.0,1.0\n", "r,V\n1,2,3\n2,3,4\n",
                                  "r,V\n2.0,0.5\n1.0,1.0\n", "r,V\n1.0,nan\n2.0,0.5\n",
                                  "r,V\n1.0,inf\n2.0,0.5\n"],
                         ids=["header-only", "one-row", "three-columns", "reversed", "V-nan",
                              "V-inf"])
def test_trace_short_potential_file_is_a_validation_error(tmp_path, text):
    src = tmp_path / "pot.csv"
    src.write_text(text)
    assert main(["trace", "--potential", "file", "--file", str(src),
                 "--out", str(tmp_path / "tr.csv")]) == 3


@pytest.mark.parametrize("argv", [
    ["scott", "--route", "ansatz-min", "--mesh", "80"],
    ["scott", "--route", "ansatz-min", "--mesh", "0 32"],
    ["scott", "--route", "ansatz-min", "--mesh", "16 33"],
    ["scott", "--route", "mu-limit", "--N-list", ""],
    ["scott", "--route", "mu-limit", "--N-list", "50 100"],
    ["scott", "--route", "mu-limit", "--N-list", "50 50.4 100 200"],
    ["partition-check", "--d-min", "0"],
    ["partition-check", "--d-min", "1", "--d-max", "0.5"],
    ["partition-check", "--n-points", "-3"],
    ["scott", "--route", "ansatz-min", "--R", "0"],
    ["weyl", "--h", "0"],
    ["weyl", "--potential", "tf", "--z", "-1"],
    ["weyl", "--z", "-1"],
    ["trace", "--n", "7"],
    ["trace", "--potential", "coulomb", "--n", "1000000000000"],
    ["trace", "--r-max", "-5", "--n", "100"],
    ["trace", "--r-max", "0"],
    ["--config", "{d}/maybe.cfg", "trace"],
    ["--config", "{d}/latin1.cfg", "weyl"],
    ["--config", "{d}/file.cfg", "weyl"],
    ["--config", "{d}/route.cfg", "scott"],
    ["scott", "--route", "ansatz-min", "--modes", "0"],
    ["scott", "--route", "ansatz-min", "--modes", "-1"],
    ["partition-check", "--seed", "-1"],
    ["scott", "--route", "ansatz-min", "--budget", "0"],
], ids=["mesh-one-number", "mesh-zero", "mesh-odd-n-z", "N-list-empty", "N-list-two",
        "N-list-fraction",
        "d-min-zero", "d-min-above-d-max", "n-points-negative", "R-zero", "h-zero",
        "tf-z-negative", "z-negative", "n-below-8", "n-above-cap", "r-max-negative",
        "r-max-zero", "refine-maybe", "config-not-utf8", "config-potential-file",
        "config-route-other", "modes-zero",
        "modes-negative", "partition-seed-negative", "budget-zero"])
def test_bad_input_is_a_validation_error(tmp_path, argv):
    (tmp_path / "maybe.cfg").write_text("refine = maybe\n")
    (tmp_path / "latin1.cfg").write_bytes(b"mu = \xff\n")
    (tmp_path / "file.cfg").write_text("potential = file\n")  # weyl offers coulomb and tf
    (tmp_path / "route.cfg").write_text("route = other\n")
    assert run(tmp_path, *argv, "--out", str(tmp_path / "x.csv")) == 3
    assert not (tmp_path / "x.csv").exists()


@pytest.mark.parametrize("argv, code", [
    (["weyl", "--h", "1e-300"], 5),
    (["expansion", "--Z-list", "1e300"], 5),
    (["trace", "--h", "1e300", "--mu", "0.1"], 5),
    (["scott", "--route", "cutoff-R", "--R-list", "1e-300,1e-200"], 5),
    (["scott", "--route", "cutoff-R", "--R-list", "6 6"], 3),
    (["scott", "--route", "ansatz-min", "--R", "1e300", "--mesh", "8 16", "--budget", "1"], 5),
    # a mesh whose first array (PiB) fails to allocate at once
    (["scott", "--route", "ansatz-min", "--R", "6", "--mesh", "1e15 2"], 5),
    (["partition-check", "--d-max", "1e300", "--n-points", "3", "--seed", "1"], 5),
], ids=["weyl-h-tiny", "expansion-Z-huge", "trace-h-huge", "cutoff-R-tiny", "cutoff-R-repeated",
        "ansatz-min-R-huge", "ansatz-min-mesh-huge", "partition-d-max-huge"])
def test_arithmetic_failures_exit_with_a_documented_code(tmp_path, argv, code):
    assert run(tmp_path, *argv, "--cache-dir", "{d}/cache", "--out", "{d}/x.csv") == code
    # outputs are written only after the computation has succeeded
    assert not (tmp_path / "x.csv").exists()
    assert not (tmp_path / "x.csv.meta.txt").exists()


@pytest.mark.parametrize("mesh", ["1 2", "2 2", "1 4"])
def test_ansatz_min_certifies_meshes_too_small_for_arpack(tmp_path, mesh):
    # each channel sector has one or two unknowns, fewer than ARPACK needs; these
    # exited 5 because a bisected state has no vector for the response
    out = tmp_path / "am.csv"
    assert main(["scott", "--route", "ansatz-min", "--R", "8", "--mesh", mesh,
                 "--out", str(out)]) == 0
    assert "certified: True\n" in (tmp_path / "am.csv.meta.txt").read_text()


def test_trace_r_max_without_n_bounds_the_grid(tmp_path):
    # a radius-20 box cuts the n >= 4 shells that lie below -mu = -0.01
    def trace(*argv):
        out = tmp_path / "tr.csv"
        assert main(["trace", "--mu", "0.01", *argv, "--out", str(out)]) == 0
        return float(out.read_text().splitlines()[-1].split(",")[2])

    assert trace("--r-max", "20") > trace() + 0.01


def test_io_failure_exit(tmp_path):
    missing = tmp_path / "nope" / "x.csv"
    assert main(["weyl", "--mu", "0.01", "--out", str(missing)]) == 4


def test_weyl_closed_form_column(tmp_path):
    out = tmp_path / "w.csv"
    assert main(["weyl", "--mu", "0.0025", "--out", str(out)]) == 0
    header, row = out.read_text().splitlines()
    vals = row.split(",")
    assert float(vals[3]) == pytest.approx(float(vals[4]), rel=1e-8)


def test_partition_check_command(tmp_path):
    out = tmp_path / "pc.csv"
    assert main(["partition-check", "--n-points", "3", "--out", str(out)]) == 0
    rows = out.read_text().splitlines()
    assert rows[0] == "x1,x2,x3,d,integral"
    for r in rows[1:]:
        assert float(r.split(",")[4]) == pytest.approx(1.0, abs=1e-6)


def test_config_file_defaults_and_flag_override(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# comment\nmu = 0.0025\nout = {}\n".format(tmp_path / "c1.csv"))
    assert main(["--config", str(cfg), "weyl"]) == 0
    row = (tmp_path / "c1.csv").read_text().splitlines()[1]
    assert float(row.split(",")[1]) == pytest.approx(0.0025)
    # explicit flag wins over the file value
    assert main(["--config", str(cfg), "weyl", "--mu", "0.01",
                 "--out", str(tmp_path / "c2.csv")]) == 0
    row = (tmp_path / "c2.csv").read_text().splitlines()[1]
    assert float(row.split(",")[1]) == pytest.approx(0.01)


def test_refine_flag_can_be_turned_off(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("refine = false\n")
    out = tmp_path / "mu.csv"

    def refine(*argv):
        assert main([*argv, "--route", "mu-limit", "--out", str(out)]) == 0
        meta = (tmp_path / "mu.csv.meta.txt").read_text().splitlines()
        return next(line for line in meta if line.startswith("param refine: "))[14:]

    assert refine("scott") == "True"
    assert refine("scott", "--no-refine") == "False"
    assert refine("--config", str(cfg), "scott") == "False"
    assert refine("--config", str(cfg), "scott", "--refine") == "True"


def test_config_file_validation(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("this is not a key value pair\n")
    assert main(["--config", str(bad), "weyl"]) == 3
    assert main(["--config", str(tmp_path / "missing.cfg"), "weyl"]) == 4


def test_config_file_rejects_unknown_keys(tmp_path, capsys):
    cfg = tmp_path / "typo.cfg"
    for key in ("muu", "help"):
        cfg.write_text(f"{key} = 0.5\n")
        assert main(["--config", str(cfg), "weyl", "--out", str(tmp_path / "w.csv")]) == 3
        assert key in capsys.readouterr().err
        assert not (tmp_path / "w.csv").exists()
    # a key of another subcommand is accepted: one file may feed several
    cfg.write_text("h-list = 0.5 0.4 0.35\n")
    assert main(["--config", str(cfg), "trace", "--mu", "0.05", "--n", "60",
                 "--out", str(tmp_path / "t.csv")]) == 0


def test_tf_cache_roundtrip(tmp_path):
    cache = tmp_path / "cache"
    out1 = tmp_path / "p1.csv"
    out2 = tmp_path / "p2.csv"
    assert main(["tf", "--out", str(out1), "--cache-dir", str(cache)]) == 0
    assert main(["tf", "--out", str(out2), "--cache-dir", str(cache)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    m1 = dict(line.split(": ", 1) for line in
              (tmp_path / "p1.csv.meta.txt").read_text().splitlines())
    m2 = dict(line.split(": ", 1) for line in
              (tmp_path / "p2.csv.meta.txt").read_text().splitlines())
    for key in ("E_atom", "D_rho", "phase_space_coeff"):
        assert abs(float(m1[key]) - float(m2[key])) < 1e-12


def test_tf_cache_hit_rechecks_tolerance(tmp_path, capsys, monkeypatch):
    cache = str(tmp_path / "cache")
    out = str(tmp_path / "p.csv")
    assert main(["tf", "--out", out, "--cache-dir", cache]) == 0
    capsys.readouterr()
    monkeypatch.setattr(tf, "RESIDUAL_TOL", 1e-14)
    assert main(["tf", "--out", out, "--cache-dir", cache]) == 5
    cached_err = capsys.readouterr().err
    assert "above tolerance" in cached_err
    assert main(["tf", "--out", out]) == 5
    assert capsys.readouterr().err == cached_err


def _npz_bytes(**arrays):
    buf = io.BytesIO()
    np.savez(buf, **arrays)
    return buf.getvalue()


# coefficients that would fail the residual check if they were used
_BAD_SPLINE = dict(slope0=-1.5, w=np.zeros(tf.CHEB_ORDER + 1), v=np.zeros(tf.CHEB_ORDER + 1))


@pytest.mark.parametrize("content", [
    b"", b"not an npz archive", _npz_bytes(**_BAD_SPLINE)[:200],
    _npz_bytes(**_BAD_SPLINE),                         # no version key
    _npz_bytes(version="0.0.0", **_BAD_SPLINE),        # another version
], ids=["empty", "garbage", "truncated", "unversioned", "other-version"])
def test_tf_cache_unreadable_file_is_a_miss(tmp_path, content):
    cache = tmp_path / "cache"
    cache.mkdir()
    (cache / "tf_profile.npz").write_bytes(content)
    assert main(["tf", "--out", str(tmp_path / "p.csv"), "--cache-dir", str(cache)]) == 0
    with np.load(cache / "tf_profile.npz") as data:
        assert set(data.files) == {"version", "slope0", "w", "v"}
        assert str(data["version"]) == __version__


def _damage(kind, data):
    """Copy of the cached arrays with one defect: data tf._assemble rejects, or
    (scaled-w) coefficients whose residual fails tf.RESIDUAL_TOL."""
    data = dict(data)
    if kind == "nan-in-w":
        data["w"] = data["w"].copy()
        data["w"][len(data["w"]) // 2] = np.nan
    elif kind == "two-dim-v":
        data["v"] = data["v"][None, :]
    elif kind == "two-dim-w":
        data["w"] = data["w"][None, :]
    elif kind == "short-w":
        data["w"] = data["w"][:-1]
    elif kind == "inf-slope0":
        data["slope0"] = np.inf
    elif kind == "scaled-w":
        data["w"] = data["w"] * (1.0 + 1e-6)
    return data


@pytest.fixture(scope="module")
def clean_tf(tmp_path_factory):
    """One `tf` run from an empty cache: its output folder and its cache folder."""
    root = tmp_path_factory.mktemp("clean_tf")
    assert main(["tf", "--out", str(root / "clean.csv"), "--cache-dir", str(root / "clean")]) == 0
    return root, root / "clean"


@pytest.mark.parametrize("kind", ["nan-in-w", "two-dim-v", "two-dim-w",
                                  "short-w", "inf-slope0", "scaled-w"])
def test_tf_cache_damaged_data_is_a_miss(tmp_path, clean_tf, kind):
    root, clean = clean_tf
    with np.load(clean / "tf_profile.npz") as data:
        arrays = {k: data[k] for k in data.files}
    cache = tmp_path / "cache"
    cache.mkdir()
    (cache / "tf_profile.npz").write_bytes(_npz_bytes(**_damage(kind, arrays)))
    assert main(["tf", "--out", str(tmp_path / "p.csv"), "--cache-dir", str(cache)]) == 0
    assert (tmp_path / "p.csv").read_bytes() == (root / "clean.csv").read_bytes()
    # the miss rewrote the file, so the next run is a hit on clean data
    assert (cache / "tf_profile.npz").read_bytes() == (clean / "tf_profile.npz").read_bytes()


def test_tf_cache_of_version_0_2_0_is_solved_again(tmp_path, clean_tf, monkeypatch):
    # the profile's low bits moved in 0.3.0, so a cache that 0.2.0 wrote is a
    # miss even where its data would pass every check
    root, clean = clean_tf
    with np.load(clean / "tf_profile.npz") as data:
        arrays = {k: data[k] for k in data.files}
    cache = tmp_path / "cache"
    cache.mkdir()
    (cache / "tf_profile.npz").write_bytes(_npz_bytes(**dict(arrays, version="0.2.0")))
    solves, solve = [], tf.solve_tf_atom
    monkeypatch.setattr(tf, "solve_tf_atom", lambda: solves.append(1) or solve())
    assert main(["tf", "--out", str(tmp_path / "p.csv"), "--cache-dir", str(cache)]) == 0
    assert solves == [1]
    assert (cache / "tf_profile.npz").read_bytes() == (clean / "tf_profile.npz").read_bytes()


def test_tf_cache_of_6001_samples_is_solved_again(tmp_path, clean_tf, monkeypatch):
    # the cache of 0.3.0 before the profile became a Chebyshev series: the same version,
    # with x, w and v sampled at 6,001 points in log t; its arrays have the wrong length
    root, clean = clean_tf
    s = np.linspace(math.log(tf.T_SERIES), math.log(tf.T_GRID_MAX), 6001)
    sol = tf.solve_tf_atom()
    phi, dphi = sol.phi(np.exp(s)), sol.dphi(np.exp(s))
    cache = tmp_path / "cache"
    cache.mkdir()
    (cache / "tf_profile.npz").write_bytes(_npz_bytes(
        version=__version__, slope0=sol.slope0, x=s, w=np.log(phi), v=np.exp(s) * dphi / phi))
    solves, solve = [], tf.solve_tf_atom
    monkeypatch.setattr(tf, "solve_tf_atom", lambda: solves.append(1) or solve())
    assert main(["tf", "--out", str(tmp_path / "p.csv"), "--cache-dir", str(cache)]) == 0
    assert solves == [1]
    assert (tmp_path / "p.csv").read_bytes() == (root / "clean.csv").read_bytes()
    assert (cache / "tf_profile.npz").read_bytes() == (clean / "tf_profile.npz").read_bytes()


def test_scott_spectral_fit_fast_config(tmp_path, capsys):
    out = tmp_path / "fit.csv"
    code = main(["scott", "--route", "spectral-fit",
                 "--h-list", "0.5 0.3333333333333333 0.25",
                 "--resolution", "10", "--out", str(out),
                 "--cache-dir", str(tmp_path / "cache")])
    assert code == 0
    rows = out.read_text().splitlines()
    assert rows[0] == "h,trace"
    assert len(rows) == 4
    assert "c2" in capsys.readouterr().out


def test_scott_cutoff_route(tmp_path):
    out = tmp_path / "cut.csv"
    code = main(["scott", "--route", "cutoff-R", "--R-list", "10 20",
                 "--out", str(out)])
    assert code == 0
    rows = out.read_text().splitlines()
    assert rows[0] == "R,trace,weyl,difference"
    meta = (tmp_path / "cut.csv.meta.txt").read_text()
    assert "extrapolated_2S" in meta


def test_scott_ansatz_min_route(tmp_path, capsys, monkeypatch):
    from scottlab import core

    out = tmp_path / "am.csv"
    args = ["scott", "--route", "ansatz-min", "--kappa", "0.05", "--R", "6",
            "--budget", "6", "--mesh", "24 48", "--out", str(out)]
    assert main(args) == 0
    rows = out.read_text().splitlines()
    assert rows[0] == "iteration,theta_norm,functional"
    assert len(rows) >= 2
    meta = (tmp_path / "am.csv.meta.txt").read_text()
    assert "estimate_2S_upper_bound" in meta
    assert "beats_zero_field" in meta
    found = core.scipy_openblas() is not None
    assert meta.endswith("pauli_blas_threads: 1 (scipy OpenBLAS)\n" if found
                         else "pauli_blas_threads: default (scipy OpenBLAS not found)\n")
    # deterministic: a rerun is byte-identical
    out2 = tmp_path / "am2.csv"
    assert main(args[:-1] + [str(out2)]) == 0
    assert out.read_bytes() == out2.read_bytes()
    monkeypatch.setattr(core, "scipy_openblas", lambda: None)
    assert main(args[:-1] + [str(tmp_path / "am3.csv")]) == 0
    meta = (tmp_path / "am3.csv.meta.txt").read_text()
    assert meta.endswith("pauli_blas_threads: default (scipy OpenBLAS not found)\n")


@pytest.mark.skipif(len(os.sched_getaffinity(0)) < 2,
                    reason="forking needs two usable cores")
def test_killed_side_walk_is_a_compute_error(monkeypatch, tmp_path):
    import signal

    from scottlab import pauli
    from scottlab.cli import EXIT_COMPUTE

    here, solve = os.getpid(), pauli.eigs_below

    def eigs(H, threshold, sigma, **kwargs):
        if os.getpid() != here:
            os.kill(os.getpid(), signal.SIGKILL)
        return solve(H, threshold, sigma, **kwargs)

    monkeypatch.setattr(pauli, "eigs_below", eigs)
    # kappa_c is about 200 at R = 8: above it the route walks the ray, whose A != 0
    # traces fork their -j side walks
    assert main(["scott", "--route", "ansatz-min", "--R", "8", "--mesh", "32 64",
                 "--kappa", "300", "--out", str(tmp_path / "am.csv")]) == EXIT_COMPUTE
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_expansion_command_small(tmp_path):
    out = tmp_path / "exp.csv"
    code = main(["expansion", "--Z-list", "8 27", "--out", str(out),
                 "--cache-dir", str(tmp_path / "cache"), "--resolution", "12"])
    assert code == 0
    rows = out.read_text().splitlines()
    assert rows[0].startswith("Z,leading,scott,mean_field")
    r8 = rows[1].split(",")
    assert float(r8[2]) == pytest.approx(2 * 64 * 0.125)
    # magnetic sweep is an API feature, not a CLI one: --alpha is a usage error
    assert _exit_code(["expansion", "--Z-list", "8", "--alpha", "0.01",
                       "--out", str(tmp_path / "m.csv")]) == 2


# ---------------------------------------------------------------------------
# exit codes for any input
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    """A warm TF cache, three potential tables (valid, reversed, one row) and a
    config file that is not UTF-8."""
    d = tmp_path_factory.mktemp("fuzz")
    assert main(["tf", "--cache-dir", str(d / "cache"), "--out", str(d / "tf.csv")]) == 0
    r = np.geomspace(1e-3, 40.0, 300)
    table = "r,V\n" + "\n".join(f"{a},{1.0 / a}" for a in r.tolist())
    (d / "good.csv").write_text(table)
    (d / "reversed.csv").write_text("r,V\n" + "\n".join(table.splitlines()[:0:-1]))
    (d / "short.csv").write_text("r,V\n1.0,1.0\n")
    (d / "latin1.cfg").write_bytes(b"mu = \xff\n")
    return d


def _exit_code(argv) -> int:
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


@st.composite
def _cli_argv(draw, d):
    """Random argv over every subcommand, with the costly sizes capped.

    Mesh, budget, grid size, point count, radius, h and Z are drawn from
    small values, so every run stays cheap; other values range over valid,
    out-of-range, non-finite and unparsable text.
    """
    def opt(flag, *values):
        return [flag, draw(st.sampled_from(values))] if draw(st.booleans()) else []

    def req(flag, *values):
        return [flag, draw(st.sampled_from(values))]

    bad = ("0", "-1", "nan", "inf", "x")
    refine = st.sampled_from([[], ["--refine"], ["--no-refine"]])
    command = draw(st.sampled_from(["tf", "weyl", "trace", "scott", "partition-check",
                                    "expansion", "frobnicate", None]))
    argv = []
    if draw(st.integers(0, 3)) == 0:
        lines = draw(st.lists(st.sampled_from([
            "mu = 0.05", "mu = abc", "refine = false", "threads = 2", "z = 2",
            "seed = 3", "no equals sign", "# comment", "unknown = 1"]), max_size=4))
        cfg = d / f"run{len(lines)}.cfg"
        cfg.write_text("\n".join(lines) + "\n")
        argv += ["--config", str(draw(st.sampled_from([cfg, d / "missing.cfg",
                                                        d / "latin1.cfg"])))]
    if command is None:
        return argv
    argv += [command, *req("--out", *[str(d / "out.csv")] * 3, str(d / "missing" / "out.csv")),
             *req("--cache-dir", *[str(d / "cache")] * 3, str(d / "tf.csv"))]
    if command == "weyl":
        argv += opt("--potential", "coulomb", "tf", "other")
        argv += opt("--mu", "0.01", "0.1", *bad) + opt("--h", "1", "0.5", *bad)
        argv += opt("--z", "1", "2", *bad)
    elif command == "trace":
        argv += opt("--potential", "coulomb", "tf", "file")
        argv += opt("--file", *(str(d / f) for f in ("good.csv", "reversed.csv",
                                                      "short.csv", "missing.csv")))
        argv += req("--h", "1", "0.5", "2", *bad) + opt("--mu", "0.05", "0.1", "1", *bad)
        argv += opt("--resolution", "8", *bad) + opt("--r-max", "20", *bad)
        argv += opt("--n", "60", "8", "7", "1000000000000", *bad)
        argv += draw(st.sampled_from([[], ["--refine"]]))
    elif command == "scott":
        route = draw(st.sampled_from(["mu-limit", "cutoff-R", "spectral-fit", "ansatz-min",
                                      "other"]))
        argv += ["--route", route]
        if route == "mu-limit":
            argv += opt("--N-list", "50 100 200", "", "50 100", "0 1 2", "1e300 1 2",
                        "1e30 2e30 3e30", "x")
        elif route == "cutoff-R":
            argv += req("--R", "6", *bad) + opt("--R-list", "6 8", "", "0 6", "x")
            argv += draw(refine)
        elif route == "spectral-fit":
            argv += opt("--h-list", "0.5 0.4 0.35", "0.5 0.5", "", "0 1 2", "x")
            argv += req("--resolution", "8", *bad) + draw(refine)
        elif route == "ansatz-min":
            argv += req("--R", "6", *bad) + opt("--kappa", "0.05", "1", *bad)
            argv += req("--budget", "2", "0", "-1")
            argv += opt("--modes", "1", "2", "0", "-1")
            argv += req("--mesh", "8 16", "80", "0 32", "1 1", "4 2", "a b", "1e15 2")
    elif command == "partition-check":
        argv += req("--n-points", "1", "3", "0", "-3", "x")
        argv += opt("--r0", "1", *bad) + opt("--d-min", "1e-3", "10", *bad)
        argv += opt("--d-max", "1e3", "1e-3", *bad) + opt("--seed", "0", "5", "-1")
    elif command == "expansion":
        argv += req("--Z-list", "1", "1 2", "", "0", "x", "nan")
        argv += req("--resolution", "8", *bad)
        argv += draw(refine)
    return argv


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_exit_code_is_documented_for_any_input(fuzz_dir, data):
    argv = data.draw(_cli_argv(fuzz_dir))
    assert _exit_code(argv) in (0, 2, 3, 4, 5), argv


# ---------------------------------------------------------------------------
# every flag is read
# ---------------------------------------------------------------------------


class _ReadRecorder(argparse.Namespace):
    """Namespace that records the attribute names read from it."""

    reads: set = set()

    def __getattribute__(self, name):
        type(self).reads.add(name)
        return super().__getattribute__(name)


def test_every_flag_is_read_by_some_route(fuzz_dir, tmp_path):
    # one cheap run per subcommand and scott route; a flag that no run reads
    # is a knob that changes nothing
    cache = str(tmp_path / "cache")
    runs = [
        ["tf"],
        ["weyl", "--mu", "0.01"],
        ["trace", "--potential", "file", "--file", str(fuzz_dir / "good.csv"), "--mu", "0.05"],
        ["scott", "--route", "mu-limit"],
        ["scott", "--route", "cutoff-R", "--R", "6", "--no-refine"],
        ["scott", "--route", "spectral-fit", "--h-list", "0.5 0.4 0.35", "--resolution", "8",
         "--no-refine"],
        ["scott", "--route", "ansatz-min", "--R", "6", "--budget", "2", "--mesh", "8 16"],
        ["partition-check", "--n-points", "1"],
        ["expansion", "--Z-list", "1", "--resolution", "8", "--no-refine"],
    ]
    read = {}
    for argv in runs:
        args = build_parser().parse_args(
            [*argv, "--cache-dir", cache, "--out", str(tmp_path / "x.csv")],
            namespace=_ReadRecorder())
        _ReadRecorder.reads = set()
        args.func(args)
        read.setdefault(argv[0], set()).update(_ReadRecorder.reads)
    subparsers = build_parser()._subparsers._group_actions[0].choices
    for command, names in read.items():
        flags = {a.dest for a in subparsers[command]._actions} - {"help", "out", "cache_dir"}
        assert flags <= names, f"{command}: {sorted(flags - names)} never read"
