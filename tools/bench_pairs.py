"""Alternated before/after runs of the benchmark, written to a BENCH_*.json file.

    python3 tools/bench_pairs.py --before DIR --after DIR --out BENCH_12.json

DIR is a checkout root (holding src/ and perfbench/).  The workloads and the
run length are those BENCHMARK.json (in this repo) declares.  Pair i of PAIRS
runs every workload with seed SEED + i in both trees, back to back, the before tree
first in even pairs and the after tree first in odd ones, so slow drift of
the machine and any order effect fall on both sides alike.
The file records every run, each side's median and quartiles per metric,
how many pairs the after tree won, the verdict on each metric (claim_holds:
the after tree won at least nine tenths of the pairs and the medians differ
by more than the before side's interquartile range; within_bound: the after
median exceeds the before median by no more than the bound BENCHMARK.json
gives the metric), the core count, the Python, numpy and
scipy versions, scipy's OpenBLAS as the harness runs it (its configuration
string, the OPENBLAS_NUM_THREADS that perfbench/run.py sets and the thread
count the library reads), each tree's line counts of src/scottlab/*.py
and tests/*.py, and the LAPACK library each tree's radial layer bisects
in (the radial_dstebz key): the path of the bundled OpenBLAS its finder
loads, or "scipy.linalg" where the finder finds none.  The finder is
scottlab.core.numpy_openblas(), or in older trees scipy_openblas(), so
those report scipy's library; a tree that predates both reads
"scipy.linalg".  The radial_scratch block records, per tree, what one
refined Coulomb mu = 1/400 trace adds to the peak RSS of a fresh interpreter
(OPENBLAS_NUM_THREADS=2, after a small warm-up sum), RADIAL_SCRATCH_RUNS
times, and their median: it ties a change of peak_rss_mb to the radial layer.

Before the pairs, each tree runs OUTPUT_COMMANDS twice, each time in order
from a new empty folder with the same relative --cache-dir and --out paths,
so the sidecars' path lines match.  The outputs block records, for every
CSV, sidecar, stdout, stderr and exit code, whether the two trees' first
runs are identical or the first line where they differ, and the same for
each tree's two runs.  ansatz_min_mesh_tiny runs the ansatz-min route on
a mesh whose channel sectors hold one unknown, too few for ARPACK.  The
last three commands fail (exit 3, 3 and 5), so their stderr and exit codes
are compared too, and any CSV or sidecar they leave is listed.

Each tree also runs the tier-1 suite once, from its root, with src/ first on
PYTHONPATH.  The tier1 block records, per tree, the passed count, the names
of the failed and errored tests and the wall time.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCHMARK = json.loads((Path(__file__).resolve().parents[1] / "BENCHMARK.json").read_text())
PAIRS = 10
SEED = 1
METRICS = ("pass_s", "setup_s", "peak_rss_mb")  # all lower is better
BOUNDS = {m["name"]: m["bound"] for m in BENCHMARK["end_to_end"]}


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One untraced benchmark run: its result line plus the pass and set-up samples."""
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, capture_output=True, text=True, check=True)
    lines = done.stdout.splitlines()
    result = json.loads(lines[-1])
    return {"correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"],
            **{m: result["metrics"][m]["value"] for m in METRICS},
            "samples": lines[-3:-1]}


def quartiles(values) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": q2, "q1": q1, "q3": q3}


def summary(pairs) -> dict:
    out = {}
    for m in METRICS:
        before = quartiles([p["before"][m] for p in pairs])
        after = quartiles([p["after"][m] for p in pairs])
        wins = sum(p["after"][m] < p["before"][m] for p in pairs)
        out[m] = {"before": before, "after": after, "after_wins": wins, "pairs": len(pairs),
                  "claim_holds": (10 * wins >= 9 * len(pairs) and before["median"] - after["median"]
                                  > before["q3"] - before["q1"]),
                  "within_bound": after["median"] <= before["median"] * (1.0 + BOUNDS[m])}
    return out


# run in a fresh interpreter: the harness's thread limits are set before
# scipy's OpenBLAS is loaded, which reads them once, at load
_BLAS_PROBE = """
import ctypes, json, os, sys
sys.path[:0] = sys.argv[1:3]
import run
run.limit_threads()
from scottlab import core
lib = core.scipy_openblas()
out = {"OPENBLAS_NUM_THREADS": os.environ["OPENBLAS_NUM_THREADS"]}
if lib is not None:
    lib.scipy_openblas_get_config.restype = ctypes.c_char_p
    out["scipy_openblas_config"] = lib.scipy_openblas_get_config().decode()
    out["scipy_openblas_threads"] = lib.scipy_openblas_get_num_threads()
print(json.dumps(out))
"""

# run with a tree's src/ first on the path: its own finder names the LAPACK
# library its radial layer bisects in
_DSTEBZ_PROBE = """
import json
from scottlab import core
finder = getattr(core, "numpy_openblas", None) or getattr(core, "scipy_openblas", lambda: None)
lib = finder()
print(json.dumps(lib._name if lib is not None else "scipy.linalg"))
"""


def versions() -> dict:
    import numpy
    import scipy

    root = Path(__file__).resolve().parents[1]
    blas = subprocess.run([sys.executable, "-c", _BLAS_PROBE, str(root / "perfbench"),
                           str(root / "src")], capture_output=True, text=True, check=True)
    return {"cores": len(os.sched_getaffinity(0)), "machine": platform.machine(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "harness_blas": json.loads(blas.stdout)}


def radial_dstebz(tree: Path) -> str:
    """The LAPACK library the tree's radial layer bisects in: a bundled OpenBLAS (its path) or
    scipy.linalg."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    done = subprocess.run([sys.executable, "-c", _DSTEBZ_PROBE], env=env,
                          capture_output=True, text=True, check=True)
    return json.loads(done.stdout)


# run with a tree's src/ first on the path: the peak RSS, in kB, after a small warm-up sum
# (imports, the first thread start) and after one refined Coulomb mu = 1/400 trace.  It reads
# the process's own high-water mark (VmHWM): ru_maxrss also holds the parent's RSS at the fork
_RADIAL_SCRATCH_PROBE = """
import json
from scottlab import radial_eig

def peak_kb():
    with open("/proc/self/status") as status:
        return next(int(line.split()[1]) for line in status if line.startswith("VmHWM:"))

coulomb = lambda r: 1.0 / r
radial_eig.trace_neg(coulomb, 1.0, mu=0.1)
before = peak_kb()
radial_eig.trace_neg(coulomb, 1.0, mu=1.0 / 400.0, refine=True)
print(json.dumps([before, peak_kb()]))
"""
RADIAL_SCRATCH_RUNS = 3


def radial_scratch(tree: Path) -> dict:
    """Peak RSS growth (MB) of one refined Coulomb mu = 1/400 trace in a fresh interpreter
    with the tree's package and OPENBLAS_NUM_THREADS=2: each run's and their median (Linux:
    the probe reads /proc/self/status)."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), OPENBLAS_NUM_THREADS="2")
    growth = []
    for _ in range(RADIAL_SCRATCH_RUNS):
        done = subprocess.run([sys.executable, "-c", _RADIAL_SCRATCH_PROBE], env=env,
                              capture_output=True, text=True, check=True)
        before, after = json.loads(done.stdout)
        growth.append(round((after - before) / 1024.0, 2))
    return {"growth_mb": growth, "median_mb": statistics.median(growth)}


# the ten commands of the cli-session workload (its partition seed fixed at 1),
# then eight that cover the rest of the trace and scott routes
OUTPUT_COMMANDS = (
    ("tf_miss", ["tf"]),
    ("tf_hit", ["tf"]),
    ("weyl_tf", ["weyl", "--potential", "tf", "--mu", "0"]),
    ("trace_tf", ["trace", "--potential", "tf", "--h", "0.1", "--refine"]),
    ("trace_coulomb", ["trace", "--potential", "coulomb", "--mu", "0.0025", "--refine"]),
    ("scott_mu", ["scott", "--route", "mu-limit"]),
    ("scott_cutoff", ["scott", "--route", "cutoff-R", "--R-list", "20 40 80 160"]),
    ("scott_fit", ["scott", "--route", "spectral-fit"]),
    ("expansion", ["expansion"]),
    ("partition", ["partition-check", "--n-points", "100", "--seed", "1"]),
    ("weyl_mu", ["weyl", "--mu", "0.0025"]),
    ("trace_n200", ["trace", "--mu", "0.05", "--n", "200"]),
    ("scott_cutoff_default", ["scott", "--route", "cutoff-R"]),
    ("scott_mu_list", ["scott", "--route", "mu-limit", "--N-list", "3 5 8 13"]),
    ("scott_cutoff_norefine", ["scott", "--route", "cutoff-R", "--R-list", "8 16", "--no-refine"]),
    ("ansatz_min", ["scott", "--route", "ansatz-min", "--R", "8", "--mesh", "32 64"]),
    # kappa above kappa_c (about 199.7 on this mesh): the ray walk, which runs A != 0 traces
    ("ansatz_min_ray", ["scott", "--route", "ansatz-min", "--kappa", "300", "--R", "8",
                        "--mesh", "32 64", "--budget", "4"]),
    # one unknown per channel sector: solved densely, not by ARPACK
    ("ansatz_min_mesh_tiny", ["scott", "--route", "ansatz-min", "--mesh", "1 2"]),
    # error paths: stderr and exit code are compared, and no CSV or sidecar may appear
    ("ansatz_min_mesh_one", ["scott", "--route", "ansatz-min", "--mesh", "80"]),
    ("ansatz_min_mesh_odd", ["scott", "--route", "ansatz-min", "--mesh", "16 33"]),
    ("scott_cutoff_tiny", ["scott", "--route", "cutoff-R", "--R-list", "1e-300,1e-200"]),
)


def run_outputs(tree: Path, folder: Path) -> None:
    """Run OUTPUT_COMMANDS with tree's package, in order, from the new folder, where
    each leaves <name>.csv, its sidecar, <name>.stdout, <name>.stderr and <name>.exit."""
    folder.mkdir()
    env = dict(os.environ, PYTHONPATH=str(tree.resolve() / "src"))
    for name, argv in OUTPUT_COMMANDS:
        done = subprocess.run([sys.executable, "-m", "scottlab.cli", *argv, "--cache-dir",
                               "cache", "--out", f"{name}.csv"],
                              cwd=folder, env=env, capture_output=True, timeout=600)
        (folder / f"{name}.stdout").write_bytes(done.stdout)
        (folder / f"{name}.stderr").write_bytes(done.stderr)
        (folder / f"{name}.exit").write_text(f"{done.returncode}\n")


def first_difference(a: Path, b: Path):
    """"identical"; {"exists": [a exists, b exists]} where only one of the files exists;
    else the first line (counted from 1) where files a and b differ, with each file's
    line there, its line end kept (null past its end)."""
    exists = [p.is_file() for p in (a, b)]
    if exists[0] != exists[1]:
        return {"exists": exists}
    lines = [p.read_bytes().splitlines(keepends=True) if p.is_file() else [] for p in (a, b)]
    for number, pair in enumerate(itertools.zip_longest(*lines), 1):
        if pair[0] != pair[1]:
            return {"line": number,
                    "lines": [None if x is None else x.decode(errors="replace") for x in pair]}
    return "identical"


def compare_outputs(runs: dict) -> dict:
    """The outputs block from {"before": [folder, folder], "after": [...]}: per file,
    the two trees' first runs compared, and each tree's two runs."""
    names = sorted({p.name for folders in runs.values() for folder in folders
                    for p in folder.iterdir() if p.is_file()})
    files = {name: {"trees": first_difference(runs["before"][0] / name, runs["after"][0] / name),
                    **{f"{side}_repeat": first_difference(*(f / name for f in runs[side]))
                       for side in ("before", "after")}}
             for name in names}
    verdict = {key: all(f[key] == "identical" for f in files.values())
               for key in ("trees", "before_repeat", "after_repeat")}
    return {"commands": dict(OUTPUT_COMMANDS), "identical": verdict, "files": files}


def outputs(before: Path, after: Path) -> dict:
    """Both trees run OUTPUT_COMMANDS twice, alternated, in temporary folders; compared."""
    with tempfile.TemporaryDirectory() as tmp:
        runs = {"before": [], "after": []}
        for i in range(2):
            for side, tree in (("before", before), ("after", after)):
                folder = Path(tmp) / f"{side}{i}"
                run_outputs(tree, folder)
                runs[side].append(folder)
        return compare_outputs(runs)


# the tier-1 command of ROADMAP.md, run with PYTHONPATH=src ahead of any other entry
TIER1 = ("-m", "pytest", "-q", "--continue-on-collection-errors")


def tier1_summary(output: str, seconds: float) -> dict:
    """The tier1 entry from pytest -q output: the passed count (from its last line),
    the node ids its short summary lists as FAILED and as ERROR, and the wall time."""
    lines = output.splitlines()
    headers = [i for i, line in enumerate(lines) if "short test summary info" in line]
    listed = {"FAILED": [], "ERROR": []}
    for line in lines[headers[-1] + 1:] if headers else []:
        # a node id, with a parametrized id in brackets that may hold spaces, then " - why"
        m = re.match(r"(FAILED|ERROR) (\S+?(?:\[[^\]]*\])?)(?: - |$)", line)
        if m:
            listed[m[1]].append(m[2])
    passed = re.search(r"(\d+) passed", lines[-1]) if lines else None
    return {"passed": int(passed[1]) if passed else 0, "failed": listed["FAILED"],
            "errors": listed["ERROR"], "seconds": round(seconds, 2)}


def tier1(tree: Path) -> dict:
    """Run the tier-1 suite once from tree's root; its tier1_summary."""
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH="src" + (":" + path if path else ""))
    start = time.perf_counter()
    done = subprocess.run([sys.executable, *TIER1], cwd=tree, env=env, capture_output=True,
                          text=True, timeout=1800)
    return tier1_summary(done.stdout, time.perf_counter() - start)


def line_counts(tree: Path) -> dict:
    """Total lines of the package sources and of the tests in tree."""
    return {pattern: sum(len(p.read_text(encoding="utf-8").splitlines())
                         for p in tree.glob(pattern))
            for pattern in ("src/scottlab/*.py", "tests/*.py")}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--before", type=Path, required=True)
    p.add_argument("--after", type=Path, required=True)
    p.add_argument("--note", default="", help="what the two trees are")
    p.add_argument("--out", type=Path, required=True)
    args = p.parse_args(argv)

    names = [w["name"] for w in BENCHMARK["workloads"]]
    seconds = float(BENCHMARK["run_seconds"])
    report = {"note": args.note, "seconds": seconds, "environment": versions(),
              "lines": {side: line_counts(getattr(args, side)) for side in ("before", "after")},
              "radial_dstebz": {side: radial_dstebz(getattr(args, side))
                                for side in ("before", "after")},
              "radial_scratch": {side: radial_scratch(getattr(args, side))
                                 for side in ("before", "after")},
              "tier1": {side: tier1(getattr(args, side)) for side in ("before", "after")},
              "outputs": outputs(args.before, args.after),
              "workloads": {w: {"pairs": []} for w in names}}
    for i in range(PAIRS):
        for w in names:
            seed = SEED + i
            order = ("before", "after") if i % 2 == 0 else ("after", "before")
            pair = {"seed": seed, "first": order[0]}
            for side in order:
                pair[side] = run_once(getattr(args, side), w, seed, seconds)
            entry = report["workloads"][w]
            entry["pairs"].append(pair)
            entry["summary"] = summary(entry["pairs"])
            print(f"{w} seed {seed}: pass_s {pair['before']['pass_s']:.3f} -> "
                  f"{pair['after']['pass_s']:.3f}", flush=True)
            # rewritten after every pair, so an interrupted run keeps what it measured
            args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
