"""Each CLI process loads only the scipy parts its command runs.

Every check starts a fresh interpreter, so the modules and libraries this
test process has already loaded do not count, and reads its sys.modules
or the files mapped into it.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from scottlab.cli import main

SRC = Path(__file__).resolve().parents[1] / "src"

_PROBE = """
import json, sys
{body}
with open("/proc/self/maps") as maps:
    files = sorted({{line.split(maxsplit=5)[-1].strip() for line in maps if "/" in line}})
print(json.dumps([sorted(sys.modules), files]))
"""

_RUN_CLI = """
from scottlab.cli import main
if main(sys.argv[1:]) != 0:
    sys.exit("the command failed")
"""


def _loaded(body, *argv, cwd=None):
    """The modules loaded and the files mapped by running body (with argv) in a fresh
    interpreter."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC)] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    done = subprocess.run([sys.executable, "-c", _PROBE.format(body=body), *argv],
                          cwd=cwd, env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    modules, files = json.loads(done.stdout.splitlines()[-1])
    return set(modules), set(files)


def _modules(body, *argv, cwd=None):
    return _loaded(body, *argv, cwd=cwd)[0]


def _scipy_modules(body, *argv, cwd=None):
    return {m for m in _modules(body, *argv, cwd=cwd) if m == "scipy" or m.startswith("scipy.")}


@pytest.fixture(scope="module")
def warm_cache(tmp_path_factory):
    """A directory whose cache/ holds the TF profile, so tf-based runs are hits."""
    d = tmp_path_factory.mktemp("imports")
    assert main(["tf", "--cache-dir", str(d / "cache"), "--out", str(d / "tf.csv")]) == 0
    return d


@pytest.mark.parametrize("module", ["scottlab.cli", "scottlab.hydrogen"])
def test_import_loads_no_scipy(module):
    assert _scipy_modules(f"import {module}") == set()


def test_cli_import_loads_no_process_pool():
    loaded = {m.split(".")[0] for m in _modules("import scottlab.cli")}
    assert not loaded & {"multiprocessing", "concurrent"}


def test_pooled_trace_loads_no_process_pool(tmp_path):
    # the channels go to threading.Thread workers, not to an executor or a process pool
    loaded = _modules(_RUN_CLI, "trace", "--potential", "coulomb", "--mu", "0.0025",
                      "--refine", "--out", "run.csv", cwd=tmp_path)
    assert not {m.split(".")[0] for m in loaded} & {"multiprocessing", "concurrent"}


def test_forked_side_walks_load_no_process_pool(tmp_path):
    # the -j side of a magnetic trace goes to a child forked with os.fork;
    # what scipy.sparse.linalg loads itself is discounted
    loaded = _modules(_RUN_CLI, "scott", "--route", "ansatz-min", "--mesh", "16 32",
                      "--out", "run.csv", cwd=tmp_path)
    added = {m.split(".")[0] for m in loaded - _modules("import scipy.sparse.linalg")}
    assert not added & {"multiprocessing", "concurrent"}


@pytest.mark.parametrize("argv", [
    ["scott", "--route", "mu-limit"],
    ["partition-check", "--n-points", "3"],
    ["tf", "--cache-dir", "{empty}"],
    ["tf", "--cache-dir", "cache"],
    ["weyl", "--potential", "tf", "--mu", "0", "--cache-dir", "cache"],
    ["weyl", "--potential", "tf", "--mu", "0.01", "--cache-dir", "cache"],
    ["trace", "--potential", "coulomb", "--mu", "0.05"],
    ["trace", "--potential", "tf", "--h", "0.25", "--mu", "0.01", "--cache-dir", "cache"],
    ["scott", "--route", "cutoff-R"],
    ["scott", "--route", "spectral-fit", "--cache-dir", "cache"],
    ["expansion", "--cache-dir", "cache"],
], ids=["mu-limit", "partition-check", "tf-miss", "tf-hit", "weyl-tf-hit", "weyl-tf-mu",
        "trace-coulomb", "trace-tf-hit", "cutoff-R", "spectral-fit-hit", "expansion-hit"])
def test_command_runs_without_scipy(warm_cache, tmp_path, argv):
    # the TF profile is a numpy collocation, and the radial commands call LAPACK
    # dstebz in numpy's bundled OpenBLAS by ctypes: no scipy module is imported
    # and scipy's bundled OpenBLAS (scipy.libs/libscipy_openblas-*.so; numpy's is
    # libscipy_openblas64_-*.so) is not mapped.  {empty} names a fresh cache
    argv = [a.format(empty=tmp_path / "cache") for a in argv]
    modules, files = _loaded(_RUN_CLI, *argv, "--out", "run.csv", cwd=warm_cache)
    assert {m for m in modules if m == "scipy" or m.startswith("scipy.")} == set()
    assert any("_multiarray_umath" in f for f in files)  # the maps were read
    assert [f for f in files if "scipy.libs" in f or "libscipy_openblas-" in f] == []
