import ctypes
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from scottlab import core, tf

SRC = Path(__file__).resolve().parents[1] / "src"

# the prologue of an orphan script, after a line that sets pid_dir: each
# forked child that calls the solve it names writes its pid to a file of its
# own, <pid>.pid in pid_dir (renamed into place, so it is never read half
# written), then sleeps there
_SLEEP_IN_CHILDREN = """
import os, sys, time
here = os.getpid()

def sleep_in_children(module, name):
    solve = getattr(module, name)

    def slow(*args, **kwargs):
        if os.getpid() != here:
            path = os.path.join(pid_dir, str(os.getpid()))
            with open(path + ".tmp", "w") as f:
                f.write(str(os.getpid()))
            os.rename(path + ".tmp", path + ".pid")
            time.sleep(60)
        return solve(*args, **kwargs)
    setattr(module, name, slow)
"""


@pytest.fixture
def blas_count():
    """The calling thread's scipy-OpenBLAS thread count, read through a callable.

    The count is set to 2 for the test, a value that the one-thread cap
    visibly changes, and set back afterwards.
    """
    lib = core.scipy_openblas()
    if lib is None:
        pytest.skip("scipy's OpenBLAS is not found in this process")
    read, set_count = lib.scipy_openblas_get_num_threads, lib.openblas_set_num_threads_local
    read.argtypes, read.restype = [], ctypes.c_int
    set_count.argtypes, set_count.restype = [ctypes.c_int], ctypes.c_int
    old = set_count(2)
    yield read
    set_count(old)


@pytest.fixture(scope="session")
def tf_solution():
    """One shared universal-profile solve for the whole suite."""
    return tf.solve_tf_atom()


def _alive(pid):
    """True while pid runs: a process that is gone or a zombie does no more work."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except FileNotFoundError:
        return False
    return stat.rpartition(")")[2].split()[0] != "Z"


@pytest.fixture
def orphans_after_kill(tmp_path):
    """orphans_after_kill(script, n): the pids of the n forked children still running
    5 s after the process running script was SIGKILLed while they slept.

    script calls sleep_in_children(module, name) before its forked solve.
    Every child still there is killed in teardown.
    """
    pids = []

    def run(script, n):
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [str(SRC)] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
        prologue = f"pid_dir = {str(tmp_path)!r}\n" + _SLEEP_IN_CHILDREN
        with subprocess.Popen([sys.executable, "-c", prologue + script], env=env) as proc:
            try:
                while len(list(tmp_path.glob("*.pid"))) < n:
                    assert proc.poll() is None, "the script ended before its children slept"
                    time.sleep(0.02)
            finally:
                proc.kill()
        for path in sorted(tmp_path.glob("*.pid")):
            text = path.read_text()
            try:
                pids.append(int(text))
            except ValueError:
                pytest.fail(f"{path.name} holds {text!r}, not a pid")
        deadline = time.monotonic() + 5.0
        while any(map(_alive, pids)) and time.monotonic() < deadline:
            time.sleep(0.05)
        return [pid for pid in pids if _alive(pid)]

    yield run
    for pid in pids:
        try:
            os.kill(pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
