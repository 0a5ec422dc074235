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

# an orphan script, after a line that sets pid_dir: the child of its
# fork_join writes its pid to a file of its own, <pid>.pid in pid_dir
# (renamed into place, so it is never read half written), then sleeps there
_ORPHAN = """
import os, time
from scottlab import core

def work(i):
    if i:
        path = os.path.join(pid_dir, str(os.getpid()))
        with open(path + ".tmp", "w") as f:
            f.write(str(os.getpid()))
        os.rename(path + ".tmp", path + ".pid")
        time.sleep(60)

core.fork_join(work, (sorted(os.sched_getaffinity(0)) * 2)[:2])
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


@pytest.fixture
def reaped():
    """After the test, check that every child the test forked has been reaped."""
    yield
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


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
def orphan_after_kill(tmp_path):
    """The pid of the child of a fork_join if it still runs 5 s after its parent was
    SIGKILLed while the child slept, else None.  A child still there is killed in teardown.
    """
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC)] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    script = f"pid_dir = {str(tmp_path)!r}\n" + _ORPHAN
    with subprocess.Popen([sys.executable, "-c", script], env=env) as proc:
        try:
            while not list(tmp_path.glob("*.pid")):
                assert proc.poll() is None, "the script ended before its child slept"
                time.sleep(0.02)
        finally:
            proc.kill()
    path, = tmp_path.glob("*.pid")
    pid = int(path.read_text())
    deadline = time.monotonic() + 5.0
    while _alive(pid) and time.monotonic() < deadline:
        time.sleep(0.05)
    yield pid if _alive(pid) else None
    try:
        os.kill(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
