import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from numpy.polynomial.legendre import leggauss

from scottlab.cutoffs import SmoothCutoff, bump_norm, smooth_step, unit_bump


def test_smooth_step_endpoints_and_monotone():
    t = np.linspace(-0.5, 1.5, 401)
    s = smooth_step(t)
    assert np.all(s[t <= 0] == 0.0)
    assert np.all(s[t >= 1] == 1.0)
    assert np.all(np.diff(s) >= 0)


def test_cutoff_profile_shape():
    phi = SmoothCutoff(10.0)
    r = np.linspace(0, 12, 500)
    assert np.all(phi(r[r <= 5.0]) == 1.0)
    assert np.all(phi(r[r >= 10.0]) == 0.0)


def test_unit_bump_normalization():
    x, w = leggauss(120)
    s = 0.5 * (x + 1.0)
    val = 4.0 * np.pi * np.sum(0.5 * w * s ** 2 * unit_bump(s) ** 2)
    assert val == pytest.approx(1.0, abs=1e-12)
    assert unit_bump(np.array([1.2]))[0] == 0.0


_BUMP_BITS = """
from numpy.polynomial.legendre import leggauss
from scottlab.cutoffs import bump_norm
x, w = leggauss(200)
print(x.tobytes().hex(), w.tobytes().hex(), float(bump_norm()).hex())
"""


def test_bump_norm_bits_do_not_depend_on_the_blas_thread_count():
    # bump_norm runs leggauss's eigvalsh on numpy's OpenBLAS at one thread; uncapped, its
    # nodes and weights are the same bits at one thread and at two (OpenBLAS reads
    # OPENBLAS_NUM_THREADS once, at load: hence fresh interpreters)
    src = str(Path(__file__).resolve().parents[1] / "src")
    outputs = set()
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=os.pathsep.join(
            [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
        done = subprocess.run([sys.executable, "-c", _BUMP_BITS], env=env,
                              capture_output=True, text=True, timeout=300)
        assert done.returncode == 0, done.stderr
        outputs.add(done.stdout)
    assert len(outputs) == 1
    assert outputs.pop().split()[2] == float(bump_norm()).hex() == (3.2257609703105077).hex()
