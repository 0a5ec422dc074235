"""Shared domain types, units and sign conventions.

Units fix the length scale to hbar^2/(2 m e^2) and the energy scale to
2 m e^4 / hbar^2, so the kinetic operator is -Delta (no 1/2), the nuclear
attraction is Z/|x|, and the hydrogen ground state of -Delta - 1/|x| sits
at exactly -1/4.  All other modules inherit these conventions.

Sign convention used throughout: the "negative part trace" of a
self-adjoint operator is the sum of its negative eigenvalues, a number
<= 0.  (The literature sometimes writes [a]_- for the nonnegative
quantity -min(a,0); phase-space energy identities such as the two-sided
Thomas-Fermi energy formula only close with the negative-valued choice,
so that is the one fixed here, once.)  Both trace layers return that sum as
one record, SpectralSum, whose trace is the one place it is summed.

The one fork-join helper of the package lives here too: a Pauli trace walks
one of its two independent sides itself and hands the other to a child
forked and pinned per call, under one rule for when forking is done (radial
channel sums run on threads instead; there too the caller takes a share).
So do the finders of numpy's and scipy's bundled OpenBLAS (scipy's found
without importing scipy), and the cap that runs one at one thread over a
block (children forked inside inherit it).
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import glob
import importlib.util
import math
import os
import pickle
import signal
import threading
from dataclasses import dataclass, field

import numpy as np

# non-magnetic Scott coefficient S(0); the limiting difference objects
# computed in this package approach 2*S0
S0 = 0.125


def neg_part_sum(eigenvalues) -> float:
    """Sum of the negative entries, i.e. sum_i min(e_i, 0).

    Only the negative entries enter the sum, so appending nonnegative
    entries leaves numpy's pairwise summation order, and the result, alone.
    """
    e = np.asarray(eigenvalues, dtype=float)
    if not np.all(np.isfinite(e)):
        raise ValueError("eigenvalue list must be finite")
    return float(np.sum(e[e < 0.0]))


def gauss(a, b, rule):
    """Nodes and weights of a Gauss rule on every interval [a, b], nodes on a new last axis."""
    xg, wg = rule
    a, b = np.asarray(a)[..., None], np.asarray(b)[..., None]
    return 0.5 * (a + b) + 0.5 * (b - a) * xg, 0.5 * (b - a) * wg


def sqrt_panel_integral(f, edges, rule) -> float:
    """integral f(r) dr by a Gauss rule on each panel [edges[i], edges[i + 1]] in x = sqrt(r).

    cumsum, not sum: the panel totals are added strictly left to right.
    """
    x, w = gauss(edges[:-1], edges[1:], rule)
    return float(np.cumsum(np.sum(w * 2.0 * x * f(x ** 2), axis=-1))[-1])


def fork_cores() -> list:
    """The usable cores for fork_join, or [] where forking does not pay or is unsafe.

    Forking pays only on two or more usable cores, and is safe only from a
    process that runs one thread.
    """
    cpus = sorted(os.sched_getaffinity(0))
    return cpus if len(cpus) > 1 and threading.active_count() == 1 else []


def fork_join(work, cpus) -> list:
    """[work(0), work(1)]: work(0) run here, work(1) in a child forked and pinned to cpus[1].

    Forked, so the child inherits the imported modules and the evaluated
    fields; pinned, because the scheduler was seen to stack two workers of
    a 2-core machine on one core.  The caller's own affinity is left alone.
    The child's exception is raised here; a child that ends without a reply
    raises RuntimeError.  The child is reaped before this returns or raises,
    and is killed first if the caller's share raises or the caller is
    interrupted while it waits.  The kernel SIGKILLs the child when its
    parent dies; the child's pid check covers a parent that died before
    that request.
    """
    parent = os.getpid()
    r, w = os.pipe()
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            ctypes.CDLL(None).prctl(1, signal.SIGKILL)  # 1 = PR_SET_PDEATHSIG
            if os.getppid() != parent:
                os._exit(1)
            os.sched_setaffinity(0, {cpus[1]})
            try:
                reply = work(1)
            except Exception as exc:
                reply = exc
            with os.fdopen(w, "wb") as pipe:
                pipe.write(pickle.dumps(reply))
            code = 0
        finally:
            os._exit(code)
    os.close(w)
    try:
        with os.fdopen(r, "rb") as pipe:
            here = work(0)
            data = pipe.read()
    except BaseException:
        os.kill(pid, signal.SIGKILL)
        raise
    finally:
        code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
    if not data:
        raise RuntimeError(f"worker {pid} ended without a reply (exit status {code})")
    reply = pickle.loads(data)
    if isinstance(reply, Exception):
        raise reply
    return [here, reply]


@functools.cache
def _bundled_openblas(package: str, stem: str, **prototypes):
    """<package>.libs/<stem>-*.so, loaded once without importing package, with the prototypes
    of openblas_set_num_threads_local and the named symbols; None without the file or a symbol."""
    spec = importlib.util.find_spec(package)
    if spec is None or spec.origin is None:
        return None
    libs = os.path.join(os.path.dirname(os.path.dirname(spec.origin)), package + ".libs")
    names = sorted(glob.glob(os.path.join(glob.escape(libs), stem + "-*.so")))
    lib = ctypes.CDLL(names[0]) if names else None
    prototypes["openblas_set_num_threads_local"] = ((ctypes.c_int,), ctypes.c_int)
    if not all(hasattr(lib, symbol) for symbol in prototypes):
        return None
    for symbol, (argtypes, restype) in prototypes.items():
        getattr(lib, symbol).argtypes, getattr(lib, symbol).restype = argtypes, restype
    return lib


_I64, _F64, _P = ctypes.POINTER(ctypes.c_int64), ctypes.POINTER(ctypes.c_double), ctypes.c_void_p
# IJOB NITMAX N MMAX MINP NBMIN ABSTOL RELTOL PIVMIN D E E2 NVAL AB C MOUT NAB WORK IWORK INFO
_DLAEBZ64 = ((_I64,) * 6 + (_F64,) * 3 + (_P,) * 6 + (_I64,) + (_P,) * 3 + (_I64,), None)
# the finders: numpy's OpenBLAS, mapped by import numpy, with LAPACK dlaebz (64-bit
# integers), and scipy's, the file scipy.linalg loads
numpy_openblas = functools.partial(_bundled_openblas, "numpy", "libscipy_openblas64_",
                                   scipy_dlaebz_64_=_DLAEBZ64)
scipy_openblas = functools.partial(_bundled_openblas, "scipy", "libscipy_openblas")


# per library, the holders of one_blas_thread and the count the first of them
# replaced.  The count is process state: in these pthreads builds the "local"
# setter sets the count every thread reads, so overlapping holders on several
# threads share one cap, and only the last one out restores the count
_blas_lock = threading.Lock()
_blas_held = {}  # library -> [holders, saved count]


@contextlib.contextmanager
def one_blas_thread(finder=None):
    """Run the block with finder()'s OpenBLAS (scipy's by default) at one thread, then restore.

    openblas_set_num_threads_local changes the count and leaves OpenBLAS's
    thread pool alone, so children forked inside the block run their BLAS
    calls on the calling thread alone, and the pool is still there after
    the block.  A no-op where the finder finds nothing.
    """
    lib = (finder or scipy_openblas)()
    if lib is None:
        yield
        return
    set_count = lib.openblas_set_num_threads_local
    with _blas_lock:
        held = _blas_held.setdefault(lib, [0, 0])
        if held[0] == 0:
            held[1] = set_count(1)
        held[0] += 1
    try:
        yield
    finally:
        with _blas_lock:
            held[0] -= 1
            if held[0] == 0:
                set_count(held[1])


@dataclass(frozen=True)
class SpectralSum:
    """Negative eigenvalues per key and their weighted, shifted trace.

    Radial sums key the eigenvalues by channel l, with degeneracy 2 l + 1,
    spin 2.0 (spin is implicit) and shift mu; Pauli traces key them by
    signed block j, with degeneracy 1, spin 1.0 (spinors are explicit) and
    shift 0.0.  With coarse_trace set (a refined sum) the eigenvalues are
    those of the fine grid and the trace is the two-grid Richardson value
    (4 T_fine - T_coarse) / 3.  workers counts the threads or processes
    that solved the keys, 0 when the caller solved them alone.  response
    is a Pauli zero-field trace's second-order response to the mode fields
    it was asked for (pauli.TraceResponse), None otherwise.
    """

    eigenvalues: dict
    degeneracy: dict
    spin: float
    shift: float
    coarse_trace: float | None = None
    workers: int = 0
    response: object = field(default=None, compare=False, repr=False)

    @property
    def trace(self) -> float:
        """Sum of spin * degeneracy * neg_part_sum(eigenvalues + shift), keys in their order."""
        total = 0.0
        for key, vals in self.eigenvalues.items():
            total += self.spin * self.degeneracy[key] * neg_part_sum(vals + self.shift)
        if self.coarse_trace is None:
            return total
        return (4.0 * total - self.coarse_trace) / 3.0

    @property
    def n_states(self) -> int:
        return int(sum(self.degeneracy[key] * vals.size for key, vals in self.eigenvalues.items()))


def check_coupling(kappa: float, beta: float) -> None:
    """Raise ValueError unless the couplings are admissible: kappa > 0, 0 < beta <= 1/(2 kappa)."""
    if kappa <= 0:
        raise ValueError("kappa must be positive")
    if not 0 < beta <= 0.5 / kappa:
        raise ValueError("beta must lie in (0, 1/(2 kappa)]")


@dataclass(frozen=True)
class ScottEstimate:
    """One evaluation of the Scott-function difference object (value ~ 2 S(kappa))."""

    value: float
    route: str
    R: float = math.inf
    meta: dict = field(default_factory=dict, compare=False)
