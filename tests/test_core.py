import math
import os
import signal
import sys
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scottlab import core
from scottlab.core import check_coupling, fork_join, neg_part_sum, one_blas_thread


def test_neg_part_sum_examples():
    assert neg_part_sum([-1.0, 2.0, -3.0]) == -4.0
    assert neg_part_sum([]) == 0.0
    assert neg_part_sum([5.0, 1.0]) == 0.0


def test_neg_part_sum_hydrogen_two_shells():
    # levels -1/(4 n^2) with degeneracy 2 n^2, n <= 2
    levels = np.repeat([-0.25, -0.0625], [2, 8])
    assert neg_part_sum(levels) == pytest.approx(-1.0, abs=1e-15)


def test_neg_part_sum_rejects_nonfinite():
    with pytest.raises(ValueError):
        neg_part_sum([1.0, math.nan])


@settings(max_examples=50, deadline=None)
@given(st.lists(st.floats(-1e6, 1e6), max_size=30), st.randoms())
def test_neg_part_sum_permutation_invariant(values, rng):
    shuffled = list(values)
    rng.shuffle(shuffled)
    assert neg_part_sum(shuffled) == pytest.approx(neg_part_sum(values), rel=1e-12, abs=1e-12)


@settings(max_examples=50, deadline=None)
@given(st.lists(st.floats(-1e6, 1e6), max_size=30), st.floats(0.0, 1e6))
def test_neg_part_sum_monotone_under_nonnegative(values, extra):
    assert neg_part_sum(values + [extra]) == neg_part_sum(values)


def test_check_coupling_beta_admissibility():
    check_coupling(0.1, 5.0)
    with pytest.raises(ValueError):
        check_coupling(0.1, 5.1)


def test_one_blas_thread_caps_the_block_and_restores(blas_count):
    with one_blas_thread():
        assert blas_count() == 1
    assert blas_count() == 2
    with pytest.raises(ValueError, match="raised in the block"):
        with one_blas_thread():
            assert blas_count() == 1
            raise ValueError("raised in the block")
    assert blas_count() == 2


def test_one_blas_thread_holders_on_many_threads(blas_count):
    # the setter acts on the whole process, so the holders of all threads
    # share one cap: a lost update of the holder count would let a holder
    # read 2 inside the block, or leave the count at 1 after the last one
    inside = []

    def hold():
        for _ in range(200):
            with one_blas_thread():
                inside.append(blas_count())

    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        workers = [threading.Thread(target=hold) for _ in range(8)]
        for w in workers:
            w.start()
        for w in workers:
            w.join(timeout=60)
    finally:
        sys.setswitchinterval(previous)
    assert not any(w.is_alive() for w in workers)
    assert inside == [1] * 1600
    assert blas_count() == 2


def test_one_blas_thread_without_the_library_is_a_no_op(blas_count, monkeypatch):
    monkeypatch.setattr(core, "scipy_openblas", lambda: None)
    with one_blas_thread():
        assert blas_count() == 2
    assert blas_count() == 2


# ---------------------------------------------------------------------------
# fork_join: work(0) in the caller, work(1) in one forked child
# ---------------------------------------------------------------------------

# the child is pinned to CPUS[1], which is the caller's core on a one-core machine
CPUS = (sorted(os.sched_getaffinity(0)) * 2)[:2]


def test_finder_without_an_optional_symbol_still_finds_the_library():
    if core.numpy_openblas() is None:
        pytest.skip("numpy's bundled OpenBLAS is not found")
    find, absent = core._bundled_openblas, {"no_such_symbol_64_": ((), None)}
    assert find("numpy", "libscipy_openblas64_", (), **absent) is None
    lib = find("numpy", "libscipy_openblas64_", tuple(absent), **absent)
    assert lib is not None and not hasattr(lib, "no_such_symbol_64_")


def test_fork_join_runs_work_0_here_and_work_1_in_a_pinned_child(reaped):
    here, cores = os.getpid(), os.sched_getaffinity(0)
    got = fork_join(lambda i: (i, os.getpid() == here, os.sched_getaffinity(0)), CPUS)
    assert got == [(0, True, cores), (1, False, {CPUS[1]})]
    assert os.sched_getaffinity(0) == cores


@pytest.mark.parametrize("failing", [0, 1], ids=["caller", "child"])
def test_error_in_either_share_is_raised_and_the_child_reaped(reaped, failing):
    def work(i):
        if i == failing:
            raise ValueError(f"rejected in share {i}")
        time.sleep(60 * i)

    t0 = time.perf_counter()
    with pytest.raises(ValueError, match=f"rejected in share {failing}"):
        fork_join(work, CPUS)
    assert time.perf_counter() - t0 < 30.0  # a sleeping child is killed, not waited for


@pytest.mark.parametrize("share, status", [
    (lambda: os.kill(os.getpid(), signal.SIGKILL), -signal.SIGKILL),
    (lambda: lambda: None, 1),
], ids=["killed", "unpicklable-reply"])
def test_child_without_a_reply_is_a_runtime_error(reaped, share, status):
    with pytest.raises(RuntimeError, match=rf"ended without a reply \(exit status {status}\)"):
        fork_join(lambda i: share() if i else None, CPUS)


def test_caller_interrupted_while_waiting_reaps_the_child(reaped):
    def interrupt(signum, frame):
        raise KeyboardInterrupt  # not an Exception: Ctrl-C

    previous = signal.signal(signal.SIGALRM, interrupt)
    t0 = time.perf_counter()
    try:
        signal.setitimer(signal.ITIMER_REAL, 0.5)
        with pytest.raises(KeyboardInterrupt):
            fork_join(lambda i: time.sleep(60 * i), CPUS)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    assert time.perf_counter() - t0 < 30.0  # killed, not waited for


def test_child_dies_with_its_parent(orphan_after_kill):
    assert orphan_after_kill is None
