import math
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scottlab import core
from scottlab.core import check_coupling, neg_part_sum, one_blas_thread


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
