"""Dense linear-algebra helpers: shapes, ranks, pseudoinverse, eigen margins."""

import numpy as np
import pytest

from cubicobs.numlin import (
    as_matrix,
    definiteness_margin,
    mat_rank,
    pinv,
    sym_eig_extremes,
)


def test_as_matrix_promotes_and_copies():
    M = as_matrix([[1, 2], [3, 4]])
    assert M.shape == (2, 2) and M.dtype == np.float64
    v = as_matrix([1.0, 2.0, 3.0])
    assert v.shape == (1, 3)


def test_as_matrix_rejects_nonfinite():
    with pytest.raises(ValueError, match="finite"):
        as_matrix([[1.0, np.inf]], "A")
    with pytest.raises(ValueError, match="B"):
        as_matrix([[np.nan]], "B")


def test_mat_rank_hand_cases():
    assert mat_rank(np.zeros((3, 3))) == 0
    assert mat_rank(np.eye(4)) == 4
    assert mat_rank([[1.0, 2.0], [2.0, 4.0]]) == 1
    # rank is insensitive to overall scale
    assert mat_rank(1e-14 * np.eye(2)) == 2


def test_mat_rank_near_deficient():
    # second column differs from a multiple of the first by ~1e-14
    M = np.array([[1.0, 2.0], [3.0, 6.0 + 1e-14]])
    assert mat_rank(M) == 1


def test_pinv_penrose_residuals():
    rng = np.random.default_rng(7)
    for _ in range(50):
        m, n = rng.integers(1, 6, size=2)
        M = rng.standard_normal((m, n))
        Mp = pinv(M)
        assert np.allclose(M @ Mp @ M, M, atol=1e-10)
        assert np.allclose(Mp @ M @ Mp, Mp, atol=1e-10)
        assert np.allclose((M @ Mp).T, M @ Mp, atol=1e-10)
        assert np.allclose((Mp @ M).T, Mp @ M, atol=1e-10)


def test_sym_eig_extremes_closed_form():
    lo, hi = sym_eig_extremes(np.array([[2.0, 1.0], [1.0, 2.0]]))
    assert abs(lo - 1.0) < 1e-12 and abs(hi - 3.0) < 1e-12


def test_sym_eig_extremes_symmetrizes():
    # only the symmetric part matters
    S = np.array([[0.0, 1.0], [-1.0, 0.0]])
    lo, hi = sym_eig_extremes(S)
    assert abs(lo) < 1e-12 and abs(hi) < 1e-12


def test_definiteness_margin_signs():
    assert definiteness_margin(np.diag([-1.0, -2.0])) == pytest.approx(-1.0)
    assert definiteness_margin(np.diag([-1.0, 0.5])) == pytest.approx(0.5)
    assert definiteness_margin(np.zeros((2, 2))) == 0.0
