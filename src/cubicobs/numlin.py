"""Small dense-matrix primitives shared by the rest of the toolkit.

Everything operates on plain 2-D numpy float arrays.  Symmetry-sensitive
routines symmetrize their argument first, since every matrix inequality
handled downstream only concerns the symmetric part.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "as_matrix",
    "mat_rank",
    "pinv",
    "sym_eig_extremes",
    "definiteness_margin",
    "psd_violation",
]


def as_matrix(a, name: str = "matrix") -> np.ndarray:
    """Coerce ``a`` to a 2-D float array, rejecting non-finite entries."""
    M = np.atleast_2d(np.asarray(a, dtype=float))
    if M.ndim != 2:
        raise ValueError(f"{name} must be 2-D, got {M.ndim}-D")
    if not np.all(np.isfinite(M)):
        raise ValueError(f"{name} has non-finite entries")
    return M


_RANK_TOL = 1e-10  # relative singular-value cutoff of mat_rank


def mat_rank(M) -> int:
    """Numerical rank: number of singular values above 1e-10 times the largest.

    The relative threshold makes the count scale invariant, so
    ``mat_rank(c * M) == mat_rank(M)`` for any nonzero ``c``.
    """
    M = as_matrix(M)
    if M.size == 0:
        return 0
    s = np.linalg.svd(M, compute_uv=False)
    if s[0] == 0.0:
        return 0
    return int(np.count_nonzero(s > _RANK_TOL * s[0]))


def pinv(M) -> np.ndarray:
    """Moore-Penrose pseudoinverse via SVD."""
    return np.linalg.pinv(as_matrix(M, "pinv argument"))


def sym_eig_extremes(S) -> tuple[float, float]:
    """(smallest, largest) eigenvalue of the symmetrized input ``(S + S^T)/2``."""
    S = as_matrix(S)
    if S.shape[0] != S.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {S.shape}")
    vals = np.linalg.eigvalsh(0.5 * (S + S.T))
    return float(vals[0]), float(vals[-1])


def definiteness_margin(S) -> float:
    """Largest eigenvalue of the symmetrized input.

    A negative value certifies that the symmetric part of ``S`` is negative
    definite with that margin; zero means at most negative semidefinite.
    """
    return sym_eig_extremes(S)[1]


def psd_violation(S, name: str) -> tuple[str, str] | None:
    """``(rule, message)`` when ``S`` is not symmetric positive semidefinite.

    ``rule`` is ``"symmetry"`` when an entry of ``S - S^T`` exceeds 1e-9 in
    magnitude, and ``"psd"`` when an eigenvalue of ``S`` is below -1e-9.
    Returns ``None`` when ``S`` passes both.
    """
    asym = float(np.max(np.abs(S - S.T), initial=0.0))
    if asym > 1e-9:
        return "symmetry", f"{name} must be symmetric (asymmetry {asym:.2e})"
    if definiteness_margin(-S) > 1e-9:
        return "psd", f"{name} must be positive semidefinite"
    return None
