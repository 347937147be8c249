"""Small dense-matrix primitives shared by the rest of the toolkit.

Everything operates on plain 2-D numpy float arrays.  Symmetry-sensitive
routines symmetrize their argument first, since every matrix inequality
handled downstream only concerns the symmetric part.  Every eigenvalue test
of definiteness goes through :func:`definiteness_margin`, the largest
eigenvalue of that part; the smallest is ``-definiteness_margin(-S)``.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "as_matrix",
    "mat_rank",
    "pinv",
    "definiteness_margin",
    "psd_violation",
]


def as_matrix(a, name: str = "matrix") -> np.ndarray:
    """A 2-D float array of ``a`` (``a`` itself if it is one); non-finite entries raise."""
    if type(a) is not np.ndarray or a.ndim != 2 or a.dtype != np.float64:
        a = np.atleast_2d(np.asarray(a, dtype=float))
        if a.ndim != 2:
            raise ValueError(f"{name} must be 2-D, got {a.ndim}-D")
    if not np.isfinite(a).all():
        raise ValueError(f"{name} has non-finite entries")
    return a


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
    return int(np.count_nonzero(s > _RANK_TOL * s[0]))


def pinv(M) -> np.ndarray:
    """Moore-Penrose pseudoinverse via SVD."""
    return np.linalg.pinv(as_matrix(M, "pinv argument"))


def definiteness_margin(S) -> float:
    """Largest eigenvalue of the symmetrized input ``(S + S^T)/2``.

    A negative value certifies that the symmetric part of ``S`` is negative
    definite with that margin; zero means at most negative semidefinite.
    ``-definiteness_margin(-S)`` is the smallest eigenvalue.
    """
    S = as_matrix(S)
    if S.shape[0] != S.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {S.shape}")
    # halves first: S + S^T can overflow where S is finite
    return float(np.linalg.eigvalsh(0.5 * S + 0.5 * S.T)[-1])


def psd_violation(S, name: str) -> str | None:
    """Why ``S`` is not symmetric positive semidefinite, or ``None``.

    ``S`` fails when an entry of ``S - S^T`` exceeds 1e-9 in magnitude, or
    else when an eigenvalue of ``S`` is below -1e-9.
    """
    asym = 2.0 * float(np.max(np.abs(0.5 * S - 0.5 * S.T), initial=0.0))  # halves first
    if asym > 1e-9:
        return f"{name} must be symmetric (asymmetry {asym:.2e})"
    if definiteness_margin(-S) > 1e-9:
        return f"{name} must be positive semidefinite"
    return None


class _Overflow(np.linalg.LinAlgError):
    """A product that overflows: searches let it through their own failures."""


def _finite(name: str, M, error=_Overflow, where: str = ""):
    """``M``, a product the caller formed with numpy's overflow warnings off,
    or ``error("{name} overflows{where}")`` when an entry is not finite."""
    if not np.isfinite(M).all():
        raise error(f"{name} overflows{where}")
    return M


def _frobenius_norm(M, scale: float = 1.0) -> float:
    """``scale |M|_F``, through ``M / max|M|`` where the sum of squares
    overflows; ``inf`` when ``M`` is not finite."""
    with np.errstate(over="ignore"):
        norm = float(np.linalg.norm(M))
    if norm < np.inf:
        return scale * norm
    top = float(np.max(np.abs(M)))
    if not top < np.inf:
        return np.inf
    return scale * top * float(np.linalg.norm(M / top))


def _hamiltonian(A, S, Q) -> np.ndarray:
    """The Hamiltonian ``[[A, -S], [-Q, -A']]`` of ``A'X + XA - X S X + Q = 0``."""
    n = A.shape[0]
    H = np.empty((2 * n, 2 * n))
    H[:n, :n], H[:n, n:], H[n:, :n], H[n:, n:] = A, -S, -Q, -A.T
    return H


def _care(A, S, Q) -> np.ndarray:
    """Stabilizing ``X`` of ``A'X + XA - X S X + Q = 0``: ``A - S X`` is Hurwitz.

    Laub's Schur method (IEEE TAC 24(6), 1979): ``X = U21 U11^-1`` from the
    stable subspace ``[U11; U21]`` of :func:`_hamiltonian`, balanced first
    with a power-of-two scale per state and its inverse on the costate
    (Benner, SIAM J. Sci. Comput. 22(5), 2001).  ``LinAlgError`` when the Hamiltonian
    or its balanced form is not finite, that subspace is not n-dimensional or ``U11`` is singular.
    """
    from scipy.linalg import lapack, schur

    n = A.shape[0]
    H = _hamiltonian(A, S, Q)
    if not np.isfinite(H).all():
        raise np.linalg.LinAlgError("the Hamiltonian has non-finite entries")
    s = np.log2(lapack.dgebal(np.abs(H) * (1.0 - np.eye(2 * n)), scale=1, permute=0)[3])
    d = 2.0 ** np.round(0.5 * (s[:n] - s[n:]))
    t = np.concatenate([d, 1.0 / d])
    with np.errstate(over="ignore", invalid="ignore"):  # _finite refuses it
        H = _finite("the balanced Hamiltonian", H * (t / t[:, None]))
    _, U, dim = schur(H, sort="lhp", check_finite=False)
    sv = np.linalg.svd(U[:n, :n], compute_uv=False)
    c = sv[0] / sv[-1] if sv[-1] else np.inf
    if dim != n or c * np.finfo(float).eps > 1.0:
        raise np.linalg.LinAlgError(f"{dim} stable Hamiltonian eigenvalues (need {n}), "
                                    f"cond(U11) = {c:.1e} (need < 1/eps)")
    X = np.linalg.solve(U[:n, :n].T, U[n:, :n].T) / np.outer(d, d)
    return 0.5 * (X + X.T)
