"""Small dense-matrix primitives shared by the rest of the toolkit.

Everything operates on plain 2-D numpy float arrays.  Symmetry-sensitive
routines symmetrize their argument first, since every matrix inequality
handled downstream only concerns the symmetric part.  Every eigenvalue test
of definiteness goes through :func:`definiteness_margin`, the largest
eigenvalue of that part; the smallest is ``-definiteness_margin(-S)``.

The repeated small decompositions of design and certification go through
private kernels, each one LAPACK call from ``scipy.linalg.lapack`` (loaded on
first use) that checks ``info`` and raises the ``LinAlgError`` numpy would:
:func:`_eigvals` (``dgeev``), :func:`_svd` (``dgesdd``) and the ordered Schur
form in :func:`_care` (``dgees``).  At n <= 16 numpy's and scipy's Python
wrappers cost more than the LAPACK work inside them.  :func:`definiteness_margin`
stays on numpy because loading a config reaches it and scipy's import would
add to every command's start-up; so do the linear solves (``dgesv`` in their
place moves results in the last digits) and the batched stacks, where one
numpy call serves many matrices.
"""

from __future__ import annotations

import math

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
    s = _svd(M, compute_uv=False)
    return int(np.count_nonzero(s > _RANK_TOL * s[0]))


def pinv(M) -> np.ndarray:
    """Moore-Penrose pseudoinverse via SVD, singular values up to 1e-15 of
    the largest counting as zero (``np.linalg.pinv``'s arithmetic)."""
    M = as_matrix(M, "pinv argument")
    if M.size == 0:
        return np.empty(M.shape[::-1])
    u, s, vt = _svd(M, full_matrices=False)
    large = s > 1e-15 * s[0]
    s = np.divide(1.0, s, out=np.zeros_like(s), where=large)
    return vt.T @ (s[:, None] * u.T)


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


# _eigvals scales its argument by a power of two into this range, inside
# which dgeev does not scale it itself (OpenBLAS 0.3.30 unscales wrongly)
_EIG_RANGE = (2.0**-400, 2.0**400)


def _eigvals(M: np.ndarray) -> np.ndarray:
    """Eigenvalues of the square ``M``, complex, from one ``dgeev`` call.

    ``LinAlgError`` for a non-finite entry or when the QR iteration fails,
    as ``np.linalg.eigvals`` raises it.
    """
    from scipy.linalg import lapack

    top = np.abs(M).max(initial=0.0)
    if not top < np.inf:
        raise np.linalg.LinAlgError("Array must not contain infs or NaNs")
    k = 0 if top == 0.0 or _EIG_RANGE[0] <= top <= _EIG_RANGE[1] else math.frexp(top)[1]
    wr, wi, _, _, info = lapack.dgeev(np.ldexp(M, -k) if k else M, compute_vl=0, compute_vr=0)
    if info:
        raise np.linalg.LinAlgError("Eigenvalues did not converge")
    if k:
        with np.errstate(over="ignore"):  # n max|M| can exceed the float range
            wr, wi = np.ldexp(wr, k), np.ldexp(wi, k)
    w = wr.astype(complex)
    w.imag = wi
    return w


def _svd(M: np.ndarray, full_matrices: bool = True, compute_uv: bool = True):
    """``(U, s, Vt)``, or ``s`` alone, from one ``dgesdd`` call, with
    ``np.linalg.svd``'s arguments; ``LinAlgError`` when it does not
    converge (as for a nan entry).  An inf entry gives nan, as in numpy."""
    from scipy.linalg import lapack

    u, s, vt, info = lapack.dgesdd(M, compute_uv=compute_uv, full_matrices=full_matrices)
    if info:
        raise np.linalg.LinAlgError("SVD did not converge")
    return (u, s, vt) if compute_uv else s


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
    stable subspace ``[U11; U21]`` of :func:`_hamiltonian` (``dgees``, its
    open-left-half-plane eigenvalues ordered first), balanced first
    with a power-of-two scale per state and its inverse on the costate
    (Benner, SIAM J. Sci. Comput. 22(5), 2001), each scale within 2^+-32.
    ``LinAlgError`` when the Hamiltonian or its balanced form is not finite,
    the Schur form fails, that subspace is not n-dimensional or ``U11`` is singular.
    """
    from scipy.linalg import lapack

    n = A.shape[0]
    H = _hamiltonian(A, S, Q)
    if not np.isfinite(H).all():
        raise np.linalg.LinAlgError("the Hamiltonian has non-finite entries")
    s = np.log2(lapack.dgebal(np.abs(H) * (1.0 - np.eye(2 * n)), scale=1, permute=0)[3])
    # a coupling far below the rounding of H's other entries asks for a scale
    # like 2^534 that wipes out the entries X needs; 2^+-32 spans any plant
    # whose state scales differ by up to ~1e9
    d = 2.0 ** np.round(0.5 * (s[:n] - s[n:])).clip(-32.0, 32.0)
    t = np.concatenate([d, 1.0 / d])
    with np.errstate(over="ignore", invalid="ignore"):  # _finite refuses it
        H = _finite("the balanced Hamiltonian", H * (t / t[:, None]))
    _, dim, _, _, U, _, info = lapack.dgees(lambda re, im: re < 0.0, H, sort_t=1)
    if info:
        raise np.linalg.LinAlgError(f"Schur form not found (dgees info = {info})")
    sv = _svd(U[:n, :n], compute_uv=False)
    c = sv[0] / sv[-1] if sv[-1] else np.inf
    if dim != n or c * np.finfo(float).eps > 1.0:
        raise np.linalg.LinAlgError(f"{dim} stable Hamiltonian eigenvalues (need {n}), "
                                    f"cond(U11) = {c:.1e} (need < 1/eps)")
    X = np.linalg.solve(U[:n, :n].T, U[n:, :n].T) / np.outer(d, d)
    return 0.5 * (X + X.T)
