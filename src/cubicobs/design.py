"""Structural observer design: unknown-input decoupling and dynamics gains.

The observer state ``w`` must track ``T x`` with ``T = I - E C`` chosen so
that the unknown-input channel drops out, ``T D = 0``.  That is feasible
exactly when ``rank(C D) = rank(D)``, and the canonical choice is
``E = D (C D)^+``.  Given any output injection ``L``, the gains

    G = T A - L C
    J = T A E + L (I - C E)

satisfy the consistency identity ``T A - J C - G T = 0``, which is what
makes the estimation error autonomous up to nonlinearity mismatch.  ``L``
itself only has to render ``G`` Hurwitz with a decay margin.
:func:`stabilize_L` decides that exactly from one Krylov staircase: a mode of
``T A`` on the orthogonal complement of the observable subspace that lies
right of the margin makes it infeasible, and otherwise the shifted filter
Riccati equation on the observable subspace gives a gain, from the Schur
kernel ``numlin._care`` (LAPACK ``dgees``, loaded on first use).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .numlin import _care, _eigvals, _finite, _frobenius_norm, _svd, as_matrix, mat_rank, pinv

__all__ = [
    "DecouplingInfeasibleError",
    "GainSearchError",
    "GainSearchOptions",
    "StructuralDesign",
    "decoupling_feasible",
    "compute_E",
    "design_GJ",
    "verify_structure",
    "spectral_abscissa",
    "stabilize_L",
]

# compute_E accepts |(I - E C) D|_max up to this fraction of max(1, |D|_max)
_DECOUPLE_TOL = 1e-9


class DecouplingInfeasibleError(ValueError):
    """rank(CD) != rank(D): no E can remove the unknown-input channel."""


class GainSearchError(RuntimeError):
    """No output injection meets the margin.

    The message says "infeasible" and names the rightmost unobservable mode
    when no gain exists; otherwise it says that infeasibility is not proven.
    """


# Singular value, relative to |C|_F (first block) or |T A|_F, at or below which
# a new Krylov direction of the observable subspace counts as spanned.
_SPAN_RTOL = 1e-10


@dataclass(frozen=True)
class GainSearchOptions:
    # seed is accepted for compatibility and ignored: the gain is computed,
    # not searched for.
    seed: int = 0


@dataclass(eq=False)
class StructuralDesign:
    """Result of a gain construction, with its residuals recomputed."""

    E: np.ndarray
    G: np.ndarray
    J: np.ndarray
    L: np.ndarray
    residual_sylvester: float
    residual_decoupling: float


def decoupling_feasible(C, D) -> bool:
    """True iff ``rank(C D) == rank(D)``; ``LinAlgError`` when ``C D`` overflows."""
    C = as_matrix(C, "C")
    D = as_matrix(D, "D")
    if C.shape[1] != D.shape[0]:
        raise ValueError(f"C has {C.shape[1]} columns but D has {D.shape[0]} rows")
    with np.errstate(over="ignore", invalid="ignore"):  # _finite refuses it
        return mat_rank(_finite("C D", C @ D)) == mat_rank(D)


def compute_E(C, D) -> np.ndarray:
    """Canonical decoupling gain ``E = D (C D)^+``.

    Raises :class:`DecouplingInfeasibleError` when the rank condition fails
    (or when, despite a borderline rank test, ``(I - E C) D`` exceeds 1e-9
    relative to ``max(1, |D|_max)``); ``LinAlgError`` when ``E`` overflows.
    """
    C = as_matrix(C, "C")
    D = as_matrix(D, "D")
    if not decoupling_feasible(C, D):
        raise DecouplingInfeasibleError("rank(CD) != rank(D)")
    with np.errstate(over="ignore", invalid="ignore"):  # _finite refuses it
        E = _finite("E = D (C D)^+", D @ pinv(C @ D))
        residual = float(np.max(np.abs((np.eye(C.shape[1]) - E @ C) @ D), initial=0.0))
    if not residual <= _DECOUPLE_TOL * max(1.0, float(np.max(np.abs(D), initial=0.0))):
        raise DecouplingInfeasibleError(
            f"rank(CD) != rank(D) within working precision (residual {residual:.2e})"
        )
    return E


def design_GJ(A, C, E, L, D) -> StructuralDesign:
    """Assemble ``G`` and ``J`` from an output injection ``L``.

    The returned residuals, of the consistency identity and of the
    decoupling ``(I - E C) D = 0``, come from :func:`verify_structure`, not
    from the construction itself.  ``LinAlgError`` when ``G`` or ``J``
    overflows.
    """
    A = as_matrix(A, "A")
    C = as_matrix(C, "C")
    E = as_matrix(E, "E")
    L = as_matrix(L, "L")
    with np.errstate(over="ignore", invalid="ignore"):  # _finite refuses it
        T = np.eye(A.shape[0]) - E @ C
        G = _finite("G = T A - L C", T @ A - L @ C)
        J = _finite("J = T A E + L (I - C E)", T @ A @ E + L @ (np.eye(C.shape[0]) - C @ E))
    res_syl, res_dec = verify_structure(A, C, D, E, G, J)
    return StructuralDesign(E=E, G=G, J=J, L=L,
                            residual_sylvester=res_syl, residual_decoupling=res_dec)


def verify_structure(A, C, D, E, G, J) -> tuple[float, float]:
    """Max-abs residuals of the two structural identities.

    Returns ``(|T A - J C - G T|_max, |T D|_max)`` with ``T = I - E C``;
    ``LinAlgError`` when ``T`` or either residual overflows.
    """
    A = as_matrix(A, "A")
    C = as_matrix(C, "C")
    D = as_matrix(D, "D")
    E = as_matrix(E, "E")
    G = as_matrix(G, "G")
    J = as_matrix(J, "J")
    with np.errstate(over="ignore", invalid="ignore"):  # refused below
        T = np.eye(A.shape[0]) - E @ C
        syl, dec = T @ A - J @ C - G @ T, T @ D
        res_syl, res_dec = float(np.max(np.abs(syl))), float(np.max(np.abs(dec), initial=0.0))
    if not (res_syl < np.inf and res_dec < np.inf):  # name the first product that overflowed
        _finite("T = I - E C", T)
        _finite("T A - J C - G T", syl)
        _finite("T D", dec)
    return res_syl, res_dec


def spectral_abscissa(M) -> float:
    """Largest real part of the eigenvalues of ``M``."""
    return float(np.max(_eigvals(as_matrix(M, "M")).real))


def _span_tol(M) -> float:
    """``_SPAN_RTOL |M|_F``, finite even where the sum of squares overflows."""
    return _frobenius_norm(M, _SPAN_RTOL)


def stabilize_L(T, A, C, margin: float, opts: GainSearchOptions | None = None) -> np.ndarray:
    """Find ``L`` with ``spectral_abscissa(T A - L C) <= -margin``.

    ``L = 0`` is returned when ``T A`` already meets the margin.  Otherwise a
    gain exists iff no unobservable mode of ``T A`` (a mode on the orthogonal
    complement of ``V``, the block Krylov space of ``(T A)'`` from ``C'``)
    lies right of ``-margin``; else :class:`GainSearchError` names the
    rightmost one.  The gain is ``L = X C'`` with ``X`` the stabilizing
    solution (``numlin._care``) of the filter Riccati equation for
    ``T A + margin I`` on ``V``, which places every observable mode left of
    ``-margin``; the result is checked with :func:`spectral_abscissa`;
    ``opts`` is accepted and ignored.
    """
    if not 0 < margin < np.inf:
        raise ValueError("margin must be positive and finite")
    T = as_matrix(T, "T")
    A = as_matrix(A, "A")
    C = as_matrix(C, "C")
    with np.errstate(over="ignore", invalid="ignore"):  # _finite refuses it
        TA = _finite("T A", T @ A)
    n = A.shape[0]
    if np.max(_eigvals(TA).real) <= -margin:
        return np.zeros((n, C.shape[0]))

    V, W, tol, ta_tol = np.zeros((n, 0)), C.T, _span_tol(C), _span_tol(TA)
    while W.shape[1] and V.shape[1] < n:
        W = W - V @ (V.T @ W)
        W = W - V @ (V.T @ W)
        U, s, _ = _svd(W, full_matrices=False)
        U = U[:, s > tol]
        V, W, tol = np.hstack([V, U]), TA.T @ U, ta_tol
    if V.shape[1] < n:
        Z = np.linalg.qr(V, mode="complete")[0][:, V.shape[1]:]
        hidden = _eigvals(Z.T @ TA @ Z)
        lam = hidden[np.argmax(hidden.real)]
        if lam.real > -margin:
            mode = f"{lam.real:.6g}" if lam.imag == 0 else f"{lam:.6g}"
            raise GainSearchError(
                f"infeasible: mode {mode} of T A is unobservable and lies right of "
                f"{-margin:g}, so no L reaches spectral abscissa <= {-margin:g}"
            )
    CV, I = C @ V, np.eye(V.shape[1])
    try:
        with np.errstate(over="ignore"):  # _care refuses a Hamiltonian that overflowed
            X = _care(V.T @ TA.T @ V + margin * I, CV.T @ CV, I)
    except np.linalg.LinAlgError as exc:
        raise GainSearchError(f"filter Riccati equation has no solution: {exc}; "
                              "infeasibility is not proven") from None
    L = V @ X @ CV.T
    abscissa = spectral_abscissa(TA - L @ C)
    if abscissa > -margin:
        raise GainSearchError(
            f"Riccati gain reached spectral abscissa {abscissa:.6g}, "
            f"not <= {-margin:g}; infeasibility is not proven"
        )
    return L
