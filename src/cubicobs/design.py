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
:func:`stabilize_L` decides that exactly: a mode of ``T A`` that the outputs
cannot see (Popov-Belevitch-Hautus test) and that lies right of the margin
makes it infeasible, and otherwise the shifted filter Riccati equation gives
a gain.  That Riccati solve is the one use of scipy here: :func:`stabilize_L`
imports it on its first call, and the rest of the module needs numpy only.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .numlin import as_matrix, mat_rank, pinv

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

    The message says "infeasible" and names the mode when the PBH test
    proves that no gain exists; otherwise the Riccati gain failed its check.
    """


# Relative size of the least singular value of [lam I - T A; C] at or below
# which the mode lam counts as unobservable.
_PBH_RTOL = 1e-10


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
    """True iff ``rank(C D) == rank(D)``."""
    C = as_matrix(C, "C")
    D = as_matrix(D, "D")
    if C.shape[1] != D.shape[0]:
        raise ValueError(f"C has {C.shape[1]} columns but D has {D.shape[0]} rows")
    return mat_rank(C @ D) == mat_rank(D)


def compute_E(C, D) -> np.ndarray:
    """Canonical decoupling gain ``E = D (C D)^+``.

    Raises :class:`DecouplingInfeasibleError` when the rank condition fails
    (or when, despite a borderline rank test, ``(I - E C) D`` exceeds 1e-9
    relative to ``max(1, |D|_max)``).
    """
    C = as_matrix(C, "C")
    D = as_matrix(D, "D")
    if not decoupling_feasible(C, D):
        raise DecouplingInfeasibleError("rank(CD) != rank(D)")
    E = D @ pinv(C @ D)
    residual = float(np.max(np.abs((np.eye(C.shape[1]) - E @ C) @ D), initial=0.0))
    if residual > _DECOUPLE_TOL * max(1.0, float(np.max(np.abs(D), initial=0.0))):
        raise DecouplingInfeasibleError(
            f"rank(CD) != rank(D) within working precision (residual {residual:.2e})"
        )
    return E


def design_GJ(A, C, E, L, D) -> StructuralDesign:
    """Assemble ``G`` and ``J`` from an output injection ``L``.

    The returned residuals, of the consistency identity and of the
    decoupling ``(I - E C) D = 0``, come from :func:`verify_structure`, not
    from the construction itself.
    """
    A = as_matrix(A, "A")
    C = as_matrix(C, "C")
    E = as_matrix(E, "E")
    L = as_matrix(L, "L")
    n = A.shape[0]
    T = np.eye(n) - E @ C
    G = T @ A - L @ C
    J = T @ A @ E + L @ (np.eye(C.shape[0]) - C @ E)
    res_syl, res_dec = verify_structure(A, C, D, E, G, J)
    return StructuralDesign(E=E, G=G, J=J, L=L,
                            residual_sylvester=res_syl, residual_decoupling=res_dec)


def verify_structure(A, C, D, E, G, J) -> tuple[float, float]:
    """Max-abs residuals of the two structural identities.

    Returns ``(|T A - J C - G T|_max, |T D|_max)`` with ``T = I - E C``.
    """
    A = as_matrix(A, "A")
    C = as_matrix(C, "C")
    D = as_matrix(D, "D")
    E = as_matrix(E, "E")
    G = as_matrix(G, "G")
    J = as_matrix(J, "J")
    T = np.eye(A.shape[0]) - E @ C
    res_syl = float(np.max(np.abs(T @ A - J @ C - G @ T)))
    res_dec = float(np.max(np.abs(T @ D), initial=0.0))
    return res_syl, res_dec


def spectral_abscissa(M) -> float:
    """Largest real part of the eigenvalues of ``M``."""
    return float(np.max(np.linalg.eigvals(as_matrix(M, "M")).real))


def stabilize_L(T, A, C, margin: float, opts: GainSearchOptions | None = None) -> np.ndarray:
    """Find ``L`` with ``spectral_abscissa(T A - L C) <= -margin``.

    ``L = 0`` is returned when ``T A`` already meets the margin.  Otherwise a
    gain exists iff every mode ``lam`` of ``T A`` with ``Re lam > -margin``
    passes the PBH test ``rank [lam I - T A; C] = n``; a mode that fails it
    raises :class:`GainSearchError` naming the mode.  The gain is
    ``L = X C'`` with ``X`` the stabilizing solution of the filter Riccati
    equation for ``T A + margin I``, which places every observable mode left
    of ``-margin``; the result is checked once with
    :func:`spectral_abscissa`.  ``opts`` is accepted and ignored.
    """
    from scipy.linalg import solve_continuous_are

    if not 0 < margin < np.inf:
        raise ValueError("margin must be positive and finite")
    T = as_matrix(T, "T")
    A = as_matrix(A, "A")
    C = as_matrix(C, "C")
    TA = T @ A
    n = A.shape[0]
    modes = np.linalg.eigvals(TA)
    if np.max(modes.real) <= -margin:
        return np.zeros((n, C.shape[0]))

    for lam in modes[modes.real > -margin]:
        s = np.linalg.svd(np.vstack([lam * np.eye(n) - TA, C]), compute_uv=False)
        if s[-1] <= _PBH_RTOL * s[0]:
            mode = f"{lam.real:.6g}" if lam.imag == 0 else f"{lam:.6g}"
            raise GainSearchError(
                f"infeasible: mode {mode} of T A is unobservable (PBH test) and lies "
                f"right of {-margin:g}, so no L reaches spectral abscissa <= {-margin:g}"
            )

    try:
        X = solve_continuous_are((TA + margin * np.eye(n)).T, C.T, np.eye(n),
                                 np.eye(C.shape[0]))
    except np.linalg.LinAlgError as exc:
        raise GainSearchError(f"filter Riccati equation has no solution: {exc}") from None
    L = X @ C.T
    abscissa = spectral_abscissa(TA - L @ C)
    if abscissa > -margin:
        raise GainSearchError(
            f"Riccati gain reached spectral abscissa {abscissa:.6g}, "
            f"not <= {-margin:g}"
        )
    return L
