"""Lyapunov feasibility certificates for the observer error dynamics.

A certificate is a symmetric positive definite ``P`` together with scalar
multipliers that make a block matrix negative definite.  For a
Lipschitz-bounded nonlinearity with constant ``gamma`` and multiplier
``beta > 0`` the block is::

    [ P G + G'P + gamma^2 beta I      P (I - E C) ]
    [ (I - E C)' P                    -beta I     ]

and for a one-sided Lipschitz constant ``rho`` with inner-boundedness
constants ``a``, ``b`` and multipliers ``mu1, mu2 > 0``::

    [ P G + G'P + 2 (mu1 rho + mu2 a) I    (mu2 b - mu1) P (I - E C) ]
    [ (mu2 b - mu1) (I - E C)' P           -2 mu1 I                  ]

The Lipschitz block is jointly homogeneous in ``(P, beta)`` and its Schur
complement is ``P G + G'P + gamma^2 I + P T T'P`` at ``beta = 1``, with
``T = I - E C``.  By the bounded real lemma it is feasible iff ``G`` is
Hurwitz and ``gamma ||(sI - G)^{-1} T||_inf < 1``, and a certificate is the
stabilizing solution of a Riccati equation, so :func:`search_P` decides that
case exactly.  For the one-sided block it still runs a best-effort search.

Alongside the block inequality, the cubic output-injection gain must
satisfy ``P N C + C'N'P < 0``.  The closed form ``N = -alpha P^{-1} C' theta``
turns that matrix into ``-2 alpha C' theta C``, which is only negative
*semi*definite whenever there are fewer outputs than states; the verifier
classifies that case as a semidefinite pass (the cubic term is then
dissipative on the measured subspace and inactive off it) instead of
failing it.

Finally, the error dynamics ``e' = G e - (e'C' theta C e) N C e + mismatch``
must have the origin as their only equilibrium.  A nonzero ``v`` with
``G v + (v'C' theta C v) N C v = 0`` lies on a ray through a real eigenvector
of the pencil ``(G, -N C)`` or through the kernel of ``G``, so one QZ
decomposition decides the question exactly, for any gain: it either returns
a verified equilibrium or proves there is none.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
from scipy.linalg import eig, solve_continuous_are, solve_continuous_lyapunov
# unused here, but benchmark tracing patches cert.minimize to count objective
# evaluations, so the name must stay importable from this module
from scipy.optimize import minimize  # noqa: F401

from .model import Certificate, Lipschitz, LipschitzSpec, OneSidedLipschitz
from .numlin import as_matrix, definiteness_margin, sym_eig_extremes

__all__ = [
    "CertificateError",
    "FeasibilitySearchError",
    "LmiBlock",
    "lipschitz_lmi",
    "osl_lmi",
    "verify_lmi_lipschitz",
    "verify_lmi_osl",
    "cubic_gain",
    "NConditionResult",
    "verify_N_condition",
    "EquilibriumVerdict",
    "EquilibriumSearchOptions",
    "check_equilibrium_uniqueness",
    "CertificateSearchOptions",
    "max_lipschitz_gamma",
    "search_P",
    "GUARANTEED",
    "NO_COUNTEREXAMPLE",
    "COUNTEREXAMPLE",
]


class CertificateError(ValueError):
    """The proposed certificate is structurally invalid (e.g. P not SPD)."""


class FeasibilitySearchError(RuntimeError):
    """No certificate was returned.

    In the Lipschitz case the message says "infeasibility is proven" when
    no certificate exists; in the one-sided case the search exhausted its
    budget and infeasibility is not proven.
    """


@dataclass(frozen=True)
class LmiBlock:
    """An assembled feasibility block and its definiteness margin."""

    block: np.ndarray
    margin: float


def _spd_check(P, what: str = "P") -> np.ndarray:
    P = as_matrix(P, what)
    if P.shape[0] != P.shape[1]:
        raise CertificateError(f"{what} must be square, got {P.shape}")
    asym = float(np.max(np.abs(P - P.T)))
    if asym > 1e-9 * max(1.0, float(np.max(np.abs(P)))):
        raise CertificateError(f"{what} must be symmetric (asymmetry {asym:.2e})")
    lo, _ = sym_eig_extremes(P)
    if lo <= 0:
        raise CertificateError(f"{what} is not positive definite (min eigenvalue {lo:.3e})")
    return 0.5 * (P + P.T)


def lipschitz_lmi(P, beta: float, gamma: float, G, E, C) -> LmiBlock:
    """Assemble the Lipschitz-case block for given data (no SPD gate)."""
    P = as_matrix(P, "P")
    G = as_matrix(G, "G")
    E = as_matrix(E, "E")
    C = as_matrix(C, "C")
    n = G.shape[0]
    T = np.eye(n) - E @ C
    S = P @ G + G.T @ P + (gamma**2) * beta * np.eye(n)
    R = P @ T
    block = np.block([[S, R], [R.T, -beta * np.eye(n)]])
    return LmiBlock(block=block, margin=definiteness_margin(block))


def osl_lmi(P, mu1: float, mu2: float, rho: float, a: float, b: float, G, E, C) -> LmiBlock:
    """Assemble the one-sided-Lipschitz block for given data (no SPD gate)."""
    P = as_matrix(P, "P")
    G = as_matrix(G, "G")
    E = as_matrix(E, "E")
    C = as_matrix(C, "C")
    n = G.shape[0]
    T = np.eye(n) - E @ C
    k = mu2 * b - mu1
    S = P @ G + G.T @ P + 2.0 * (mu1 * rho + mu2 * a) * np.eye(n)
    R = k * (P @ T)
    block = np.block([[S, R], [R.T, -2.0 * mu1 * np.eye(n)]])
    return LmiBlock(block=block, margin=definiteness_margin(block))


def verify_lmi_lipschitz(P, beta: float, gamma: float, G, E, C) -> float:
    """Definiteness margin of the Lipschitz-case block; negative is feasible."""
    if not beta > 0:
        raise ValueError("beta must be positive")
    if not gamma > 0:
        raise ValueError("gamma must be positive")
    P = _spd_check(P)
    return lipschitz_lmi(P, beta, gamma, G, E, C).margin


def verify_lmi_osl(P, mu1: float, mu2: float, rho: float, a: float, b: float,
                   G, E, C) -> float:
    """Definiteness margin of the one-sided-Lipschitz block; negative is feasible."""
    if not mu1 > 0 or not mu2 > 0:
        raise ValueError("mu1 and mu2 must be positive")
    P = _spd_check(P)
    return osl_lmi(P, mu1, mu2, rho, a, b, G, E, C).margin


def cubic_gain(P, C, theta, alpha: float = 1.0) -> np.ndarray:
    """Closed-form cubic gain ``N = -alpha P^{-1} C' theta``."""
    if not alpha > 0:
        raise ValueError("alpha must be positive")
    P = _spd_check(P)
    C = as_matrix(C, "C")
    theta = as_matrix(theta, "theta")
    if float(np.max(np.abs(theta - theta.T), initial=0.0)) > 1e-9:
        raise ValueError("theta must be symmetric")
    if definiteness_margin(-theta) > 1e-9:
        raise ValueError("theta must be positive semidefinite")
    return -alpha * np.linalg.solve(P, C.T @ theta)


@dataclass(frozen=True)
class NConditionResult:
    """Outcome of checking ``P N C + C'N'P`` for negativity.

    ``classification`` is ``"strict"`` (negative definite),
    ``"semidefinite-pass"`` (zero margin but strictly negative on the range
    of ``C'``, the inevitable situation with fewer outputs than states), or
    ``"fail"``.  ``identity_residual`` is filled in when ``theta``/``alpha``
    are supplied: the max-abs difference between the assembled matrix and
    ``-2 alpha C' theta C``.
    """

    matrix: np.ndarray
    margin: float
    classification: str
    identity_residual: float | None = None


def verify_N_condition(P, N, C, theta=None, alpha: float | None = None,
                       tol: float = 1e-10) -> NConditionResult:
    """Check the cubic-gain matrix condition ``P N C + C'N'P < 0``."""
    P = _spd_check(P)
    N = as_matrix(N, "N")
    C = as_matrix(C, "C")
    M = P @ N @ C
    M = M + M.T
    margin = definiteness_margin(M)
    scale = max(1.0, float(np.max(np.abs(M), initial=0.0)))
    if margin < -tol * scale:
        classification = "strict"
    elif margin <= tol * scale and _negative_on_output_range(M, C, tol):
        classification = "semidefinite-pass"
        warnings.warn(
            "cubic-gain condition holds only semidefinitely "
            "(rank limited by the output dimension)",
            RuntimeWarning,
            stacklevel=2,
        )
    else:
        classification = "fail"
    identity_residual = None
    if theta is not None and alpha is not None:
        theta = as_matrix(theta, "theta")
        identity_residual = float(np.max(np.abs(M + 2.0 * alpha * (C.T @ theta @ C))))
    return NConditionResult(matrix=M, margin=margin,
                            classification=classification,
                            identity_residual=identity_residual)


def _negative_on_output_range(M: np.ndarray, C: np.ndarray, tol: float) -> bool:
    """Is ``M`` strictly negative definite restricted to range(C')?"""
    _, s, Vt = np.linalg.svd(C)
    if s.size == 0 or s[0] == 0.0:
        return False
    rank = int(np.count_nonzero(s > 1e-10 * s[0]))
    Q = Vt[:rank].T  # orthonormal basis of range(C')
    restricted = Q.T @ M @ Q
    scale = max(1.0, float(np.max(np.abs(M), initial=0.0)))
    return definiteness_margin(restricted) < -tol * scale


# --- equilibrium uniqueness ----------------------------------------------

GUARANTEED = "guaranteed"
NO_COUNTEREXAMPLE = "no-counterexample"
COUNTEREXAMPLE = "counterexample"


@dataclass(frozen=True)
class EquilibriumVerdict:
    """Proven verdict on whether the unforced error dynamics rest off the origin.

    ``status`` is one of :data:`GUARANTEED` (no nonzero equilibrium exists,
    and the gain has the certified closed form for the supplied ``P``),
    :data:`NO_COUNTEREXAMPLE` (no nonzero equilibrium exists), or
    :data:`COUNTEREXAMPLE` (``v`` is a nonzero equilibrium with normalized
    residual ``residual <= tol``).
    """

    status: str
    v: np.ndarray | None = None
    residual: float | None = None
    note: str = ""


@dataclass(frozen=True)
class EquilibriumSearchOptions:
    # seed, directions and refine_iters are accepted for compatibility and
    # ignored: the decision is deterministic and exhaustive.
    seed: int = 0
    directions: int = 48
    refine_iters: int = 60
    tol: float = 1e-8
    # When the gain is claimed to come from cubic_gain, pass the P and alpha
    # that produced it; a proven-unique verdict is then reported as
    # GUARANTEED if the claim holds.
    P: np.ndarray | None = None
    alpha: float | None = None


# Relative size below which a singular value, a homogeneous eigenvalue
# coordinate or s'Ks counts as zero.  QZ and SVD rounding stays under ~200 eps
# for these sizes, while the badly scaled pencils of rotated coordinates keep
# genuine values above ~1e-10 (a tolerance like 1e-8 misses real equilibria).
_ZERO_RTOL = 1e-12


def _kernel(M: np.ndarray) -> np.ndarray:
    """Right singular vectors of ``M`` with singular value ``<= _ZERO_RTOL``
    times the largest, as columns; always at least the least singular one."""
    _, s, Vt = np.linalg.svd(M)
    k = max(1, M.shape[1] - int(np.count_nonzero(s > _ZERO_RTOL * s[0])))
    return Vt[-k:].T


def _equilibrium_candidates(G, K, NC):
    """Yield ``(v, origin)`` for every candidate nonzero equilibrium, unverified.

    ``v = r s`` solves ``G v + (v'Kv) NC v = 0`` iff ``G s = -lam NC s`` with
    ``lam = r^2 s'Ks``.  For ``lam = 0``, ``s`` is in the kernel of ``G`` with
    ``s'Ks = 0`` or ``NC s = 0``.  Otherwise ``lam`` is a real finite
    eigenvalue of the pencil ``(G, -NC)`` and ``lam s'Ks > 0`` for some ``s``
    in its eigenspace.  A singular pencil has a polynomial kernel vector
    ``s(lam)``; when ``K >= 0`` and ``s(0)'K s(0) > 0``, ``s(lam)'K s(lam)``
    has at most ``2n`` roots, so one of ``2n + 1`` positive samples of ``lam``
    yields an equilibrium (negative samples serve an indefinite ``theta``).
    """
    n = G.shape[0]
    tiny = _ZERO_RTOL * (np.linalg.norm(G) + np.linalg.norm(NC))
    k_tiny = _ZERO_RTOL * np.linalg.norm(K)

    W = _kernel(G)
    mus, U = np.linalg.eigh(W.T @ K @ W)
    yield W @ U[:, np.argmin(np.abs(mus))], "kernel of G, v'Kv = 0"
    if mus[0] < 0.0 < mus[-1]:
        u = np.sqrt(mus[-1]) * U[:, 0] + np.sqrt(-mus[0]) * U[:, -1]
        yield W @ u, "kernel of G, v'Kv = 0"
    yield W @ _kernel(NC @ W)[:, -1], "kernel of G and of N C"

    (alpha, beta), _ = eig(G, -NC, homogeneous_eigvals=True)
    # |beta| <= tiny is an infinite eigenvalue (NC has rank <= n_y < n), which
    # QZ otherwise returns as a spurious finite value of size ~1/eps;
    # |alpha| <= tiny is the kernel of G, examined above.  A real double
    # eigenvalue can come back as a close complex pair, so the real part of
    # every finite eigenvalue is tried; verification rejects the rest.
    finite = (np.abs(beta) > tiny) & (np.abs(alpha) > tiny)
    lams = list(np.unique((alpha[finite] / beta[finite]).real))
    if NC.any() and np.any((np.abs(alpha) <= tiny) & (np.abs(beta) <= tiny)):
        span = np.linalg.norm(G) / np.linalg.norm(NC)
        lams += [sign * k * span for k in range(1, 2 * n + 2) for sign in (1.0, -1.0)]
    for lam in lams:
        V = _kernel(G + lam * NC)
        mus, U = np.linalg.eigh(V.T @ K @ V)
        for mu, u in zip(mus, U.T):
            if lam * mu > 0.0 and abs(mu) > k_tiny:
                yield np.sqrt(lam / mu) * (V @ u), f"pencil eigenvalue {lam:.6g}"


def check_equilibrium_uniqueness(G, N, C, theta,
                                 opts: EquilibriumSearchOptions | None = None
                                 ) -> EquilibriumVerdict:
    """Decide uniqueness of the zero equilibrium of ``e' = G e - (e'Ke) N C e``.

    With ``K = C' theta C``, every nonzero equilibrium lies on a ray through
    a real eigenvector of the pencil ``(G, -N C)`` (solved by QZ), through the
    kernel of ``G``, or in the kernel of a singular pencil.  All of them are
    examined, so the verdict is exhaustive up to rounding; only
    ``opts.tol`` and the ``P``/``alpha`` hint are read from ``opts``.  Any
    returned counterexample satisfies
    ``|G v + (v'C' theta C v) N C v| <= tol * |v|``.
    """
    if opts is None:
        opts = EquilibriumSearchOptions()
    G = as_matrix(G, "G")
    N = as_matrix(N, "N")
    C = as_matrix(C, "C")
    theta = as_matrix(theta, "theta")
    if G.shape[1] != G.shape[0]:
        raise ValueError("G must be square")
    K = C.T @ theta @ C
    K = 0.5 * (K + K.T)
    NC = N @ C

    for v, note in _equilibrium_candidates(G, K, NC):
        nv = float(np.linalg.norm(v))
        full = float(np.linalg.norm(G @ v + float(v @ K @ v) * (NC @ v)))
        if nv > 0.0 and full <= opts.tol * nv:
            return EquilibriumVerdict(COUNTEREXAMPLE, v=v, residual=full / nv, note=note)

    if opts.P is not None and opts.alpha is not None:
        try:
            expected = cubic_gain(opts.P, C, theta, opts.alpha)
        except (ValueError, CertificateError):
            expected = None
        if expected is not None:
            scale = 1.0 + float(np.max(np.abs(expected)))
            if float(np.max(np.abs(N - expected))) <= 1e-8 * scale:
                return EquilibriumVerdict(
                    GUARANTEED,
                    note="gain matches -alpha P^{-1} C' theta for the given SPD P; "
                         "exhaustive pencil check found no nonzero equilibrium",
                )
    return EquilibriumVerdict(
        NO_COUNTEREXAMPLE,
        note="exhaustive pencil check found no nonzero equilibrium",
    )


# --- feasibility search ---------------------------------------------------

@dataclass(frozen=True)
class CertificateSearchOptions:
    # The Lipschitz case reads only tol; beta_grid is accepted for
    # compatibility and ignored.  The rest drives the one-sided search.
    seed: int = 0
    tol: float = 1e-6
    restarts: int = 8
    max_iters: int = 120
    p_floor: float = 1e-6
    beta_grid: tuple[float, ...] | None = None
    mu_grid: tuple[float, ...] | None = None
    step0: float = 0.5


def _hinf_below(G: np.ndarray, TT: np.ndarray, g: float) -> bool:
    """For Hurwitz ``G``: is ``||(sI - G)^{-1} T||_inf < g``?

    True iff the Hamiltonian ``[[G, T T'/g^2], [-I, -G']]`` has no
    eigenvalue on the imaginary axis.
    """
    n = G.shape[0]
    ev = np.linalg.eigvals(np.block([[G, TT / g**2], [-np.eye(n), -G.T]]))
    return not np.any(np.abs(ev.real) <= 1e-9 * (1.0 + np.abs(ev)))


def max_lipschitz_gamma(G, E, C) -> float:
    """Supremum ``gamma*`` of the Lipschitz constants a certificate can cover.

    ``gamma* = 1 / ||(sI - G)^{-1} (I - E C)||_inf``, with the norm found by
    bisection on the Hamiltonian imaginary-axis test to 1e-10 relative and
    rounded up, so every ``gamma < gamma*`` is certifiable.  Returns ``0.0``
    when ``G`` is not Hurwitz and ``inf`` when ``I - E C`` vanishes.
    """
    G = as_matrix(G, "G")
    E = as_matrix(E, "E")
    C = as_matrix(C, "C")
    if np.max(np.linalg.eigvals(G).real) >= 0.0:
        return 0.0
    T = np.eye(G.shape[0]) - E @ C
    TT = T @ T.T
    if not TT.any():
        return np.inf
    # the norm is at least the gain at s = 0
    lo = float(np.linalg.norm(np.linalg.solve(-G, T), 2))
    hi = 2.0 * lo + 1e-12
    while not _hinf_below(G, TT, hi):
        lo, hi = hi, 2.0 * hi
    while hi - lo > 1e-10 * hi:
        mid = 0.5 * (lo + hi)
        if _hinf_below(G, TT, mid):
            hi = mid
        else:
            lo = mid
    return 1.0 / hi


def _project_spd(P: np.ndarray, floor: float) -> np.ndarray:
    P = 0.5 * (P + P.T)
    vals, vecs = np.linalg.eigh(P)
    vals = np.maximum(vals, floor)
    return (vecs * vals) @ vecs.T


def search_P(mode: LipschitzSpec, G, E, C,
             opts: CertificateSearchOptions | None = None) -> Certificate:
    """Find a feasibility certificate.

    Lipschitz case: decided exactly.  When ``G`` is not Hurwitz or ``gamma``
    fails the imaginary-axis test, :class:`FeasibilitySearchError` says that
    infeasibility is proven and gives ``gamma*`` (see
    :func:`max_lipschitz_gamma`).  Otherwise ``P`` is the stabilizing
    solution of ``P G + G'P + P T T'P + gamma_s^2 I = 0`` with
    ``gamma_s^2 = (gamma^2 + gamma*^2) / 2``, so the Schur complement of
    the block at ``beta = 1`` is ``-(gamma*^2 - gamma^2)/2 I``; ``(P, beta)``
    is then scaled up jointly until the margin passes ``opts.tol``.

    One-sided case: best-effort projected subgradient descent on the
    block's largest eigenvalue over symmetric ``P >= p_floor * I``, with
    ``(mu1, mu2)`` swept over a grid each iteration.  Restarts come from
    scaled identities, from the Lyapunov solution of ``P G + G'P = -I`` when
    ``G`` is Hurwitz, and from seeded random SPD matrices.  Failure raises
    :class:`FeasibilitySearchError` without proving infeasibility.

    The returned certificate's ``lmi_margin`` is recomputed through the
    public verifier.
    """
    if opts is None:
        opts = CertificateSearchOptions()
    G = as_matrix(G, "G")
    E = as_matrix(E, "E")
    C = as_matrix(C, "C")
    if isinstance(mode, Lipschitz):
        return _lipschitz_certificate(mode.gamma, G, E, C, opts.tol)
    if isinstance(mode, OneSidedLipschitz):
        return _search_osl(mode, G, E, C, opts)
    raise TypeError(f"unsupported bound specification: {mode!r}")


def _lipschitz_certificate(gamma: float, G, E, C, tol: float) -> Certificate:
    n = G.shape[0]
    T = np.eye(n) - E @ C
    gamma_max = max_lipschitz_gamma(G, E, C)
    if gamma_max == 0.0:
        raise FeasibilitySearchError(
            "G is not Hurwitz, so no certificate exists for any gamma "
            "(gamma_max = 0); infeasibility is proven"
        )
    if not _hinf_below(G, T @ T.T, 1.0 / gamma):
        raise FeasibilitySearchError(
            f"gamma = {gamma:.6g} is not below gamma_max = {gamma_max:.6g} "
            "= 1/||(sI - G)^-1 (I - EC)||_inf; infeasibility is proven"
        )
    # gamma_s^2 = gamma^2 + slack, midway to gamma_max^2 when that is finite
    slack = 0.5 * (gamma_max**2 - gamma**2) if np.isfinite(gamma_max) else gamma**2
    margin = np.inf
    if slack > 0.0:
        try:
            P = solve_continuous_are(G, T, (gamma**2 + slack) * np.eye(n), -np.eye(n))
            P = 0.5 * (P + P.T)
            # the block is jointly homogeneous in (P, beta): scale a strictly
            # feasible pair up until its margin passes tol
            margin = lipschitz_lmi(P, 1.0, gamma, G, E, C).margin
            beta = min(2.0 * tol / -margin, 1e12) if -tol <= margin < 0.0 else 1.0
            P = beta * P
            margin = verify_lmi_lipschitz(P, beta, gamma, G, E, C)
        except (np.linalg.LinAlgError, CertificateError):
            margin = np.inf
    if margin < -tol:
        return Certificate(P=P, beta=beta, lmi_margin=margin)
    raise FeasibilitySearchError(
        f"gamma = {gamma:.6g} is certifiable but within rounding of gamma_max = "
        f"{gamma_max:.6g}: no certificate reaches margin {-tol:g} at working precision"
    )


def _search_osl(mode: OneSidedLipschitz, G, E, C,
                opts: CertificateSearchOptions) -> Certificate:
    n = G.shape[0]
    T = np.eye(n) - E @ C
    rho, a, b = mode.rho, mode.a, mode.b
    grid = opts.mu_grid or tuple(float(m) for m in np.logspace(-2, 3, 6))
    multipliers = [(m1, m2) for m1 in grid for m2 in grid]

    starts: list[np.ndarray] = [np.eye(n), 100.0 * np.eye(n), 0.01 * np.eye(n)]
    try:
        P_lyap = solve_continuous_lyapunov(G.T, -np.eye(n))
        P_lyap = _project_spd(P_lyap, opts.p_floor)
        starts.append(P_lyap)
        starts.append(100.0 * P_lyap)
    except Exception:
        pass
    rng = np.random.default_rng(opts.seed)
    while len(starts) < opts.restarts:
        Q = rng.standard_normal((n, n))
        starts.append(_project_spd(Q @ Q.T + 0.1 * np.eye(n), opts.p_floor))

    best_margin = np.inf
    for P0 in starts[: max(opts.restarts, 5)]:
        P = P0.copy()
        for it in range(opts.max_iters):
            lb, (mu1, mu2) = min(
                ((osl_lmi(P, m1, m2, rho, a, b, G, E, C), (m1, m2)) for m1, m2 in multipliers),
                key=lambda t: t[0].margin,
            )
            best_margin = min(best_margin, lb.margin)
            if lb.margin < -opts.tol:
                margin = verify_lmi_osl(P, mu1, mu2, rho, a, b, G, E, C)
                return Certificate(P=P, mu1=mu1, mu2=mu2, lmi_margin=margin)
            # subgradient of the largest block eigenvalue with respect to P
            sym = 0.5 * (lb.block + lb.block.T)
            _, vecs = np.linalg.eigh(sym)
            u = vecs[:, -1]
            u1, u2 = u[:n], u[n:]
            g = G @ u1 + (mu2 * b - mu1) * (T @ u2)
            grad = np.outer(g, u1)
            grad = grad + grad.T
            gnorm = float(np.linalg.norm(grad))
            if gnorm < 1e-14:
                break
            step = opts.step0 * max(float(np.linalg.norm(P)), 1.0) / (
                gnorm * np.sqrt(it + 1.0)
            )
            P = _project_spd(P - step * grad, opts.p_floor)

    raise FeasibilitySearchError(
        f"no certificate found (best margin {best_margin:.3e}); "
        "infeasibility is not proven"
    )
