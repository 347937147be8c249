"""Lyapunov feasibility certificates for the observer error dynamics.

A certificate is a symmetric positive definite ``P`` together with scalar
multipliers that make a block matrix negative definite; with ``T = I - E C``
the error dynamics are ``e' = G e + T df``.  For a Lipschitz-bounded
nonlinearity (``|df| <= gamma |e|``) with multiplier ``beta > 0`` the block
is::

    [ P G + G'P + gamma^2 beta I      P T     ]
    [ T'P                             -beta I ]

and for a one-sided Lipschitz constant ``rho`` (``<df, e> <= rho |e|^2``)
with quadratic inner-boundedness constants ``a``, ``b``
(``|df|^2 <= a |e|^2 + b <e, df>``) the S-procedure with multipliers
``mu1, mu2 > 0`` gives::

    [ P G + G'P + (mu1 rho + mu2 a) I    P T + (mu2 b - mu1)/2 I ]
    [ T'P + (mu2 b - mu1)/2 I            -mu2 I                  ]

Both blocks are jointly homogeneous in ``P`` and the multipliers.  At
``beta = 1`` (``mu2 = 1``) the Schur complement is
``P Gh + Gh'P + P T T'P + q I`` with ``Gh = G``, ``q = gamma^2``
(``Gh = G + (b - mu1)/2 T``, ``q = mu1 rho + a + (b - mu1)^2 / 4``).  By the
bounded real lemma some ``P > 0`` makes it negative definite iff ``q < 0``,
or ``Gh`` is Hurwitz and ``q ||(sI - Gh)^{-1} T||_inf^2 < 1``.  That norm
comes from a level-set iteration, not a bisection: usually one to five
Hamiltonian eigensolves fix it to 2e-10 relative.

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
of the pencil ``(G, -N C)`` or through the kernel of ``G``, so its real
eigenvalues (QZ, no eigenvectors) and the kernels of ``G + lam N C`` there
(one stacked SVD) return a verified equilibrium or prove there is none, for
any gain.  The verdict does not ask where ``N`` came from; whether it has the
closed form is what ``verify_N_condition(...).identity_residual`` measures.

scipy loads on first use, in the eigenvalue-only QZ solve, the multiplier scan
and the LAPACK kernels of ``numlin`` (eigenvalues, SVDs and the Riccati
kernel ``numlin._care``): importing this module and checking an LMI block
needs numpy only.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import Certificate, Lipschitz, LipschitzSpec, OneSidedLipschitz
from .numlin import (_RANK_TOL, _care, _eigvals, _finite, _frobenius_norm, _hamiltonian,
                     _Overflow, _svd, _symmetric_part, as_matrix, definiteness_margin, psd_violation)

__all__ = [
    "CertificateError",
    "FeasibilitySearchError",
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
    "NO_COUNTEREXAMPLE",
    "COUNTEREXAMPLE",
]


def __getattr__(name):
    # benchmark tracing patches cert.minimize by name, so that name resolves,
    # importing scipy.optimize on demand; ROADMAP item 1a deletes it and the patch
    if name == "minimize":
        from scipy.optimize import minimize

        return minimize
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


class CertificateError(ValueError):
    """The proposed certificate is structurally invalid (e.g. P not SPD)."""


class FeasibilitySearchError(RuntimeError):
    """No certificate was returned.

    In the Lipschitz case the message says "infeasibility is proven" when
    no certificate exists, and claims no proof for a ``gamma`` within
    rounding of ``gamma_max``; in the one-sided case no multiplier on the
    searched range made the slack positive, the message gives the best
    slack, and infeasibility is not proven.
    """


def _spd_check(P) -> np.ndarray:
    P = as_matrix(P, "P")
    if P.shape[0] != P.shape[1]:
        raise CertificateError(f"P must be square, got {P.shape}")
    asym = 2.0 * float(np.max(np.abs(0.5 * P - 0.5 * P.T)))  # halves first, as below
    if asym > 1e-9 * max(1.0, float(np.max(np.abs(P)))):
        raise CertificateError(f"P must be symmetric (asymmetry {asym:.2e})")
    lo = -definiteness_margin(-P)
    if lo <= 0:
        raise CertificateError(f"P is not positive definite (min eigenvalue {lo:.3e})")
    return _symmetric_part(P)


def lipschitz_lmi(P, beta: float, gamma: float, G, E, C) -> np.ndarray:
    """Assemble the Lipschitz-case block for given data (no SPD gate).

    It is the one-sided block at ``(mu1, mu2, rho, a, b) = (0, beta, 0,
    gamma^2, 0)``: ``|df|^2 <= gamma^2 |e|^2`` with multiplier ``beta``.
    """
    return osl_lmi(P, 0.0, beta, 0.0, gamma**2, 0.0, G, E, C)


def osl_lmi(P, mu1: float, mu2: float, rho: float, a: float, b: float, G, E, C) -> np.ndarray:
    """Assemble the one-sided-Lipschitz block for given data (no SPD gate);
    ``LinAlgError`` when a block overflows."""
    P = as_matrix(P, "P")
    G = as_matrix(G, "G")
    E = as_matrix(E, "E")
    C = as_matrix(C, "C")
    n = G.shape[0]
    M = np.empty((2 * n, 2 * n))
    with np.errstate(over="ignore", invalid="ignore"):  # one check of M names a failing block
        M[:n, :n] = P @ G + G.T @ P + (mu1 * rho + mu2 * a) * np.eye(n)
        M[:n, n:] = P @ (np.eye(n) - E @ C) + 0.5 * (mu2 * b - mu1) * np.eye(n)
    M[n:, :n], M[n:, n:] = M[:n, n:].T, -mu2 * np.eye(n)
    if not np.isfinite(M).all():
        _finite("P G + G'P + (mu1 rho + mu2 a) I", lambda: M[:n, :n])
        _finite("P (I - E C) + (mu2 b - mu1)/2 I", lambda: M[:n, n:])
    return M


def verify_lmi_lipschitz(P, beta: float, gamma: float, G, E, C) -> float:
    """Definiteness margin of the Lipschitz-case block; negative is feasible."""
    if not beta > 0:
        raise ValueError("beta must be positive")
    if not gamma > 0:
        raise ValueError("gamma must be positive")
    P = _spd_check(P)
    return definiteness_margin(lipschitz_lmi(P, beta, gamma, G, E, C))


def verify_lmi_osl(P, mu1: float, mu2: float, rho: float, a: float, b: float,
                   G, E, C) -> float:
    """Definiteness margin of the one-sided-Lipschitz block; negative is feasible."""
    if not mu1 > 0 or not mu2 > 0:
        raise ValueError("mu1 and mu2 must be positive")
    P = _spd_check(P)
    return definiteness_margin(osl_lmi(P, mu1, mu2, rho, a, b, G, E, C))


def cubic_gain(P, C, theta, alpha: float = 1.0) -> np.ndarray:
    """Closed-form cubic gain ``N = -alpha P^{-1} C' theta``."""
    if not 0 < alpha < np.inf:
        raise ValueError("alpha must be positive and finite")
    P = _spd_check(P)
    C = as_matrix(C, "C")
    theta = as_matrix(theta, "theta")
    if (message := psd_violation(theta, "theta")) is not None:
        raise ValueError(message)
    return _finite("N = -alpha P^-1 C' theta", lambda: -alpha * np.linalg.solve(P, C.T @ theta))


@dataclass(frozen=True)
class NConditionResult:
    """Outcome of checking ``P N C + C'N'P`` for negativity.

    ``classification`` is ``"strict"`` (negative definite),
    ``"semidefinite-pass"`` (zero margin but strictly negative on the range
    of ``C'``, the inevitable situation with fewer outputs than states), or
    ``"fail"``.  ``identity_residual`` is the max-abs difference between the
    assembled matrix and ``-2 alpha C' theta C``, which vanishes when ``N``
    is the closed-form gain for ``P``, ``theta`` and ``alpha``.
    """

    matrix: np.ndarray
    margin: float
    classification: str
    identity_residual: float


# Margins within this fraction of the matrix scale count as zero when the
# cubic-gain matrix is classified, as singular values of C do in its rank.
_N_TOL = _RANK_TOL


def verify_N_condition(P, N, C, theta, alpha: float) -> NConditionResult:
    """Check ``P N C + C'N'P < 0`` for a gain ``N`` meant for ``theta``, ``alpha``."""
    P = _spd_check(P)
    N = as_matrix(N, "N")
    C = as_matrix(C, "C")
    M = _finite("P N C + C'N'P", lambda: (PNC := P @ N @ C) + PNC.T)
    margin = definiteness_margin(M)
    scale = max(1.0, float(np.max(np.abs(M), initial=0.0)))
    if margin < -_N_TOL * scale:
        classification = "strict"
    elif margin <= _N_TOL * scale and _negative_on_output_range(M, C):
        classification = "semidefinite-pass"
    else:
        classification = "fail"
    theta = as_matrix(theta, "theta")
    with np.errstate(over="ignore", invalid="ignore"):  # inf or nan when C' theta C overflows
        identity_residual = float(np.max(np.abs(M + 2.0 * alpha * (C.T @ theta @ C))))
    return NConditionResult(matrix=M, margin=margin,
                            classification=classification,
                            identity_residual=identity_residual)


def _negative_on_output_range(M: np.ndarray, C: np.ndarray) -> bool:
    """Is ``M`` strictly negative definite restricted to range(C')?"""
    _, s, Vt = _svd(C)
    if s.size == 0 or s[0] == 0.0:
        return False
    rank = int(np.count_nonzero(s > _RANK_TOL * s[0]))
    Q = Vt[:rank].T  # orthonormal basis of range(C')
    restricted = Q.T @ M @ Q
    scale = max(1.0, float(np.max(np.abs(M), initial=0.0)))
    return definiteness_margin(restricted) < -_N_TOL * scale


# --- equilibrium uniqueness ----------------------------------------------

NO_COUNTEREXAMPLE = "no-counterexample"
COUNTEREXAMPLE = "counterexample"


@dataclass(frozen=True)
class EquilibriumVerdict:
    """Proven verdict on whether the unforced error dynamics rest off the origin.

    ``status`` is :data:`NO_COUNTEREXAMPLE` (no nonzero equilibrium exists)
    or :data:`COUNTEREXAMPLE` (``v`` is a nonzero equilibrium with normalized
    residual ``residual <= 1e-8``).
    """

    status: str
    v: np.ndarray | None = None
    residual: float | None = None
    note: str = ""


@dataclass(frozen=True)
class EquilibriumSearchOptions:
    # seed is accepted for compatibility and ignored: the decision is
    # deterministic and exhaustive.
    seed: int = 0


# A candidate counts as an equilibrium when |G v + (v'Kv) N C v| <= this |v|.
_EQUILIBRIUM_TOL = 1e-8

# Relative size below which a singular value, a homogeneous eigenvalue
# coordinate or s'Ks counts as zero.  QZ and SVD rounding stays under ~200 eps
# for these sizes, while the badly scaled pencils of rotated coordinates keep
# genuine values a hundredfold above it (a tolerance like 1e-8 misses real ones).
_ZERO_RTOL = 1e-12


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
    QZ (``dggev``) gives eigenvalues only; the kernels come from one stacked SVD.
    """
    from scipy.linalg import lapack

    n = G.shape[0]
    g_tiny, nc_tiny, k_tiny = (_frobenius_norm(M, _ZERO_RTOL) for M in (G, NC, K))
    alphar, alphai, beta, _, _, _, info = lapack.dggev(G, -NC, compute_vl=0, compute_vr=0)
    if info != 0:
        raise np.linalg.LinAlgError(f"QZ iteration failed (dggev info = {info})")
    alpha = np.hypot(alphar, alphai)
    # alpha scales with G and beta with NC.  |beta| <= nc_tiny is an infinite
    # eigenvalue (NC has rank <= n_y < n), which QZ otherwise returns as a spurious
    # finite value of size ~1/eps; |alpha| <= g_tiny is the kernel of G, examined
    # first.  A real double eigenvalue can come back as a close complex pair, so
    # the real part of every finite eigenvalue is tried; verification rejects the rest.
    finite = (np.abs(beta) > nc_tiny) & (alpha > g_tiny)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):  # dropped or refused below
        lams = [0.0, *np.unique(alphar[finite] / beta[finite])]
        if NC.any() and np.any((alpha <= g_tiny) & (np.abs(beta) <= nc_tiny)):
            span = np.divide(g_tiny, nc_tiny)  # inf, not ZeroDivisionError, for NC ~ 0
            lams += [sign * k * span for k in range(1, 2 * n + 2) for sign in (1.0, -1.0)]
        pencils = G + np.array(lams)[:, None, None] * NC
    if not np.isfinite(pencils).all():
        # an equilibrium needs lam mu > 0 with |mu| > k_tiny, and every mu lies
        # within K's eigenvalue range: where K >= -k_tiny (<= k_tiny) a negative
        # (positive) lam gives none, so drop those before refusing what is left
        psd, nsd = definiteness_margin(-K) <= k_tiny, definiteness_margin(K) <= k_tiny
        lams = [lam for lam in lams if not (psd and lam < 0.0 or nsd and lam > 0.0)]
        pencils = _finite("G + lam N C", lambda: G + np.array(lams)[:, None, None] * NC)
    # kernel of each G + lam NC: singular values <= _ZERO_RTOL of the largest, >= 1
    _, s, Vt = np.linalg.svd(pencils)
    ranks = np.count_nonzero(s > _ZERO_RTOL * s[:, :1], axis=1)
    W, *kernels = [vt[min(r, n - 1):].T for vt, r in zip(Vt, ranks)]
    mus, U = np.linalg.eigh(W.T @ K @ W)
    yield W @ U[:, np.argmin(np.abs(mus))], "kernel of G, v'Kv = 0"
    if mus[0] < 0.0 < mus[-1]:
        u = np.sqrt(mus[-1]) * U[:, 0] + np.sqrt(-mus[0]) * U[:, -1]
        yield W @ u, "kernel of G, v'Kv = 0"
    yield W @ _svd(NC @ W)[2][-1], "kernel of G and of N C"
    for lam, V in zip(lams[1:], kernels):
        M = V.T @ K @ V
        mus, U = (M[0], np.ones((1, 1))) if len(M) == 1 else np.linalg.eigh(M)
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
    examined, so :data:`NO_COUNTEREXAMPLE` is a proof, up to rounding, that
    the origin is the only equilibrium.  A returned :data:`COUNTEREXAMPLE`
    satisfies ``|G v + (v'C' theta C v) N C v| <= 1e-8 |v|``.
    ``LinAlgError`` when ``C' theta C`` or ``N C`` overflows.  ``opts`` is
    accepted and ignored.
    """
    G = as_matrix(G, "G")
    N = as_matrix(N, "N")
    C = as_matrix(C, "C")
    theta = as_matrix(theta, "theta")
    if G.shape[1] != G.shape[0]:
        raise ValueError("G must be square")
    K = _finite("C' theta C", lambda: _symmetric_part(C.T @ theta @ C))
    NC = _finite("N C", lambda: N @ C)

    # a residual too large to square is inf, which fails the bound, unwarned
    with np.errstate(over="ignore"):
        for v, note in _equilibrium_candidates(G, K, NC):
            nv = float(np.linalg.norm(v))
            full = float(np.linalg.norm(G @ v + float(v @ K @ v) * (NC @ v)))
            if nv > 0.0 and full <= _EQUILIBRIUM_TOL * nv:
                return EquilibriumVerdict(COUNTEREXAMPLE, v=v, residual=full / nv, note=note)
    return EquilibriumVerdict(
        NO_COUNTEREXAMPLE,
        note="exhaustive pencil check found no nonzero equilibrium",
    )


# --- feasibility search ---------------------------------------------------

@dataclass(frozen=True)
class CertificateSearchOptions:
    # seed is accepted for compatibility and ignored: both cases are
    # deterministic.
    seed: int = 0


# A found certificate's block margin is below -_CERTIFICATE_TOL.
_CERTIFICATE_TOL = 1e-6


def _hamiltonian_eigvals(G: np.ndarray, TT: np.ndarray, g: float) -> np.ndarray:
    """Eigenvalues of the Hamiltonian ``[[G, T T'/g^2], [-I, -G']]``; ``j w``
    is one iff ``g`` is a singular value of ``(j w I - G)^{-1} T``."""
    S = _finite("(I - E C)(I - E C)'/g^2", lambda: TT / -(g * g))
    return _eigvals(_hamiltonian(G, S, np.eye(G.shape[0])))


def _on_axis(ev: np.ndarray, tol: float) -> np.ndarray:
    return np.abs(ev.real) <= tol * (1.0 + np.abs(ev))


def _gains(G: np.ndarray, T: np.ndarray, w: np.ndarray) -> np.ndarray:
    """``sigma_max((j w I - G)^{-1} T)`` at each frequency of ``w``."""
    n = G.shape[0]
    R = np.linalg.solve(1j * w[:, None, None] * np.eye(n) - G,
                        np.broadcast_to(T, (w.size, n, n)))
    return np.linalg.svd(R, compute_uv=False)[:, 0]


def _gamma_star(G: np.ndarray, T: np.ndarray) -> tuple[float, float, float]:
    """``(gamma*, g, w)``: ``gamma* = 1 / ||(sI - G)^{-1} T||_inf`` rounded
    down, and the witness ``g = sigma_max((j w I - G)^{-1} T)``, a lower bound
    on the norm.  ``1 / gamma*`` exceeds ``g`` by 2e-10 relative, or by more
    where rounding keeps a Hamiltonian eigenvalue on the axis above the peak.

    The level-set iteration of Boyd, Balakrishnan & Kabamba (1989) and
    Bruinsma & Steinbuch (1990): at ``hi = g (1 + 2e-10)`` the Hamiltonian's
    imaginary-axis eigenvalues are the frequencies where the gain crosses
    ``hi``, and ``g`` moves to the largest gain at the midpoints between
    them, converging quadratically.  It ends when the Hamiltonian at ``hi``
    has no eigenvalue within 1e-9 of the imaginary axis, which for Hurwitz
    ``G`` means ``||(sI - G)^{-1} T||_inf < hi``; ``gamma* = 0`` if no finite
    ``hi`` passes.  ``(0, inf, nan)`` unless ``G`` is Hurwitz; ``(inf, 0,
    0)`` when ``T`` vanishes.
    """
    poles = _eigvals(G)
    if np.max(poles.real) >= 0.0:
        return 0.0, np.inf, np.nan
    TT = _finite("(I - E C)(I - E C)'", lambda: T @ T.T)
    if not TT.any():
        return np.inf, 0.0, 0.0
    # start from the gain at s = 0 and at the pole frequency the peak is
    # most likely near: the least damped pole, else the slowest one
    resonance = np.abs(poles.imag / poles.real) / np.abs(poles)
    k = int(np.argmax(resonance)) if resonance.any() else int(np.argmin(np.abs(poles)))
    w = np.array([0.0, abs(poles[k])])
    gains = _gains(G, T, w)
    k = int(np.argmax(gains))
    g, w_peak = float(gains[k]), float(w[k])
    hi = g * (1.0 + 2e-10)
    while np.isfinite(hi):
        ev = _hamiltonian_eigvals(G, TT, hi)
        # rounding moves the crossings of a far-from-normal G off the axis by
        # more than the 1e-9 of the final test, so look for them 1e-6 from it
        w = np.unique(np.abs(ev.imag[_on_axis(ev, 1e-6)]))
        if w.size > 1:
            w = 0.5 * (w[1:] + w[:-1])
            gains = _gains(G, T, w)
            k = int(np.argmax(gains))
            if gains[k] > hi:
                g, w_peak = float(gains[k]), float(w[k])
                hi = g * (1.0 + 2e-10)
                continue
        if not _on_axis(ev, 1e-9).any():
            return 1.0 / hi, g, w_peak
        # no gain above hi, yet an eigenvalue within rounding of the axis:
        # double the distance to g until the Hamiltonian test resolves it
        hi = g + 2.0 * (hi - g)
    return 0.0, g, w_peak


def max_lipschitz_gamma(G, E, C) -> float:
    """Supremum ``gamma*`` of the Lipschitz constants a certificate can cover.

    ``gamma* = 1 / ||(sI - G)^{-1} (I - E C)||_inf``, from the level-set
    iteration of the H-infinity norm, rounded down so every
    ``gamma < gamma*`` is certifiable.  Returns ``0.0`` when ``G`` is not
    Hurwitz and ``inf`` when ``I - E C`` vanishes.
    """
    G = as_matrix(G, "G")
    return _gamma_star(G, _error_input(G, E, C))[0]


def _error_input(G, E, C) -> np.ndarray:
    """``T = I - E C``, the gain of the mismatch in ``e' = G e + T df``;
    ``LinAlgError`` when it overflows."""
    E = as_matrix(E, "E")
    C = as_matrix(C, "C")
    return _finite("T = I - E C", lambda: np.eye(G.shape[0]) - E @ C)


def search_P(mode: LipschitzSpec, G, E, C,
             opts: CertificateSearchOptions | None = None) -> Certificate:
    """Find a feasibility certificate through the Riccati form of the block.

    With ``gamma*(Gh)`` from the level-set H-infinity norm of
    :func:`max_lipschitz_gamma`, ``P`` solves (Schur kernel ``numlin._care``)
    ``P Gh + Gh'P + P T T'P + q_s I = 0`` at ``q_s`` midway from ``q`` to
    ``gamma*(Gh)^2`` (a small multiple of ``I`` when ``q < 0``), and ``P``
    and the multipliers are scaled up jointly until the margin, recomputed
    through the public verifier, is below ``-1e-6``.  The Lipschitz case is
    decided exactly, except within rounding of ``gamma*``: a refusal names
    the frequency whose gain proves infeasibility.  In the one-sided
    case ``slack(mu1) = gamma*(Gh)^2 - q`` is quasi-concave (its
    level set ``slack > c`` is the projection of the convex feasible set for
    ``a + c``), so a log grid refined around its best point finds the
    largest slack; if that is not positive, the refusal gives it and says
    that infeasibility is not proven.  ``opts`` is accepted and ignored.
    """
    G = as_matrix(G, "G")
    T = _error_input(G, E, C)  # E and C are checked there, and again by the verifier
    if isinstance(mode, Lipschitz):
        return _lipschitz_certificate(mode.gamma, G, E, C, T)
    if isinstance(mode, OneSidedLipschitz):
        return _osl_certificate(mode, G, E, C, T)
    raise TypeError(f"unsupported bound specification: {mode!r}")


def _riccati_certificate(Gh, T, q, gmax, verify):
    """``P > 0`` with ``P Gh + Gh'P + P T T'P + q I < 0``, scaled past
    ``_CERTIFICATE_TOL``.

    ``gmax = gamma*(Gh)`` must exceed ``sqrt(q)`` when ``q >= 0``, and
    ``verify(P, s)`` is the block's margin with its multipliers scaled by
    ``s``.  Returns ``(P, s)`` whose margin is below ``-_CERTIFICATE_TOL``,
    or ``None``; a product that overflows is refused by name.
    """
    tol = _CERTIFICATE_TOL
    n = Gh.shape[0]
    try:
        if q < 0.0:
            # the bounds then admit no (e, df) != 0, and the Schur complement
            # tends to q I as P shrinks
            k = np.linalg.norm(Gh + Gh.T, 2) + np.linalg.norm(T, 2) ** 2
            P = (min(1.0, -q / (2.0 * k)) if k > 0.0 else 1.0) * np.eye(n)
        else:
            # q_s = q + slack, midway to gmax^2 when that is finite
            slack = 0.5 * (gmax**2 - q) if np.isfinite(gmax) else (q if q > 0.0 else 1.0)
            if not slack > 0.0:
                return None
            P = _care(Gh, -T @ T.T, (q + slack) * np.eye(n))
        # the block is jointly homogeneous in P and the multipliers: scale a
        # strictly feasible pair up until its margin passes tol
        margin = verify(P, 1.0)
        s = min(2.0 * tol / -margin, 1e12) if -tol <= margin < 0.0 else 1.0
        if s != 1.0:
            P = s * P
            margin = verify(P, s)
    except _Overflow:
        raise
    except (np.linalg.LinAlgError, CertificateError):
        return None
    return (P, s) if margin < -tol else None


def _lipschitz_certificate(gamma: float, G, E, C, T) -> Certificate:
    gamma_max, peak, w = _gamma_star(G, T)
    if peak == np.inf:
        raise FeasibilitySearchError(
            "G is not Hurwitz, so no certificate exists for any gamma "
            "(gamma_max = 0); infeasibility is proven"
        )
    if gamma * peak >= 1.0:
        raise FeasibilitySearchError(
            f"gamma = {gamma:.10g} is not below gamma_max = {gamma_max:.10g} "
            "= 1/||(sI - G)^-1 (I - EC)||_inf: at omega = "
            f"{w:.10g}, gamma * sigma_max((j omega - G)^-1 (I - EC)) = "
            f"{gamma * peak:.10g} >= 1; infeasibility is proven"
        )
    if not gamma < gamma_max:
        raise FeasibilitySearchError(
            f"gamma = {gamma:.10g} is within rounding of gamma_max = {gamma_max:.10g}: "
            "1/||(sI - G)^-1 (I - EC)||_inf lies between gamma_max and "
            f"{1.0 / peak:.10g}, which does not decide it at working precision"
        )
    found = _riccati_certificate(
        G, T, gamma**2, gamma_max,
        lambda P, s: verify_lmi_lipschitz(P, s, gamma, G, E, C))
    if found is None:
        raise FeasibilitySearchError(
            f"gamma = {gamma:.6g} is certifiable but within rounding of gamma_max = "
            f"{gamma_max:.6g}: no certificate reaches margin {-_CERTIFICATE_TOL:g} "
            "at working precision"
        )
    P, beta = found
    return Certificate(P=P, beta=beta)


def _osl_certificate(mode: OneSidedLipschitz, G, E, C, T) -> Certificate:
    from scipy.optimize import minimize_scalar

    rho, a, b = mode.rho, mode.a, mode.b

    def reduced(log_mu1):
        """``(Gh, q, gamma*(Gh))`` at ``mu2 = 1``, ``mu1 = e^log_mu1``; ``q = inf`` on overflow."""
        with np.errstate(over="ignore", invalid="ignore"):  # q = inf is a slack of -inf
            mu1 = np.exp(log_mu1)
            Gh, q = G + 0.5 * (b - mu1) * T, mu1 * rho + a + 0.25 * (b - mu1) ** 2
        finite = np.isfinite(q) and np.isfinite(Gh).all()
        return (Gh, q, _gamma_star(Gh, T)[0]) if finite else (Gh, np.inf, 0.0)

    def slack(log_mu1):
        _, q, g = reduced(log_mu1)
        return g**2 - q

    # mu1 / mu2 is a rate, like the entries of G, rho, b and sqrt(a)
    scale = float(np.linalg.norm(G, 2)) + abs(rho) + abs(b) + np.sqrt(abs(a)) or 1.0
    grid = np.log(scale) + np.linspace(np.log(1e-9), np.log(1e3), 49)
    slacks = [slack(z) for z in grid]
    k = int(np.argmax(slacks))
    z_best, best = grid[k], slacks[k]
    if np.isfinite(best):
        # quasi-concavity puts the maximizer between the grid neighbours; a slack
        # of -inf there makes a parabolic step nan, so Brent takes a golden one
        with np.errstate(over="ignore", invalid="ignore"):
            res = minimize_scalar(lambda z: -slack(z), method="bounded",
                                  bounds=(grid[max(k - 1, 0)], grid[min(k + 1, len(grid) - 1)]),
                                  options={"xatol": 1e-6})
        if -res.fun > best:
            z_best, best = float(res.x), -res.fun
    mu1 = float(np.exp(z_best))
    if best > 0.0:
        Gh, q, g = reduced(z_best)
        found = _riccati_certificate(
            Gh, T, q, g, lambda P, s: verify_lmi_osl(P, s * mu1, s, rho, a, b, G, E, C))
        if found is not None:
            P, s = found
            return Certificate(P=P, mu1=s * mu1, mu2=s)
    raise FeasibilitySearchError(
        f"no multipliers found (best slack {best:.3e} at mu1/mu2 = {mu1:.3e}); "
        "infeasibility is not proven"
    )
