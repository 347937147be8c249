"""Independent checks of the program's outputs.

Each check returns ``None`` when the output is correct, or a one-line
reason.  They use numpy only, never cubicobs, so a defect in the program
cannot hide a defect in its own result.
"""

from __future__ import annotations

import math
import os

import numpy as np

REL_TOL = 1e-12  # agreement with recorded values, as ROADMAP asks of summary.txt
EQ_TOL = 1e-8  # EquilibriumSearchOptions.tol, the bound a counterexample claims


def _scale(*mats) -> float:
    return max([1.0] + [float(np.max(np.abs(m), initial=0.0)) for m in mats])


def close(value: float, expected: float, digits: int | None = None) -> bool:
    """``value`` within REL_TOL of ``expected``.

    ``digits`` is the number of significant digits ``value`` was printed
    with; one unit in that last place is allowed on top, because rounding
    the same number to ``digits`` places can move it by that much.
    """
    slack = REL_TOL * abs(expected)
    if digits is not None and expected != 0.0:
        slack += 10.0 ** (math.floor(math.log10(abs(expected))) - digits + 1)
    return math.isfinite(value) and abs(value - expected) <= slack


def paper_study(out_dir: str, exit_code: int, expected: dict) -> tuple[str | None, int]:
    """Check one reproduce-paper run; return (reason, RK4 steps in its CSVs)."""
    if exit_code != 0:
        return f"reproduce-paper exited {exit_code}", 0
    summary = {}
    with open(os.path.join(out_dir, "summary.txt")) as fh:
        for line in fh:
            key, _, val = line.strip().partition("=")
            summary[key] = float(val)
    for key, ref in expected["summary"].items():
        if key not in summary:
            return f"summary.txt lacks {key}", 0
        if not close(summary[key], ref, digits=12):
            return f"{key}={summary[key]!r} differs from recorded {ref!r}", 0
    steps = 0
    for name in expected["csv_files"]:
        with open(os.path.join(out_dir, name)) as fh:
            rows = sum(1 for _ in fh) - 1  # header
        steps += rows - 1
    return None, steps


def trajectory(jo_end: float, expected: float) -> str | None:
    if not close(jo_end, expected):
        return f"jo[-1]={jo_end!r} differs from reference {expected!r}"
    return None


def design(A, C, D, margin, E, L, G, J) -> str | None:
    """Designed gains: canonical ``E``, consistent ``G``/``J``, margin met."""
    n = A.shape[0]
    E_ref = D @ np.linalg.pinv(C @ D)
    if np.max(np.abs(E - E_ref)) > 1e-9 * _scale(E_ref):
        return "E is not D (CD)^+"
    T = np.eye(n) - E @ C
    TA = T @ A
    scale = _scale(TA, L @ C)
    if np.max(np.abs(G - (TA - L @ C))) > 1e-9 * scale:
        return "G is not TA - LC for the returned L"
    if np.max(np.abs(TA - J @ C - G @ T)) > 1e-8 * _scale(TA, J, G):
        return "TA - JC - GT does not vanish"
    if np.max(np.abs(T @ D), initial=0.0) > 1e-9 * _scale(D):
        return "TD does not vanish"
    abscissa = float(np.max(np.linalg.eigvals(G).real))
    if abscissa > -margin + 1e-9:
        return f"spectral abscissa {abscissa:.6g} misses margin {margin:g}"
    return None


def certificate(gamma, G, E, C, theta, alpha, P, beta, N, classification) -> str | None:
    """Re-verify a returned Lipschitz certificate and its cubic gain."""
    n = G.shape[0]
    if np.max(np.abs(P - P.T)) > 1e-9 * _scale(P):
        return "P is not symmetric"
    P = 0.5 * (P + P.T)
    if np.linalg.eigvalsh(P)[0] <= 0.0:
        return "P is not positive definite"
    if not beta > 0:
        return "beta is not positive"
    T = np.eye(n) - E @ C
    S = P @ G + G.T @ P + gamma**2 * beta * np.eye(n)
    R = P @ T
    block = np.block([[S, R], [R.T, -beta * np.eye(n)]])
    margin = float(np.linalg.eigvalsh(0.5 * (block + block.T))[-1])
    if not margin < 0.0:
        return f"LMI margin {margin:.3e} is not negative"
    N_ref = -alpha * np.linalg.solve(P, C.T @ theta)
    if np.max(np.abs(N - N_ref)) > 1e-9 * _scale(N_ref):
        return "N is not -alpha P^-1 C' theta"
    M = P @ N @ C
    M = M + M.T
    if float(np.linalg.eigvalsh(M)[-1]) > 1e-9 * _scale(M):
        return "P N C + C'N'P is not negative semidefinite"
    if classification not in ("strict", "semidefinite-pass"):
        return f"N condition classified {classification!r}"
    return None


def counterexample(G, N, C, theta, v) -> str | None:
    """``|G v + (v'Kv) N C v| <= tol |v|`` for a claimed equilibrium ``v``."""
    v = np.ravel(np.asarray(v, dtype=float))
    nv = float(np.linalg.norm(v))
    if not nv > 0.0:
        return "counterexample v is zero"
    K = C.T @ theta @ C
    residual = float(np.linalg.norm(G @ v + float(v @ K @ v) * (N @ (C @ v))))
    if residual > EQ_TOL * nv:
        return f"counterexample residual {residual / nv:.3e} exceeds {EQ_TOL:g}"
    return None
