"""Certificates: block assembly, margins, cubic gain, equilibrium, search."""

import time

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from scipy.optimize import minimize_scalar

from cubicobs.cert import (
    COUNTEREXAMPLE,
    CertificateError,
    CertificateSearchOptions,
    EquilibriumSearchOptions,
    FeasibilitySearchError,
    NO_COUNTEREXAMPLE,
    check_equilibrium_uniqueness,
    cubic_gain,
    lipschitz_lmi,
    max_lipschitz_gamma,
    osl_lmi,
    search_P,
    verify_lmi_lipschitz,
    verify_lmi_osl,
    verify_N_condition,
)
from cubicobs.model import ConfigError, Lipschitz, OneSidedLipschitz

A = np.array([[-2.0, -10.0], [0.0, -1.0]])
C = np.array([[1.0, 0.0]])
E = np.array([[1.0], [-1.0]])
G = np.array([[-10.0, 0.0], [1.0, -11.0]])
P = np.array([[59.0535, 1.7898], [1.7898, 17.8858]])

# margin of the published certificate, computed independently from the
# literal block [[PG+G'P+100 I, PT], [T'P, -100 I]] with T = I - EC
PUBLISHED_MARGIN = -96.74796747559465


def random_spd(rng, n, scale=1.0):
    Q = rng.standard_normal((n, n))
    return scale * (Q @ Q.T + n * np.eye(n))


# --- block assembly -------------------------------------------------------

def test_lipschitz_block_matches_hand_assembly():
    T = np.eye(2) - E @ C
    S = P @ G + G.T @ P + 1.0 * 100.0 * np.eye(2)
    expected = np.block([[S, P @ T], [(P @ T).T, -100.0 * np.eye(2)]])
    assert np.allclose(lipschitz_lmi(P, 100.0, 1.0, G, E, C), expected, atol=1e-12)


def test_osl_block_hand_case_diagonal():
    # P = 1, G = -2, T = 1: PG + G'P + (mu1 rho + mu2 a) = -4 + 1.5,
    # coupling PT + (mu2 b - mu1)/2 = 1, and -mu2 = -1; eigenvalues -0.5, -3
    block = osl_lmi([[1.0]], 1.5, 1.0, 0.5, 0.75, 1.5, [[-2.0]], [[0.0]], [[1.0]])
    assert np.allclose(block, [[-2.5, 1.0], [1.0, -1.0]], atol=1e-12)
    margin = verify_lmi_osl([[1.0]], 1.5, 1.0, 0.5, 0.75, 1.5, [[-2.0]], [[0.0]], [[1.0]])
    assert margin == pytest.approx(-0.5, abs=1e-12)


def test_verify_lipschitz_published_certificate():
    margin = verify_lmi_lipschitz(P, 100.0, 1.0, G, E, C)
    assert margin == pytest.approx(PUBLISHED_MARGIN, rel=1e-9)
    assert margin < 0


def test_verify_lipschitz_rejects_bad_scalars():
    with pytest.raises(ValueError, match="beta"):
        verify_lmi_lipschitz(P, 0.0, 1.0, G, E, C)
    with pytest.raises(ValueError, match="gamma"):
        verify_lmi_lipschitz(P, 1.0, -1.0, G, E, C)


def test_verify_rejects_non_spd_P():
    with pytest.raises(CertificateError, match="positive definite"):
        verify_lmi_lipschitz(np.diag([1.0, -1.0]), 1.0, 1.0, G, E, C)
    with pytest.raises(CertificateError, match="symmetric"):
        verify_lmi_lipschitz([[1.0, 0.5], [0.0, 1.0]], 1.0, 1.0, G, E, C)


def test_verify_osl_rejects_bad_multipliers():
    with pytest.raises(ValueError, match="mu"):
        verify_lmi_osl([[1.0]], 0.0, 1.0, 0.5, 0.75, 1.5, [[-2.0]], [[0.0]], [[1.0]])


def test_verify_osl_hand_case():
    margin = verify_lmi_osl([[1.0]], 1.5, 1.0, 0.5, 0.75, 1.5,
                            [[-2.0]], [[0.0]], [[1.0]])
    assert margin == pytest.approx(-0.5, abs=1e-12)


# --- cubic gain -----------------------------------------------------------

def test_cubic_gain_reproduces_published_value():
    N = cubic_gain(P, C, np.eye(1), alpha=1.0)
    assert N.shape == (2, 1)
    # independent solve of P N = -C' theta
    assert np.allclose(N, [[-0.016985313955], [0.001699693420]], atol=1e-9)
    assert N[0, 0] == pytest.approx(-0.017, rel=0.05)
    assert N[1, 0] == pytest.approx(0.0017, rel=0.05)


def test_cubic_gain_scales_linearly_in_alpha():
    N1 = cubic_gain(P, C, np.eye(1), alpha=1.0)
    N3 = cubic_gain(P, C, np.eye(1), alpha=3.0)
    assert np.allclose(N3, 3.0 * N1, atol=1e-15)


def test_cubic_gain_input_validation():
    with pytest.raises(ValueError, match="alpha"):
        cubic_gain(P, C, np.eye(1), alpha=0.0)
    with pytest.raises(ValueError, match="symmetric"):
        cubic_gain(np.eye(2), np.eye(2), [[1.0, 0.3], [0.0, 1.0]])
    with pytest.raises(ValueError, match="semidefinite"):
        cubic_gain(np.eye(2), np.eye(2), [[-1.0, 0.0], [0.0, 1.0]])
    with pytest.raises(CertificateError):
        cubic_gain(np.diag([1.0, -2.0]), C, np.eye(1))


def test_gain_identity_random_draws():
    # P N C + C'N'P == -2 alpha C' theta C whenever N comes from cubic_gain
    rng = np.random.default_rng(2024)
    for _ in range(100):
        n = int(rng.integers(1, 7))
        n_y = int(rng.integers(1, n + 1))
        Pm = random_spd(rng, n, scale=10.0 ** rng.integers(-2, 3))
        Cm = rng.standard_normal((n_y, n))
        R = rng.standard_normal((n_y, n_y))
        theta = R @ R.T
        alpha = float(10.0 ** rng.uniform(-2, 2))
        N = cubic_gain(Pm, Cm, theta, alpha)
        M = Pm @ N @ Cm
        M = M + M.T
        target = -2.0 * alpha * (Cm.T @ theta @ Cm)
        scale = max(1.0, float(np.max(np.abs(target))))
        assert np.max(np.abs(M - target)) <= 1e-9 * scale


# --- N-condition classification ------------------------------------------

def test_N_condition_published_semidefinite_pass():
    N = cubic_gain(P, C, np.eye(1))
    with pytest.warns(RuntimeWarning, match="semidefinite"):
        res = verify_N_condition(P, N, C, theta=np.eye(1), alpha=1.0)
    assert res.classification == "semidefinite-pass"
    assert np.max(np.abs(res.matrix - [[-2.0, 0.0], [0.0, 0.0]])) <= 1e-9
    assert abs(res.margin) <= 1e-9
    assert res.identity_residual <= 1e-12


def test_N_condition_strict_with_square_C():
    rng = np.random.default_rng(3)
    Pm = random_spd(rng, 3)
    Cm = np.eye(3)
    N = cubic_gain(Pm, Cm, np.eye(3))
    res = verify_N_condition(Pm, N, Cm, np.eye(3), 1.0)
    assert res.classification == "strict"
    assert np.allclose(res.matrix, -2.0 * np.eye(3), atol=1e-9)
    assert res.margin < 0


def test_N_condition_fail_on_sign_flip():
    N = -cubic_gain(P, C, np.eye(1))  # wrong sign makes the matrix PSD
    res = verify_N_condition(P, N, C, np.eye(1), 1.0)
    assert res.classification == "fail"
    assert res.margin >= 0


def test_N_condition_fail_on_indefinite():
    res = verify_N_condition(np.eye(2), [[1.0], [1.0]], C, np.eye(1), 1.0)
    assert res.classification == "fail"


# --- equilibrium uniqueness ----------------------------------------------

def test_equilibrium_guaranteed_for_closed_form_gain():
    N = cubic_gain(P, C, np.eye(1))
    verdict = check_equilibrium_uniqueness(G, N, C, np.eye(1))
    assert verdict.status == NO_COUNTEREXAMPLE


def test_equilibrium_exact_kernel_with_vanishing_cubic():
    # theta = 0 turns the dynamics linear; singular G has a resting ray
    Gs = np.array([[0.0, 0.0], [0.0, -1.0]])
    verdict = check_equilibrium_uniqueness(Gs, [[1.0], [1.0]], C, [[0.0]])
    assert verdict.status == COUNTEREXAMPLE
    v = verdict.v
    assert np.linalg.norm(Gs @ v) <= 1e-8 * np.linalg.norm(v)

    regular = check_equilibrium_uniqueness(np.diag([-1.0, -2.0]),
                                           [[1.0], [1.0]], C, [[0.0]])
    assert regular.status == NO_COUNTEREXAMPLE
    assert "exhaustive" in regular.note


def test_equilibrium_finds_planted_axis_counterexample():
    # with G = -I, N = [1; 0], theta = 1: -v1 + v1^3 = 0 has v = (1, 0)
    verdict = check_equilibrium_uniqueness(-np.eye(2), [[1.0], [0.0]], C, [[1.0]])
    assert verdict.status == COUNTEREXAMPLE
    assert verdict.residual <= 1e-8
    v = verdict.v
    assert abs(abs(v[0]) - 1.0) <= 1e-6 and abs(v[1]) <= 1e-6


def test_equilibrium_finds_planted_skew_counterexample():
    # G chosen so G (1,1)' = -(1,1)', cancelling the cubic push at v = (1,1)
    Gp = np.array([[0.0, -1.0], [-2.0, 1.0]])
    verdict = check_equilibrium_uniqueness(Gp, [[1.0], [1.0]], C, [[1.0]])
    assert verdict.status == COUNTEREXAMPLE
    assert verdict.residual <= 1e-8


def test_equilibrium_counterexamples_are_sound():
    # randomized soundness: every claimed counterexample must truly rest
    rng = np.random.default_rng(77)
    found = 0
    for _ in range(40):
        n = int(rng.integers(2, 5))
        n_y = int(rng.integers(1, n))
        Gm = rng.standard_normal((n, n))
        Nm = rng.standard_normal((n, n_y))
        Cm = rng.standard_normal((n_y, n))
        R = rng.standard_normal((n_y, n_y))
        theta = R @ R.T
        verdict = check_equilibrium_uniqueness(
            Gm, Nm, Cm, theta,
            EquilibriumSearchOptions(seed=1),
        )
        if verdict.status != COUNTEREXAMPLE:
            continue
        found += 1
        v = verdict.v
        K = Cm.T @ theta @ Cm
        res = np.linalg.norm(Gm @ v + float(v @ K @ v) * (Nm @ Cm @ v))
        assert res <= 1e-8 * np.linalg.norm(v)
    assert found >= 1  # generic unstable draws do produce rest points


def test_equilibrium_no_false_alarm_on_contractive_gain():
    # -v1 - v1^3 = 0 forces v1 = 0, then G kills the rest
    verdict = check_equilibrium_uniqueness(-np.eye(2), [[-1.0], [0.0]], C, [[1.0]])
    assert verdict.status == NO_COUNTEREXAMPLE


def test_equilibrium_closed_form_hint_is_not_a_shortcut():
    # N has the closed form for P = I, but PG + G'P = 2I is not negative:
    # v - v1^2 (v1, 0) = 0 rests at v = (+-1, 0), so the closed form alone
    # proves nothing
    Pi = np.eye(2)
    N = cubic_gain(Pi, C, np.eye(1), 1.0)
    verdict = check_equilibrium_uniqueness(np.eye(2), N, C, np.eye(1))
    assert verdict.status == COUNTEREXAMPLE
    assert abs(abs(verdict.v[0]) - 1.0) <= 1e-8 and abs(verdict.v[1]) <= 1e-8


@pytest.mark.parametrize("n", range(2, 9))
def test_equilibrium_recall_on_planted_equilibria(n):
    # N = N0 - (G v + k N0 C v)(C v)'/k^2 with k = v'Kv makes v rest; an
    # orthogonal change of coordinates must not hide it
    rng = np.random.default_rng(100 + n)
    for _ in range(6):
        n_y = int(rng.integers(1, n))
        Gm = rng.standard_normal((n, n)) - 2.0 * np.eye(n)
        Cm = rng.standard_normal((n_y, n))
        v = rng.standard_normal(n)
        v *= rng.uniform(0.5, 2.0) / np.linalg.norm(v)
        Cv = Cm @ v
        k = float(Cv @ Cv)
        N0 = 0.1 * rng.standard_normal((n, n_y))
        Nm = N0 - np.outer(Gm @ v + k * (N0 @ Cv), Cv) / (k * k)
        Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
        Gq, Nq, Cq = Q.T @ Gm @ Q, Q.T @ Nm, Cm @ Q
        verdict = check_equilibrium_uniqueness(Gq, Nq, Cq, np.eye(n_y))
        assert verdict.status == COUNTEREXAMPLE
        w = verdict.v
        K = Cq.T @ Cq
        res = np.linalg.norm(Gq @ w + float(w @ K @ w) * (Nq @ Cq @ w))
        assert res <= 1e-8 * np.linalg.norm(w)


def test_equilibrium_singular_pencil_yields_resting_point():
    # G + lam N C = [[lam, 1], [0, 0]] is singular for every lam; the
    # equilibria are the curve v2 = -v1^3, found by sampling lam
    Gs, Ns, Cs = np.array([[0.0, 1.0], [0.0, 0.0]]), np.array([[1.0], [0.0]]), C
    verdict = check_equilibrium_uniqueness(Gs, Ns, Cs, np.eye(1))
    assert verdict.status == COUNTEREXAMPLE
    assert verdict.note == "pencil eigenvalue 1"
    assert np.allclose(verdict.v / verdict.v[1], [-1.0, 1.0], rtol=0, atol=1e-12)
    rng = np.random.default_rng(3)
    for _ in range(6):
        Q, _ = np.linalg.qr(rng.standard_normal((2, 2)))
        rotated = check_equilibrium_uniqueness(Q.T @ Gs @ Q, Q.T @ Ns, Cs @ Q, np.eye(1))
        assert rotated.status == COUNTEREXAMPLE
        assert rotated.note.startswith("pencil eigenvalue")
        v = Q @ rotated.v
        assert abs(v[1] + v[0] ** 3) <= 1e-8 * np.linalg.norm(v)
        assert np.linalg.norm(v) >= 1e-3


def test_equilibrium_indefinite_theta_rests_on_null_cone():
    # with G = 0 every v with v'Kv = 0 rests; K = diag(1, -1) vanishes on (1, 1)
    verdict = check_equilibrium_uniqueness(np.zeros((2, 2)), np.eye(2), np.eye(2),
                                           np.diag([1.0, -1.0]))
    assert verdict.status == COUNTEREXAMPLE
    assert verdict.note == "kernel of G, v'Kv = 0"
    assert np.allclose(np.abs(verdict.v), [1.0, 1.0], rtol=0, atol=1e-12)
    assert abs(verdict.v[0] ** 2 - verdict.v[1] ** 2) <= 1e-12


def test_equilibrium_decides_acceptance_sweep_exactly():
    # acceptance 10's sweep: 27 of the 40 systems have a nonzero equilibrium
    rng = np.random.default_rng(77)
    found = 0
    for _ in range(40):
        n = int(rng.integers(2, 4))
        p = int(rng.integers(1, n + 1))
        Gm = rng.standard_normal((n, n))
        Nm = rng.standard_normal((n, p))
        Cm = rng.standard_normal((p, n))
        R = rng.standard_normal((p, p))
        theta = R @ R.T + 0.1 * np.eye(p)
        verdict = check_equilibrium_uniqueness(Gm, Nm, Cm, theta)
        if verdict.status == COUNTEREXAMPLE:
            found += 1
            assert verdict.residual <= 1e-8
        else:
            assert verdict.status == NO_COUNTEREXAMPLE
            assert "exhaustive" in verdict.note
    assert found == 27


# --- certificate search ---------------------------------------------------

def test_search_P_certifies_published_system():
    t0 = time.perf_counter()
    cert = search_P(Lipschitz(gamma=1.0), G, E, C)
    elapsed = time.perf_counter() - t0
    assert cert.beta is not None and cert.beta > 0
    check = verify_lmi_lipschitz(cert.P, cert.beta, 1.0, G, E, C)
    assert check < -1e-6
    assert elapsed < 60.0


def test_search_P_osl_hand_feasible_case():
    cert = search_P(OneSidedLipschitz(rho=0.5, a=0.75, b=1.5),
                    [[-2.0]], [[0.0]], [[1.0]])
    assert cert.mu1 is not None and cert.mu2 is not None
    check = verify_lmi_osl(cert.P, cert.mu1, cert.mu2, 0.5, 0.75, 1.5,
                           [[-2.0]], [[0.0]], [[1.0]])
    assert check < -1e-6


def test_search_P_fails_on_antistable_G():
    with pytest.raises(FeasibilitySearchError, match="infeasibility is proven"):
        search_P(Lipschitz(gamma=1.0), np.eye(2), np.zeros((2, 1)), C)


def test_search_P_decides_bundled_gamma_exactly():
    # (sI - G)^{-1} T peaks at s = 0, where it is [[0, 0], [1, 1]] / 11
    gamma_star = max_lipschitz_gamma(G, E, C)
    assert gamma_star == pytest.approx(11.0 / np.sqrt(2.0), rel=1e-9)
    found = search_P(Lipschitz(gamma=0.99 * gamma_star), G, E, C)
    assert verify_lmi_lipschitz(found.P, found.beta, 0.99 * gamma_star, G, E, C) < -1e-6
    with pytest.raises(FeasibilitySearchError, match="infeasibility is proven"):
        search_P(Lipschitz(gamma=1.01 * gamma_star), G, E, C)


def swept_gamma_star(Gm, Tm):
    """1 / ||(sI - G)^{-1} T||_inf from a frequency sweep refined at its peak."""
    n = Gm.shape[0]

    def gain(w):
        w = np.atleast_1d(w)[:, None, None]
        resp = np.linalg.solve(1j * w * np.eye(n) - Gm, np.broadcast_to(Tm, (w.size, n, n)))
        return np.linalg.norm(resp, 2, axis=(1, 2))

    top = 10.0 * (1.0 + float(np.max(np.abs(np.linalg.eigvals(Gm)))))
    ws = np.concatenate([[0.0], np.geomspace(1e-3, top, 3000)])
    gains = gain(ws)
    k = int(np.argmax(gains))
    res = minimize_scalar(lambda w: -gain(w)[0], method="bounded",
                          bounds=(ws[max(k - 1, 0)], ws[min(k + 1, len(ws) - 1)]),
                          options={"xatol": 1e-12})
    return 1.0 / max(gains[k], -res.fun)


@settings(max_examples=40)
@given(n=st.integers(2, 6), seed=st.integers(0, 2**32 - 1),
       frac=st.one_of(st.floats(0.05, 0.995), st.floats(1.005, 3.0)))
def test_search_P_certifies_iff_gamma_below_gamma_star(n, seed, frac):
    rng = np.random.default_rng(seed)
    M = rng.standard_normal((n, n))
    # damping of at least 0.5 keeps the frequency-response peak wide
    Gm = M - (np.max(np.linalg.eigvals(M).real) + rng.uniform(0.5, 2.0)) * np.eye(n)
    Cm = rng.standard_normal((n - 1, n))
    Em = rng.standard_normal((n, n - 1))
    Tm = np.eye(n) - Em @ Cm
    gamma_star = max_lipschitz_gamma(Gm, Em, Cm)
    assert gamma_star == pytest.approx(swept_gamma_star(Gm, Tm), rel=1e-6)
    gamma = frac * gamma_star
    if frac < 1.0:
        found = search_P(Lipschitz(gamma=gamma), Gm, Em, Cm)
        assert verify_lmi_lipschitz(found.P, found.beta, gamma, Gm, Em, Cm) < -1e-6
    else:
        with pytest.raises(FeasibilitySearchError, match="infeasibility is proven"):
            search_P(Lipschitz(gamma=gamma), Gm, Em, Cm)


def test_search_P_osl_refuses_large_bounds_on_bundled_G():
    # the best slack gamma*(Gh)^2 - q over mu1 is about -945
    with pytest.raises(FeasibilitySearchError, match="infeasibility is not proven"):
        search_P(OneSidedLipschitz(rho=1000.0, a=1000.0, b=1.0), G, E, C)


@pytest.mark.parametrize("rho", [-3.0, 0.0, 5.0, 100.0])
def test_search_P_osl_covers_lipschitz_limit(rho):
    # a = gamma^2, b = 0 is the Lipschitz bound as mu1 -> 0, so any rho is
    # certifiable below gamma* (rho = 100 only at small mu1)
    a = (0.99 * max_lipschitz_gamma(G, E, C)) ** 2
    found = search_P(OneSidedLipschitz(rho=rho, a=a, b=0.0), G, E, C)
    assert verify_lmi_osl(found.P, found.mu1, found.mu2, rho, a, 0.0, G, E, C) < -1e-6


def grid_osl_slack(Gm, Em, Cm, rho, a, b, mus):
    """gamma*(G + (b - mu1)/2 T)^2 - (mu1 rho + a + (b - mu1)^2 / 4) per mu1."""
    Tm = np.eye(Gm.shape[0]) - Em @ Cm
    return np.array([
        max_lipschitz_gamma(Gm + 0.5 * (b - m) * Tm, Em, Cm) ** 2
        - (m * rho + a + 0.25 * (b - m) ** 2)
        for m in mus
    ])


@settings(max_examples=24)
@given(n=st.integers(2, 5), seed=st.integers(0, 2**32 - 1),
       frac=st.one_of(st.floats(-0.95, -0.05), st.floats(0.05, 1.0)))
def test_search_P_osl_certifies_iff_grid_finds_slack(n, seed, frac):
    rng = np.random.default_rng(seed)
    M = rng.standard_normal((n, n))
    Gm = M - (np.max(np.linalg.eigvals(M).real) + rng.uniform(0.5, 2.0)) * np.eye(n)
    Cm = rng.standard_normal((n - 1, n))
    Em = rng.standard_normal((n, n - 1))
    Tm = np.eye(n) - Em @ Cm
    spread = float(np.linalg.norm(Gm, 2))
    rho, b = rng.uniform(-2.0, 2.0, 2) * spread
    # the slack is affine in a, so the grid's best slack at a = 0 places a at
    # a known distance on either side of the decision boundary; below it, a
    # stays above -b^2/4, where the bounds begin to admit no df != 0 at all
    mus = (spread + abs(rho) + abs(b)) * np.geomspace(1e-10, 1e4, 200)
    best0 = grid_osl_slack(Gm, Em, Cm, rho, 0.0, b, mus).max()
    if frac > 0:
        a = best0 + frac * (abs(best0) + 1.0)
        with pytest.raises(FeasibilitySearchError, match="infeasibility is not proven"):
            search_P(OneSidedLipschitz(rho=rho, a=a, b=b), Gm, Em, Cm)
        return
    reach = best0 + 0.25 * b * b  # the slack at mu1 -> 0 is at least -b^2/4
    assume(reach > 1e-3 * (1.0 + abs(best0)))
    a = best0 + frac * reach
    found = search_P(OneSidedLipschitz(rho=rho, a=a, b=b), Gm, Em, Cm)
    assert verify_lmi_osl(found.P, found.mu1, found.mu2, rho, a, b, Gm, Em, Cm) < -1e-6
    # V = e'Pe decreases along e' = G e + T df for sampled df that meet both
    # bounds: df = s e + w with w orthogonal to e is admissible iff s <= rho
    # and |w|^2 <= (a + b s - s^2) |e|^2
    root = np.sqrt(b * b + 4.0 * a)  # a > -b^2/4 by construction
    lo, hi = 0.5 * (b - root), min(rho, 0.5 * (b + root))
    if lo > hi:
        return  # the bounds admit no df != 0
    e = rng.standard_normal((2000, n))
    s = rng.uniform(lo, hi, (2000, 1))
    w = rng.standard_normal((2000, n))
    w -= np.sum(w * e, axis=1, keepdims=True) / np.sum(e * e, axis=1, keepdims=True) * e
    room = np.sqrt(np.maximum(a + b * s - s * s, 0.0)) * np.linalg.norm(e, axis=1, keepdims=True)
    w *= rng.uniform(0.0, 1.0, (2000, 1)) * room / np.linalg.norm(w, axis=1, keepdims=True)
    df = s * e + w
    vdot = 2.0 * np.einsum("ki,ij,kj->k", e, found.P, e @ Gm.T + df @ Tm.T)
    assert np.all(vdot < 0.0)


def test_search_P_deterministic_given_seed():
    c1 = search_P(Lipschitz(gamma=1.0), G, E, C, CertificateSearchOptions(seed=4))
    c2 = search_P(Lipschitz(gamma=1.0), G, E, C, CertificateSearchOptions(seed=4))
    assert np.array_equal(c1.P, c2.P)
    assert c1.beta == c2.beta


@pytest.mark.parametrize("make", [
    lambda: Lipschitz(np.inf),
    lambda: Lipschitz(np.nan),
    lambda: OneSidedLipschitz(np.nan, 1.0, 0.0),
    lambda: OneSidedLipschitz(1.0, np.inf, 0.0),
], ids=["gamma-inf", "gamma-nan", "rho-nan", "a-inf"])
def test_search_P_rejects_non_finite_bound(make):
    with pytest.raises(ConfigError, match="lipschitz"):
        search_P(make(), G, E, C)


def test_cubic_gain_rejects_infinite_alpha():
    with pytest.raises(ValueError, match="alpha must be positive and finite"):
        cubic_gain(P, C, np.eye(1), np.inf)


def test_search_P_rejects_unknown_mode():
    with pytest.raises(TypeError):
        search_P("lipschitz", G, E, C)
