"""Structural observer design: decoupling, gain assembly, pole search."""

import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cubicobs import design
from cubicobs.design import (
    DecouplingInfeasibleError,
    GainSearchError,
    GainSearchOptions,
    compute_E,
    decoupling_feasible,
    design_GJ,
    spectral_abscissa,
    stabilize_L,
    verify_structure,
)

A = np.array([[-2.0, -10.0], [0.0, -1.0]])
C = np.array([[1.0, 0.0]])
D = np.array([[-1.0], [1.0]])
L = np.array([[10.0], [-3.0]])


# --- decoupling -----------------------------------------------------------

def test_decoupling_feasible_hand_cases():
    assert decoupling_feasible(C, D)
    # CD = 0 while D has rank 1
    assert not decoupling_feasible(C, np.array([[0.0], [1.0]]))
    assert decoupling_feasible(np.eye(2), np.zeros((2, 1)))


def test_compute_E_exact():
    E = compute_E(C, D)
    assert np.max(np.abs(E - [[1.0], [-1.0]])) <= 1e-12
    # (I - EC) D = 0 exactly here
    T = np.eye(2) - E @ C
    assert np.max(np.abs(T @ D)) == 0.0


def test_compute_E_infeasible_raises():
    with pytest.raises(DecouplingInfeasibleError, match=r"rank\(CD\) != rank\(D\)"):
        compute_E(C, np.array([[0.0], [1.0]]))


def test_compute_E_random_feasible_channels():
    # generic D with n_g <= n_y keeps CD full column rank, hence feasible
    rng = np.random.default_rng(21)
    hits = 0
    for _ in range(100):
        n = int(rng.integers(2, 6))
        n_y = int(rng.integers(1, n + 1))
        n_g = int(rng.integers(1, n_y + 1))
        Cm = rng.standard_normal((n_y, n))
        Dm = rng.standard_normal((n, n_g))
        if not decoupling_feasible(Cm, Dm):
            continue
        hits += 1
        E = compute_E(Cm, Dm)
        T = np.eye(n) - E @ Cm
        assert np.max(np.abs(T @ Dm)) <= 1e-9
    assert hits >= 90  # generic draws with n_g <= n_y are feasible


@pytest.mark.parametrize("c_scale, d_scale", [(1.0, 1e7), (1e-6, 1e6), (1.0, 1e12)])
def test_compute_E_accepts_feasible_channels_at_scale(c_scale, d_scale):
    # (I - EC) D rounds to ~eps |D|, so only a bound relative to |D| accepts
    # these; the rank test still refuses an infeasible channel at any scale
    rng = np.random.default_rng(17)
    for _ in range(50):
        Cm = c_scale * rng.standard_normal((3, 6))
        Dm = d_scale * rng.standard_normal((6, 2))
        E = compute_E(Cm, Dm)
        assert np.max(np.abs((np.eye(6) - E @ Cm) @ Dm)) <= 1e-9 * np.max(np.abs(Dm))
    with pytest.raises(DecouplingInfeasibleError, match=r"rank\(CD\) != rank\(D\)"):
        compute_E(C, d_scale * np.array([[0.0], [1.0]]))


# --- gain assembly --------------------------------------------------------

def test_design_GJ_reproduces_published_gains():
    E = compute_E(C, D)
    des = design_GJ(A, C, E, L, D=D)
    assert np.allclose(des.G, [[-10.0, 0.0], [1.0, -11.0]], atol=1e-12)
    assert np.allclose(des.J, [[0.0], [9.0]], atol=1e-12)
    assert des.residual_sylvester <= 1e-12
    assert des.residual_decoupling <= 1e-12
    assert np.array_equal(des.L, L)


def test_verify_structure_published_triplet():
    res_syl, res_dec = verify_structure(
        A, C, D, E=[[1.0], [-1.0]], G=[[-10.0, 0.0], [1.0, -11.0]], J=[[0.0], [9.0]]
    )
    assert res_syl <= 1e-12
    assert res_dec <= 1e-12


def test_structural_identity_random_L():
    # G = TA - LC and J = TAE + L(I - CE) satisfy TA - JC - GT = 0 for any L
    rng = np.random.default_rng(5)
    for _ in range(100):
        n = int(rng.integers(2, 6))
        n_y = int(rng.integers(1, n))
        n_g = int(rng.integers(1, n_y + 1))
        Am = rng.standard_normal((n, n))
        Cm = rng.standard_normal((n_y, n))
        Dm = rng.standard_normal((n, n_g))
        if not decoupling_feasible(Cm, Dm):
            continue
        E = compute_E(Cm, Dm)
        Lm = rng.standard_normal((n, n_y))
        des = design_GJ(Am, Cm, E, Lm, D=Dm)
        assert des.residual_sylvester <= 1e-9
        assert des.residual_decoupling <= 1e-9
        check_syl, check_dec = verify_structure(Am, Cm, Dm, E, des.G, des.J)
        assert check_syl == des.residual_sylvester
        assert check_dec == des.residual_decoupling


def test_spectral_abscissa_hand_cases():
    assert spectral_abscissa(np.diag([-3.0, -1.0])) == pytest.approx(-1.0)
    # complex pair 0.5 +/- i
    M = np.array([[0.5, -1.0], [1.0, 0.5]])
    assert spectral_abscissa(M) == pytest.approx(0.5)


# --- stabilizing search ---------------------------------------------------

def test_stabilize_L_zero_fast_path():
    # TA is already Hurwitz for the bundled system once L shifts nothing:
    # here request a loose margin that L = 0 cannot meet but a small L can
    E = compute_E(C, D)
    T = np.eye(2) - E @ C
    Lfound = stabilize_L(T, A, C, margin=5.0, opts=GainSearchOptions(seed=0))
    G = T @ A - Lfound @ C
    assert spectral_abscissa(G) <= -5.0 + 1e-9


def test_stabilize_L_respects_fixed_mode():
    # with C = [1 0] the closed-loop matrix is [[-L1, 0], [-2-L2, -11]]:
    # one eigenvalue is pinned at -11, so a margin beyond 11 is unreachable
    E = compute_E(C, D)
    T = np.eye(2) - E @ C
    with pytest.raises(GainSearchError):
        stabilize_L(T, A, C, margin=11.5,
                    opts=GainSearchOptions(seed=0))


def test_stabilize_L_unobservable_fails():
    with pytest.raises(GainSearchError):
        stabilize_L(np.eye(2), np.array([[2.0, 0.0], [0.0, 3.0]]),
                    np.zeros((1, 2)), margin=0.5,
                    opts=GainSearchOptions(seed=0))


def test_stabilize_L_meets_margin_with_an_unobservable_mode_on_it():
    # the only unobservable mode, -1, is not right of -margin, so a gain
    # exists; a Riccati equation over the whole state would have it on the
    # imaginary axis after the shift
    Am = np.diag([-1.0, 2.0])
    Cm = np.array([[0.0, 1.0]])
    Lm = stabilize_L(np.eye(2), Am, Cm, margin=1.0)
    assert spectral_abscissa(Am - Lm @ Cm) <= -1.0


@pytest.mark.parametrize("margin", [np.nan, np.inf], ids=["nan", "inf"])
def test_stabilize_L_rejects_non_finite_margin(margin):
    E = compute_E(C, D)
    with pytest.raises(ValueError, match="margin must be positive and finite"):
        stabilize_L(np.eye(2) - E @ C, A, C, margin)


def test_stabilize_L_deterministic_given_seed():
    E = compute_E(C, D)
    T = np.eye(2) - E @ C
    L1 = stabilize_L(T, A, C, margin=3.0, opts=GainSearchOptions(seed=7))
    L2 = stabilize_L(T, A, C, margin=3.0, opts=GainSearchOptions(seed=7))
    assert np.array_equal(L1, L2)


def test_stabilize_L_names_the_fixed_mode():
    E = compute_E(C, D)
    T = np.eye(2) - E @ C
    with pytest.raises(GainSearchError, match=r"infeasible: mode -11 "):
        stabilize_L(T, A, C, margin=11.5)


def observable(M, Cm):
    blocks = [Cm]
    for _ in range(M.shape[0] - 1):
        blocks.append(blocks[-1] @ M)
    s = np.linalg.svd(np.vstack(blocks), compute_uv=False)
    return int(np.count_nonzero(s > 1e-8 * s[0])) == M.shape[0]


@pytest.mark.parametrize("n", range(2, 9))
def test_stabilize_L_reaches_margin_on_observable_systems(n):
    # drawn like the certify-sweep design inputs: n_y = n_g + 1 outputs,
    # a decoupling channel D and an observable (TA, C)
    rng = np.random.default_rng(100 + n)
    n_g = 1 if n <= 5 else 2
    done = 0
    while done < 5:
        Am = rng.standard_normal((n, n))
        Cm = rng.standard_normal((n_g + 1, n))
        Dm = rng.standard_normal((n, n_g))
        if np.linalg.matrix_rank(Cm @ Dm) != n_g:
            continue
        Em = compute_E(Cm, Dm)
        Tm = np.eye(n) - Em @ Cm
        if not observable(Tm @ Am, Cm):
            continue
        Lm = stabilize_L(Tm, Am, Cm, margin=1.0)
        r = design_GJ(Am, Cm, Em, Lm, D=Dm)
        assert spectral_abscissa(r.G) <= -1.0
        assert r.residual_sylvester <= 1e-8 * max(1.0, np.max(np.abs(r.J)))
        done += 1


@pytest.mark.parametrize("seed, reason", [
    (0, "filter Riccati equation has no solution"),
    (1, r"Riccati gain reached spectral abscissa 6\.22455,"),
])
def test_stabilize_L_says_when_a_refusal_proves_nothing(seed, reason):
    # observable single-output systems with a margin about 4 times the
    # spectral radius of A: a gain exists, but the Riccati gain needs
    # entries near 1e8 and fails at working precision
    rng = np.random.default_rng(seed)
    n = int(rng.integers(7, 9))
    Am = rng.standard_normal((n, n))
    Cm = rng.standard_normal((1, n))
    margin = rng.uniform(3, 13) * max(abs(np.linalg.eigvals(Am))) / 3
    assert observable(Am, Cm)
    with pytest.raises(GainSearchError, match=reason) as exc:
        stabilize_L(np.eye(n), Am, Cm, margin)
    assert str(exc.value).endswith("infeasibility is not proven")


@pytest.mark.parametrize("c", [1e155, 1e308])
def test_stabilize_L_spans_an_output_too_large_to_square(c):
    # |C|_F^2 overflows, so the span tolerance is taken in scaled form: the
    # staircase spans R^2, no mode is called unobservable, and the Riccati
    # step, whose C'C overflows, refuses without a proof
    Cc = c * C
    T = np.eye(2) - compute_E(Cc, D) @ Cc
    with pytest.raises(GainSearchError, match="non-finite") as exc:
        stabilize_L(T, A, Cc, 3.0)
    assert str(exc.value).endswith("infeasibility is not proven")


def test_span_tolerance_is_unchanged_where_the_square_is_finite():
    for M in (C, 1e154 * C, A, np.zeros((1, 2))):
        assert design._span_tol(M) == 1e-10 * np.linalg.norm(M)
    assert design._span_tol(np.full((2, 2), 1.7e308)) == pytest.approx(3.4e298)


def planted_unobservable(rng, n, n_y, margin):
    """``(A, C, modes)``: a random observable part and an unobservable block
    of 1 to n states, in quasi-triangular form with its modes on a 1/8 grid
    (so the message prints them exactly) within 3 of ``-margin`` but not on
    it, mixed by a random orthogonal change of coordinates."""
    k = int(rng.integers(1, n + 1))
    grid = [a for a in np.arange(-margin - 3.0, -margin + 3.125, 0.125) if a != -margin]
    Au, modes, i = np.triu(rng.standard_normal((k, k)), 2), [], 0
    while i < k:
        a = float(rng.choice(grid))
        if i + 1 < k and rng.random() < 0.5:
            b = float(rng.integers(1, 25)) / 8.0
            Au[i:i + 2, i:i + 2] = [[a, b], [-b, a]]
            modes += [complex(a, b), complex(a, -b)]
            i += 2
        else:
            Au[i, i] = a
            modes.append(complex(a))
            i += 1
    Am = np.zeros((n, n))
    Am[:n - k, :n - k] = rng.standard_normal((n - k, n - k))
    Am[n - k:, :n - k] = rng.standard_normal((k, n - k))
    Am[n - k:, n - k:] = Au
    Cm = np.hstack([rng.standard_normal((n_y, n - k)), np.zeros((n_y, k))])
    Q = np.linalg.qr(rng.standard_normal((n, n)))[0]
    return Q @ Am @ Q.T, Cm @ Q.T, np.array(modes)


@settings(max_examples=80)
@given(n=st.integers(2, 8), n_y=st.integers(1, 2), seed=st.integers(0, 2**32 - 1))
def test_stabilize_L_refuses_iff_a_planted_unobservable_mode_is_right_of_margin(n, n_y, seed):
    rng = np.random.default_rng(seed)
    margin = float(rng.integers(1, 25)) / 8.0
    Am, Cm, modes = planted_unobservable(rng, n, n_y, margin)
    right = modes[modes.real > -margin]
    if right.size:
        with pytest.raises(GainSearchError, match="^infeasible: mode ") as exc:
            stabilize_L(np.eye(n), Am, Cm, margin)
        named = complex(re.search(r"mode \(?(\S+?)\)? of T A", str(exc.value)).group(1))
        rightmost = right[right.real == right.real.max()]
        assert np.min(np.abs(rightmost - named) / np.maximum(1.0, np.abs(rightmost))) <= 1e-6
    else:
        Lm = stabilize_L(np.eye(n), Am, Cm, margin)
        assert spectral_abscissa(Am - Lm @ Cm) <= -margin
