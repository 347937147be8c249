"""Dense linear-algebra helpers: shapes, ranks, pseudoinverse, the
definiteness margin (the one eigenvalue rule), the guarded product and the
Riccati kernel."""

import ast
import warnings
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.linalg import lapack, schur, solve_continuous_are

import cubicobs
from cubicobs.cert import _gamma_star
from cubicobs.numlin import (
    _care,
    _eigvals,
    _finite,
    _frobenius_norm,
    _hamiltonian,
    _svd,
    as_matrix,
    definiteness_margin,
    mat_rank,
    pinv,
)


def test_as_matrix_promotes_and_copies():
    M = as_matrix([[1, 2], [3, 4]])
    assert M.shape == (2, 2) and M.dtype == np.float64
    v = as_matrix([1.0, 2.0, 3.0])
    assert v.shape == (1, 3)


def test_as_matrix_rejects_nonfinite():
    with pytest.raises(ValueError, match="finite"):
        as_matrix([[1.0, np.inf]], "A")
    with pytest.raises(ValueError, match="B"):
        as_matrix([[np.nan]], "B")


def test_mat_rank_hand_cases():
    assert mat_rank(np.zeros((3, 3))) == 0
    assert mat_rank(np.eye(4)) == 4
    assert mat_rank([[1.0, 2.0], [2.0, 4.0]]) == 1
    # rank is insensitive to overall scale
    assert mat_rank(1e-14 * np.eye(2)) == 2


def test_mat_rank_near_deficient():
    # second column differs from a multiple of the first by ~1e-14
    M = np.array([[1.0, 2.0], [3.0, 6.0 + 1e-14]])
    assert mat_rank(M) == 1


def test_pinv_penrose_residuals():
    rng = np.random.default_rng(7)
    for _ in range(50):
        m, n = rng.integers(1, 6, size=2)
        M = rng.standard_normal((m, n))
        Mp = pinv(M)
        assert np.allclose(M @ Mp @ M, M, atol=1e-10)
        assert np.allclose(Mp @ M @ Mp, Mp, atol=1e-10)
        assert np.allclose((M @ Mp).T, M @ Mp, atol=1e-10)
        assert np.allclose((Mp @ M).T, Mp @ M, atol=1e-10)


def test_definiteness_margin_closed_form():
    S = np.array([[2.0, 1.0], [1.0, 2.0]])
    lo, hi = -definiteness_margin(-S), definiteness_margin(S)
    assert abs(lo - 1.0) < 1e-12 and abs(hi - 3.0) < 1e-12


def test_definiteness_margin_symmetrizes():
    # only the symmetric part matters
    S = np.array([[0.0, 1.0], [-1.0, 0.0]])
    lo, hi = -definiteness_margin(-S), definiteness_margin(S)
    assert abs(lo) < 1e-12 and abs(hi) < 1e-12


def test_definiteness_margin_needs_a_square_matrix():
    with pytest.raises(ValueError, match=r"expected a square matrix, got shape \(2, 3\)"):
        definiteness_margin(np.ones((2, 3)))


def test_definiteness_margin_of_a_matrix_near_the_float_range():
    # S + S^T overflows where S does not: the halves are summed instead,
    # unwarned, and a sum that fits gives the bits it gave before
    assert definiteness_margin([[1e308]]) == 1e308
    assert definiteness_margin([[-1e308, 1e308], [0.0, -1e308]]) == -0.5e308
    S = np.array([[0.3, 0.7], [0.1, -0.9]])
    assert definiteness_margin(S) == float(np.linalg.eigvalsh(0.5 * (S + S.T))[-1])


def test_definiteness_margin_signs():
    assert definiteness_margin(np.diag([-1.0, -2.0])) == pytest.approx(-1.0)
    assert definiteness_margin(np.diag([-1.0, 0.5])) == pytest.approx(0.5)
    assert definiteness_margin(np.zeros((2, 2))) == 0.0


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_frobenius_norm_of_a_non_finite_matrix_is_inf(bad):
    assert _frobenius_norm(np.array([[1.0, bad]]), 1e-9) == np.inf
    # the scaled path still serves a finite matrix whose squares overflow
    assert _frobenius_norm(np.array([[3e200, 4e200]]), 0.5) == pytest.approx(2.5e200, rel=1e-15)


def test_finite_returns_a_finite_product_itself():
    M = np.array([[1e308, -1e308], [0.0, 5e-324]])
    assert _finite("M", lambda: M) is M


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
@pytest.mark.parametrize("error, where", [(np.linalg.LinAlgError, ""),
                                          (ValueError, " in the initial state")])
def test_finite_refuses_a_non_finite_product_by_name(bad, error, where):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(error) as refusal:
            _finite("P G + G'P", lambda: np.array([[1.0, bad]]), error, where)
    assert str(refusal.value) == f"P G + G'P overflows{where}"


def test_finite_refuses_a_linear_algebra_failure_by_default():
    with pytest.raises(np.linalg.LinAlgError, match="^T A overflows$"):
        _finite("T A", lambda: np.array([[np.inf]]))


@pytest.mark.parametrize("form", [
    lambda: np.array([[1e308, 1e308]]) @ np.array([[1e308], [-1e308]]),  # inf - inf inside
    lambda: np.array([[1e200]]) * 1e200,
    lambda: np.array([1.0, -1.0]) / 0.0,
])
def test_finite_forms_an_overflowing_product_unwarned_and_refuses_it(form):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(np.linalg.LinAlgError, match=r"^E C overflows$"):
            _finite("E C", form)


def test_finite_passes_a_linear_algebra_error_of_its_form_through():
    with pytest.raises(np.linalg.LinAlgError, match="^Singular matrix$") as raised:
        _finite("P^-1", lambda: np.linalg.solve(np.zeros((2, 2)), np.ones(2)))
    assert type(raised.value) is np.linalg.LinAlgError


# Every place the package silences numpy's floating-point warnings itself, with
# why a non-finite value is legitimate there.  A product that is only refused
# when it overflows is formed by _finite instead.
WARNING_GUARDS = {
    ("numlin", "_finite"): "forms the product it refuses by name",
    ("numlin", "_eigvals"): "eigenvalues unscaled past the float range are inf",
    ("numlin", "_frobenius_norm"): "a sum of squares that overflows is rescaled",
    ("cert", "osl_lmi"): "one check of the assembled block, the failing part named after",
    ("cert", "verify_N_condition"): "the identity residual is inf when C' theta C overflows",
    ("cert", "_equilibrium_candidates"): "a pencil eigenvalue past the range is dropped or refused",
    ("cert", "check_equilibrium_uniqueness"): "a residual too large to square fails the bound",
    ("cert", "_osl_certificate.reduced"): "a multiplier past the range is a slack of -inf",
    ("cert", "_osl_certificate"): "Brent's step across a slack of -inf",
    ("design", "compute_E"): "a residual past the range fails the decoupling test",
    ("design", "verify_structure"): "one check of both residuals, the failing product named after",
    ("design", "stabilize_L"): "_care refuses a Hamiltonian that overflowed",
    ("sim", "_run"): "a diverging state is reported by the step's finiteness check",
    ("sim", "cumulative_error"): "an error too large to square makes jo inf",
    ("cli", "_print_output_error"): "a residual past the range prints nothing",
}


def _warning_guards(tree, lines):
    """``(function, commented)`` for each ``errstate``/``seterr`` call under
    ``tree``; ``commented`` when its line or the line above has a comment."""
    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                yield from visit(child, f"{scope}.{child.name}".lstrip("."))
                continue
            if isinstance(child, ast.Call) and ast.unparse(child.func).endswith(("errstate",
                                                                                "seterr")):
                here, above = lines[child.lineno - 1], lines[child.lineno - 2]
                yield scope, "#" in here or above.lstrip().startswith("#")
            yield from visit(child, scope)
    return visit(tree, "")


def test_numpy_warnings_are_silenced_only_where_a_non_finite_value_is_legitimate():
    found = Counter()
    for path in Path(cubicobs.__file__).parent.glob("*.py"):
        text = path.read_text()
        for scope, commented in _warning_guards(ast.parse(text), text.splitlines()):
            found[path.stem, scope] += 1
            assert commented, f"{path.stem}.{scope}: a warning guard needs its reason"
    assert found == Counter(WARNING_GUARDS.keys())


# --- Riccati kernel -------------------------------------------------------

def assert_stabilizing(A, S, Q, X, oracle):
    """``X`` solves ``A'X + XA - X S X + Q = 0`` to 1e-9 of the size of its
    terms, makes ``A - S X`` Hurwitz and is scipy's solution within 1e-8."""
    nrm = np.linalg.norm
    residual = A.T @ X + X @ A - X @ S @ X + Q
    scale = 2.0 * nrm(A) * nrm(X) + nrm(X) ** 2 * nrm(S) + nrm(Q)
    assert nrm(residual) <= 1e-9 * scale
    assert np.max(np.linalg.eigvals(A - S @ X).real) < 0.0
    assert nrm(X - oracle) <= 1e-8 * nrm(oracle)


@settings(max_examples=60)
@given(n=st.integers(1, 8), seed=st.integers(0, 2**32 - 1))
def test_care_stabilizing_for_positive_S(n, seed):
    # (A, B) is stabilizable and Q > 0 for almost every draw; A need not be
    # Hurwitz
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((n, n)) * 10.0 ** rng.uniform(-1.0, 1.0)
    B = rng.standard_normal((n, int(rng.integers(1, n + 1))))
    R = rng.standard_normal((n, n))
    Q = R @ R.T + 0.1 * np.eye(n)
    oracle = solve_continuous_are(A, B, Q, np.eye(B.shape[1]))
    assert_stabilizing(A, B @ B.T, Q, _care(A, B @ B.T, Q), oracle)


@settings(max_examples=60)
@given(n=st.integers(1, 8), seed=st.integers(0, 2**32 - 1),
       frac=st.floats(0.05, 0.9))
def test_care_stabilizing_for_indefinite_S_below_gamma_star(n, seed, frac):
    # the bounded-real form P G + G'P + P T T'P + q I = 0: S = -T T' and a
    # stabilizing solution exists for q < gamma*^2
    rng = np.random.default_rng(seed)
    M = rng.standard_normal((n, n))
    G = M - (np.max(np.linalg.eigvals(M).real) + rng.uniform(0.1, 2.0)) * np.eye(n)
    T = rng.standard_normal((n, n))
    q = frac * _gamma_star(G, T)[0] ** 2
    oracle = solve_continuous_are(G, T, q * np.eye(n), -np.eye(n))
    assert_stabilizing(G, -T @ T.T, q * np.eye(n), _care(G, -T @ T.T, q * np.eye(n)), oracle)


@pytest.mark.parametrize("q", [1.0 + 1e-6, 2.0, 100.0])
def test_care_refuses_above_gamma_star(q):
    # G = [[-1]], T = 1 has gamma*^2 = 1: above it the Hamiltonian's
    # eigenvalues +-j sqrt(q - 1) lie on the axis
    with pytest.raises(np.linalg.LinAlgError):
        _care(np.array([[-1.0]]), np.array([[-1.0]]), np.array([[q]]))


def test_care_solves_through_a_subnormal_coupling_unwarned():
    # a coupling of 1e-320 asks dgebal for scales near 2^+-533; bounded to
    # 2^+-32 they keep the entries X needs, and X is that of a zero coupling
    # to about seven digits (the 2^64 ratio of the bounded scales costs the rest)
    T = np.array([[0.0, 0.0], [1.0, 1.0]])
    decoupled = _care(np.array([[-10.0, 0.0], [1.0, -11.0]]), -T @ T.T, 30.7 * np.eye(2))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        X = _care(np.array([[-10.0, 1e-320], [1.0, -11.0]]), -T @ T.T, 30.7 * np.eye(2))
    assert np.max(np.abs(X - decoupled)) <= 1e-6 * np.max(np.abs(decoupled))


_EDGE_ENTRIES = [1e308, -1e308, 1e300, 1e280, 1e200, 1.0, -1.0, 1e-300, 0.0, 1e-320]


@settings(max_examples=400, deadline=None)
@given(st.lists(st.sampled_from(_EDGE_ENTRIES), min_size=12, max_size=12))
def test_care_on_entries_at_the_float_range_solves_or_refuses_unwarned(entries):
    # cond(U11) is decided without the quotient that overflows, and X is formed
    # through the guarded product: a finite symmetric X or LinAlgError
    A, S, Q = np.reshape(entries, (3, 2, 2))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            X = _care(A, S, Q)
        except np.linalg.LinAlgError:
            return
    assert np.isfinite(X).all() and np.array_equal(X, X.T)


@pytest.mark.parametrize("spread", [1e4, 1e5, 1e6])
def test_care_accurate_when_states_are_badly_scaled(spread):
    # X = D X0 D solves the equation for D^-1 A0 D, D^-1 S0 D^-1 and D Q0 D:
    # the balancing undoes D up to powers of two, so X keeps the accuracy of
    # the well-scaled problem
    rng = np.random.default_rng(3)
    A0 = rng.standard_normal((4, 4))
    B0 = rng.standard_normal((4, 1))
    X0 = solve_continuous_are(A0, B0, np.eye(4), np.eye(1))
    d = np.geomspace(1.0 / spread, spread, 4)
    DD = np.outer(d, d)
    X = _care(A0 * d / d[:, None], B0 @ B0.T / DD, np.diag(d * d))
    assert np.max(np.abs(X / DD - X0)) <= 1e-10 * np.max(np.abs(X0))


# --- LAPACK kernels ---------------------------------------------------------

def _matched(got, want):
    """Largest distance from an eigenvalue of ``got`` to its nearest in ``want``."""
    return float(np.max(np.min(np.abs(got[:, None] - want[None, :]), axis=1), initial=0.0))


@settings(max_examples=150, deadline=None)
@given(m=st.integers(1, 16), n=st.integers(1, 16), rank=st.integers(0, 16),
       k=st.integers(-300, 300), seed=st.integers(0, 2**32 - 1))
def test_kernels_agree_with_numpy_over_the_float_range(m, n, rank, k, seed):
    # rank-deficient draws included; 10^k scales past dgeev's own scaling range
    rng = np.random.default_rng(seed)
    r = min(rank, m, n)
    M = rng.standard_normal((m, r)) @ rng.standard_normal((r, n)) if r < min(m, n) \
        else rng.standard_normal((m, n))
    M = M * 10.0**k
    top = float(np.max(np.abs(M), initial=0.0)) or 1.0
    s = _svd(M, compute_uv=False)
    assert np.max(np.abs(s - np.linalg.svd(M, compute_uv=False))) <= 1e-13 * top * max(m, n)
    assert np.max(np.abs(pinv(M) - np.linalg.pinv(M))) <= 1e-13 * np.max(np.abs(np.linalg.pinv(M)),
                                                                           initial=1.0) * max(m, n)**2
    u, s, vt = _svd(M, full_matrices=False)
    assert np.max(np.abs((u * s) @ vt - M), initial=0.0) <= 1e-13 * top * max(m, n)
    S = M[:min(m, n), :min(m, n)]
    w = _eigvals(S)
    assert w.dtype == complex
    assert _matched(w, np.linalg.eigvals(S).astype(complex)) <= 1e-13 * top * S.shape[0]


def test_eigvals_of_a_matrix_near_the_top_of_the_float_range():
    # dgeev scales this matrix itself, and OpenBLAS 0.3.30 unscales it to
    # -1.49e138; a power-of-two prescale keeps it out of that branch
    w = _eigvals(np.array([[0.0, 0.0], [-2e155, -1e156]]))
    assert sorted(w.real) == [-1e156, 0.0] and not w.imag.any()


def test_kernels_are_numpy_on_certify_sweep_sizes():
    # inside the prescale range the kernels make numpy's LAPACK call
    rng = np.random.default_rng(11)
    for n in range(1, 9):
        M = rng.standard_normal((n, n))
        assert np.array_equal(_eigvals(M), np.linalg.eigvals(M).astype(complex))
        assert np.array_equal(_svd(M, compute_uv=False), np.linalg.svd(M, compute_uv=False))
        assert np.array_equal(pinv(M), np.linalg.pinv(M))


def _care_by_schur(A, S, Q):
    """``_care`` with ``scipy.linalg.schur`` in place of its ``dgees`` call."""
    n = A.shape[0]
    H = _hamiltonian(A, S, Q)
    s = np.log2(lapack.dgebal(np.abs(H) * (1.0 - np.eye(2 * n)), scale=1, permute=0)[3])
    d = 2.0 ** np.round(0.5 * (s[:n] - s[n:])).clip(-32.0, 32.0)
    t = np.concatenate([d, 1.0 / d])
    _, U, dim = schur(H * (t / t[:, None]), sort="lhp")
    assert dim == n
    X = np.linalg.solve(U[:n, :n].T, U[n:, :n].T) / np.outer(d, d)
    return 0.5 * (X + X.T)


@settings(max_examples=40)
@given(n=st.integers(1, 8), seed=st.integers(0, 2**32 - 1))
def test_care_is_its_schur_form_bit_for_bit(n, seed):
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((n, n))
    B = rng.standard_normal((n, int(rng.integers(1, n + 1))))
    R = rng.standard_normal((n, n))
    Q = R @ R.T + 0.1 * np.eye(n)
    assert np.array_equal(_care(A, B @ B.T, Q), _care_by_schur(A, B @ B.T, Q))


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_kernels_fail_on_non_finite_input_as_numpy_does(bad):
    M = np.array([[1.0, bad], [0.0, 2.0]])
    for kernel, reference in [(_eigvals, np.linalg.eigvals),
                              (lambda a: _svd(a, compute_uv=False),
                               lambda a: np.linalg.svd(a, compute_uv=False)),
                              (_svd, np.linalg.svd),
                              (lambda a: _svd(a, full_matrices=False),
                               lambda a: np.linalg.svd(a, full_matrices=False))]:
        try:
            reference(M)
        except np.linalg.LinAlgError:
            with pytest.raises(np.linalg.LinAlgError):
                kernel(M)
        else:  # numpy answers an inf entry with nan singular values
            out = kernel(M)
            assert np.isnan(out if isinstance(out, np.ndarray) else out[1]).all()
