"""Acceptance gate: one criterion per test, one printed verdict line each.

Each test exercises a released capability end to end at frozen tolerances.
The ``acceptance NN label: PASS/FAIL`` lines print with capture suspended so
they show up in piped logs regardless of pytest's capture mode.
"""

import time
from contextlib import contextmanager

import numpy as np
import pytest

from cubicobs import cert, design, model, numlin, sim
from cubicobs.exprlang import parse, unparse

from test_exprlang import DIMS, random_expr
from test_sim import end_error, linear_triplet


@pytest.fixture
def criterion(capsys):
    @contextmanager
    def _criterion(num, label):
        verdict = "FAIL"
        try:
            yield
            verdict = "PASS"
        finally:
            with capsys.disabled():
                print(f"acceptance {num:02d} {label}: {verdict}", flush=True)

    return _criterion


@pytest.fixture(scope="module")
def bundle():
    return model.example_system()


@pytest.fixture(scope="module")
def study(tmp_path_factory):
    out = tmp_path_factory.mktemp("study")
    t0 = time.perf_counter()
    report = sim.example_study(out)
    return report, time.perf_counter() - t0


def test_01_structural_gains_exact(bundle, criterion):
    with criterion(1, "decoupling and structural gains"):
        plant = bundle.nominal
        obs = bundle.observer
        E = design.compute_E(plant.C, plant.D)
        assert np.max(np.abs(E - [[1.0], [-1.0]])) <= 1e-12
        res_syl, res_dec = design.verify_structure(
            plant.A, plant.C, plant.D, obs.E, obs.G, obs.J
        )
        assert res_syl <= 1e-12
        assert res_dec <= 1e-12


def test_02_cubic_gain_published_value(bundle, criterion):
    with criterion(2, "published cubic gain within 5%"):
        crt = bundle.certificate
        N = cert.cubic_gain(crt.P, bundle.nominal.C, [[1.0]], 1.0)
        published = np.array([[-0.017], [0.0017]])
        assert np.all(np.abs(N - published) <= 0.05 * np.abs(published))


def test_03_certificate_verification(bundle, criterion):
    with criterion(3, "stored certificate verifies in under 1 s"):
        plant = bundle.nominal
        obs = bundle.observer
        crt = bundle.certificate
        t0 = time.perf_counter()
        margin = cert.verify_lmi_lipschitz(
            crt.P, crt.beta, bundle.lipschitz.gamma, obs.G, obs.E, plant.C
        )
        with pytest.warns(RuntimeWarning, match="semidefinite"):
            ncond = cert.verify_N_condition(crt.P, obs.N, plant.C,
                                            obs.theta, obs.alpha)
        elapsed = time.perf_counter() - t0
        assert margin < 0
        target = -2.0 * plant.C.T @ obs.theta @ plant.C
        assert np.max(np.abs(ncond.matrix - target)) <= 1e-9
        assert ncond.classification == "semidefinite-pass"
        assert elapsed < 1.0


def test_04_certificate_search(bundle, criterion):
    with criterion(4, "certificate search under 60 s"):
        plant = bundle.nominal
        obs = bundle.observer
        t0 = time.perf_counter()
        found = cert.search_P(bundle.lipschitz, obs.G, obs.E, plant.C)
        elapsed = time.perf_counter() - t0
        # recompute the margin independently of search internals
        margin = cert.verify_lmi_lipschitz(
            found.P, found.beta, bundle.lipschitz.gamma, obs.G, obs.E, plant.C
        )
        assert margin < -1e-6
        assert elapsed < 60.0


def test_05_linear_oracle_and_rk4_order(criterion):
    with criterion(5, "linear oracle and RK4 order"):
        rng = np.random.default_rng(11)
        for _ in range(3):
            plant, obs = linear_triplet(rng)
            x0 = rng.standard_normal(3)
            xhat0 = rng.standard_normal(3)
            assert end_error(plant, obs, x0, xhat0, h=0.001, t_end=2.0) <= 1e-6
        rng = np.random.default_rng(13)
        plant, obs = linear_triplet(rng)
        x0 = rng.standard_normal(3)
        xhat0 = rng.standard_normal(3)
        coarse = end_error(plant, obs, x0, xhat0, h=0.001, t_end=2.0)
        fine = end_error(plant, obs, x0, xhat0, h=0.0005, t_end=2.0)
        assert coarse / fine >= 12.0


def test_06_mismatch_study_ratio(study, criterion):
    with criterion(6, "mismatch study: cubic beats linear, under 30 s"):
        report, elapsed = study
        costs = [report.nominal.jo_cubic, report.nominal.jo_linear,
                 report.uncertain.jo_cubic, report.uncertain.jo_linear]
        assert np.isfinite(costs).all()
        assert report.uncertain.ratio < 1.0
        assert elapsed < 30.0


def test_07_nominal_study_band(study, criterion):
    with criterion(7, "nominal study ratio within [0.5, 1.5]"):
        report, _ = study
        assert 0.5 <= report.nominal.ratio <= 1.5


def test_08_lyapunov_nonincreasing(bundle, criterion):
    with criterion(8, "Lyapunov function nonincreasing"):
        plant = bundle.nominal
        cfg = sim.SimConfig(
            h=0.001,
            t_end=20.0,
            x0=(0.0, 0.0),
            xhat0=(-5.0, -5.0),
            input_signal=sim.input_signals(sim.DEFAULT_INPUT_SIGNAL, plant.n_u),
        )
        res = sim.simulate(plant, plant, bundle.observer, cfg)
        e = res.x - res.xhat
        P = bundle.certificate.P
        V = np.einsum("ij,jk,ik->i", e, P, e)
        assert np.max(np.diff(V)) <= 1e-9


def test_09_property_suites(criterion):
    with criterion(9, "randomized property suites"):
        # Penrose residuals
        rng = np.random.default_rng(7)
        for _ in range(50):
            m, n = rng.integers(1, 6, size=2)
            M = rng.standard_normal((m, n))
            Mp = numlin.pinv(M)
            scale = max(1.0, float(np.max(np.abs(M))))
            assert np.max(np.abs(M @ Mp @ M - M)) <= 1e-10 * scale
            assert np.max(np.abs(Mp @ M @ Mp - Mp)) <= 1e-10 * scale
            assert np.max(np.abs((M @ Mp) - (M @ Mp).T)) <= 1e-10 * scale
            assert np.max(np.abs((Mp @ M) - (Mp @ M).T)) <= 1e-10 * scale

        # expression round trip over 200 random trees
        rng = np.random.default_rng(12345)
        for i in range(200):
            with_time = bool(i % 2)
            e = random_expr(rng, depth=int(rng.integers(1, 5)), with_time=with_time)
            text = unparse(e)
            assert parse(text, DIMS, allow_time=with_time) == e

        # structural residuals over 100 feasible random channels
        rng = np.random.default_rng(42)
        checked = 0
        while checked < 100:
            n = int(rng.integers(3, 6))
            n_y = int(rng.integers(1, n + 1))
            n_g = int(rng.integers(1, n_y + 1))
            C = rng.standard_normal((n_y, n))
            D = rng.standard_normal((n, n_g))
            if not design.decoupling_feasible(C, D):
                continue
            E = design.compute_E(C, D)
            L = rng.standard_normal((n, n_y))
            r = design.design_GJ(np.asarray(rng.standard_normal((n, n))), C, E, L, D=D)
            assert r.residual_sylvester <= 1e-9
            assert r.residual_decoupling <= 1e-9
            checked += 1

        # cubic-gain algebraic identity over 100 random draws
        rng = np.random.default_rng(2024)
        for _ in range(100):
            n = int(rng.integers(2, 6))
            p = int(rng.integers(1, n + 1))
            Q = rng.standard_normal((n, n))
            P = Q @ Q.T + n * np.eye(n)
            C = rng.standard_normal((p, n))
            R = rng.standard_normal((p, p))
            theta = R @ R.T + np.eye(p)
            alpha = float(10.0 ** rng.uniform(-1, 1))
            N = cert.cubic_gain(P, C, theta, alpha)
            M = P @ N @ C
            resid = np.max(np.abs(M + M.T + 2.0 * alpha * (C.T @ theta @ C)))
            scale = max(1.0, float(np.max(np.abs(C.T @ theta @ C))))
            assert resid <= 1e-9 * scale


def test_10_falsifier_soundness(criterion):
    with criterion(10, "equilibrium verdict is sound"):
        rng = np.random.default_rng(77)
        found = 0
        for i in range(40):
            n = int(rng.integers(2, 4))
            p = int(rng.integers(1, n + 1))
            G = rng.standard_normal((n, n))
            N = rng.standard_normal((n, p))
            C = rng.standard_normal((p, n))
            R = rng.standard_normal((p, p))
            theta = R @ R.T + 0.1 * np.eye(p)
            verdict = cert.check_equilibrium_uniqueness(
                G, N, C, theta,
                cert.EquilibriumSearchOptions(seed=i),
            )
            if verdict.status == cert.COUNTEREXAMPLE:
                found += 1
                assert verdict.residual <= 1e-8
        assert found >= 1  # the randomized sweep must actually exercise the claim

        # planted kernels: cubic term absent, singular G, must always be found
        rng = np.random.default_rng(5)
        for _ in range(10):
            n = int(rng.integers(2, 5))
            G = rng.standard_normal((n, n))
            G[:, 0] = G[:, 1]  # right null vector (1, -1, 0, ...)
            theta = np.zeros((1, 1))
            verdict = cert.check_equilibrium_uniqueness(
                G, rng.standard_normal((n, 1)), rng.standard_normal((1, n)), theta
            )
            assert verdict.status == cert.COUNTEREXAMPLE
            assert verdict.residual <= 1e-8
            assert np.linalg.norm(G @ verdict.v) <= 1e-8 * np.linalg.norm(verdict.v)
