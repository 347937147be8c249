"""Command-line interface: exit codes, artifacts, determinism."""

import argparse
import contextlib
import copy
import io
import json
import os
import re
import subprocess
import sys
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings, strategies as st

from cubicobs import cert, model, sim
from cubicobs.cli import (
    EXIT_CONFIG_ERROR,
    EXIT_NUMERICAL_FAILURE,
    EXIT_OK,
    EXIT_VERIFICATION_FAILED,
    _print_output_error,
    build_parser,
    main,
    parse_matrix_flag,
)
from cubicobs.design import spectral_abscissa, stabilize_L, verify_structure


@pytest.fixture(scope="module")
def configs(tmp_path_factory):
    root = tmp_path_factory.mktemp("configs")
    ex = model.example_system()
    nominal = root / "nominal.json"
    uncertain = root / "uncertain.json"
    model.save_config(ex.nominal_config(), nominal)
    model.save_config(ex.uncertain_config(), uncertain)
    return {"root": root, "nominal": nominal, "uncertain": uncertain}


# --- matrix flags ---------------------------------------------------------

def test_parse_matrix_flag_forms():
    assert np.array_equal(parse_matrix_flag("[1 2; 3 4]"), [[1.0, 2.0], [3.0, 4.0]])
    assert np.array_equal(parse_matrix_flag("[10;-3]"), [[10.0], [-3.0]])
    assert np.array_equal(parse_matrix_flag("1, 2, 3"), [[1.0, 2.0, 3.0]])


def test_parse_matrix_flag_errors():
    with pytest.raises(model.ConfigError, match="ragged"):
        parse_matrix_flag("[1 2; 3]")
    with pytest.raises(model.ConfigError):
        parse_matrix_flag("[1 two]")
    with pytest.raises(model.ConfigError):
        parse_matrix_flag("[;]")


# --- design ---------------------------------------------------------------

def test_design_with_explicit_L(configs, tmp_path, capsys):
    out = tmp_path / "designed.json"
    code = main(["design", "--config", str(configs["nominal"]),
                 "--L", "[10;-3]", "--out", str(out)])
    assert code == EXIT_OK
    captured = capsys.readouterr()
    assert "residual_sylvester=" in captured.out
    doc = json.loads(out.read_text())
    assert np.allclose(doc["observer"]["G"], [[-10.0, 0.0], [1.0, -11.0]])
    assert np.allclose(doc["observer"]["J"], [[0.0], [9.0]])
    assert np.allclose(doc["observer"]["E"], [[1.0], [-1.0]])
    # round trip: the written config re-loads and re-verifies
    cfg = model.load_config(out)
    res_syl, res_dec = verify_structure(
        cfg.plant.A, cfg.plant.C, cfg.plant.D,
        cfg.observer.E, cfg.observer.G, cfg.observer.J,
    )
    assert res_syl <= 1e-12
    assert res_dec <= 1e-12


def test_design_and_certify_say_when_the_output_error_is_autonomous(configs, tmp_path, capsys):
    # the bundled design has C E = I, so (I - C E) C = 0; with n_y = 2 > n_g
    # = 1, C E is a rank-one projector and (I - C E) C != 0
    multi = tmp_path / "multi.json"
    multi.write_text(json.dumps({
        "n": 3, "n_u": 0, "n_y": 2, "n_g": 1,
        "A": [[-1.0, 0.0, 0.0], [0.0, -2.0, 0.0], [0.0, 0.0, -3.0]],
        "C": [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]], "D": [[1.0], [0.0], [1.0]],
        "delta": [], "tau": [], "f_u": ["0", "0", "0"], "f_g": ["0"],
        "f_L": ["0", "0", "0"], "lipschitz": {"gamma": 0.1}}))
    for config, want in ((configs["nominal"], ["output_error=autonomous"]), (multi, [])):
        designed = tmp_path / "designed.json"
        for argv in (["design", "--config", str(config), "--auto-margin", "1",
                      "--out", str(designed)],
                     ["certify", "--config", str(designed), "--search-P"]):
            assert main(argv) == EXIT_OK
            out = capsys.readouterr().out.splitlines()
            assert [line for line in out if line.startswith("output_error=")] == want


def test_design_auto_margin(configs, tmp_path, capsys):
    out = tmp_path / "auto.json"
    code = main(["design", "--config", str(configs["nominal"]),
                 "--auto-margin", "5.0", "--out", str(out)])
    assert code == EXIT_OK
    assert spectral_abscissa(model.load_config(out).observer.G) <= -5.0 + 1e-9
    capsys.readouterr()


def test_no_second_riccati_path(configs, tmp_path, monkeypatch, capsys):
    # every Riccati equation goes through numlin's Schur kernel
    def refuse(*args, **kwargs):
        raise AssertionError("scipy.linalg.solve_continuous_are called")

    monkeypatch.setattr(scipy.linalg, "solve_continuous_are", refuse)
    ex = model.example_system()
    obs, plant = ex.nominal_config().observer, ex.nominal_config().plant
    found = cert.search_P(model.Lipschitz(gamma=1.0), obs.G, obs.E, plant.C)
    assert cert.verify_lmi_lipschitz(found.P, found.beta, 1.0, obs.G, obs.E, plant.C) < 0.0
    a = (0.99 * cert.max_lipschitz_gamma(obs.G, obs.E, plant.C)) ** 2
    osl = model.OneSidedLipschitz(rho=-3.0, a=a, b=0.0)
    found = cert.search_P(osl, obs.G, obs.E, plant.C)
    assert cert.verify_lmi_osl(found.P, found.mu1, found.mu2, osl.rho, osl.a, osl.b,
                               obs.G, obs.E, plant.C) < 0.0
    T = np.eye(2) - obs.E @ plant.C
    L = stabilize_L(T, plant.A, plant.C, margin=5.0)
    assert spectral_abscissa(T @ plant.A - L @ plant.C) <= -5.0
    assert main(["design", "--config", str(configs["nominal"]), "--auto-margin", "1",
                 "--out", str(tmp_path / "auto.json")]) == EXIT_OK
    capsys.readouterr()


def test_equilibrium_needs_no_eigenvectors(configs, monkeypatch, capsys):
    # the equilibrium verdict takes the pencil's eigenvalues from LAPACK
    # dggev and its eigenspaces from one stacked SVD, not from scipy's eig
    def refuse(*args, **kwargs):
        raise AssertionError("scipy.linalg.eig called")

    monkeypatch.setattr(scipy.linalg, "eig", refuse)
    C1 = np.array([[1.0, 0.0]])
    rest = cert.check_equilibrium_uniqueness(-np.eye(2), [[1.0], [0.0]], C1, [[1.0]])
    assert rest.status == cert.COUNTEREXAMPLE and rest.residual <= 1e-8
    none = cert.check_equilibrium_uniqueness(-np.eye(2), [[-1.0], [0.0]], C1, [[1.0]])
    assert none.status == cert.NO_COUNTEREXAMPLE
    code = main(["certify", "--config", str(configs["nominal"]), "--check-only"])
    assert code == EXIT_OK
    assert "equilibrium=no-counterexample" in capsys.readouterr().out


def test_design_without_observer_writes_the_default_gains(configs, tmp_path, capsys):
    # the designed observer takes N = 0, theta = I and alpha = 1 from
    # ObserverParams, as a loaded observer block without them does
    doc = json.loads(configs["nominal"].read_text())
    del doc["observer"], doc["certificate"]
    bare = tmp_path / "bare.json"
    bare.write_text(json.dumps(doc))
    out = tmp_path / "designed.json"
    assert main(["design", "--config", str(bare), "--L", "[10;-3]", "--out", str(out)]) == EXIT_OK
    written = json.loads(out.read_text())["observer"]
    assert written["theta"] == [[1.0]]
    assert written["N"] == [[0.0], [0.0]]
    assert written["alpha"] == 1.0
    capsys.readouterr()


def test_design_infeasible_channel(configs, tmp_path, capsys):
    doc = json.loads(configs["nominal"].read_text())
    doc["D"] = [[0.0], [1.0]]
    bad = tmp_path / "bad_channel.json"
    bad.write_text(json.dumps(doc))
    code = main(["design", "--config", str(bad),
                 "--L", "[10;-3]", "--out", str(tmp_path / "x.json")])
    assert code == EXIT_VERIFICATION_FAILED
    assert "rank(CD)" in capsys.readouterr().err


def test_design_borderline_rank_is_an_infeasible_exit(tmp_path, capsys):
    # sigma_min(CD) / sigma_max(CD) = 1e-9 passes the rank test, but
    # E = D (CD)^+ then leaves (I - EC) D at ~4e-8, which compute_E rejects
    doc = {
        "n": 3, "n_u": 0, "n_y": 2, "n_g": 2,
        "A": [[-1.0, 0.0, 0.0], [0.0, -2.0, 0.0], [0.0, 0.0, -3.0]],
        "C": [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]],
        "D": [[1.0, 1.0], [1.0, 1.0 + 4e-9], [0.0, 1.0]],
        "delta": [], "tau": [],
        "f_u": ["0", "0", "0"], "f_g": ["0", "0"], "f_L": ["0", "0", "0"],
        "lipschitz": {"gamma": 1.0},
    }
    cfg = tmp_path / "borderline.json"
    cfg.write_text(json.dumps(doc))
    code = main(["design", "--config", str(cfg),
                 "--L", "[1 0; 0 1; 0 0]", "--out", str(tmp_path / "x.json")])
    assert code == EXIT_VERIFICATION_FAILED
    assert "rank(CD)" in capsys.readouterr().err


def test_design_malformed_expression(configs, tmp_path, capsys):
    doc = json.loads(configs["nominal"].read_text())
    doc["f_L"][0] = "x1 +"
    bad = tmp_path / "bad_expr.json"
    bad.write_text(json.dumps(doc))
    code = main(["design", "--config", str(bad),
                 "--L", "[10;-3]", "--out", str(tmp_path / "x.json")])
    assert code == EXIT_CONFIG_ERROR
    assert "f_L[0]" in capsys.readouterr().err


def test_design_bad_L_flag(configs, tmp_path, capsys):
    code = main(["design", "--config", str(configs["nominal"]),
                 "--L", "[1 2; 3 4]", "--out", str(tmp_path / "x.json")])
    assert code == EXIT_CONFIG_ERROR
    assert "--L" in capsys.readouterr().err


def test_design_unreachable_margin_is_reported_infeasible(configs, tmp_path, capsys):
    code = main(["design", "--config", str(configs["nominal"]),
                 "--auto-margin", "11.5", "--out", str(tmp_path / "x.json")])
    assert code == EXIT_NUMERICAL_FAILURE
    err = capsys.readouterr().err
    assert "infeasible" in err and "mode -11" in err
    assert "best found" not in err


def test_design_deterministic_auto_search(configs, tmp_path, capsys):
    outs = []
    for name in ("a.json", "b.json"):
        out = tmp_path / name
        assert main(["design", "--config", str(configs["nominal"]),
                     "--auto-margin", "3.0",
                     "--out", str(out)]) == EXIT_OK
        outs.append(out.read_text())
    assert outs[0] == outs[1]
    capsys.readouterr()


# --- certify --------------------------------------------------------------

def test_certify_check_only_published(configs, capsys):
    before = configs["nominal"].read_bytes()
    code = main(["certify", "--config", str(configs["nominal"]), "--check-only"])
    assert code == EXIT_OK
    assert configs["nominal"].read_bytes() == before  # check never mutates
    out = capsys.readouterr().out
    margin = float(out.split("lmi_margin=")[1].splitlines()[0])
    assert margin < 0
    assert "n_classification=semidefinite-pass" in out
    assert "equilibrium=no-counterexample" in out
    assert float(out.split("n_identity_residual=")[1].split()[0]) <= 1e-12


def test_certify_check_only_checks_structure(configs, tmp_path, capsys):
    assert main(["certify", "--config", str(configs["nominal"]),
                 "--check-only"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "residual_sylvester=0.000e+00" in out
    assert "residual_decoupling=0.000e+00" in out

    # the LMI still holds for an edited G, but T A - J C - G T != 0 means it
    # no longer describes the observer's error dynamics
    doc = json.loads(configs["nominal"].read_text())
    doc["observer"]["G"] = [[-10.0, 0.0], [1.0, -12.0]]
    edited = tmp_path / "edited_G.json"
    edited.write_text(json.dumps(doc))
    code = main(["certify", "--config", str(edited), "--check-only"])
    assert code == EXIT_VERIFICATION_FAILED
    out = capsys.readouterr().out
    assert float(out.split("residual_sylvester=")[1].splitlines()[0]) >= 0.5
    assert float(out.split("lmi_margin=")[1].splitlines()[0]) < 0


def test_certify_check_only_needs_certificate(configs, tmp_path, capsys):
    doc = json.loads(configs["nominal"].read_text())
    del doc["certificate"]
    stripped = tmp_path / "no_cert.json"
    stripped.write_text(json.dumps(doc))
    code = main(["certify", "--config", str(stripped), "--check-only"])
    assert code == EXIT_CONFIG_ERROR
    capsys.readouterr()


@pytest.mark.parametrize("flag", ["--out"])
def test_certify_check_only_rejects_search_flags(configs, tmp_path, capsys, flag):
    out = tmp_path / "certified.json"
    value = str(out) if flag == "--out" else "2"
    code = main(["certify", "--config", str(configs["nominal"]), "--check-only", flag, value])
    assert code == EXIT_CONFIG_ERROR
    assert "apply only to --search-P" in capsys.readouterr().err
    assert not out.exists()


def test_certify_takes_alpha_only_from_the_config(configs, capsys):
    # alpha is the config's observer.alpha; a flag for it is a usage error
    for mode in ("--check-only", "--search-P"):
        code = main(["certify", "--config", str(configs["nominal"]), mode, "--alpha", "2"])
        assert code == EXIT_CONFIG_ERROR
        assert "unrecognized arguments: --alpha 2" in capsys.readouterr().err


@pytest.mark.parametrize("mode", ["--check-only", "--search-P"])
@pytest.mark.parametrize("config, expected", [("nominal", EXIT_OK),
                                              ("uncertain", EXIT_VERIFICATION_FAILED)])
def test_certify_reports_each_verdict_once(configs, mode, config, expected):
    # a fresh interpreter under Python's default warning filters: a warning
    # raised anywhere in certify would reach its stderr
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    proc = subprocess.run([sys.executable, "-m", "cubicobs.cli", "certify",
                           "--config", str(configs[config]), mode],
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == expected
    assert proc.stderr == ""
    assert "n_classification=semidefinite-pass" in proc.stdout.splitlines()
    assert "warning:" not in proc.stdout

def test_certify_mode_mismatch(configs, tmp_path, capsys):
    doc = json.loads(configs["nominal"].read_text())
    doc["lipschitz"] = {"rho": 0.5, "a": 0.75, "b": 1.5}
    mixed = tmp_path / "mixed.json"
    mixed.write_text(json.dumps(doc))
    code = main(["certify", "--config", str(mixed), "--check-only"])
    assert code == EXIT_CONFIG_ERROR
    assert "beta" in capsys.readouterr().err


def test_certify_check_only_rejects_nonpositive_multiplier(configs, tmp_path, capsys):
    doc = json.loads(configs["nominal"].read_text())
    doc["certificate"]["beta"] = -1.0
    bad = tmp_path / "negative_beta.json"
    bad.write_text(json.dumps(doc))
    code = main(["certify", "--config", str(bad), "--check-only"])
    assert code == EXIT_VERIFICATION_FAILED
    assert "certificate invalid: beta must be positive" in capsys.readouterr().err


def test_certify_search_P_writes_verified_certificate(configs, tmp_path, capsys):
    out = tmp_path / "certified.json"
    code = main(["certify", "--config", str(configs["nominal"]),
                 "--search-P", "--out", str(out)])
    assert code == EXIT_OK
    cfg = model.load_config(out)
    crt = cfg.certificate
    margin = cert.verify_lmi_lipschitz(
        crt.P, crt.beta, 1.0, cfg.observer.G, cfg.observer.E, cfg.plant.C
    )
    assert margin < -1e-6
    assert np.any(cfg.observer.N != 0)
    capsys.readouterr()


def test_certify_one_sided_search_then_check_only(configs, tmp_path, capsys):
    doc = json.loads(configs["nominal"].read_text())
    doc["lipschitz"] = {"rho": 0.5, "a": 50, "b": 0.1}
    del doc["certificate"]  # its beta belongs to the Lipschitz bound
    osl = tmp_path / "osl.json"
    osl.write_text(json.dumps(doc))
    out = tmp_path / "osl_certified.json"
    code = main(["certify", "--config", str(osl), "--search-P", "--out", str(out)])
    assert code == EXIT_OK
    crt = model.load_config(out).certificate
    assert crt.beta is None and crt.mu1 > 0 and crt.mu2 > 0
    capsys.readouterr()
    code = main(["certify", "--config", str(out), "--check-only"])
    assert code == EXIT_OK
    assert float(capsys.readouterr().out.split("lmi_margin=")[1].split()[0]) < 0


def test_certify_check_only_prints_counterexample(configs, tmp_path, capsys):
    # plant the equilibrium v = (1, 2) into the bundled N, as in
    # test_cert.py::test_equilibrium_recall_on_planted_equilibria
    doc = json.loads(configs["nominal"].read_text())
    Gm, Cm = np.array(doc["observer"]["G"]), np.array(doc["C"])
    N0 = np.array(doc["observer"]["N"])
    v = np.array([1.0, 2.0])
    Cv = Cm @ v
    k = float(Cv @ Cv)
    doc["observer"]["N"] = (N0 - np.outer(Gm @ v + k * (N0 @ Cv), Cv) / (k * k)).tolist()
    planted = tmp_path / "planted.json"
    planted.write_text(json.dumps(doc))
    code = main(["certify", "--config", str(planted), "--check-only"])
    assert code == EXIT_VERIFICATION_FAILED
    out = capsys.readouterr().out
    assert "equilibrium=counterexample" in out
    assert "equilibrium_counterexample=[1 2]" in out


@pytest.mark.parametrize("gain", [1e155, 1e200])
def test_certify_check_only_huge_N_counterexample_is_unwarned(configs, tmp_path, capsys, gain):
    # the kernel of G holds equilibria; a candidate's residual near |N| is too
    # large to square, which rejects it without a warning
    doc = json.loads(configs["nominal"].read_text())
    doc["observer"]["N"] = [[gain], [0.0]]
    path = tmp_path / "huge_N.json"
    path.write_text(json.dumps(doc))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["certify", "--config", str(path), "--check-only"]) == EXIT_VERIFICATION_FAILED
    assert [str(w.message) for w in caught] == []
    captured = capsys.readouterr()
    assert "equilibrium=counterexample" in captured.out.splitlines()
    assert captured.err == ""


def test_certify_search_P_prints_gamma_max(configs, capsys):
    code = main(["certify", "--config", str(configs["nominal"]), "--search-P"])
    assert code == EXIT_OK
    out = capsys.readouterr().out
    # the bundled G admits every Lipschitz constant below 11/sqrt(2)
    gamma_max = float(out.split("gamma_max=")[1].split()[0])
    assert gamma_max == pytest.approx(11.0 / np.sqrt(2.0), rel=1e-5)


def test_certify_search_P_antistable_fails(configs, tmp_path, capsys):
    doc = json.loads(configs["nominal"].read_text())
    doc["observer"]["G"] = [[1.0, 0.0], [0.0, 1.0]]
    bad = tmp_path / "antistable.json"
    bad.write_text(json.dumps(doc))
    code = main(["certify", "--config", str(bad), "--search-P"])
    assert code == EXIT_NUMERICAL_FAILURE
    capsys.readouterr()


def _edit_G(doc):
    doc["observer"]["G"] = [[-10.0, 0.0], [1.0, -12.0]]  # breaks T A - J C = G T


def _zero_theta(doc):
    doc["observer"]["theta"] = [[0.0]]  # N = 0: the cubic-gain condition fails


def _one_sided(doc):
    doc["lipschitz"] = {"rho": 0.5, "a": 50, "b": 0.1}
    del doc["certificate"]  # its beta belongs to the Lipschitz bound


CERTIFY_CASES = {
    "bundled": (lambda doc: None, EXIT_OK),
    "edited G": (_edit_G, EXIT_VERIFICATION_FAILED),
    "theta = 0": (_zero_theta, EXIT_VERIFICATION_FAILED),
    "one-sided": (_one_sided, EXIT_OK),
}


def _printed_keys(out):
    return [line.partition("=")[0] for line in out.splitlines()
            if not line.startswith("wrote ")]


@pytest.mark.parametrize("case", list(CERTIFY_CASES))
def test_certify_search_P_checks_what_check_only_checks(configs, tmp_path, capsys, case):
    edit, expected = CERTIFY_CASES[case]
    doc = json.loads(configs["nominal"].read_text())
    edit(doc)
    source = tmp_path / "source.json"
    source.write_text(json.dumps(doc))
    out = tmp_path / "certified.json"
    code = main(["certify", "--config", str(source), "--search-P", "--out", str(out)])
    searched = capsys.readouterr().out
    assert code == expected
    assert out.exists() == (code == EXIT_OK)

    # what --search-P found, saved whether or not it passed its checks
    cfg = model.load_config(source)
    obs, C = cfg.observer, cfg.plant.C
    crt = cert.search_P(cfg.lipschitz, obs.G, obs.E, C)
    cfg = replace(cfg, observer=replace(obs, N=cert.cubic_gain(crt.P, C, obs.theta, obs.alpha)),
                  certificate=crt)
    found = tmp_path / "found.json"
    model.save_config(cfg, found)
    if out.exists():
        assert out.read_text() == found.read_text()
    assert main(["certify", "--config", str(found), "--check-only"]) == code
    checked = capsys.readouterr().out
    assert _printed_keys(searched) == _printed_keys(checked)
    assert "lmi_margin" in _printed_keys(checked)


# --- simulate -------------------------------------------------------------

def load_csv(path):
    return np.loadtxt(path, delimiter=",", skiprows=1)


def test_simulate_defaults_plateau(configs, tmp_path, capsys):
    out = tmp_path / "run.csv"
    code = main(["simulate", "--config", str(configs["nominal"]),
                 "--xhat0", "[-5;-5]", "--out", str(out)])
    assert code == EXIT_OK
    data = load_csv(out)
    assert data.shape[0] == 2001  # defaults: t_end 20, step 0.01
    jo = data[:, -1]
    assert jo[-1] - jo[len(jo) // 2] <= 0.01 * jo[-1]
    capsys.readouterr()


def test_simulate_mismatch_truth(configs, tmp_path, capsys):
    out = tmp_path / "mismatch.csv"
    code = main(["simulate", "--config", str(configs["nominal"]),
                 "--truth", str(configs["uncertain"]),
                 "--xhat0", "[-5;-5]", "--out", str(out)])
    assert code == EXIT_OK
    assert out.exists()
    capsys.readouterr()


def test_simulate_step_not_dividing_delay(configs, tmp_path, capsys):
    code = main(["simulate", "--config", str(configs["nominal"]),
                 "--step", "0.3", "--out", str(tmp_path / "x.csv")])
    assert code == EXIT_CONFIG_ERROR
    assert "multiple" in capsys.readouterr().err


@pytest.mark.parametrize("t_end", ["1.3", "1.2"])
def test_simulate_horizon_not_a_multiple_of_step(configs, tmp_path, capsys, t_end):
    out = tmp_path / "x.csv"
    code = main(["simulate", "--config", str(configs["nominal"]), "--t-end", t_end,
                 "--step", "0.5", "--out", str(out)])
    assert code == EXIT_CONFIG_ERROR
    assert f"t_end: {t_end} is not an integer multiple of step 0.5" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("step", ["5e-324", "1e-300"])
def test_simulate_step_too_small_to_count(configs, tmp_path, capsys, step):
    out = tmp_path / "x.csv"
    code = main(["simulate", "--config", str(configs["nominal"]), "--t-end", "1",
                 "--step", step, "--out", str(out)])
    assert code == EXIT_CONFIG_ERROR
    err = capsys.readouterr().err
    assert err.splitlines() == [f"error: delta[0]: 1 is too many steps of {float(step):g} to count"]
    assert not out.exists()


@pytest.mark.parametrize("t_end, step, code, err", [
    ("1", "0.01", EXIT_OK, []),
    ("1.01", "0.01", EXIT_CONFIG_ERROR, ["error: t_end: 1.01 is too many steps of 0.01 to count"]),
    ("0.5", "0.005", EXIT_CONFIG_ERROR, ["error: delta[0]: 1 is too many steps of 0.005 to count"]),
], ids=["at-cap", "run-over-cap", "delay-over-cap"])
def test_simulate_refuses_more_than_max_steps(configs, tmp_path, capsys, monkeypatch,
                                              t_end, step, code, err):
    # checked by value under a small cap, so that no case allocates much
    monkeypatch.setattr(sim, "MAX_STEPS", 100)
    out = tmp_path / "x.csv"
    assert main(["simulate", "--config", str(configs["nominal"]), "--t-end", t_end,
                 "--step", step, "--out", str(out)]) == code
    assert capsys.readouterr().err.splitlines() == err
    assert out.exists() == (code == EXIT_OK)


@pytest.mark.parametrize("change, command, message", [
    ({"n_g": 2**70}, ["design", "--auto-margin", "3"],
     f"error: n_g: {2**70} does not match the matrices, which give 1"),
    ({"n_g": 2**70}, ["certify", "--check-only"],
     f"error: n_g: {2**70} does not match the matrices, which give 1"),
    ({"lipschitz": {"gamma": 1e308}}, ["certify", "--check-only"],
     "error: lipschitz.gamma: 1e+308 is too large to square"),
    # gamma**2 = 1e308 is finite, beta * gamma**2 = 1e310 is not
    ({"lipschitz": {"gamma": 1e154}}, ["certify", "--check-only"],
     "error: certificate.beta: its products with the bound are not finite"),
], ids=["n_g-design", "n_g-certify", "gamma-certify", "beta-gamma-certify"])
def test_sizes_and_bounds_past_float_range_are_config_errors(configs, tmp_path, capsys,
                                                             change, command, message):
    doc = {**json.loads(configs["nominal"].read_text()), **change}
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(doc))
    argv = [command[0], "--config", str(path), *command[1:]]
    if command[0] == "design":
        argv += ["--out", str(tmp_path / "designed.json")]
    assert main(argv) == EXIT_CONFIG_ERROR
    assert capsys.readouterr().err.splitlines() == [message]


NOMINAL = model.config_to_dict(model.example_system().nominal_config())
NOMINAL_OBSERVER = NOMINAL["observer"]
RICCATI_OVERFLOWS = ("error: filter Riccati equation has no solution: the Hamiltonian has "
                     "non-finite entries; infeasibility is not proven")


@pytest.mark.parametrize("change, command, message", [
    ({"A": [[1e308, 1e308], [1e308, 1e308]]}, ["design", "--auto-margin", "3"],
     "error: T A overflows"),
    ({"C": [[1e308, 0.0]]}, ["certify", "--search-P"],
     "error: (I - E C)(I - E C)' overflows"),
    ({"observer": {**NOMINAL_OBSERVER, "N": [[1e308], [0.0]]}}, ["certify", "--check-only"],
     "error: P N C + C'N'P overflows"),
    ({"C": [[1e-320, 0.0]]}, ["design", "--auto-margin", "3"],
     "error: E = D (C D)^+ overflows"),
    # |C|^2 overflows: every mode is observable, and no verdict is proven
    ({"C": [[1e155, 0.0]]}, ["design", "--auto-margin", "3"], RICCATI_OVERFLOWS),
    ({"C": [[1e308, 0.0]]}, ["design", "--auto-margin", "3"], RICCATI_OVERFLOWS),
    ({"D": [[-1.0], [1e155]]}, ["design", "--auto-margin", "3"],
     "error: J = T A E + L (I - C E) overflows"),
    ({"C": [[1.0, 1e308]], "D": [[-1.0], [1e200]]}, ["design", "--auto-margin", "3"],
     "error: C D overflows"),
    ({"C": [[1e200, 0.0]], "observer": {**NOMINAL_OBSERVER, "theta": [[1e10]]}},
     ["certify", "--check-only"], "error: C' theta C overflows"),
    ({"observer": {**NOMINAL_OBSERVER, "E": [[1e308], [-1.0]]}}, ["certify", "--check-only"],
     "error: T A - J C - G T overflows"),
    ({"observer": {**NOMINAL_OBSERVER, "G": [[-1e308, 0.0], [1.0, -11.0]]}},
     ["certify", "--check-only"], "error: P G + G'P + (mu1 rho + mu2 a) I overflows"),
    # P is symmetrized halves first, so the finite P reaches the LMI block
    ({"certificate": {**NOMINAL["certificate"], "P": [[1e308, 1.7898], [1.7898, 17.8858]]}},
     ["certify", "--check-only"], "error: P G + G'P + (mu1 rho + mu2 a) I overflows"),
    # the peak gain is near 1e-308, so the level-set Hamiltonian's T T'/g^2 overflows
    ({"observer": {**NOMINAL_OBSERVER, "G": [[-10.0, 0.0], [1.0, -1e308]]}},
     ["certify", "--search-P"], "error: (I - E C)(I - E C)'/g^2 overflows"),
    ({"C": [[1.0, 1e155]], "observer": {**NOMINAL_OBSERVER, "E": [[1.0], [1e308]]}},
     ["certify", "--search-P"], "error: T = I - E C overflows"),
    ({"observer": {**NOMINAL_OBSERVER, "theta": [[1e155]], "alpha": 1e155}},
     ["certify", "--search-P"], "error: N = -alpha P^-1 C' theta overflows"),
], ids=["A-design", "C-search", "N-check", "C-tiny-design", "C-1e155-design", "C-1e308-design",
        "D-1e155-design", "CD-design", "C-theta-check", "E-check", "G-check", "P-check",
        "G-huge-search", "E-search", "alpha-theta-search"])
def test_linear_algebra_on_overflowing_matrices_is_a_numerical_failure(
        configs, tmp_path, capsys, change, command, message):
    # finite input whose products overflow: a numerical failure, no warning
    doc = {**json.loads(configs["nominal"].read_text()), **change}
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(doc))
    argv = [command[0], "--config", str(path), *command[1:]]
    if command[0] == "design":
        argv += ["--out", str(tmp_path / "designed.json")]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(argv) == EXIT_NUMERICAL_FAILURE
    assert [str(w.message) for w in caught] == []
    assert capsys.readouterr().err.splitlines() == [message]


def _search_P_lines(configs, tmp_path, capsys, change):
    """Exit code and stdout lines of ``certify --search-P`` on the edited bundled config."""
    path = tmp_path / "edited.json"
    path.write_text(json.dumps({**json.loads(configs["nominal"].read_text()), **change}))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code = main(["certify", "--config", str(path), "--search-P"])
    return code, capsys.readouterr().out.splitlines()


@pytest.mark.parametrize("coupling", [1e-320, 1e-300, 1e-50])
def test_a_negligible_coupling_certifies_as_a_zero_one(configs, tmp_path, capsys, coupling):
    # the Riccati step's balancing scales are bounded, so a coupling far below
    # rounding cannot blow them up (1e-320 once made them overflow)
    def search(g01):
        G = [[-10.0, g01], [1.0, -11.0]]
        return _search_P_lines(configs, tmp_path, capsys, {"observer": {**NOMINAL_OBSERVER, "G": G}})

    code, lines = search(coupling)
    zero_code, zero_lines = search(0.0)
    assert code == zero_code == EXIT_OK
    pick = ("lmi_margin=", "gamma_max=")
    assert [l for l in lines if l.startswith(pick)] == [l for l in zero_lines if l.startswith(pick)]


def test_a_pencil_eigenvalue_past_the_float_range_of_the_wrong_sign_is_dropped(
        configs, tmp_path, capsys):
    # N C is subnormal, so QZ gives a pencil eigenvalue near -1e321; with
    # theta >= 0 a negative one gives no equilibrium, and the verdict is proven
    code, lines = _search_P_lines(configs, tmp_path, capsys,
                                  {"observer": {**NOMINAL_OBSERVER, "theta": [[1e-320]]}})
    assert "equilibrium=no-counterexample" in lines
    assert code == EXIT_VERIFICATION_FAILED and "n_classification=fail" in lines


@pytest.mark.parametrize("change", [
    {"observer": {**NOMINAL_OBSERVER, "G": [[-10.0, 1e155], [1.0, -11.0]]}},
    {"lipschitz": {"rho": 0.5, "a": 50, "b": 1e155}},
], ids=["G", "b"])
def test_one_sided_scan_past_the_float_range_is_unwarned(configs, tmp_path, capsys, change):
    # mu1 is scanned up to 1e3 times the scale of G, rho and b: a mu1 whose
    # (b - mu1)^2 or Gh overflows has no slack, and the refusal is the search's own
    doc = {**json.loads(configs["nominal"].read_text()),
           "lipschitz": {"rho": 0.5, "a": 50, "b": 0.1}, **change}
    del doc["certificate"]  # its beta belongs to the Lipschitz bound
    path = tmp_path / "osl.json"
    path.write_text(json.dumps(doc))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["certify", "--config", str(path), "--search-P"]) == EXIT_NUMERICAL_FAILURE
    assert [str(w.message) for w in caught] == []
    [line] = capsys.readouterr().err.splitlines()
    assert line.startswith("error: no multipliers found") and "not proven" in line


def _numeric_fields(doc, path=()):
    """The path of every number in a config document."""
    if isinstance(doc, dict):
        return [p for k, v in doc.items() for p in _numeric_fields(v, (*path, k))]
    if isinstance(doc, list):
        return [p for i, v in enumerate(doc) for p in _numeric_fields(v, (*path, i))]
    return [path] if isinstance(doc, (int, float)) else []


EDGE_VALUES = [1e308, -1e308, 1e200, 1e155, 1e-320, 0.0, -0.0, 1e10, -1e10]
# the only lines a verification failure (exit 1) may write to stderr
VERDICT_LINES = ("decoupling infeasible: ", "certificate invalid: ")


@settings(max_examples=250)
@given(edits=st.lists(st.tuples(st.sampled_from(_numeric_fields(NOMINAL)),
                                st.sampled_from(EDGE_VALUES)), min_size=1, max_size=2))
def test_edge_values_never_raise_or_warn(configs, edits):
    # one or two numbers of the bundled config at the edges of the float
    # range: every command exits 0-3, numpy never warns, and stderr holds one
    # error line for exits 2 and 3, at most one verdict line for exit 1
    doc = copy.deepcopy(NOMINAL)
    for (*keys, last), value in edits:
        target = doc
        for key in keys:
            target = target[key]
        target[last] = value
    root = configs["root"]
    path = root / "edge.json"
    path.write_text(json.dumps(doc))
    for command in (["certify", "--check-only"], ["certify", "--search-P"],
                    ["simulate", "--t-end", "1", "--out", str(root / "edge.csv")],
                    ["design", "--auto-margin", "3", "--out", str(root / "edge-designed.json")]):
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                code = main([command[0], "--config", str(path), *command[1:]])
        lines = err.getvalue().splitlines()
        if code in (EXIT_CONFIG_ERROR, EXIT_NUMERICAL_FAILURE):
            assert len(lines) == 1 and lines[0].startswith("error: "), (command, lines)
        else:
            assert code in (EXIT_OK, EXIT_VERIFICATION_FAILED), (command, code)
            assert lines == [] or (code == EXIT_VERIFICATION_FAILED and len(lines) == 1
                                   and lines[0].startswith(VERDICT_LINES)), (command, lines)


def test_output_error_residual_that_overflows_prints_nothing(capsys):
    # C E overflows: no output_error line, and no warning
    _print_output_error(np.array([[1e200, 0.0]]), np.array([[1e200], [0.0]]))
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("command", [["certify", "--check-only"], ["simulate", "--t-end", "1"]],
                         ids=lambda c: c[0])
def test_a_cubic_weight_near_the_float_range_runs_unwarned(configs, tmp_path, capsys, command):
    # theta = 1e308: its symmetric part, C' theta C and the simulation stay
    # finite, and no command warns of an overflow on the way
    doc = json.loads(configs["nominal"].read_text())
    doc["observer"]["theta"] = [[1e308]]
    path = tmp_path / "heavy.json"
    path.write_text(json.dumps(doc))
    argv = [command[0], "--config", str(path), *command[1:]]
    if command[0] == "simulate":
        argv += ["--out", str(tmp_path / "run.csv")]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(argv) == EXIT_OK
    assert [str(w.message) for w in caught] == []
    out = capsys.readouterr().out
    assert ("equilibrium=no-counterexample" in out if command[0] == "certify"
            else out.startswith("jo_end="))


@pytest.mark.parametrize("command", [["certify", "--check-only"], ["simulate", "--t-end", "0.1"]],
                         ids=lambda c: c[0])
def test_config_without_observer_is_a_config_error(configs, tmp_path, capsys, command):
    doc = json.loads(configs["nominal"].read_text())
    del doc["observer"], doc["certificate"]
    bare = tmp_path / "bare.json"
    bare.write_text(json.dumps(doc))
    argv = [command[0], "--config", str(bare), *command[1:]]
    if command[0] == "simulate":
        argv += ["--out", str(tmp_path / "run.csv")]
    assert main(argv) == EXIT_CONFIG_ERROR
    assert capsys.readouterr().err.splitlines() == ["error: config has no observer block"]


def test_simulate_bad_input_expression(configs, tmp_path, capsys):
    code = main(["simulate", "--config", str(configs["nominal"]),
                 "--input", "x1", "--out", str(tmp_path / "x.csv")])
    assert code == EXIT_CONFIG_ERROR
    capsys.readouterr()


def test_simulate_no_cubic_changes_trajectory(configs, tmp_path, capsys):
    runs = {}
    for name, extra in (("cubic", []), ("linear", ["--no-cubic"])):
        out = tmp_path / f"{name}.csv"
        assert main(["simulate", "--config", str(configs["nominal"]),
                     "--t-end", "5.0", "--xhat0", "[-5;-5]",
                     "--out", str(out)] + extra) == EXIT_OK
        runs[name] = load_csv(out)
    assert not np.allclose(runs["cubic"][:, 3], runs["linear"][:, 3])
    capsys.readouterr()


def test_simulate_divergence_reports_numerical_failure(configs, tmp_path, capsys):
    # unit-amplitude drive pushes the bundled plant into finite-time escape
    code = main(["simulate", "--config", str(configs["nominal"]),
                 "--input", "sin(t)", "--out", str(tmp_path / "x.csv")])
    assert code == EXIT_NUMERICAL_FAILURE
    capsys.readouterr()


# x' = 200 x: the RK4 state passes 1e154 near t = 4 and overflows near t = 7.9
UNSTABLE = {"n": 1, "n_u": 0, "n_y": 1, "n_g": 0, "A": [[200.0]], "C": [[1.0]],
            "D": [[]], "delta": [], "tau": [], "f_u": ["0"], "f_g": [], "f_L": ["0"],
            "lipschitz": {"gamma": 1.0},
            "observer": {"G": [[-1.0]], "J": [[0.0]], "E": [[0.0]], "N": [[0.0]],
                         "theta": [[1.0]], "alpha": 1.0}}


def test_simulate_overflow_is_one_error_line(tmp_path, capsys):
    # x' = 200 x overflows a float near t = 7.9; only the finiteness check speaks
    config = tmp_path / "unstable.json"
    config.write_text(json.dumps(UNSTABLE))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(["simulate", "--config", str(config), "--t-end", "100", "--step", "0.1",
                     "--x0", "[1]", "--out", str(tmp_path / "run.csv")])
    assert code == EXIT_NUMERICAL_FAILURE
    assert [str(w.message) for w in caught] == []
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: state became non-finite at t = ")


def test_simulate_error_integral_overflow_is_inf(tmp_path, capsys):
    # x' = 200 x stays finite to t = 4 while |x - xhat|^2 overflows
    config = tmp_path / "unstable.json"
    config.write_text(json.dumps(UNSTABLE))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(["simulate", "--config", str(config), "--t-end", "4", "--step", "0.1",
                     "--x0", "[1]", "--out", str(tmp_path / "run.csv")])
    assert code == EXIT_OK
    assert [str(w.message) for w in caught] == []
    captured = capsys.readouterr()
    assert "jo_end=inf" in captured.out.splitlines()
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("command", [
    ["simulate", "--t-end", "0.1"],
    ["design", "--L", "[10;-3]"],
], ids=lambda c: c[0])
def test_overflowing_literal_is_a_config_error(configs, tmp_path, capsys, command):
    doc = json.loads(configs["nominal"].read_text())
    doc["f_L"][0] = "1e999*x1"
    bad = tmp_path / "overflow.json"
    bad.write_text(json.dumps(doc))
    out = tmp_path / "out"
    argv = [command[0], "--config", str(bad), *command[1:], "--out", str(out)]
    assert main(argv) == EXIT_CONFIG_ERROR
    err = capsys.readouterr().err
    assert "f_L[0]: number out of range (at position 0)" in err
    assert not out.exists()


@pytest.mark.parametrize("command, change, message", [
    (["simulate", "--t-end", "1", "--input", "t^" + "9" * 5000], None,
     "input_signal[0]: power exponent out of range (at position 2)"),
    (["simulate", "--t-end", "1", "--input", "t^" + "9" * 400], None,
     "input_signal[0]: power exponent out of range (at position 2)"),
    (["simulate", "--t-end", "1", "--input", "t^9007199254740993"], None,
     "input_signal[0]: power exponent out of range (at position 2)"),
    (["certify", "--check-only"], ("f_L", 1, "x" + "1" * 4400),
     "f_L[1]: component index out of range (at position 0)"),
], ids=["exponent", "exponent-400-digits", "exponent-9007199254740993", "index"])
def test_integer_past_the_digit_limit_is_a_config_error(configs, tmp_path, capsys,
                                                       command, change, message):
    doc = json.loads(configs["nominal"].read_text())
    if change is not None:
        doc[change[0]][change[1]] = change[2]
    path = tmp_path / "long.json"
    path.write_text(json.dumps(doc))
    argv = [command[0], "--config", str(path), *command[1:]]
    if command[0] == "simulate":
        argv += ["--out", str(tmp_path / "run.csv")]
    assert main(argv) == EXIT_CONFIG_ERROR
    assert capsys.readouterr().err.splitlines() == [f"error: {message}"]


@pytest.mark.parametrize("content, reason", [
    (b'{"n": 2, "f_u": ["\xff"]}', "can't decode byte 0xff in position 18"),
    (b'{"n_u": 1' + b"0" * 4400 + b"}", "Exceeds the limit (4300 digits)"),
], ids=["not-utf8", "long-integer"])
def test_a_config_json_cannot_decode_is_a_config_error(tmp_path, capsys, content, reason):
    path = tmp_path / "undecodable.json"
    path.write_bytes(content)
    assert main(["certify", "--config", str(path), "--check-only"]) == EXIT_CONFIG_ERROR
    [line] = capsys.readouterr().err.splitlines()
    assert line.startswith(f"error: {path}: not valid JSON (") and reason in line


# --- reproduce-paper ------------------------------------------------------

def test_reproduce_paper_artifacts(configs, tmp_path, capsys):
    out = tmp_path / "study"
    code = main(["reproduce-paper", "--out", str(out)])
    assert code == EXIT_OK
    for name in ("nominal_cubic", "nominal_linear", "uncertain_cubic",
                 "uncertain_linear"):
        assert (out / f"{name}.csv").exists()
    summary = dict(
        line.split("=", 1) for line in (out / "summary.txt").read_text().split()
    )
    assert float(summary["ratio_uncertain"]) < 1.0
    assert 0.5 <= float(summary["ratio_nominal"]) <= 1.5
    capsys.readouterr()


def test_reproduce_paper_prints_summary_lines(tmp_path, capsys):
    out = tmp_path / "study"
    assert main(["reproduce-paper", "--out", str(out)]) == EXIT_OK
    summary = (out / "summary.txt").read_text().splitlines()
    assert len(summary) == 6
    assert capsys.readouterr().out.splitlines()[:6] == summary


def test_reproduce_paper_summary_is_pinned(tmp_path, capsys):
    # the published numbers, byte for byte: a change of the integrator's
    # summation order moves trajectories at rounding level, not these
    out = tmp_path / "study"
    assert main(["reproduce-paper", "--out", str(out)]) == EXIT_OK
    assert (out / "summary.txt").read_bytes() == (
        b"jo_cubic_nominal=2.61539534835\n"
        b"jo_linear_nominal=2.64126942972\n"
        b"ratio_nominal=0.990203921992\n"
        b"jo_cubic_uncertain=2.71252163308\n"
        b"jo_linear_uncertain=2.7383956832\n"
        b"ratio_uncertain=0.990551383691\n")
    capsys.readouterr()


@pytest.mark.parametrize("command", [
    ["simulate", "--t-end", "0.1"],
    ["design", "--auto-margin", "1"],
    ["certify", "--search-P"],
    ["reproduce-paper"],
], ids=lambda c: c[0])
def test_unwritable_out_is_a_config_error(configs, tmp_path, capsys, command):
    blocker = tmp_path / "blocker"
    blocker.write_text("file, not a directory")
    config = [] if command[0] == "reproduce-paper" else ["--config", str(configs["nominal"])]
    argv = [command[0], *config, *command[1:], "--out", str(blocker / "out.csv")]
    assert main(argv) == EXIT_CONFIG_ERROR
    err = capsys.readouterr().err
    assert any(line.startswith("error:") for line in err.splitlines())
    assert "Traceback" not in err
    # the error names the path given, never a temporary file beside it
    [line] = [line for line in err.splitlines() if line.startswith("error:")]
    assert str(blocker / "out.csv") in line and ".tmp" not in line


# --- invalid observers ----------------------------------------------------

@pytest.mark.parametrize("field,value", [("alpha", -1.0), ("theta", [[-1.0]])])
@pytest.mark.parametrize("command", [
    ["simulate", "--t-end", "0.1"],
    ["certify", "--check-only"],
    ["certify", "--search-P"],
])
def test_invalid_observer_is_a_config_error(configs, tmp_path, capsys, field, value, command):
    doc = json.loads(configs["nominal"].read_text())
    doc["observer"][field] = value
    bad = tmp_path / "bad_observer.json"
    bad.write_text(json.dumps(doc))
    argv = [command[0], "--config", str(bad), *command[1:]]
    if command[0] == "simulate":
        argv += ["--out", str(tmp_path / "run.csv")]
    assert main(argv) == EXIT_CONFIG_ERROR
    err = capsys.readouterr().err
    assert any(line.startswith("error:") for line in err.splitlines())
    assert "Traceback" not in err
    assert not (tmp_path / "run.csv").exists()


# --- bad inputs -----------------------------------------------------------

def _truth_with(configs, tmp_path, **changes):
    doc = json.loads(configs["nominal"].read_text())
    del doc["observer"], doc["certificate"]
    doc.update(changes)
    path = tmp_path / "truth.json"
    path.write_text(json.dumps(doc))
    return ["--truth", str(path)]


def _config_with(configs, tmp_path, **changes):
    # argparse keeps the last --config, so this one replaces the bundled one
    doc = {**json.loads(configs["nominal"].read_text()), **changes}
    path = tmp_path / "edited.json"
    path.write_text(json.dumps(doc))
    return ["--config", str(path)]


@pytest.mark.parametrize("changes, product", [
    ({"C": [[1e200, 0.0]]}, "C_d E C_t"),
    ({"C": [[1e160, 0.0]], "observer": {**NOMINAL_OBSERVER, "E": [[1e160], [0.0]]}}, "E C_t"),
], ids=["C", "C-and-E"])
def test_simulate_plan_whose_products_overflow_is_a_config_error(configs, tmp_path, capsys,
                                                                 changes, product):
    # finite matrices whose products in the simulation plan overflow: refused
    # by name before any step, one error line and no numpy warning
    out = tmp_path / "run.csv"
    argv = ["simulate", *_config_with(configs, tmp_path, **changes), "--t-end", "1",
            "--out", str(out)]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(argv) == EXIT_CONFIG_ERROR
    assert [str(w.message) for w in caught] == []
    assert capsys.readouterr().err.splitlines() == [
        f"error: {product} overflows in the simulation plan"]
    assert not out.exists()


@pytest.mark.parametrize("flags, product", [
    (["--x0", "[1e300;0]"], "xhat0 - E C x0"),
    (["--x0", "[0;0]", "--xhat0", "[1e300;1e300]"], "S z0"),
], ids=["z0", "S-z0"])
def test_simulate_initial_state_whose_products_overflow_is_a_config_error(
        configs, tmp_path, capsys, flags, product):
    # a finite plan and finite x0, xhat0 whose initial joint state overflows
    # (C x0 = 1e310, or the output error C xhat0): refused by name before any
    # step, one error line and no numpy warning
    out = tmp_path / "run.csv"
    argv = ["simulate", *_config_with(configs, tmp_path, C=[[1e10, 0.0]]), "--t-end", "1",
            *flags, "--out", str(out)]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(argv) == EXIT_CONFIG_ERROR
    assert [str(w.message) for w in caught] == []
    assert capsys.readouterr().err.splitlines() == [
        f"error: {product} overflows in the initial state"]
    assert not out.exists()


# the truth n_u = 0 case's plant, as the designed config
NO_INPUTS = dict(n_u=0, delta=[], f_u=["0", "0"], f_L=["x1", "sin(x2)"])


BAD_INPUTS = {
    "truth n = 3": lambda c, p: ["simulate", *_truth_with(
        c, p, n=3, A=(-np.eye(3)).tolist(), C=[[1.0, 0.0, 0.0]],
        D=[[-1.0], [1.0], [0.0]], f_u=["u1@1", "u1", "0"], f_L=["0", "0", "0"])],
    "truth n_u = 0": lambda c, p: ["simulate", *_truth_with(
        c, p, n_u=0, delta=[], f_u=["0", "0"], f_L=["x1", "sin(x2)"])],
    "n_u = 0, two drives": lambda c, p: ["simulate", *_config_with(c, p, **NO_INPUTS),
                                         "--t-end", "0.1", "--input", "sin(t)",
                                         "--input", "cos(t)"],
    "n_u = 0, one drive": lambda c, p: ["simulate", *_config_with(c, p, **NO_INPUTS),
                                        "--t-end", "0.1", "--input", "1/0*t"],
    "--L nan": lambda c, p: ["design", "--L", "[nan;1]"],
    "--auto-margin nan": lambda c, p: ["design", "--auto-margin", "nan"],
    "--t-end inf": lambda c, p: ["simulate", "--t-end", "inf"],
    "--x0 nan": lambda c, p: ["simulate", "--t-end", "0.1", "--x0", "[nan;0]"],
    "f_L superscript digit": lambda c, p: ["simulate", *_truth_with(
        c, p, f_L=["sin(x²)", "sin(x2)"])],
    "--input superscript digit": lambda c, p: ["simulate", "--t-end", "0.1", "--input", "0.5*²"],
}


@pytest.mark.parametrize("case", list(BAD_INPUTS))
def test_bad_input_is_a_config_error(configs, tmp_path, capsys, case):
    command, *flags = BAD_INPUTS[case](configs, tmp_path)
    out = tmp_path / ("run.csv" if command == "simulate" else "designed.json")
    argv = [command, "--config", str(configs["nominal"]), *flags, "--out", str(out)]
    assert main(argv) == EXIT_CONFIG_ERROR
    err = capsys.readouterr().err
    assert any("error:" in line for line in err.splitlines())
    assert "Traceback" not in err
    assert not out.exists()


DEEP = {
    "1200 parentheses": "(" * 1200 + "x1" + ")" * 1200,
    "3000-term sum": "+".join(["x1"] * 3000),
}


@pytest.mark.parametrize("text", list(DEEP.values()), ids=list(DEEP))
@pytest.mark.parametrize("command", [
    ["simulate", "--t-end", "0.1"],
    ["certify", "--check-only"],
], ids=lambda c: c[0])
def test_deeply_nested_expression_is_a_config_error(configs, tmp_path, capsys, text, command):
    doc = json.loads(configs["nominal"].read_text())
    doc["f_L"][0] = text
    deep = tmp_path / "deep.json"
    deep.write_text(json.dumps(doc))
    argv = [command[0], "--config", str(deep), *command[1:]]
    if command[0] == "simulate":
        argv += ["--out", str(tmp_path / "run.csv")]
    assert main(argv) == EXIT_CONFIG_ERROR
    err = capsys.readouterr().err
    assert "f_L[0]: expression nested too deeply" in err
    assert "Traceback" not in err


# --- argument plumbing ----------------------------------------------------

def test_usage_errors_map_to_config_exit(capsys):
    assert main([]) == EXIT_CONFIG_ERROR
    assert main(["no-such-command"]) == EXIT_CONFIG_ERROR
    assert main(["design"]) == EXIT_CONFIG_ERROR  # --config is required
    capsys.readouterr()


def test_help_exits_clean(capsys):
    assert main(["--help"]) == EXIT_OK
    capsys.readouterr()


def test_readme_synopsis_names_every_long_flag():
    # each command's lines of the README's "Command line" block against its parser
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## Command line", 1)[1].split("```\n", 2)[1]
    documented = {}
    for line in block.splitlines():
        if line.startswith("cubicobs "):
            command = line.split()[1]
        documented.setdefault(command, set()).update(re.findall(r"--[\w-]+", line))
    subparsers = next(a for a in build_parser()._actions
                      if isinstance(a, argparse._SubParsersAction))
    defined = {name: {flag for action in p._actions for flag in action.option_strings
                      if flag.startswith("--") and flag != "--help"}
               for name, p in subparsers.choices.items()}
    assert documented == defined
