"""Command-line interface: exit codes, artifacts, determinism."""

import json
import warnings
from dataclasses import replace

import numpy as np
import pytest

from cubicobs import cert, model
from cubicobs.cli import (
    EXIT_CONFIG_ERROR,
    EXIT_NUMERICAL_FAILURE,
    EXIT_OK,
    EXIT_VERIFICATION_FAILED,
    main,
    parse_matrix_flag,
)
from cubicobs.design import spectral_abscissa, verify_structure


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


def test_design_auto_margin(configs, tmp_path, capsys):
    out = tmp_path / "auto.json"
    code = main(["design", "--config", str(configs["nominal"]),
                 "--auto-margin", "5.0", "--out", str(out)])
    assert code == EXIT_OK
    assert spectral_abscissa(model.load_config(out).observer.G) <= -5.0 + 1e-9
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
    with pytest.warns(RuntimeWarning, match="semidefinite"):
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
    with pytest.warns(RuntimeWarning, match="semidefinite"):
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
    with pytest.warns(RuntimeWarning, match="semidefinite"):
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


@pytest.mark.parametrize("flag", ["--out", "--alpha"])
def test_certify_check_only_rejects_search_flags(configs, tmp_path, capsys, flag):
    out = tmp_path / "certified.json"
    value = str(out) if flag == "--out" else "2"
    code = main(["certify", "--config", str(configs["nominal"]), "--check-only", flag, value])
    assert code == EXIT_CONFIG_ERROR
    assert "apply only to --search-P" in capsys.readouterr().err
    assert not out.exists()


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
    with pytest.warns(RuntimeWarning, match="semidefinite"):
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
    with pytest.warns(RuntimeWarning, match="semidefinite"):
        code = main(["certify", "--config", str(osl), "--search-P", "--out", str(out)])
    assert code == EXIT_OK
    crt = model.load_config(out).certificate
    assert crt.beta is None and crt.mu1 > 0 and crt.mu2 > 0
    capsys.readouterr()
    with pytest.warns(RuntimeWarning, match="semidefinite"):
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


def test_certify_search_P_prints_gamma_max(configs, capsys):
    with pytest.warns(RuntimeWarning, match="semidefinite"):
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


@pytest.mark.filterwarnings("ignore:cubic-gain condition holds only semidefinitely")
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
    cfg.certificate = cert.search_P(cfg.lipschitz, obs.G, obs.E, C)
    cfg.observer = replace(obs, N=cert.cubic_gain(cfg.certificate.P, C, obs.theta, obs.alpha))
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


@pytest.mark.filterwarnings("ignore:cubic-gain condition holds only semidefinitely")
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


BAD_INPUTS = {
    "truth n = 3": lambda c, p: ["simulate", *_truth_with(
        c, p, n=3, A=(-np.eye(3)).tolist(), C=[[1.0, 0.0, 0.0]],
        D=[[-1.0], [1.0], [0.0]], f_u=["u1@1", "u1", "0"], f_L=["0", "0", "0"])],
    "truth n_u = 0": lambda c, p: ["simulate", *_truth_with(
        c, p, n_u=0, delta=[], f_u=["0", "0"], f_L=["x1", "sin(x2)"])],
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
