"""Command-line interface: exit codes, artifacts, determinism."""

import json

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
from cubicobs.design import verify_structure


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
    assert doc["design_report"]["residual_sylvester"] <= 1e-12
    assert doc["design_report"]["residual_decoupling"] <= 1e-12
    # round trip: the written config re-loads and re-verifies identically
    cfg = model.load_config(out)
    res_syl, res_dec = verify_structure(
        cfg.plant.A, cfg.plant.C, cfg.plant.D,
        cfg.observer.E, cfg.observer.G, cfg.observer.J,
    )
    assert res_syl == doc["design_report"]["residual_sylvester"]
    assert res_dec == doc["design_report"]["residual_decoupling"]


def test_design_auto_margin(configs, tmp_path, capsys):
    out = tmp_path / "auto.json"
    code = main(["design", "--config", str(configs["nominal"]),
                 "--auto-margin", "5.0", "--out", str(out)])
    assert code == EXIT_OK
    doc = json.loads(out.read_text())
    assert doc["design_report"]["spectral_abscissa"] <= -5.0 + 1e-9
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
                     "--auto-margin", "3.0", "--seed", "9",
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
    assert "equilibrium=guaranteed" in out


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


def test_certify_mode_mismatch(configs, tmp_path, capsys):
    doc = json.loads(configs["nominal"].read_text())
    doc["lipschitz"] = {"rho": 0.5, "a": 0.75, "b": 1.5}
    mixed = tmp_path / "mixed.json"
    mixed.write_text(json.dumps(doc))
    code = main(["certify", "--config", str(mixed), "--check-only"])
    assert code == EXIT_CONFIG_ERROR
    assert "beta" in capsys.readouterr().err


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


def test_reproduce_paper_unwritable_out(configs, tmp_path, capsys):
    blocker = tmp_path / "blocker"
    blocker.write_text("file, not a directory")
    code = main(["reproduce-paper", "--out", str(blocker / "sub")])
    assert code == EXIT_CONFIG_ERROR
    capsys.readouterr()


# --- argument plumbing ----------------------------------------------------

def test_usage_errors_map_to_config_exit(capsys):
    assert main([]) == EXIT_CONFIG_ERROR
    assert main(["no-such-command"]) == EXIT_CONFIG_ERROR
    assert main(["design"]) == EXIT_CONFIG_ERROR  # --config is required
    capsys.readouterr()


def test_help_exits_clean(capsys):
    assert main(["--help"]) == EXIT_OK
    capsys.readouterr()
