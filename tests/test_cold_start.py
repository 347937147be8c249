"""Importing cubicobs, simulating and reproducing the paper load no scipy.

Each case runs in a fresh interpreter, since any earlier test in this process
may already have imported scipy.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

PRELUDE = """
import contextlib, io, json, sys
from cubicobs import cli, model
config = sys.argv[1] + "/nominal.json"
model.save_config(model.example_system().nominal_config(), config)

def run(*argv):
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(list(argv)) == 0, argv
"""

REPORT = """
print(json.dumps(sorted(m for m in sys.modules if m.split(".")[0] == "scipy")))
"""


def scipy_modules_after(body: str, tmp_path, pytestconfig) -> set[str]:
    # the child runs under the suite's own warning filters
    flags = [f"-W{f}" for f in pytestconfig.getini("filterwarnings")]
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    proc = subprocess.run([sys.executable, *flags, "-c", PRELUDE + body + REPORT, str(tmp_path)],
                          cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return set(json.loads(proc.stdout.splitlines()[-1]))


def test_import_simulate_and_reproduce_paper_load_no_scipy(tmp_path, pytestconfig):
    loaded = scipy_modules_after("""
import importlib, pkgutil, cubicobs
for info in pkgutil.iter_modules(cubicobs.__path__):
    importlib.import_module("cubicobs." + info.name)
run("reproduce-paper", "--out", sys.argv[1] + "/study")
run("simulate", "--config", config, "--t-end", "1", "--out", sys.argv[1] + "/run.csv")
""", tmp_path, pytestconfig)
    assert loaded == set()


def test_lipschitz_search_P_and_auto_margin_load_no_scipy_optimize(tmp_path, pytestconfig):
    loaded = scipy_modules_after("""
run("certify", "--config", config, "--search-P")
run("design", "--config", config, "--auto-margin", "1", "--out", sys.argv[1] + "/d.json")
""", tmp_path, pytestconfig)
    assert "scipy.linalg" in loaded
    assert "scipy.optimize" not in loaded
