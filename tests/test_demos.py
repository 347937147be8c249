"""Smoke test: every narrative demo and the README's Quick start run to completion."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_all_four_demos_are_collected():
    assert len(DEMOS) == 4


def run_script(path, cwd, pytestconfig):
    # the script runs under the suite's own warning filters
    flags = [f"-W{f}" for f in pytestconfig.getini("filterwarnings")]
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    proc = subprocess.run([sys.executable, *flags, str(path)], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(demo, tmp_path, pytestconfig):
    run_script(demo, tmp_path, pytestconfig)


def test_readme_quick_start_runs(tmp_path, pytestconfig):
    readme = (ROOT / "README.md").read_text()
    section = readme.split("## Quick start", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    script = tmp_path / "quick_start.py"
    script.write_text(code)
    run_script(script, tmp_path, pytestconfig)
