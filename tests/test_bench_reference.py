"""The benchmark's own independent checks of its workloads, run in tier-1.

delayed-ensemble: ``perfbench/gen.py`` draws the scenarios and integrates
each with the independent reference in ``perfbench/reference.py``;
``checks.close`` is the 1e-12 agreement the benchmark demands of
``simulate``.  paper-study: ``checks.paper_study`` holds the output of
``reproduce-paper`` to the values in ``perfbench/expected.json``.  A
change to the integrator's summation order or delay semantics that breaks
either agreement fails here before it reaches the benchmark.
"""

import contextlib
import io
import json
from pathlib import Path

from cubicobs import cli, sim
from cubicobs.exprlang import parse_input_signal
from cubicobs.model import load_config

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_delayed_ensemble_agrees_with_reference_integrator(monkeypatch, tmp_path):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import checks
    import gen

    manifest = gen.generate("delayed-ensemble", 1, str(tmp_path))
    assert len(manifest["scenarios"]) == 9
    for s in manifest["scenarios"]:
        truth = load_config(tmp_path / s["truth"])
        design = load_config(tmp_path / s["design"])
        cfg = sim.SimConfig(h=manifest["h"], t_end=manifest["t_end"], x0=s["x0"],
                            xhat0=s["xhat0"],
                            input_signal=tuple(parse_input_signal(t) for t in s["inputs"]))
        jo_end = float(sim.simulate(truth.plant, design.plant, design.observer, cfg).jo[-1])
        assert checks.close(jo_end, s["jo_reference"]), (s["truth"], jo_end, s["jo_reference"])


def test_paper_study_matches_recorded_summary(monkeypatch, tmp_path):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import checks

    expected = json.loads((PERFBENCH / "expected.json").read_text())["paper-study"]
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(["reproduce-paper", "--out", str(tmp_path)])
    reason, steps = checks.paper_study(str(tmp_path), code, expected)
    assert reason is None, reason
    assert steps == 4 * 2000
