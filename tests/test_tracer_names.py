"""The benchmark tracer wraps cubicobs layers by name; every name must resolve."""

import os
from pathlib import Path

import numpy as np

from cubicobs import model, sim
from cubicobs.model import example_system

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_tracer_installs_and_uninstalls(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    from spans import Tracer

    original = sim.simulate
    ex = example_system()
    cfg = sim.SimConfig(h=0.01, t_end=0.05, x0=np.zeros(2), xhat0=np.zeros(2),
                        input_signal=(sim.DEFAULT_INPUT_SIGNAL,))
    tracer = Tracer()
    try:
        tracer.install()
        assert sim.simulate is not original
        sim.simulate(ex.nominal, ex.nominal, ex.observer, cfg)
        layers = tracer.take()
    finally:
        tracer.uninstall()
    assert sim.simulate is original
    assert layers["spans"]["sim.simulate"][0] == 1
    assert layers["counts"]["sim.steps"] == 5


def test_tracer_counts_one_parse_per_loaded_expression(monkeypatch, tmp_path):
    # the plant parses each text once, through the parse the tracer wraps
    monkeypatch.syspath_prepend(str(PERFBENCH))
    from spans import Tracer

    path = tmp_path / "nominal.json"
    model.save_config(example_system().nominal_config(), path)
    tracer = Tracer()
    try:
        tracer.install()
        model.load_config(path)
        layers = tracer.take()
    finally:
        tracer.uninstall()
    assert layers["spans"]["exprlang.parse"][0] == 5


def test_tracer_sees_the_study_csv_writes(monkeypatch, tmp_path):
    # the study writes each run's CSV through the public writer the tracer wraps
    monkeypatch.syspath_prepend(str(PERFBENCH))
    from spans import Tracer

    tracer = Tracer()
    try:
        tracer.install()
        report = sim.example_study(tmp_path)
        layers = tracer.take()
    finally:
        tracer.uninstall()
    csvs = [path for path in report.files if path.endswith(".csv")]
    assert len(csvs) == 4
    assert layers["spans"]["sim.write_trajectory_csv"][0] == 4
    assert layers["counts"]["sim.write_trajectory_csv.bytes"] == sum(map(os.path.getsize, csvs))
