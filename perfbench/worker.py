"""One benchmark process: import cubicobs, load one workload's inputs, run it.

Started by ``run.py`` in a fresh interpreter.  It prints ``ready`` as soon
as ``import cubicobs`` has finished and the inputs are loaded (the parent
times set-up from spawn to that line); with ``--setup-only`` it stops
there.  Otherwise it runs the workload in a closed loop, one pass after
another and one operation at a time, until ``--seconds`` have passed, then
prints one JSON line of raw results.

Usage: python3 perfbench/worker.py --root DIR --workload NAME --inputs DIR
       --seconds S --trace 0|1 [--setup-only]
"""

import argparse
import json
import os
import sys
import time


def _args():
    p = argparse.ArgumentParser()
    p.add_argument("--root", required=True)
    p.add_argument("--workload", required=True)
    p.add_argument("--inputs", required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true")
    return p.parse_args()


ARGS = _args()
SRC = os.path.join(ARGS.root, "src")
sys.path.insert(0, SRC)

import cubicobs  # noqa: E402
from cubicobs import cert, cli, design, exprlang, model, sim  # noqa: E402

if not os.path.abspath(cubicobs.__file__).startswith(os.path.abspath(SRC) + os.sep):
    sys.exit(f"cubicobs imported from {cubicobs.__file__}, not from {SRC}")

with open(os.path.join(ARGS.inputs, "manifest.json")) as _fh:
    MANIFEST = json.load(_fh)

TRACER = None
if ARGS.trace:
    # installed before loading, so config loading and parsing are traced too
    from spans import Tracer

    TRACER = Tracer()
    TRACER.install()


def _path(name):
    return os.path.join(ARGS.inputs, name)


def load():
    if ARGS.workload == "paper-study":
        return model.example_system()
    if ARGS.workload == "delayed-ensemble":
        cfgs = {}
        runs = []
        for s in MANIFEST["scenarios"]:
            for key in ("design", "truth"):
                if s[key] not in cfgs:
                    cfgs[s[key]] = model.load_config(_path(s[key]))
            runs.append((cfgs[s["truth"]], cfgs[s["design"]], sim.SimConfig(
                h=MANIFEST["h"], t_end=MANIFEST["t_end"], x0=s["x0"], xhat0=s["xhat0"],
                input_signal=tuple(exprlang.parse_input_signal(t) for t in s["inputs"]),
            ), s["jo_reference"]))
        return runs
    if ARGS.workload == "certify-sweep":
        return [[{
            "design": (model.load_config(_path(s["design"]["file"])), s["design"]),
            "certify": [(model.load_config(_path(c["file"])), c) for c in s["certify"]],
            "equilibrium": [(model.load_config(_path(e["file"])), e)
                            for e in s["equilibrium"]],
        } for s in variant] for variant in MANIFEST["variants"]]
    sys.exit(f"unknown workload {ARGS.workload!r}")


INPUTS = load()
SETUP_LAYERS = None
if TRACER is not None:
    SETUP_LAYERS = TRACER.take()
    TRACER.uninstall()
print("ready", flush=True)
if ARGS.setup_only:
    # the machine's speed right after set-up, on the CPU set-up ran on
    import calib

    print(calib.sample(), flush=True)
    sys.exit(0)

# --- everything below runs after set-up ----------------------------------

import contextlib  # noqa: E402
import io  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import traceback  # noqa: E402
import warnings  # noqa: E402

import numpy as np  # noqa: E402

import calib  # noqa: E402
import checks  # noqa: E402

# the semidefinite-pass RuntimeWarning is an expected outcome, not news
warnings.simplefilter("ignore", RuntimeWarning)

DOCUMENTED = (design.GainSearchError, cert.FeasibilitySearchError, sim.SimulationError)


class Op:
    """One operation: its kind, wall time, raw output and verdict."""

    __slots__ = ("kind", "seconds", "output", "error", "status", "reason")

    def __init__(self, kind):
        self.kind = kind
        self.seconds = 0.0
        self.output = None
        self.error = None
        self.status = None
        self.reason = None


# Untraced runs time the calibration kernel (``calib.py``) at the start and
# end of each pass and every CAL_INTERVAL_S in between, from a timer signal,
# so the samples fall inside the operations too; ``run.py`` scales a pass's
# times with its samples.  The time the kernel takes is taken out of the
# operation it interrupted.
CALIBRATE = TRACER is None
CAL_INTERVAL_S = 0.2
_cal = []  # the current pass's kernel samples
_cal_spent = [0.0, False]  # wall time spent in the kernel so far; sampling now


def _calibrate(signum=None, frame=None):
    if _cal_spent[1]:
        return  # a timer signal during a slow sample
    _cal_spent[1] = True
    t0 = time.perf_counter()
    _cal.append(calib.sample())
    _cal_spent[0] += time.perf_counter() - t0
    _cal_spent[1] = False


def timed(kind, fn, *args):
    op = Op(kind)
    # clock, then kernel total; at the end the other way round: a sample that
    # lands between the two reads is counted in the operation, never removed
    # from time the operation did not take
    t0 = time.perf_counter()
    spent = _cal_spent[0]
    try:
        op.output = fn(*args)
    except DOCUMENTED as exc:
        op.error = exc
    except Exception as exc:  # an undocumented failure is a result, not a crash
        op.error = exc
        op.reason = "".join(traceback.format_exception_only(type(exc), exc)).strip()
    spent = _cal_spent[0] - spent
    op.seconds = time.perf_counter() - t0 - spent
    return op


def _verdict(op, reason=None, missed=None):
    """failed: undocumented exception or wrong output; unsolved: a documented
    give-up or a planted answer not found; solved: output verified."""
    if op.reason is not None:
        op.status = "failed"
    elif op.error is not None:
        op.status = "unsolved"
        op.reason = f"{type(op.error).__name__}: {op.error}"
    elif reason is not None:
        op.status, op.reason = "failed", reason
    elif missed is not None:
        op.status, op.reason = "unsolved", missed
    else:
        op.status = "solved"


# --- paper-study ------------------------------------------------------------

with open(os.path.join(os.path.dirname(os.path.abspath(__file__)), "expected.json")) as _fh:
    EXPECTED = json.load(_fh)


def _reproduce(out_dir):
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(["reproduce-paper", "--out", out_dir])


def paper_pass(k):
    out_dir = _path(MANIFEST["out"])
    return [timed("cli", _reproduce, out_dir)]


def paper_check(ops, k):
    steps = 0
    for op in ops:
        reason = None
        if op.reason is None and op.error is None:
            try:
                reason, n = checks.paper_study(_path(MANIFEST["out"]), op.output,
                                               EXPECTED["paper-study"])
            except (OSError, ValueError) as exc:
                reason, n = f"unreadable study output: {exc}", 0
            steps += n
        _verdict(op, reason)
    return steps


# --- delayed-ensemble -------------------------------------------------------

def ensemble_pass(k):
    return [timed("simulate", lambda r: sim.simulate(r[0].plant, r[1].plant,
                                                     r[1].observer, r[2]), run)
            for run in INPUTS]


def ensemble_check(ops, k):
    steps = 0
    for op, run in zip(ops, INPUTS):
        reason = None
        if op.output is not None:
            steps += len(op.output.t) - 1
            reason = checks.trajectory(float(op.output.jo[-1]), run[3])
            op.output = None  # release the trajectory before the next pass
        _verdict(op, reason)
    return steps


# --- certify-sweep ----------------------------------------------------------

def design_stage(cfg, margin):
    p = cfg.plant
    E = design.compute_E(p.C, p.D)
    T = np.eye(p.n) - E @ p.C
    L = design.stabilize_L(T, p.A, p.C, margin, design.GainSearchOptions(seed=0))
    return design.design_GJ(p.A, p.C, E, L, D=p.D)


def certify_stage(cfg):
    obs, p = cfg.observer, cfg.plant
    found = cert.search_P(cfg.lipschitz, obs.G, obs.E, p.C,
                          cert.CertificateSearchOptions(seed=0))
    N = cert.cubic_gain(found.P, p.C, obs.theta, obs.alpha)
    ncond = cert.verify_N_condition(found.P, N, p.C, obs.theta, obs.alpha)
    return found, N, ncond


def equilibrium_stage(cfg):
    obs = cfg.observer
    return cert.check_equilibrium_uniqueness(obs.G, obs.N, cfg.plant.C, obs.theta,
                                             cert.EquilibriumSearchOptions(seed=0))


def sweep_pass(k):
    ops = []
    for s in INPUTS[k % len(INPUTS)]:
        cfg, meta = s["design"]
        ops.append(timed("design", design_stage, cfg, meta["margin"]))
        for cfg, meta in s["certify"]:
            ops.append(timed("certify", certify_stage, cfg))
        for cfg, meta in s["equilibrium"]:
            kind = "equilibrium-closed" if meta["planted"] is None else "equilibrium-planted"
            ops.append(timed(kind, equilibrium_stage, cfg))
    return ops


def _check_equilibrium(cfg, meta, verdict):
    obs = cfg.observer
    if verdict.status == cert.COUNTEREXAMPLE:
        if meta["planted"] is None:
            return "counterexample reported for a closed-form gain"
        return checks.counterexample(obs.G, obs.N, cfg.plant.C, obs.theta, verdict.v)
    if verdict.status == cert.NO_COUNTEREXAMPLE:
        return None
    return f"unexpected verdict {verdict.status!r} without a P hint"


def sweep_check(ops, k):
    systems = INPUTS[k % len(INPUTS)]
    it = iter(ops)
    for s in systems:
        cfg, meta = s["design"]
        op = next(it)
        reason = None
        if op.output is not None:
            r, p = op.output, cfg.plant
            reason = checks.design(p.A, p.C, p.D, meta["margin"], r.E, r.L, r.G, r.J)
        _verdict(op, reason)
        for cfg, meta in s["certify"]:
            op = next(it)
            reason = None
            if op.output is not None:
                found, N, ncond = op.output
                obs = cfg.observer
                reason = checks.certificate(cfg.lipschitz.gamma, obs.G, obs.E, cfg.plant.C,
                                            obs.theta, obs.alpha, found.P, found.beta, N,
                                            ncond.classification)
            _verdict(op, reason)
        for cfg, meta in s["equilibrium"]:
            op = next(it)
            reason = missed = None
            if op.output is not None:
                reason = _check_equilibrium(cfg, meta, op.output)
                if meta["planted"] is not None and op.output.status != cert.COUNTEREXAMPLE:
                    missed = "planted equilibrium not found"
            _verdict(op, reason, missed)
    return len(systems)


WORKLOADS = {
    "paper-study": (paper_pass, paper_check),
    "delayed-ensemble": (ensemble_pass, ensemble_check),
    "certify-sweep": (sweep_pass, sweep_check),
}


# --- the closed loop --------------------------------------------------------

def run_passes(deadline, min_passes, passes, traced=False):
    """Run passes 0, 1, ... until the next would end past ``deadline``.

    Pass ``k`` always gets the same inputs, so a traced run's passes match
    an untraced run's and repeat exactly for a fixed seed.
    """
    run_pass, check = WORKLOADS[ARGS.workload]
    walls = []
    while len(walls) < min_passes or time.perf_counter() + statistics.median(walls) <= deadline:
        k = len(walls)
        _cal.clear()
        if CALIBRATE:
            _calibrate()
            signal.setitimer(signal.ITIMER_REAL, CAL_INTERVAL_S, CAL_INTERVAL_S)
        t0 = time.perf_counter()
        try:
            ops = run_pass(k)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        wall = time.perf_counter() - t0
        if CALIBRATE:
            _calibrate()
        layers = TRACER.take() if traced else None
        items = check(ops, k)
        walls.append(wall)
        passes.append({"wall_s": wall, "items": items, "traced": traced, "layers": layers,
                       "cal": list(_cal),
                       "ops": [{"kind": op.kind, "seconds": op.seconds, "status": op.status,
                                "reason": op.reason} for op in ops]})


def main():
    signal.signal(signal.SIGALRM, _calibrate)
    start = time.perf_counter()
    passes = []
    result = {}
    if TRACER is None:
        run_passes(start + ARGS.seconds, 3, passes)
    else:
        # untraced passes first, then the same passes with every wrapper on
        run_passes(start + 0.4 * ARGS.seconds, 2, passes)
        TRACER.install()
        try:
            run_passes(start + ARGS.seconds, 2, passes, traced=True)
        finally:
            TRACER.uninstall()
        result["setup_layers"] = SETUP_LAYERS
    result.update(
        passes=passes,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        versions={"cubicobs": cubicobs.__version__, "numpy": np.__version__,
                  "python": sys.version.split()[0]},
    )
    print(json.dumps(result), flush=True)


main()
