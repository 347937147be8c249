"""The simulator's generated stage function against two references.

Random models (n = 1-4, one or two truths with their own input and output
delays, 1-3 observers with and without a cubic term) are integrated by
``sim`` and by the tree-walking RK4 below, written from the documented
semantics: :func:`evaluate` for every expression, the drive evaluated at
negative times before ``t = 0``, :class:`HistoryBuffer` (holding ``y(0)``
before ``t = 0``) for delayed outputs, every observer carried beside every
truth.  ``jo``, ``x`` and ``xhat`` of every (truth, observer) must agree
within 1e-12, and ``perfbench/reference.py`` must agree too, one truth and
one observer at a time.  Failures must agree as well: the same
message, from ``evaluate`` or from the finiteness check, at the same step,
members raised in group order (each truth, then its observers).  A kept
plan, run again from another initial state, gives what a fresh plan gives,
bit for bit; other models, step, horizon or drive text build a new one, and
the kept plans stay within their byte bound, least recently used out first.
Runs of a kept plan from a repeated initial truth state replay the truth's
recorded values and its first observer's ``f_u``, and give what a fresh plan
gives, failures included.
"""

import gc
import importlib.util
import math
import tracemalloc
import sys
from dataclasses import replace
from unittest import mock
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cubicobs import exprlang, sim
from cubicobs.exprlang import (ExprEvalError, SignalDims, evaluate, parse, parse_input_signal,
                               unparse)
from cubicobs.model import ConfigError, ObserverParams, PlantModel
from cubicobs.sim import HistoryBuffer, SimConfig, SimulationError

_spec = importlib.util.spec_from_file_location(
    "perfbench_reference", Path(__file__).resolve().parents[1] / "perfbench" / "reference.py")
reference = sys.modules[_spec.name] = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(reference)

H = 0.125  # binary, so every stage time and delay is exact


def expr_text(rng, refs, depth=2) -> str:
    """A small expression over ``refs``; every function it uses is bounded
    or grows slowly over the short horizons drawn here."""
    if depth == 0 or rng.random() < 0.25:
        return str(rng.choice(refs)) if rng.random() < 0.8 else f"{rng.uniform(0, 1):.3g}"
    a, b = expr_text(rng, refs, depth - 1), expr_text(rng, refs, depth - 1)
    return str(rng.choice([f"{rng.choice(['sin', 'cos', 'tanh'])}({a})", f"(-{a})",
                           f"({a})^2", f"({a} + {b})", f"({a} - {b})", f"({a} * {b})",
                           f"({a}) / (2 + cos({b}))"]))


def slot_refs(kind, count, n_slots):
    return [f"{kind}{i}" + (f"@{s}" if s else "") for i in range(1, count + 1)
            for s in range(n_slots + 1)]


def random_plant(rng, n, n_y, n_u, delta, tau, growing=False) -> PlantModel:
    """A stable plant with random expressions.  ``growing`` appends a state
    x' = 10 x that no expression and no output reads."""
    n_g = int(rng.integers(0, 2))
    dims = SignalDims(n + growing, n_u, n_y, len(delta), len(tau))
    u_refs = slot_refs("u", n_u, len(delta)) or ["0"]
    refs = [f"x{i}" for i in range(1, n + 1)] + u_refs + slot_refs("y", n_y, len(tau))

    def vector(count, refs):
        return tuple(parse(f"{rng.uniform(0.05, 0.3):.3g}*{expr_text(rng, refs)}", dims)
                     for _ in range(count))

    pad = (parse("0", dims),) * growing
    A = np.zeros((n + growing, n + growing))
    A[:n, :n] = -np.eye(n) + 0.2 * rng.uniform(-1, 1, (n, n))
    A[n:, n:] = 10.0
    C = np.zeros((n_y, n + growing))
    C[:, :n] = rng.uniform(-1, 1, (n_y, n))
    D = np.zeros((n + growing, n_g))
    D[:n] = 0.3 * rng.uniform(-1, 1, (n, n_g))
    return PlantModel(A=A, C=C, D=D, n_u=n_u, delta=tuple(delta), tau=tuple(tau),
                      f_u=vector(n, u_refs) + pad, f_g=vector(n_g, refs),
                      f_L=vector(n, refs) + pad)


def random_observer(rng, n, n_y, cubic) -> ObserverParams:
    B = rng.uniform(-1, 1, (n_y, n_y))
    return ObserverParams(G=-2.0 * np.eye(n) + 0.2 * rng.uniform(-1, 1, (n, n)),
                          J=0.3 * rng.uniform(-1, 1, (n, n_y)),
                          E=0.3 * rng.uniform(-1, 1, (n, n_y)),
                          N=0.3 * rng.uniform(-1, 1, (n, n_y)) if cubic else np.zeros((n, n_y)),
                          theta=0.1 * B @ B.T)


def scenario(seed, n, cubic, layout, steps, growing=False, drive_t=False):
    """Truth, design, observers and settings drawn from ``seed``; ``drive_t``
    makes the first input channel the time ``t`` itself."""
    rng = np.random.default_rng(seed)
    n_y, n_u = int(rng.integers(1, min(n, 2) + 1)), int(rng.integers(drive_t, 3))

    def delays(count):
        return [H * int(rng.integers(0, 4)) for _ in range(count)]

    truth, design = (random_plant(rng, n, n_y, n_u, delays(n_delta), delays(n_tau), growing)
                     for n_delta, n_tau in (layout[:2], layout[2:]))
    width = n + growing
    observers = [random_observer(rng, width, n_y, c) for c in cubic]
    drive = [f"{rng.uniform(0.2, 1):.3g}*{f}({rng.uniform(0.5, 3):.3g}*t)"
             for f in rng.choice(["sin", "cos"], n_u)]
    if drive_t:
        drive[0] = "t"
    cfg = SimConfig(h=H, t_end=steps * H, x0=rng.uniform(-1, 1, width),
                    xhat0=rng.uniform(-1, 1, width),
                    input_signal=tuple(map(parse_input_signal, drive)))
    return truth, design, observers, cfg


def other_truth(seed, truth):
    """A second truth beside ``truth``: its dimensions, its own expressions
    and its own input and output delays."""
    rng = np.random.default_rng([seed, 1])

    def delays():
        return [H * int(rng.integers(0, 4)) for _ in range(int(rng.integers(0, 3)))]

    return random_plant(rng, truth.n, truth.n_y, truth.n_u, delays(), delays())


def tree_walk(truths, design, observers, cfg):
    """``(x, [xhat_m], [jo_m])`` of each truth in ``truths`` by plain RK4 on
    ``[x_1; ...; x_T; w_11; ...; w_TM]``, or the :class:`SimulationError` the
    documented semantics give, members evaluated in group order (each truth,
    then its observers)."""
    h, n, n_y = cfg.h, design.n, design.n_y
    T, M = len(truths), len(observers)
    steps = round(cfg.t_end / h)

    def lag(d):
        return round(d / h)

    depth = max(map(lag, design.tau + sum((p.tau for p in truths), ())), default=0) + 1
    ybufs = []
    for truth in truths:
        ybufs.append(HistoryBuffer(n_y, depth, truth.C @ cfg.x0))
        ybufs[-1].push(0, truth.C @ cfg.x0)

    def signals(plant, pos, y_now, ybuf):
        def drive(p):
            return [evaluate(e, t=(p * 0.5) * h) for e in cfg.input_signal]
        u = [drive(pos)] + [drive(pos - 2 * lag(d)) for d in plant.delta]
        y = [y_now] + [ybuf.value_at(pos / 2 - lag(d)) if lag(d) else y_now for d in plant.tau]
        return u, y

    def deriv(pos, z):
        dx, dw = [], []
        for t, (truth, ybuf) in enumerate(zip(truths, ybufs)):
            x = z[t * n:(t + 1) * n]
            y_now = truth.C @ x
            u, y = signals(truth, pos, y_now, ybuf)
            f = np.array([evaluate(e, x, u, y) for e in truth.f_u + truth.f_g + truth.f_L])
            n_g = truth.n_g
            dx.append(truth.A @ x + f[:n] + truth.D @ f[n:n + n_g] + f[n + n_g:])
            u, y = signals(design, pos, y_now, ybuf)
            for m, obs in enumerate(observers):
                w = z[(T + t * M + m) * n:(T + t * M + m + 1) * n]
                xhat = w + obs.E @ y_now
                fd = np.array([evaluate(e, xhat, u, y) for e in design.f_u + design.f_L])
                dwm = (obs.G @ w + obs.J @ y_now
                       + (np.eye(n) - obs.E @ design.C) @ (fd[:n] + fd[n:]))
                if obs.N.any():
                    err = y_now - design.C @ xhat
                    dwm = dwm - float(err @ obs.theta @ err) * (obs.N @ err)
                dw.append(dwm)
        return np.concatenate(dx + dw)

    z = np.concatenate([cfg.x0] * T + [cfg.xhat0 - obs.E @ (truth.C @ cfg.x0)
                                       for truth in truths for obs in observers])
    zs = [z]
    with np.errstate(all="ignore"):
        for k in range(steps):
            try:
                k1 = deriv(2 * k, z)
                k2 = deriv(2 * k + 1, z + 0.5 * h * k1)
                k3 = deriv(2 * k + 1, z + 0.5 * h * k2)
                k4 = deriv(2 * k + 2, z + h * k3)
            except ExprEvalError as exc:
                raise SimulationError(
                    f"expression evaluation failed near t = {k * h:.6g}: {exc}") from exc
            z = z + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            if not np.isfinite(z).all():
                raise SimulationError(
                    f"state became non-finite at t = {(k + 1) * h:.6g} (step {k + 1})")
            zs.append(z)
            for t, (truth, ybuf) in enumerate(zip(truths, ybufs)):
                ybuf.push(k + 1, truth.C @ z[t * n:(t + 1) * n])
    zs = np.array(zs)
    walks = []
    for t, truth in enumerate(truths):
        xs = zs[:, t * n:(t + 1) * n]
        ys = xs @ truth.C.T
        xhats = [zs[:, (T + t * M + m) * n:(T + t * M + m + 1) * n] + ys @ obs.E.T
                 for m, obs in enumerate(observers)]
        jos = []
        with np.errstate(over="ignore"):  # an error too large to square makes jo inf
            for xhat in xhats:
                g = np.sum((xs - xhat) ** 2, axis=1)
                jos.append(np.concatenate([[0.0], np.cumsum(0.5 * h * (g[:-1] + g[1:]))]))
        walks.append((xs, xhats, jos))
    return walks


def perfbench_jo(truth, design, obs, cfg):
    """``(jo(t_end), max |x|, |xhat|)`` from ``perfbench/reference.py``."""

    class Slots:  # the reference passes u(slot); evaluate reads u[slot]
        def __init__(self, fn):
            self.fn = fn

        def __getitem__(self, slot):
            return self.fn(slot)

    def plant(p):
        def fn(e):
            return lambda x, u, y: evaluate(e, x, Slots(u), Slots(y))
        return reference.Plant(A=p.A, C=p.C, D=p.D, delta=p.delta, tau=p.tau,
                               f_u=[fn(e) for e in p.f_u], f_g=[fn(e) for e in p.f_g],
                               f_L=[fn(e) for e in p.f_L])

    gains = dict(G=obs.G, J=obs.J, E=obs.E, N=obs.N, theta=obs.theta)
    drive = [lambda t, e=e: evaluate(e, t=t) for e in cfg.input_signal]
    return reference.simulate(plant(truth), plant(design), gains, drive, cfg.h, cfg.t_end,
                              cfg.x0, cfg.xhat0)


def outcome(run):
    try:
        return run()
    except SimulationError as exc:
        return str(exc)


def close(a, b):
    return np.abs(np.asarray(a) - b).max() <= 1e-12 * np.abs(b).max()


LAYOUT = st.tuples(*[st.integers(0, 2)] * 4)  # truth delta, tau; design delta, tau slots
CUBIC = st.lists(st.booleans(), min_size=1, max_size=3)


@settings(max_examples=40)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 4), cubic=CUBIC, layout=LAYOUT,
       n_truths=st.integers(1, 2))
def test_kernel_agrees_with_tree_walk_and_reference(seed, n, cubic, layout, n_truths):
    truth, design, observers, cfg = scenario(seed, n, cubic, layout, steps=12)
    truths = [truth, other_truth(seed, truth)][:n_truths]
    groups = sim._integrate(truths, design, observers, cfg)
    walks = tree_walk(truths, design, observers, cfg)
    for truth, results, (xs, xhats, jos) in zip(truths, groups, walks):
        for m, (res, obs) in enumerate(zip(results, observers)):
            assert close(res.x, xs)
            assert close(res.xhat, xhats[m]), m
            assert abs(res.jo[-1] - jos[m][-1]) <= 1e-12 * jos[m][-1], m
            jo_end, peak = perfbench_jo(truth, design, obs, cfg)
            assert abs(res.jo[-1] - jo_end) <= 1e-12 * jo_end, m
            assert (abs(max(np.abs(res.x).max(), np.abs(res.xhat).max()) - peak)
                    <= 1e-12 * peak)


@settings(max_examples=40)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 4), cubic=CUBIC, layout=LAYOUT,
       member=st.sampled_from([0, 1]), pick=st.integers(0, 2**16), n_truths=st.integers(1, 2))
def test_failing_expression_reports_what_evaluate_reports(seed, n, cubic, layout, member, pick,
                                                          n_truths):
    # one expression of a truth (member 0, the last of n_truths truths) or
    # of the design (1) gains 1/(u1@s - c), u1 being t and c a time slot s
    # reaches at some stage: division by zero there, and in every observer
    # at once for the design
    steps = 12
    truth, design, observers, cfg = scenario(seed, n, cubic, layout, steps, drive_t=True)
    truths = [truth, other_truth(seed, truth)][:n_truths]
    plants = [truths[-1], design]
    plant = plants[member]
    exprs = [(f, i) for f in (("f_u", "f_g", "f_L"), ("f_u", "f_L"))[member]
             for i in range(len(getattr(plant, f)))]
    field, index = exprs[pick % len(exprs)]
    slot = pick % (len(plant.delta) + 1)
    lag = round(plant.delta[slot - 1] / H) if slot else 0
    c = ((pick % (2 * steps + 1) - 2 * lag) * 0.5) * H
    old = getattr(plant, field)
    bad = parse(f"{unparse(old[index])} + 1/(u1{f'@{slot}' if slot else ''} - {c!r})",
                plant.dims())
    plants[member] = replace(plant, **{field: old[:index] + (bad,) + old[index + 1:]})
    truths[-1] = plants[0]
    got = outcome(lambda: sim._integrate(truths, plants[1], observers, cfg))
    want = outcome(lambda: tree_walk(truths, plants[1], observers, cfg))
    assert isinstance(want, str) and want.endswith("division by zero"), want
    assert got == want


@settings(max_examples=40)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 4), cubic=CUBIC, layout=LAYOUT,
       pick=st.integers(0, 2**16), n_truths=st.integers(1, 2))
def test_failing_drive_sample_reports_what_evaluate_reports(seed, n, cubic, layout, pick,
                                                            n_truths):
    # the drive's first channel becomes 1/(t - c), c a half-step time some
    # stage reads through some input lag: division by zero there.  The tree
    # walk evaluates the drive at every declared slot, so every plant gains
    # a term that reads u1 at every slot.
    steps = 12
    truth, design, observers, cfg = scenario(seed, n, cubic, layout, steps, drive_t=True)
    plants = []
    for plant in [truth, other_truth(seed, truth)][:n_truths] + [design]:
        reads = " + ".join(f"u1@{s}" if s else "u1" for s in range(len(plant.delta) + 1))
        f_u = (parse(f"{unparse(plant.f_u[0])} + 0.1*({reads})", plant.dims()),)
        plants.append(replace(plant, f_u=f_u + plant.f_u[1:]))
    lags = [round(d / H) for plant in plants for d in plant.delta]
    first = -2 * lags[pick % len(lags)] if lags else 0
    c = ((first + pick % (2 * steps - first + 1)) * 0.5) * H
    drive = f"1/(t - {c!r})" if c >= 0 else f"1/(t + {-c!r})"
    cfg = replace(cfg, input_signal=(drive,) + cfg.input_signal[1:])
    got = outcome(lambda: sim._integrate(plants[:-1], plants[-1], observers, cfg))
    want = outcome(lambda: tree_walk(plants[:-1], plants[-1], observers, cfg))
    assert isinstance(want, str) and want.endswith("division by zero"), want
    assert got == want


@pytest.mark.parametrize("seed", range(4))
def test_generated_functions_run_whole_body_in_the_guard(monkeypatch, seed):
    # nothing of a generated stage or drive runs ahead of its try: the
    # fallback never finds a name unbound
    sources = []

    def recording_compile(src, *args):
        sources.append(src)
        return compile(src, *args)

    exprlang._compile_source.cache_clear()
    monkeypatch.setattr(exprlang, "compile", recording_compile, raising=False)
    truth, *rest = scenario(seed, 3, [True, False, True], (2, 2, 1, 2), 4, drive_t=True)
    sim._integrate([truth], *rest)[0]
    heads = [src.splitlines()[:2] for src in sources]
    assert sorted(head[0] for head in heads) == ["def _drive(t):", "def _stage(j, s, o):"]
    assert all(head[1] == "    try:" for head in heads), heads


@pytest.mark.parametrize("truth_term, design_term", [
    ("1/(x1 - x1)", None),
    (None, "1e308*(2 + cos(x1))"),
    ("1e308*(2 + cos(x1))", "1/(x1 - x1)"),
], ids=["truth-raises", "design-inf", "both-truth-first"])
def test_failing_terms_from_the_first_stage(truth_term, design_term):
    # 1e308*(2 + cos(x1)) overflows to inf without raising: only the
    # finiteness check finds it.  When both fail, the truth's error is raised.
    plants = list(scenario(7, 2, [True, False], (1, 1, 1, 1), 12))
    for member, term in enumerate((truth_term, design_term)):
        if term is not None:
            plant = plants[member]
            f_L = (parse(f"{unparse(plant.f_L[0])} + {term}", plant.dims()),) + plant.f_L[1:]
            plants[member] = replace(plant, f_L=f_L)
    want = outcome(lambda: tree_walk([plants[0]], *plants[1:])[0])
    assert want.startswith("expression evaluation failed near t = 0: ")
    assert want.endswith("division by zero" if truth_term == "1/(x1 - x1)"
                         else "(2.0+cos(x1))))")
    assert outcome(lambda: sim._integrate([plants[0]], *plants[1:])[0]) == want


def spike(c):
    """Finite at every stage time but ``t = c``, where exp overflows."""
    return f"exp(1000 - 1000000*(u2 - {c!r})^2)"


def one_state_plant(f_u="0", f_L="0", delta=()):
    dims = SignalDims(n=1, n_u=2, n_y=1, n_delta=len(delta))
    return PlantModel(A=[[-1.0]], C=[[1.0]], D=np.zeros((1, 0)), n_u=2, delta=delta,
                      f_u=(parse(f_u, dims),), f_L=(parse(f_L, dims),))


# Stage positions j sit at t = (j/2) H; step k runs j = 2k, 2k+1, 2k+1, 2k+2.
# A failed drive sample and another failure in the same step: the first
# failure a stage meets wins, in stage order, then in group order (each
# truth, then its observers), a member meeting its input rows before its
# expressions.
@pytest.mark.parametrize("drive, truths, design, want", [
    # stage 2 (j = 3) fails on the expression, stage 4 (j = 4) on the drive
    ("1/(t - 0.25)", [one_state_plant("u1", spike(0.1875))], one_state_plant(),
     "near t = 0.125: exp failed"),
    # j = 2: the truth's expression, then the design's sample at -2H via lag 3
    ("1/(t + 0.25)", [one_state_plant(f_L=spike(0.125))],
     one_state_plant("u1@1", delta=(3 * H,)), "near t = 0: exp failed"),
    # j = 2: the truth's sample at -2H via lag 3, then the design's expression
    ("1/(t + 0.25)", [one_state_plant("u1@1", delta=(3 * H,))],
     one_state_plant(f_L=spike(0.125)), "near t = 0: division by zero"),
    # the second truth's expression at j = 3 before the first truth's sample at j = 4
    ("1/(t - 0.25)", [one_state_plant("u1"), one_state_plant(f_L=spike(0.1875))],
     one_state_plant(), "near t = 0.125: exp failed"),
    # both truths' expressions at j = 3: the first truth's wins
    ("t", [one_state_plant(f_L="1/(u2 - 0.1875)"), one_state_plant(f_L=spike(0.1875))],
     one_state_plant(), "near t = 0.125: division by zero"),
], ids=["stage-order", "truth-expression-first", "truth-sample-first",
        "second-truth-first", "group-order"])
def test_drive_and_expression_failures_in_one_step(drive, truths, design, want):
    obs = ObserverParams(G=[[-1.0]], J=[[0.0]], E=[[0.0]], N=[[0.0]], theta=[[1.0]])
    cfg = SimConfig(h=H, t_end=4 * H, x0=[0.5], xhat0=[0.0], input_signal=(drive, "t"))
    got = outcome(lambda: sim._integrate(truths, design, [obs], cfg))
    assert got.startswith(f"expression evaluation failed {want}"), got
    assert got == outcome(lambda: tree_walk(truths, design, [obs], cfg))


@settings(max_examples=20)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 4), cubic=CUBIC, layout=LAYOUT,
       k=st.integers(1, 6))
def test_overflow_in_an_unread_state_is_reported_at_its_step(seed, n, cubic, layout, k):
    # An extra state x' = 10 x, read by no expression and no output, starts
    # where RK4 at h = 1 (growth 644.3 per step) overflows it first in the
    # sum that ends step k + 1, every stage of that step still finite.
    truth, design, observers, cfg = scenario(seed, n, cubic, layout, k + 3, growing=True)
    growth = 1 + 10 + 10**2 / 2 + 10**3 / 6 + 10**4 / 24
    x0 = cfg.x0.copy()
    x0[-1] = np.finfo(float).max / 447.0 / growth**k
    cfg = replace(cfg, h=1.0, t_end=k + 3.0, x0=x0)
    # the same delays in steps of h = 1
    truth, design = (replace(p, delta=tuple(d / H for d in p.delta),
                             tau=tuple(d / H for d in p.tau)) for p in (truth, design))
    got = outcome(lambda: sim._integrate([truth], design, observers, cfg)[0])
    want = outcome(lambda: tree_walk([truth], design, observers, cfg)[0])
    assert want == f"state became non-finite at t = {k + 1} (step {k + 1})"
    assert got == want


def test_finite_terms_whose_sum_overflows_integrate_on():
    # the stage's finiteness check sums its terms: eight of 2.5e307 overflow
    # that sum in every stage, send it through evaluate, and the run goes on
    dims = SignalDims(n=4, n_u=0, n_y=1)
    plant = PlantModel(A=-np.eye(4), C=[[1.0, 0.0, 0.0, 0.0]], D=np.zeros((4, 0)), n_u=0,
                       f_u=(parse("0", dims),) * 4,
                       f_L=tuple(parse(f"2.5e307 + 0*x{i}", dims) for i in range(1, 5)))
    obs = ObserverParams(G=-2.0 * np.eye(4), J=[[0.5], [0.0], [0.0], [0.0]],
                         E=np.zeros((4, 1)), N=np.zeros((4, 1)), theta=[[1.0]])
    cfg = SimConfig(h=H, t_end=1.0, x0=[0.0, 1.0, 0.0, 0.0], xhat0=[1.0, 0.0, 0.0, 0.0],
                    input_signal=())
    res = sim.simulate(plant, plant, obs, cfg)
    xs, xhats, _ = tree_walk([plant], plant, [obs], cfg)[0]
    assert np.isfinite(res.x).all() and res.x.max() > 1e307
    assert close(res.x, xs) and close(res.xhat, xhats[0])


def test_one_plan_runs_from_two_initial_estimates():
    # a plan holds no run state: two runs of one plan, each from its own
    # initial estimate, equal their own simulate calls bit for bit, and leave
    # the drive grid as the plan built it
    truth, design, observers, cfg = scenario(1, 3, [True], (2, 2, 2, 2), steps=12)
    plan = sim._plan([truth], design, observers, cfg)
    assert plan.grid and plan.y_off  # the stages read the drive grid and the output table
    grid = list(plan.grid)
    for xhat0 in (cfg.xhat0, -2.0 * cfg.xhat0):
        got = sim._run(plan, cfg.x0, xhat0)[0][0]
        want = sim.simulate(truth, design, observers[0], replace(cfg, xhat0=xhat0))
        for field in ("t", "x", "xhat", "y", "jo"):
            assert np.array_equal(getattr(got, field), getattr(want, field)), field
    assert list(plan.grid) == grid


def test_finite_states_whose_sum_overflows_integrate_on():
    # seven entries of 1e308 overflow the sum that checks each step: the
    # exact test behind it finds every entry finite, and the run goes on
    dims = SignalDims(n=2, n_u=0, n_y=1)
    zero = (parse("0", dims),) * 2
    plant = PlantModel(A=np.zeros((2, 2)), C=[[1.0, 0.0]], D=np.zeros((2, 0)), n_u=0,
                       f_u=zero, f_L=zero)
    obs = ObserverParams(G=np.zeros((2, 2)), J=np.zeros((2, 1)), E=np.zeros((2, 1)),
                         N=np.zeros((2, 1)), theta=[[1.0]])
    cfg = SimConfig(h=H, t_end=1.0, x0=[1e308, 1e308], xhat0=[1e308, 1e308], input_signal=())
    res = sim.simulate(plant, plant, obs, cfg)
    assert (res.x == 1e308).all() and (res.xhat == 1e308).all() and not res.jo.any()


# --- kept plans, reused -----------------------------------------------------

def fresh_run(truth, design, obs, cfg):
    """``simulate``'s result from a plan built for this call alone."""
    return sim._run(sim._plan([truth], design, [obs], cfg), cfg.x0, cfg.xhat0)[0][0]


def plans_built(monkeypatch) -> list:
    """The plans ``_integrate`` builds from now on, in order."""
    built, plan = [], sim._plan

    def counted(*args):
        built.append(plan(*args))
        return built[-1]

    monkeypatch.setattr(sim, "_plan", counted)
    return built


def assert_bit_equal(got, want):
    for field in ("t", "x", "xhat", "y", "jo"):
        assert getattr(got, field).tobytes() == getattr(want, field).tobytes(), field


def memo_scenario():
    """One truth and a delayed design, both read the drive ``("0.0", "t")``."""
    obs = ObserverParams(G=[[-1.0]], J=[[0.5]], E=[[0.0]], N=[[-0.2]], theta=[[1.0]])
    cfg = SimConfig(h=H, t_end=4 * H, x0=[0.5], xhat0=[0.0], input_signal=("0.0", "t"))
    return (one_state_plant("u1 + u2"), one_state_plant("u1@1 + u2", delta=(H,)), obs), cfg


def test_a_second_simulate_from_a_new_estimate_reuses_the_plan(monkeypatch):
    truth, design, observers, cfg = scenario(3, 3, [True], (2, 2, 2, 2), steps=12)
    cfgs = (cfg, replace(cfg, xhat0=-2.0 * cfg.xhat0))
    want = [fresh_run(truth, design, observers[0], c) for c in cfgs]
    built = plans_built(monkeypatch)
    for c, w in zip(cfgs, want):
        assert_bit_equal(sim.simulate(truth, design, observers[0], c), w)
    assert len(built) == 1


@pytest.mark.parametrize("change", [
    lambda models, cfg: (models, replace(cfg, h=H / 2)),
    lambda models, cfg: (models, replace(cfg, t_end=5 * H)),
    lambda models, cfg: (models, replace(cfg, input_signal=("-0.0", "t"))),
    lambda models, cfg: ((replace(models[0]), *models[1:]), cfg),
    lambda models, cfg: ((*models[:2], replace(models[2])), cfg),
], ids=["h", "t_end", "signed-zero-drive", "equal-truth", "equal-observer"])
def test_a_changed_call_builds_a_new_plan(monkeypatch, change):
    models, cfg = memo_scenario()
    models2, cfg2 = change(models, cfg)
    want = [fresh_run(*models, cfg), fresh_run(*models2, cfg2)]
    built = plans_built(monkeypatch)
    for m, c, w in zip((models, models2), (cfg, cfg2), want):
        assert_bit_equal(sim.simulate(*m, c), w)
    assert len(built) == 2


@pytest.mark.parametrize("name", ["x0", "xhat0"])
def test_a_reused_plan_checks_the_initial_state(monkeypatch, name):
    (truth, design, obs), cfg = memo_scenario()
    sim.simulate(truth, design, obs, cfg)
    built = plans_built(monkeypatch)
    with pytest.raises(ConfigError) as info:
        sim.simulate(truth, design, obs, replace(cfg, **{name: [0.0, 0.0]}))
    assert str(info.value) == f"{name}: expected 1 entries, got (2,)"
    assert built == []


def test_a_run_leaves_every_plan_array_as_it_was_and_read_only():
    truth, design, observers, cfg = scenario(5, 3, [True, False], (2, 2, 2, 2), steps=12)
    plan = sim._plan([truth, other_truth(5, truth)], design, observers, cfg)

    def arrays(item):
        if isinstance(item, np.ndarray):
            yield item
        elif isinstance(item, tuple):
            for part in item:
                yield from arrays(part)

    found = list(arrays(tuple(vars(plan).values())))
    before = [a.tobytes() for a in found]
    sim._run(plan, cfg.x0, cfg.xhat0)
    # S, P, each truth's C and the observers' E, one drive column per input channel
    assert len(cfg.input_signal) == 2
    assert len(found) == 1 + 4 + 2 * (1 + 2) + 2
    assert [a.tobytes() for a in found] == before
    assert not any(a.flags.writeable for a in found)


def model_sets():
    """Three model sets of different sizes, each with its settings."""
    return [scenario(seed, n, [True, False][:n - 1], (1, 2, 2, 1), steps=8)
            for seed, n in ((11, 2), (12, 3), (13, 2))]


@settings(max_examples=15)
@given(calls=st.lists(st.tuples(st.integers(0, 2), st.sampled_from([1.0, -2.0, 0.5])),
                      min_size=1, max_size=9))
def test_interleaved_model_sets_plan_once_each(calls):
    # every call runs its set's kept plan from its own estimate, bit-equal to a
    # fresh plan, however the calls over the three sets interleave
    sets = model_sets()
    cfgs = {(i, a): replace(sets[i][3], xhat0=a * sets[i][3].xhat0) for i, a in calls}
    want = {c: fresh_run(*sets[c[0]][:2], sets[c[0]][2][0], cfg) for c, cfg in cfgs.items()}
    built, plan = [], sim._plan

    def counted(*args):
        built.append(args[0][0])
        return plan(*args)

    with mock.patch.object(sim, "_plan", counted):
        for c in calls:
            truth, design, observers, _ = sets[c[0]]
            assert_bit_equal(sim.simulate(truth, design, observers[0], cfgs[c]), want[c])
    assert sorted(map(id, built)) == sorted({id(sets[i][0]) for i, _ in calls})


def test_compare_cubic_linear_reuses_its_linear_twin(monkeypatch):
    # calls that differ only in x0 and xhat0 plan once, twin included, and
    # give what a fresh plan of the pair gives, bit for bit
    truth, design, observers, cfg = scenario(6, 3, [True], (2, 2, 2, 2), steps=12)
    obs = observers[0]
    twin = replace(obs, N=np.zeros_like(obs.N))
    cfgs = (cfg, replace(cfg, x0=0.5 * cfg.x0, xhat0=-2.0 * cfg.xhat0))
    want = [sim._run(sim._plan([truth], design, [obs, twin], c), c.x0, c.xhat0)[0] for c in cfgs]
    built = plans_built(monkeypatch)
    for c, (cubic, linear) in zip(cfgs, want):
        rep = sim.compare_cubic_linear(truth, design, obs, c)
        assert_bit_equal(rep.cubic, cubic)
        assert_bit_equal(rep.linear, linear)
    assert len(built) == 1


def kept_sizes():
    return [entry[1] for entry in sim._kept_plans.values()]


def test_a_kept_plan_goes_with_its_models(monkeypatch):
    # models built afresh for each call, as example_study builds them: each
    # plan is dropped when its models die, and a new model that takes a dead
    # one's id is planned anew
    monkeypatch.setattr(sim, "_kept_plans", {})
    (truth, design, obs), cfg = memo_scenario()
    built = plans_built(monkeypatch)
    for gain in (0.5, 0.25, 0.125):
        fresh = replace(obs, J=[[gain]])
        want = fresh_run(truth, design, fresh, cfg)
        assert_bit_equal(sim.simulate(truth, design, fresh, cfg), want)
        sim.compare_cubic_linear(truth, design, fresh, cfg)
        assert len(sim._kept_plans) == 2
        del fresh
        assert sim._kept_plans == {}
    assert len(built) == 3 * 3  # fresh_run's plan, simulate's and the pair's


def test_kept_plans_stay_within_the_byte_bound(monkeypatch):
    # three plans of one size and a bound that holds two, but not two and a
    # recording: the least recently used goes; a plan larger than the bound
    # runs, is never kept and is planned again on every call.  Each call
    # starts the truth from a new x0, so nothing records until the end, where
    # a recording counts too
    monkeypatch.setattr(sim, "_kept_plans", {})
    (truth, design, obs), cfg = memo_scenario()
    sim.simulate(truth, design, obs, cfg)
    ((plan, small, *_),) = sim._kept_plans.values()
    charge = sim._recording(plan, sim._KEPT_PLAN_BYTES)[3]
    assert charge < small
    monkeypatch.setattr(sim, "_KEPT_PLAN_BYTES", 2 * small + charge // 2)
    big = replace(cfg, t_end=400 * H)
    want = fresh_run(truth, design, obs, big)
    built = plans_built(monkeypatch)
    truths = [truth, one_state_plant("u1 + u2"), one_state_plant("u1 + u2")]
    for i, t in enumerate((0, 1, 0, 2, 0, 1)):  # 1 goes when 2 comes, 2 when 1 comes back
        sim.simulate(truths[t], design, obs, replace(cfg, x0=[i / 8]))
        assert sum(kept_sizes()) <= sim._KEPT_PLAN_BYTES
    assert len(built) == 3
    kept_truths = [entry[2][0]() for entry in sim._kept_plans.values()]
    assert len(kept_truths) == 2 and kept_truths[0] is truth and kept_truths[1] is truths[1]
    for _ in range(2):
        assert_bit_equal(sim.simulate(truth, design, obs, big), want)
        assert kept_sizes() == [small, small]
    assert len(built) == 5 and built[-1].steps == 400
    plan = built[-1]
    assert (len(plan.src) + sum(a.nbytes for a in (plan.S, *plan.P, *plan.grid[0]))
            > sim._KEPT_PLAN_BYTES)
    # two runs in a row from cfg.x0: the second records, and its bytes push
    # the least recently used plan out
    for _ in range(2):
        sim.simulate(truth, design, obs, cfg)
    (entry,) = sim._kept_plans.values()
    assert entry[2][0]() is truth and entry[1] == small + entry[4][3] <= sim._KEPT_PLAN_BYTES
    # a recording that would pass the bound is never started
    monkeypatch.setattr(sim, "_KEPT_PLAN_BYTES", small + entry[4][3] - 1)
    for _ in range(3):
        sim.simulate(truth, design, obs, replace(cfg, x0=[0.25]))
        assert kept_sizes() == [small] and sim._kept_plans[key_of(truth)][4] is None
    assert len(built) == 5


def key_of(truth):
    """The key of the one kept plan whose truth is ``truth``."""
    (key,) = [k for k, entry in sim._kept_plans.items() if entry[2][0]() is truth]
    return key


def truth_calls(monkeypatch, name="tanh") -> list:
    """Records each call of the generated code's ``name`` from now on."""
    calls, fn = [], sim._CODEGEN_GLOBALS[name]

    def counted(v):
        calls.append(v)
        return fn(v)

    monkeypatch.setattr(sim, "_CODEGEN_GLOBALS", {**sim._CODEGEN_GLOBALS, name: counted})
    return calls


def replay_scenario():
    """``memo_scenario`` with a truth whose ``f_L`` alone calls ``tanh`` and a
    design whose expressions read no state."""
    (_, design, obs), cfg = memo_scenario()
    return (one_state_plant("u1 + u2", "0.5*tanh(x1)"), design, obs), cfg


def test_a_third_run_from_one_x0_evaluates_no_truth_expression(monkeypatch):
    # the first run is plain, the second records, the third and later replay;
    # every one gives what a fresh plan gives
    monkeypatch.setattr(sim, "_kept_plans", {})
    (truth, design, obs), cfg = replay_scenario()
    cfgs = [replace(cfg, xhat0=[a]) for a in (0.0, 1.0, -2.0, 0.5)]
    want = [fresh_run(truth, design, obs, c) for c in cfgs]
    calls = truth_calls(monkeypatch)
    counts = []
    for c, w in zip(cfgs, want):
        assert_bit_equal(sim.simulate(truth, design, obs, c), w)
        counts.append(len(calls))
    assert counts == [16, 32, 32, 32]  # 4 stages in each of 4 steps
    (entry,) = sim._kept_plans.values()
    assert "tanh" not in entry[4][0] and "_tail(j, s)" in entry[4][0]
    # the truth's two values and the design's one f_u value in each of 4
    # stages, in each of 4 steps
    assert entry[4][1].shape == (4, 12) and not entry[4][1].flags.writeable


def input_term_design(f_u, tau=()):
    """A one-state design whose ``f_u`` alone calls ``cos`` and whose ``f_L``
    alone calls ``sin``, with output delays ``tau``."""
    dims = SignalDims(n=1, n_u=2, n_y=1, n_tau=len(tau))
    return PlantModel(A=[[-1.0]], C=[[1.0]], D=np.zeros((1, 0)), n_u=2, tau=tau,
                      f_u=(parse(f_u, dims),), f_L=(parse("0.25*sin(x1)", dims),))


def test_a_replayed_run_evaluates_no_input_term_of_its_observer(monkeypatch):
    # the design's f_u reads no state, so it is recorded with the truth: a
    # replayed stage calls only f_L's sin, and gives what a fresh plan gives
    monkeypatch.setattr(sim, "_kept_plans", {})
    (truth, _, obs), cfg = replay_scenario()
    design = input_term_design("0.5*cos(u2) + y1")
    cfgs = [replace(cfg, xhat0=[a]) for a in (0.0, 1.0, -2.0, 0.5)]
    want = [fresh_run(truth, design, obs, c) for c in cfgs]
    f_u_calls, f_L_calls = truth_calls(monkeypatch, "cos"), truth_calls(monkeypatch, "sin")
    counts = []
    for c, w in zip(cfgs, want):
        assert_bit_equal(sim.simulate(truth, design, obs, c), w)
        counts.append((len(f_u_calls), len(f_L_calls)))
    assert counts == [(16, 16), (32, 32), (32, 48), (32, 64)]  # 4 stages in each of 4 steps
    (entry,) = sim._kept_plans.values()
    assert "cos" not in entry[4][0] and "sin" in entry[4][0]
    assert "_tail(j, s)[1:]" in entry[4][0]


@pytest.mark.parametrize("f_u, tau", [("0.5*tanh(y1@1) + u2", (H,)), ("0.5*cos(y1) + u1", ())],
                         ids=["delayed-output", "current-output"])
def test_replayed_input_terms_that_read_outputs_are_bit_equal(monkeypatch, f_u, tau):
    # runs from one x0: the recorded f_u reads the truth's outputs, now or
    # from the kept table, which every run from that x0 shares
    monkeypatch.setattr(sim, "_kept_plans", {})
    (truth, _, obs), cfg = replay_scenario()
    design = input_term_design(f_u, tau)
    for a in (0.0, 1.0, -2.0, 0.5):
        c = replace(cfg, xhat0=[a])
        assert_bit_equal(sim.simulate(truth, design, obs, c), fresh_run(truth, design, obs, c))
    (entry,) = sim._kept_plans.values()
    assert bool(entry[0].y_off) == bool(tau) and not entry[4][1].flags.writeable


def test_replayed_compare_cubic_linear_is_bit_equal(monkeypatch):
    # two observers: only the first one's f_u is recorded, so the linear twin
    # still evaluates its own in each replayed stage.  A plain stage computes
    # the pair's one shared term once
    monkeypatch.setattr(sim, "_kept_plans", {})
    (truth, _, obs), cfg = replay_scenario()
    design = input_term_design("0.5*cos(u2) + y1")
    twin = replace(obs, N=np.zeros_like(obs.N))
    cfgs = [replace(cfg, xhat0=[a]) for a in (0.0, 1.0, -2.0, 0.5)]
    want = [sim._run(sim._plan([truth], design, [obs, twin], c), c.x0, c.xhat0)[0] for c in cfgs]
    f_u_calls = truth_calls(monkeypatch, "cos")
    counts = []
    for c, (cubic, linear) in zip(cfgs, want):
        rep = sim.compare_cubic_linear(truth, design, obs, c)
        assert_bit_equal(rep.cubic, cubic)
        assert_bit_equal(rep.linear, linear)
        counts.append(len(f_u_calls))
    assert counts == [16, 32, 48, 64]
    (entry,) = sim._kept_plans.values()
    assert entry[4][1].shape == (4, 4 * (2 + 1)) and not entry[4][1].flags.writeable


def test_a_replayed_run_that_fails_fails_as_a_fresh_run(monkeypatch):
    # xhat0 = 1e120 overflows the cubic term in the first stage; 0 * inf
    # then makes every state nan.  A fresh run blames the truth's expression
    # in the second stage; the replayed stage, which evaluates no truth and
    # whose observer reads no state, would not fail until the step's end
    monkeypatch.setattr(sim, "_kept_plans", {})
    (truth, design, obs), cfg = replay_scenario()
    bad = replace(cfg, xhat0=[1e120])
    want = outcome(lambda: fresh_run(truth, design, obs, bad))
    assert want == ("expression evaluation failed near t = 0: "
                    "non-finite value while evaluating (0.5*tanh(x1))")
    for xhat0 in ([0.0], [1.0]):
        sim.simulate(truth, design, obs, replace(cfg, xhat0=xhat0))
    (entry,) = sim._kept_plans.values()
    assert outcome(lambda: sim._run(entry[0], bad.x0, bad.xhat0, entry[4])).startswith(
        "state became non-finite")
    for _ in range(2):
        assert outcome(lambda: sim.simulate(truth, design, obs, bad)) == want
        assert sim._kept_plans[key_of(truth)][4] is entry[4]  # kept, still valid
    assert_bit_equal(sim.simulate(truth, design, obs, cfg), fresh_run(truth, design, obs, cfg))


@pytest.mark.parametrize("xs", [[0.5], [0.5, 0.25, -1.0, 2.0]], ids=["run-once", "x0-sweep"])
def test_runs_from_no_repeated_x0_record_nothing(monkeypatch, xs):
    monkeypatch.setattr(sim, "_kept_plans", {})
    (truth, design, obs), cfg = replay_scenario()
    calls = truth_calls(monkeypatch)
    for x in xs:
        sim.simulate(truth, design, obs, replace(cfg, x0=[x]))
        assert sim._kept_plans[key_of(truth)][4] is None
    assert len(calls) == 16 * len(xs)


def test_a_run_whose_stage_falls_back_records_and_replays(monkeypatch):
    # eight finite terms whose sum overflows send every stage through
    # evaluate: the run goes on and records what evaluate gave.  The replayed
    # stage checks only the observer's four terms, whose sum is finite, so
    # the third run evaluates nothing
    monkeypatch.setattr(sim, "_kept_plans", {})
    dims = SignalDims(n=4, n_u=0, n_y=1)
    plant = PlantModel(A=-np.eye(4), C=[[1.0, 0.0, 0.0, 0.0]], D=np.zeros((4, 0)), n_u=0,
                       f_u=(parse("0", dims),) * 4,
                       f_L=tuple(parse(f"2.5e307 + 0*x{i}", dims) for i in range(1, 5)))
    obs = ObserverParams(G=-2.0 * np.eye(4), J=[[0.5], [0.0], [0.0], [0.0]],
                         E=np.zeros((4, 1)), N=np.zeros((4, 1)), theta=[[1.0]])
    cfg = SimConfig(h=H, t_end=1.0, x0=[0.0, 1.0, 0.0, 0.0], xhat0=[1.0, 0.0, 0.0, 0.0],
                    input_signal=())
    want = fresh_run(plant, plant, obs, cfg)
    calls = []
    monkeypatch.setattr(sim, "evaluate", lambda e, *args: calls.append(e) or evaluate(e, *args))
    counts = []
    for _ in range(3):
        assert_bit_equal(sim.simulate(plant, plant, obs, cfg), want)
        counts.append(len(calls))
    per_run = 8 * 4 * 16  # 8 steps of 4 stages, each evaluating all 16 expressions
    assert counts == [per_run, 2 * per_run, 2 * per_run]
    recording = sim._kept_plans[key_of(plant)][4]
    assert not recording[1].flags.writeable and "_tail(j, s)" in recording[0]


def test_a_recording_is_charged_at_least_the_bytes_it_holds(monkeypatch):
    # a truth with delayed outputs: the charge bounds what tracemalloc sees
    # freed when the recording is dropped
    monkeypatch.setattr(sim, "_kept_plans", {})
    truth, design, observers, cfg = scenario(8, 4, [True, False], (2, 2, 2, 2), steps=200)
    tracemalloc.start()
    try:
        for _ in range(2):
            sim._integrate([truth], design, observers, cfg)
        ((key, entry),) = sim._kept_plans.items()
        charged = entry[4][3]
        assert entry[0].y_off and len(entry[4][1]) == 200 and len(entry[4][2]) > 400
        gc.collect()
        held = tracemalloc.get_traced_memory()[0]
        sim._kept_plans[key] = entry[:4] + (None,)
        del entry
        gc.collect()
        held -= tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert 0 < held <= charged


def test_a_plan_of_two_truths_records_nothing(monkeypatch):
    # only a plan of one truth records: three runs of two truths from one x0
    # keep no recording and give what a fresh plan gives
    monkeypatch.setattr(sim, "_kept_plans", {})
    truth, design, observers, cfg = scenario(8, 4, [True, False], (2, 2, 2, 2), steps=20)
    truths = [truth, other_truth(8, truth)]
    want = sim._run(sim._plan(truths, design, observers, cfg), cfg.x0, cfg.xhat0)
    for _ in range(3):
        got = sim._integrate(truths, design, observers, cfg)
        for got_group, want_group in zip(got, want, strict=True):
            for g, w in zip(got_group, want_group, strict=True):
                assert_bit_equal(g, w)
        ((plan, _, _, x0, recording),) = sim._kept_plans.values()
        assert x0 == cfg.x0.tobytes() and recording is None


SETS = st.integers(0, 1)


@settings(max_examples=20)
@given(calls=st.lists(st.tuples(SETS, st.booleans(), st.integers(0, 2),
                                st.floats(-3, 3, allow_nan=False)), min_size=1, max_size=10))
def test_interleaved_simulate_and_compare_replay_bit_equal(calls):
    # simulate and compare_cubic_linear over two model sets, from repeated and
    # new x0 and a fresh xhat0 each: plain, recording and replaying runs all
    # give what a freshly built plan gives
    sets = model_sets()[:2]
    with mock.patch.object(sim, "_kept_plans", {}):
        for i, compare, x, a in calls:
            truth, design, observers, cfg = sets[i]
            obs = observers[0]
            cfg = replace(cfg, x0=(1.0, -0.5, 2.0)[x] * cfg.x0, xhat0=a * cfg.xhat0)
            if compare:
                rep = sim.compare_cubic_linear(truth, design, obs, cfg)
                got = [rep.cubic, rep.linear]
                twin = replace(obs, N=np.zeros_like(obs.N))
                want = sim._run(sim._plan([truth], design, [obs, twin], cfg), cfg.x0, cfg.xhat0)[0]
            else:
                got = [sim.simulate(truth, design, obs, cfg)]
                want = [fresh_run(truth, design, obs, cfg)]
            for g, w in zip(got, want):
                for field in ("t", "x", "xhat", "y", "jo"):
                    assert np.array_equal(getattr(g, field), getattr(w, field)), field


def test_drive_grid_is_one_read_only_float64_column_per_channel():
    truth, design, observers, cfg = scenario(4, 3, [True], (2, 2, 2, 2), steps=12)
    plan = sim._plan([truth], design, observers, cfg)
    columns, failed = plan.grid
    assert len(columns) == len(cfg.input_signal) == 2 and failed == {}
    positions = range(-plan.u_off, 2 * plan.steps + 1)
    for e, column in zip(cfg.input_signal, columns):
        assert column.dtype == np.float64 and not column.flags.writeable
        assert column.shape == (len(positions),) and column.nbytes == 8 * len(positions)
        assert column.tolist() == [evaluate(e, t=(p * 0.5) * H) for p in positions]


def test_a_failed_drive_sample_is_nan_in_every_column_with_its_error():
    truth, design, observers, cfg = scenario(4, 3, [True], (2, 2, 2, 2), steps=12)
    cfg = replace(cfg, input_signal=("1/(t - 0.5)", cfg.input_signal[1]))
    plan = sim._plan([truth], design, observers, cfg)
    columns, failed = plan.grid
    at = plan.u_off + 8  # t = 0.5 is half-step position 8
    assert list(failed) == [at] and str(failed[at]).endswith("division by zero")
    nan = [i for c in columns for i, v in enumerate(c.tolist()) if math.isnan(v)]
    assert nan == [at, at]


def one_state_system(A=-1.0, C=1.0, C_d=None, E=0.0, J=0.0, N=0.0):
    dims = SignalDims(n=1, n_u=0, n_y=1)
    zero = (parse("0", dims),)

    def plant(C):
        return PlantModel(A=[[A]], C=[[C]], D=np.zeros((1, 0)), n_u=0, f_u=zero, f_L=zero)

    obs = ObserverParams(G=[[-1.0]], J=[[J]], E=[[E]], N=[[N]], theta=[[1.0]])
    return plant(C), plant(C if C_d is None else C_d), obs


@pytest.mark.parametrize("system, h, product", [
    (one_state_system(C=1e160, E=1e160), H, "E C_t"),
    (one_state_system(C=1e160, J=1e160), H, "J C_t"),
    (one_state_system(C=1.0, C_d=1e160, E=1e160), H, "E C_d"),
    (one_state_system(C=1e200, E=1.0, N=1.0), H, "C_d E C_t"),
    (one_state_system(C=1.5e308, C_d=-1.5e308, E=1 / 1.5e308, N=1.0), H, "C_t - C_d E C_t"),
    (one_state_system(A=1e200, C=1e200), H, "S W"),
    (one_state_system(A=-1e10), 1e300, "h S W"),
], ids=["EC", "JC", "ECd", "CdEC", "difference", "SW", "hSW"])
def test_a_plan_whose_products_overflow_is_refused_by_name(system, h, product):
    truth, design, obs = system
    cfg = SimConfig(h=h, t_end=h, x0=[0.0], xhat0=[0.0], input_signal=())
    with pytest.raises(ConfigError) as info:
        sim._plan([truth], design, [obs], cfg)
    assert str(info.value) == f"{product} overflows in the simulation plan"
