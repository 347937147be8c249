"""The simulator's generated stage function against two references.

Random models (n = 1-4, one or two truths with their own input and output
delays, 1-3 observers with and without a cubic term, either prehistory
policy) are integrated by ``sim`` and by the tree-walking RK4 below,
written from the documented semantics: :func:`evaluate` for every
expression, :class:`HistoryBuffer` for delayed outputs, every observer
carried beside every truth.  ``jo``, ``x`` and ``xhat`` of every (truth,
observer) must agree within 1e-12; under the analytic policy, which is
the one it implements, ``perfbench/reference.py`` must agree too, one
truth and one observer at a time.  Failures must agree as well: the same
message, from ``evaluate`` or from the finiteness check, at the same step,
members raised in group order (each truth, then its observers).
"""

import importlib.util
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cubicobs import exprlang, sim
from cubicobs.exprlang import (ExprEvalError, SignalDims, evaluate, parse, parse_input_signal,
                               unparse)
from cubicobs.model import ObserverParams, PlantModel
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


def scenario(seed, n, cubic, layout, prehistory, steps, growing=False, drive_t=False):
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
                    input_signal=tuple(map(parse_input_signal, drive)), prehistory=prehistory)
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
    zero_pre = cfg.prehistory == "zero"

    def lag(d):
        return round(d / h)

    depth = max(map(lag, design.tau + sum((p.tau for p in truths), ())), default=0) + 1
    ybufs = []
    for truth in truths:
        ybufs.append(HistoryBuffer(n_y, depth, truth.C @ cfg.x0, "zero" if zero_pre else "hold"))
        ybufs[-1].push(0, truth.C @ cfg.x0)

    def signals(plant, pos, y_now, ybuf):
        def drive(p):
            if p < 0 and zero_pre:
                return [0.0] * plant.n_u
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
       prehistory=st.sampled_from(["analytic", "zero"]), n_truths=st.integers(1, 2))
def test_kernel_agrees_with_tree_walk_and_reference(seed, n, cubic, layout, prehistory,
                                                    n_truths):
    truth, design, observers, cfg = scenario(seed, n, cubic, layout, prehistory, steps=12)
    truths = [truth, other_truth(seed, truth)][:n_truths]
    groups = sim._integrate(truths, design, observers, cfg)
    walks = tree_walk(truths, design, observers, cfg)
    for truth, results, (xs, xhats, jos) in zip(truths, groups, walks):
        for m, (res, obs) in enumerate(zip(results, observers)):
            assert close(res.x, xs)
            assert close(res.xhat, xhats[m]), m
            assert abs(res.jo[-1] - jos[m][-1]) <= 1e-12 * jos[m][-1], m
            if prehistory == "analytic":
                jo_end, peak = perfbench_jo(truth, design, obs, cfg)
                assert abs(res.jo[-1] - jo_end) <= 1e-12 * jo_end, m
                assert (abs(max(np.abs(res.x).max(), np.abs(res.xhat).max()) - peak)
                        <= 1e-12 * peak)


@settings(max_examples=40)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 4), cubic=CUBIC, layout=LAYOUT,
       prehistory=st.sampled_from(["analytic", "zero"]), member=st.sampled_from([0, 1]),
       pick=st.integers(0, 2**16), n_truths=st.integers(1, 2))
def test_failing_expression_reports_what_evaluate_reports(seed, n, cubic, layout, prehistory,
                                                          member, pick, n_truths):
    # one expression of a truth (member 0, the last of n_truths truths) or
    # of the design (1) gains 1/(u1@s - c), u1 being t and c a time slot s
    # reaches at some stage: division by zero there, and in every observer
    # at once for the design
    steps = 12
    truth, design, observers, cfg = scenario(seed, n, cubic, layout, prehistory, steps,
                                             drive_t=True)
    truths = [truth, other_truth(seed, truth)][:n_truths]
    plants = [truths[-1], design]
    plant = plants[member]
    exprs = [(f, i) for f in (("f_u", "f_g", "f_L"), ("f_u", "f_L"))[member]
             for i in range(len(getattr(plant, f)))]
    field, index = exprs[pick % len(exprs)]
    slot = pick % (len(plant.delta) + 1)
    lag = round(plant.delta[slot - 1] / H) if slot else 0
    first = 0 if prehistory == "zero" else -2 * lag  # "zero" holds u at 0 before t = 0
    c = ((first + pick % (2 * steps - 2 * lag - first + 1)) * 0.5) * H
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
       prehistory=st.sampled_from(["analytic", "zero"]), pick=st.integers(0, 2**16),
       n_truths=st.integers(1, 2))
def test_failing_drive_sample_reports_what_evaluate_reports(seed, n, cubic, layout,
                                                            prehistory, pick, n_truths):
    # the drive's first channel becomes 1/(t - c), c a half-step time some
    # stage reads through some input lag: division by zero there.  The tree
    # walk evaluates the drive at every declared slot, so every plant gains
    # a term that reads u1 at every slot.
    steps = 12
    truth, design, observers, cfg = scenario(seed, n, cubic, layout, prehistory, steps,
                                             drive_t=True)
    plants = []
    for plant in [truth, other_truth(seed, truth)][:n_truths] + [design]:
        reads = " + ".join(f"u1@{s}" if s else "u1" for s in range(len(plant.delta) + 1))
        f_u = (parse(f"{unparse(plant.f_u[0])} + 0.1*({reads})", plant.dims()),)
        plants.append(replace(plant, f_u=f_u + plant.f_u[1:]))
    lags = [round(d / H) for plant in plants for d in plant.delta]
    first = -2 * lags[pick % len(lags)] if lags and prehistory == "analytic" else 0
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

    monkeypatch.setattr(exprlang, "_CODE_CACHE", {})
    monkeypatch.setattr(exprlang, "compile", recording_compile, raising=False)
    truth, *rest = scenario(seed, 3, [True, False, True], (2, 2, 1, 2),
                            ("analytic", "zero")[seed % 2], 4, drive_t=True)
    sim._integrate([truth], *rest)[0]
    heads = [src.splitlines()[:2] for src in sources]
    assert sorted(head[0] for head in heads) == ["def _drive(t):", "def _stage(j, s):"]
    assert all(head[1] == "    try:" for head in heads), heads


@pytest.mark.parametrize("truth_term, design_term", [
    ("1/(x1 - x1)", None),
    (None, "1e308*(2 + cos(x1))"),
    ("1e308*(2 + cos(x1))", "1/(x1 - x1)"),
], ids=["truth-raises", "design-inf", "both-truth-first"])
def test_failing_terms_from_the_first_stage(truth_term, design_term):
    # 1e308*(2 + cos(x1)) overflows to inf without raising: only the
    # finiteness check finds it.  When both fail, the truth's error is raised.
    plants = list(scenario(7, 2, [True, False], (1, 1, 1, 1), "analytic", 12))
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
       prehistory=st.sampled_from(["analytic", "zero"]), k=st.integers(1, 6))
def test_overflow_in_an_unread_state_is_reported_at_its_step(seed, n, cubic, layout,
                                                             prehistory, k):
    # An extra state x' = 10 x, read by no expression and no output, starts
    # where RK4 at h = 1 (growth 644.3 per step) overflows it first in the
    # sum that ends step k + 1, every stage of that step still finite.
    truth, design, observers, cfg = scenario(seed, n, cubic, layout, prehistory, k + 3,
                                             growing=True)
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
