"""Integrator: history buffer, delay handling, RK4 accuracy, error integral."""

import math
import sys
import types
import warnings
from dataclasses import FrozenInstanceError, replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy.linalg import expm

from cubicobs import exprlang, model, sim
from cubicobs.cert import cubic_gain
from cubicobs.exprlang import BinOp, Call, Num, Pow, SignalDims, TimeVar, Var, parse
from cubicobs.model import ConfigError, ObserverParams, PlantModel, example_system
from cubicobs.sim import (
    DEFAULT_INPUT_SIGNAL,
    HistoryBuffer,
    SimConfig,
    SimResult,
    SimulationError,
    compare_cubic_linear,
    cumulative_error,
    simulate,
    write_trajectory_csv,
)


def example_cfg(h=0.01, t_end=2.0, **overrides):
    base = dict(
        h=h,
        t_end=t_end,
        x0=np.zeros(2),
        xhat0=np.array([-5.0, -5.0]),
        input_signal=(DEFAULT_INPUT_SIGNAL,),
    )
    base.update(overrides)
    return SimConfig(**base)


# --- history buffer -------------------------------------------------------

def test_buffer_push_sample_round():
    buf = HistoryBuffer(1, 3, np.array([7.0]))
    for k in range(6):
        buf.push(k, np.array([float(k)]))
    assert buf.sample(5)[0] == 5.0
    assert buf.sample(2)[0] == 2.0


def test_buffer_enforces_order():
    buf = HistoryBuffer(1, 2, np.zeros(1))
    buf.push(0, np.zeros(1))
    with pytest.raises(ValueError, match="in order"):
        buf.push(2, np.zeros(1))


def test_buffer_prehistory_policies():
    # before the run starts the buffer holds its initial sample
    hold = HistoryBuffer(2, 1, np.array([3.0, 4.0]))
    assert np.array_equal(hold.sample(-5), [3.0, 4.0])
    assert np.array_equal(hold.value_at(-1.5), [3.0, 4.0])


def test_buffer_evicts_beyond_depth():
    buf = HistoryBuffer(1, 2, np.zeros(1))
    for k in range(5):
        buf.push(k, np.array([float(k)]))
    assert buf.sample(2)[0] == 2.0
    with pytest.raises(ValueError, match="window"):
        buf.sample(1)


def test_buffer_linear_interpolation():
    buf = HistoryBuffer(1, 2, np.zeros(1))
    buf.push(0, np.array([0.0]))
    buf.push(1, np.array([10.0]))
    assert buf.value_at(0.5)[0] == 5.0
    assert buf.value_at(0.25)[0] == 2.5
    # grid-adjacent queries snap to the stored sample
    assert buf.value_at(1.0 - 1e-12)[0] == 10.0
    assert buf.value_at(1e-12)[0] == 0.0


# --- configuration errors -------------------------------------------------

def test_simconfig_validation():
    sig = ("sin(t)",)
    with pytest.raises(ConfigError, match="h"):
        SimConfig(h=0.0, t_end=1.0, x0=[0.0], xhat0=[0.0], input_signal=sig)
    with pytest.raises(ConfigError, match="t_end"):
        SimConfig(h=0.1, t_end=0.05, x0=[0.0], xhat0=[0.0], input_signal=sig)


def test_simconfig_compares_by_value():
    cfg = example_cfg()
    assert cfg == replace(cfg)
    assert cfg == example_cfg(x0=[0.0, 0.0])
    assert cfg != replace(cfg, x0=np.array([0.0, 1.0]))
    assert cfg != replace(cfg, input_signal=("sin(t)",))


@pytest.mark.parametrize("drive, message", [
    (Var("x", 1), "input_signal[1]: x1: state index out of range (n=0)"),
    (BinOp("%", TimeVar(), Num(2.0)),
     "input_signal[1]: unexpected character '%' (at position 2)"),
    (BinOp("*", Num(-2.0), TimeVar()), "input_signal[1]: (-2.0*t) reads back as ((-2.0)*t)"),
    (Num(-2.5), "input_signal[1]: -2.5 reads back as (-2.5)"),
    (Num(-0.0), "input_signal[1]: -0.0 reads back as (-0.0)"),
    (Num(np.float64(2.0)), "input_signal[1]: malformed number (at position 2)"),
    (Pow(TimeVar(), 2.5),
     "input_signal[1]: power exponent must be a nonnegative integer (at position 3)"),
    (Var("z", 1), "input_signal[1]: unknown variable kind 'z' (at position 0)"),
    (Num(math.inf), "input_signal[1]: unknown function or variable 'inf' (at position 0)"),
    (Num(math.nan), "input_signal[1]: unknown function or variable 'nan' (at position 0)"),
    (Var("x", 1, 1), "input_signal[1]: x1@1: state index out of range (n=0)"),
    (Call("__import__", Num(1.0)), "input_signal[1]: unexpected character '_' (at position 0)"),
], ids=["state-ref", "modulo", "negative-literal", "bare-negative-literal", "negative-zero",
        "numpy-literal", "fractional-power", "unknown-kind", "inf", "nan", "delayed-state",
        "unknown-function"])
def test_simconfig_drive_must_read_back(drive, message):
    # a state reference used to fail at t = 0 as a SimulationError, and a
    # modulo to divide silently; this check is the only one a drive passes
    # before it becomes generated code
    sig = ("sin(t)", drive)
    with pytest.raises(ConfigError) as info:
        SimConfig(h=0.1, t_end=1.0, x0=[0.0], xhat0=[0.0], input_signal=sig)
    assert str(info.value) == message


def test_simconfig_is_frozen_and_replace_reads_back():
    cfg = example_cfg()
    negative = (BinOp("*", Num(-2.0), TimeVar()),)
    with pytest.raises(FrozenInstanceError):
        cfg.input_signal = negative
    with pytest.raises(ConfigError, match=r"input_signal\[0\]: .* reads back as"):
        replace(cfg, input_signal=negative)


@pytest.mark.parametrize("text", ["7", DEFAULT_INPUT_SIGNAL])
def test_simconfig_refuses_a_bare_string_drive(text):
    # one drive per character: "7" would be a constant drive and the
    # default drive would fail at its second character
    with pytest.raises(ConfigError) as info:
        example_cfg(input_signal=text)
    assert str(info.value) == "input_signal: must be a sequence of expressions, not a string"


@pytest.mark.parametrize("field", ["x0", "xhat0"])
@pytest.mark.parametrize("value", [np.nan, np.inf], ids=["nan", "inf"])
def test_simconfig_rejects_non_finite_initial_state(field, value):
    with pytest.raises(ConfigError, match=f"{field}: entries must be finite"):
        example_cfg(**{field: np.array([value, 0.0])})


def test_simconfig_copies_initial_states():
    # the finiteness check holds for the config's life: a write to the
    # caller's array leaves the config alone, a write to its field raises
    x0 = np.zeros(2)
    cfg = example_cfg(x0=x0, xhat0=x0)
    x0[0] = np.nan
    assert np.array_equal(cfg.x0, [0.0, 0.0]) and np.array_equal(cfg.xhat0, [0.0, 0.0])
    with pytest.raises(ValueError):
        cfg.x0[0] = 1.0


@pytest.mark.parametrize("field", ["delta", "tau"])
@pytest.mark.parametrize("value", [np.nan, np.inf], ids=["nan", "inf"])
def test_non_finite_delay_fails_validation(field, value):
    # the plant refuses it when it is built, before any simulation
    ex = example_system()
    with pytest.raises(ConfigError) as info:
        replace(ex.nominal, **{field: (value,)})
    assert str(info.value) == f"{field}[0] must be nonnegative and finite"


def test_delay_must_divide_step():
    ex = example_system()
    with pytest.raises(ConfigError, match="multiple"):
        simulate(ex.nominal, ex.nominal, ex.observer, example_cfg(h=0.3))


@pytest.mark.parametrize("t_end", [1.3, 1.2])
def test_horizon_must_divide_step(t_end):
    # the bundled 1 s delay is a multiple of 0.5 s, the horizon is not: the
    # run would end at round(t_end / h) * h, past or short of t_end
    ex = example_system()
    with pytest.raises(ConfigError, match=f"t_end: {t_end:g} is not an integer multiple"):
        simulate(ex.nominal, ex.nominal, ex.observer, example_cfg(h=0.5, t_end=t_end))


def test_delays_are_checked_before_the_horizon():
    ex = example_system()
    with pytest.raises(ConfigError, match=r"delta\[0\]"):
        simulate(ex.nominal, ex.nominal, ex.observer, example_cfg(h=0.3, t_end=1.3))


def test_state_dimension_checks():
    ex = example_system()
    with pytest.raises(ConfigError, match="x0"):
        simulate(ex.nominal, ex.nominal, ex.observer, example_cfg(x0=np.zeros(3)))
    with pytest.raises(ConfigError, match="input_signal"):
        simulate(ex.nominal, ex.nominal, ex.observer,
                 example_cfg(input_signal=("sin(t)",) * 2))


def test_estimate_dimension_check():
    ex = example_system()
    with pytest.raises(ConfigError) as info:
        simulate(ex.nominal, ex.nominal, ex.observer, example_cfg(xhat0=np.zeros(3)))
    assert str(info.value) == "xhat0: expected 2 entries, got (3,)"


def test_invalid_model_is_rejected():
    # a valid 3-state observer on the 2-state plant
    ex = example_system()
    zeros = np.zeros((3, 1))
    bad = ObserverParams(G=-np.eye(3), J=zeros, E=zeros, N=zeros, theta=ex.observer.theta)
    with pytest.raises(ConfigError) as info:
        simulate(ex.nominal, ex.nominal, bad, example_cfg())
    assert str(info.value) == "G must be 2x2, got (3, 3)"


def test_integer_literal_overflow_is_a_simulation_error():
    # Num(10) reads back as Num(10.0); stored as the int, its power of 400
    # was exact and the product with x1 raised a raw OverflowError
    ex = example_system()
    truth = replace(ex.nominal, f_L=(BinOp("*", Pow(Num(10), 400), Var("x", 1)), "sin(x2)"))
    assert type(truth.f_L[0].left.base.value) is float
    with pytest.raises(SimulationError, match="overflow in power"):
        simulate(truth, ex.nominal, ex.observer, example_cfg(t_end=0.05))
    cfg = example_cfg(input_signal=(BinOp("*", Num(3), TimeVar()),))
    assert type(cfg.input_signal[0].left.value) is float
    assert example_cfg(input_signal=("3*t",)).input_signal == cfg.input_signal


def test_simulation_parses_nothing(monkeypatch):
    # every expression was read back when its model or config was built
    ex = example_system()
    cfg = example_cfg()
    calls = []

    def counting_parse(*args, **kwargs):
        calls.append(args)
        return parse(*args, **kwargs)

    monkeypatch.setattr(exprlang, "parse", counting_parse)
    monkeypatch.setattr(model, "parse", counting_parse)
    simulate(ex.uncertain, ex.nominal, ex.observer, cfg)
    compare_cubic_linear(ex.nominal, ex.nominal, ex.observer, cfg)
    assert calls == []


# --- exact small cases ----------------------------------------------------

def static_pair():
    """x' = 0 with x(0) = 1 against a dead observer: e == 1 forever."""
    dims = SignalDims(n=1, n_u=0, n_y=1)
    zero = parse("0", dims)
    plant = PlantModel(A=[[0.0]], C=[[1.0]], D=[[0.0]], n_u=0,
                       f_u=(zero,), f_g=(zero,), f_L=(zero,))
    obs = ObserverParams(G=[[0.0]], J=[[0.0]], E=[[0.0]], N=[[0.0]],
                         theta=[[0.0]])
    return plant, obs


def test_constant_error_integral_exact():
    plant, obs = static_pair()
    cfg = SimConfig(h=0.5, t_end=2.0, x0=[1.0], xhat0=[0.0], input_signal=())
    res = simulate(plant, plant, obs, cfg)
    assert np.array_equal(res.x.ravel(), np.ones(5))
    assert np.array_equal(res.xhat.ravel(), np.zeros(5))
    # trapezoid of a constant 1 over [0, 2]
    assert res.jo[-1] == 2.0
    assert np.all(np.diff(res.jo) >= 0)


def test_comparison_without_error_has_ratio_one():
    # E C = I and xhat0 = x0 start w at 0, where it stays: xhat == x exactly
    plant = PlantModel(A=[[-1.0]], C=[[1.0]], D=[[0.0]], n_u=0,
                       f_u=("0",), f_g=("0",), f_L=("0",))
    obs = ObserverParams(G=[[-2.0]], J=[[0.0]], E=[[1.0]], N=[[-0.5]])
    cfg = SimConfig(h=0.1, t_end=1.0, x0=[1.0], xhat0=[1.0], input_signal=())
    rep = compare_cubic_linear(plant, plant, obs, cfg)
    assert rep.jo_cubic == 0.0 and rep.jo_linear == 0.0
    assert rep.ratio == 1.0


def test_cumulative_error_matches_direct_trapezoid():
    ex = example_system()
    res = simulate(ex.nominal, ex.nominal, ex.observer, example_cfg(t_end=1.0))
    g = np.sum((res.x - res.xhat) ** 2, axis=1)
    direct = np.concatenate([[0.0], np.cumsum(0.5 * 0.01 * (g[:-1] + g[1:]))])
    assert np.allclose(res.jo, direct, atol=1e-15)


# --- linear oracle and RK4 order ------------------------------------------

def linear_triplet(rng):
    """Random stable 3-state plant whose observer is an open-loop model copy.

    Eigenvalue magnitudes are pushed to O(10) so the RK4 truncation error at
    h = 0.001 sits far above double-precision roundoff; the order test would
    otherwise measure noise.
    """
    n = 3
    Q = rng.standard_normal((n, n))
    S = rng.standard_normal((n, n))
    A = -(2.0 * Q @ Q.T + 0.5 * np.eye(n)) + 2.0 * (S - S.T)
    dims = SignalDims(n=n, n_u=0, n_y=1)
    zero = parse("0", dims)
    plant = PlantModel(A=A, C=[[1.0, 0.0, 0.0]], D=np.zeros((n, 1)), n_u=0,
                       f_u=(zero,) * n, f_g=(zero,), f_L=(zero,) * n)
    obs = ObserverParams(G=A, J=np.zeros((n, 1)), E=np.zeros((n, 1)),
                         N=np.zeros((n, 1)), theta=[[0.0]])
    return plant, obs


def end_error(plant, obs, x0, xhat0, h, t_end):
    cfg = SimConfig(h=h, t_end=t_end, x0=x0, xhat0=xhat0, input_signal=())
    res = simulate(plant, plant, obs, cfg)
    e_sim = res.x[-1] - res.xhat[-1]
    e_true = expm(plant.A * t_end) @ (x0 - xhat0)
    return float(np.linalg.norm(e_sim - e_true) / np.linalg.norm(e_true))


def test_linear_error_matches_matrix_exponential():
    rng = np.random.default_rng(11)
    for _ in range(3):
        plant, obs = linear_triplet(rng)
        x0 = rng.standard_normal(3)
        xhat0 = rng.standard_normal(3)
        assert end_error(plant, obs, x0, xhat0, h=0.001, t_end=2.0) <= 1e-6


def test_rk4_order_on_linear_case():
    rng = np.random.default_rng(13)  # draw with truncation ~1e-11 at h=0.001
    plant, obs = linear_triplet(rng)
    x0 = rng.standard_normal(3)
    xhat0 = rng.standard_normal(3)
    coarse = end_error(plant, obs, x0, xhat0, h=0.001, t_end=2.0)
    fine = end_error(plant, obs, x0, xhat0, h=0.0005, t_end=2.0)
    assert coarse / fine >= 12.0  # nominal 16 for a fourth-order method


# --- structural invariants along trajectories -----------------------------

def test_reconstruction_identity_everywhere():
    ex = example_system()
    res = simulate(ex.nominal, ex.nominal, ex.observer, example_cfg())
    # the stored output is C x at every grid point
    assert np.allclose(res.y, res.x @ ex.nominal.C.T, rtol=1e-15, atol=0.0)
    # w(0) = xhat0 - E y(0) backs out the requested initial estimate
    assert np.allclose(res.xhat[0], [-5.0, -5.0], atol=1e-15)


def test_jo_nondecreasing_on_example():
    ex = example_system()
    res = simulate(ex.uncertain, ex.nominal, ex.observer, example_cfg(t_end=5.0))
    assert np.all(np.diff(res.jo) >= 0)


def test_zero_theta_makes_comparison_trivial():
    ex = example_system()
    obs = ObserverParams(G=ex.observer.G, J=ex.observer.J, E=ex.observer.E,
                         N=ex.observer.N, theta=[[0.0]])
    rep = compare_cubic_linear(ex.nominal, ex.nominal, obs, example_cfg())
    assert abs(rep.ratio - 1.0) <= 1e-12
    assert np.array_equal(rep.cubic.x, rep.linear.x)


def test_cubic_term_dissipates_along_trajectory():
    # instantaneous contribution (Ce)'theta(Ce) * e'(PNC + C'N'P)e stays <= 0
    ex = example_system()
    P = ex.certificate.P
    C = ex.nominal.C
    N = cubic_gain(P, C, ex.observer.theta)
    M = P @ N @ C
    M = M + M.T
    res = simulate(ex.nominal, ex.nominal, ex.observer, example_cfg(t_end=5.0))
    e = res.x - res.xhat
    quad = np.einsum("ki,ij,kj->k", e, M, e)
    gate = np.einsum("ki,ij,kj->k", e @ C.T, ex.observer.theta, e @ C.T)
    assert np.all(gate * quad <= 1e-15)


def test_cubic_run_beats_linear_on_example():
    ex = example_system()
    rep = compare_cubic_linear(ex.nominal, ex.nominal, ex.observer,
                               example_cfg(t_end=20.0))
    assert rep.jo_cubic < rep.jo_linear


def test_study_output_error_obeys_its_own_scalar_equation(tmp_path):
    # With C E = I, C T = (I - C E) C = 0 and C G = C (G E - J) C, so the
    # output error e_y = C (x - xhat) obeys e_y' = a e_y + b e_y^3 with
    # a = C (G E - J) and b = theta C N (0 for the linear twin): no plant
    # term enters, so both truths give the same e_y
    ex = example_system()
    obs, C = ex.observer, ex.nominal.C
    assert np.array_equal(C @ obs.E, [[1.0]]) and not (C - C @ obs.E @ C).any()
    report = sim.example_study(tmp_path)
    a = (C @ (obs.G @ obs.E - obs.J)).item()
    first = report.nominal.cubic
    h, steps = first.t[1], len(first.t) - 1
    e0 = (C @ (first.x[0] - first.xhat[0])).item()
    assert e0 != 0.0
    for kind, b in (("cubic", (obs.theta @ C @ obs.N).item()), ("linear", 0.0)):
        def f(e):
            return a * e + b * e**3

        e = [e0]
        for _ in range(steps):
            k1 = f(e[-1])
            k2 = f(e[-1] + 0.5 * h * k1)
            k3 = f(e[-1] + 0.5 * h * k2)
            k4 = f(e[-1] + h * k3)
            e.append(e[-1] + h / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4))
        runs = [getattr(getattr(report, truth), kind) for truth in ("nominal", "uncertain")]
        nominal, uncertain = ((run.x - run.xhat) @ C.T[:, 0] for run in runs)
        assert np.abs(nominal - e).max() <= 1e-14, kind
        assert np.abs(uncertain - nominal).max() <= 1e-14, kind


# --- prehistory handling --------------------------------------------------

def delayed_output_pair():
    dims = SignalDims(n=1, n_u=0, n_y=1, n_tau=1)
    zero = parse("0", dims)
    plant = PlantModel(A=[[-1.0]], C=[[1.0]], D=[[0.0]], n_u=0, tau=(0.5,),
                       f_u=(zero,), f_g=(zero,),
                       f_L=(parse("0.5*y1@1", dims),))
    obs = ObserverParams(G=[[-1.0]], J=[[0.0]], E=[[0.0]], N=[[0.0]],
                         theta=[[0.0]])
    return plant, obs


def test_output_delay_uses_buffer_and_prehistory():
    plant, obs = delayed_output_pair()
    cfg = SimConfig(h=0.25, t_end=2.0, x0=[1.0], xhat0=[1.0], input_signal=())
    res = simulate(plant, plant, obs, cfg)
    # until t = 0.5, y(t - 0.5) is the held y(0) = 1, so x' = -x + 0.5 gives
    # x(0.5) = 0.5 + 0.5 exp(-0.5), which RK4 at h = 0.25 meets within 1e-5
    assert abs(res.x[2, 0] - (0.5 + 0.5 * math.exp(-0.5))) <= 1e-5
    assert np.all(np.isfinite(res.x))


def multi_delay_scenario():
    """4-state truth and design with different pairs of input delays (in
    steps: truth 3, 5; design 2, 6) and of output delays (truth 2, 6; design
    1, 4), a cubic gain, and a drive that reads five distinct input lags."""
    def plant(A, delta, tau):
        dims = SignalDims(n=4, n_u=2, n_y=2, n_delta=2, n_tau=2)
        return PlantModel(
            A=A, C=[[1.0, 0.0, 0.5, 0.0], [0.0, 1.0, 0.0, 0.5]],
            D=[[0.5], [0.0], [0.3], [0.1]], n_u=2, delta=delta, tau=tau,
            f_u=tuple(parse(s, dims) for s in ("0.4*u1@1", "0.3*u2@2", "0.2*u1",
                                               "0.5*u2@1")),
            f_g=(parse("0.1*tanh(x1*x2)", dims),),
            f_L=tuple(parse(s, dims) for s in (
                "0.1*sin(x2) + 0.2*tanh(y1@1)", "0.1*cos(x3)*u1 - 0.15*tanh(y2@2)",
                "0.05*x4*y1@2", "0.1*sin(x1) + 0.1*y2@1")))

    A = np.array([[-1.0, 0.3, 0.0, 0.1], [0.0, -1.5, 0.2, 0.0],
                  [0.1, 0.0, -2.0, 0.3], [0.0, 0.2, 0.0, -1.2]])
    truth = plant(A + 0.05 * np.ones((4, 4)), (0.15, 0.25), (0.1, 0.3))
    design = plant(A, (0.1, 0.3), (0.05, 0.2))
    obs = ObserverParams(
        G=-2.0 * np.eye(4) + 0.1 * np.ones((4, 4)),
        J=[[0.3, 0.0], [0.0, 0.2], [0.1, 0.1], [0.0, 0.3]],
        E=[[0.2, 0.0], [0.0, 0.1], [0.0, 0.0], [0.1, 0.1]],
        N=[[-0.3, 0.0], [0.0, -0.2], [0.1, 0.0], [0.0, -0.1]],
        theta=[[1.0, 0.2], [0.2, 0.5]])
    drive = tuple(exprlang.parse_input_signal(s) for s in ("0.5*sin(t)", "0.3*cos(2*t)"))
    cfg = SimConfig(h=0.05, t_end=2.0, x0=[0.5, -0.3, 0.2, 0.1],
                    xhat0=[-1.0, 1.0, 0.5, -0.5], input_signal=drive)
    return truth, design, obs, cfg


# jo[-1], x[-1] and xhat[-1] as the tree-walking integrator with a ring
# buffer of past outputs computed them (the multi-delay cases: as the
# integrator with one drive table per input lag and an interpolating
# output lookup did; the example cases: as test_sim_kernel's tree walk
# does): the delay and prehistory paths must reproduce them within 1e-12
PINNED_DELAY_RUNS = {
    "delayed-output-analytic": (0.5010434897419173, [0.44738139002041805],
                                [0.3120352480632856]),
    "example-nominal-cos": (2.561507277379905,
                            [-1.3422443056258884, 0.05327571689187984],
                            [-1.3422443157197623, 0.05327567404261346]),
    "example-uncertain-cos": (2.616138967462879,
                              [2.51275034232912, -0.2692202932121295],
                              [2.5127503322352465, -0.6705927566617]),
    "multi-delay-analytic": (1.0728449594256089,
                             [0.2846267313068748, 0.005569631609264545,
                              0.07854468173504539, -0.010906119169194844],
                             [0.202114528206071, 0.024655562958917875,
                              0.07960968422151739, -0.022715575322223604]),
}


def pinned_scenario(case):
    if case.startswith("delayed-output"):
        plant, obs = delayed_output_pair()
        cfg = SimConfig(h=0.25, t_end=2.0, x0=[1.0], xhat0=[0.0], input_signal=())
        return plant, plant, obs, cfg
    if case.startswith("multi-delay"):
        return multi_delay_scenario()
    ex = example_system()
    truth = ex.uncertain if "uncertain" in case else ex.nominal
    cfg = example_cfg(t_end=2.0, input_signal=("cos(t)",))
    return truth, ex.nominal, ex.observer, cfg


@pytest.mark.parametrize("case", sorted(PINNED_DELAY_RUNS))
def test_delay_and_prehistory_paths_pinned(case):
    truth, design, obs, cfg = pinned_scenario(case)
    res = simulate(truth, design, obs, cfg)
    jo, x, xhat = PINNED_DELAY_RUNS[case]
    assert abs(res.jo[-1] - jo) <= 1e-12 * abs(jo)
    assert np.allclose(res.x[-1], x, rtol=1e-12, atol=0.0)
    assert np.allclose(res.xhat[-1], xhat, rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("case", sorted(PINNED_DELAY_RUNS))
def test_unreferenced_output_delays_change_nothing(case):
    # one more output-delay slot, longer than any other and read by no
    # expression: the example runs then keep no output table at all
    truth, design, obs, cfg = pinned_scenario(case)
    want = simulate(truth, design, obs, cfg)
    got = simulate(replace(truth, tau=truth.tau + (40 * cfg.h,)),
                   replace(design, tau=design.tau + (40 * cfg.h,)), obs, cfg)
    for name in ("x", "xhat", "y", "jo"):
        assert np.array_equal(getattr(got, name), getattr(want, name)), name


def test_blowup_raises_simulation_error():
    # the bundled plant escapes in finite time under a unit-amplitude drive
    ex = example_system()
    with pytest.raises(SimulationError):
        simulate(ex.nominal, ex.nominal, ex.observer,
                 example_cfg(t_end=10.0, input_signal=("sin(t)",)))


@pytest.mark.parametrize("N", [0.0, 1.0], ids=["linear", "cubic"])
def test_overflowing_state_raises_simulation_error(N):
    # x' = 200 x overflows a float within 100 steps of 0.1; numpy's overflow
    # and invalid-value warnings must not escape ahead of the finiteness check
    dims = SignalDims(n=1, n_u=0, n_y=1)
    zero = parse("0", dims)
    plant = PlantModel(A=[[200.0]], C=[[1.0]], D=np.zeros((1, 0)), n_u=0,
                       f_u=(zero,), f_L=(zero,))
    obs = ObserverParams(G=[[-1.0]], J=[[0.0]], E=[[0.0]], N=[[N]], theta=[[1.0]])
    cfg = SimConfig(h=0.1, t_end=100.0, x0=[1.0], xhat0=[0.0], input_signal=())
    with pytest.raises(SimulationError, match="state became non-finite"):
        simulate(plant, plant, obs, cfg)


def test_error_integral_overflow_is_inf_without_warning():
    # x' = 200 x stays finite for 40 RK4 steps of 0.1 but |e| passes 1e154,
    # so |e|^2 overflows inside the error integral only
    dims = SignalDims(n=1, n_u=0, n_y=1)
    zero = parse("0", dims)
    plant = PlantModel(A=[[200.0]], C=[[1.0]], D=np.zeros((1, 0)), n_u=0,
                       f_u=(zero,), f_L=(zero,))
    obs = ObserverParams(G=[[-1.0]], J=[[0.0]], E=[[0.0]], N=[[0.0]], theta=[[1.0]])
    cfg = SimConfig(h=0.1, t_end=4.0, x0=[1.0], xhat0=[0.0], input_signal=())
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = simulate(plant, plant, obs, cfg)
    assert np.isfinite(res.x).all()
    assert res.jo[-1] == np.inf
    assert np.isfinite(res.jo[:2]).all()


def test_drive_failure_names_the_step_that_needs_it():
    # at h = 0.25 the stages of step 1 reach t = 0.5, where 1/(t - 0.5) fails
    dims = SignalDims(n=1, n_u=1, n_y=1)
    zero = parse("0", dims)
    plant = PlantModel(A=[[-1.0]], C=[[1.0]], D=np.zeros((1, 0)), n_u=1,
                       f_u=(parse("u1", dims),), f_L=(zero,))
    obs = ObserverParams(G=[[-1.0]], J=[[0.0]], E=[[0.0]], N=[[0.0]], theta=[[1.0]])
    cfg = SimConfig(h=0.25, t_end=1.0, x0=[0.0], xhat0=[0.0],
                    input_signal=("1/(t-0.5)",))
    with pytest.raises(SimulationError, match=r"near t = 0\.25: division by zero"):
        simulate(plant, plant, obs, cfg)


def test_delayed_drive_failure_follows_prehistory_policy():
    # the bundled plant reads u1@1 with a 1 s delay: the stages of step 1
    # evaluate 1/(t + 0.5) at t = -0.5
    ex = example_system()
    cfg = example_cfg(h=0.25, t_end=1.0, input_signal=("1/(t+0.5)",))
    with pytest.raises(SimulationError, match=r"near t = 0\.25: division by zero"):
        simulate(ex.nominal, ex.nominal, ex.observer, cfg)


def test_drive_is_evaluated_once_per_half_step(monkeypatch):
    # five distinct input lags (0, 2, 3, 5, 6 steps) share one drive grid;
    # each drive evaluation calls sin once, from the generated _drive
    truth, design, obs, cfg = multi_delay_scenario()
    calls = 0

    def counting_sin(v):
        nonlocal calls
        calls += sys._getframe(1).f_code.co_name == "_drive"
        return math.sin(v)

    monkeypatch.setitem(exprlang._CODEGEN_GLOBALS, "sin", counting_sin)
    simulate(truth, design, obs, cfg)
    steps, max_lag = 40, 6
    assert 0 < calls <= 2 * steps + 1 + 2 * max_lag


def test_repeated_runs_compile_each_vector_once(monkeypatch):
    truth, design, obs, cfg = multi_delay_scenario()
    compiled = []

    def counting_compile(src, *args):
        compiled.append(src)
        return compile(src, *args)

    exprlang._compile_source.cache_clear()
    monkeypatch.setattr(exprlang, "compile", counting_compile, raising=False)
    first = simulate(truth, design, obs, cfg)
    # the drive and the stage function
    assert len(compiled) == 2
    # the second run from one x0 records through the plain stage, the third
    # compiles its replay form, and later runs compile nothing
    for count in (2, 3, 3):
        again = simulate(truth, design, obs, cfg)
        assert len(compiled) == count
        assert np.array_equal(first.xhat, again.xhat)


def test_generated_code_names_only_codegen_globals(monkeypatch, tmp_path):
    # generated only from trees that read back, the code names nothing but
    # exprlang's functions, what sim binds beside them and the exceptions the
    # fallback catches: no other builtin, no attribute
    codes = []

    def recording_compile(src, *args):
        codes.append(compile(src, *args))
        return codes[-1]

    exprlang._compile_source.cache_clear()
    monkeypatch.setattr(exprlang, "compile", recording_compile, raising=False)
    sim.example_study(tmp_path)
    scenario = multi_delay_scenario()
    for _ in range(3):  # plain, recording and replay runs
        simulate(*scenario)
    allowed = set(exprlang._CODEGEN_GLOBALS) | {
        "_buf", "_pack", "_reference", "grid0", "grid1", "ytab", "_stage", "_drive",
        "_tail", "ArithmeticError", "ValueError", "LookupError", "TypeError"}
    functions = []
    while codes:
        code = codes.pop()
        assert set(code.co_names) <= allowed, code.co_names
        nested = [c for c in code.co_consts if isinstance(c, types.CodeType)]
        functions += [c.co_name for c in nested]
        codes += nested
    assert sorted(functions) == ["_drive", "_drive"] + ["_stage"] * 3


def test_example_study_runs_one_integration(monkeypatch, tmp_path):
    # both truths and both observers share one stage function and one drive
    compiled = []

    def counting_compile(src, *args):
        compiled.append(src.split("(", 1)[0])
        return compile(src, *args)

    exprlang._compile_source.cache_clear()
    monkeypatch.setattr(exprlang, "compile", counting_compile, raising=False)
    sim.example_study(tmp_path)
    assert sorted(compiled) == ["def _drive", "def _stage"]


# --- one truth integration for a pair ------------------------------------

def pair_cases():
    ex = example_system()
    plant, obs = delayed_output_pair()
    # the output-delay runs of test_output_delay_uses_buffer_and_prehistory,
    # with a cubic gain and an initial error so that the members differ
    delayed_obs = replace(obs, N=np.array([[0.5]]), theta=np.array([[1.0]]))
    delayed_cfg = SimConfig(h=0.25, t_end=2.0, x0=[1.0], xhat0=[0.0], input_signal=())
    return {
        "nominal": (ex.nominal, ex.nominal, ex.observer, example_cfg()),
        # input delays 2 s in the truth, 1 s in the design
        "uncertain": (ex.uncertain, ex.nominal, ex.observer, example_cfg()),
        "output-delay": (plant, plant, delayed_obs, delayed_cfg),
    }


@pytest.mark.parametrize("case", ["nominal", "uncertain", "output-delay"])
def test_pair_matches_separate_runs(case):
    truth, design, obs, cfg = pair_cases()[case]
    rep = compare_cubic_linear(truth, design, obs, cfg)
    assert not np.array_equal(rep.cubic.xhat, rep.linear.xhat)
    linear_obs = replace(obs, N=np.zeros_like(obs.N))
    for got, want in ((rep.cubic, simulate(truth, design, obs, cfg)),
                      (rep.linear, simulate(truth, design, linear_obs, cfg))):
        assert np.array_equal(got.t, want.t)
        assert abs(got.jo[-1] - want.jo[-1]) <= 1e-12 * abs(want.jo[-1])
        assert np.abs(got.jo - want.jo).max() <= 1e-12 * abs(want.jo[-1])
        for name in ("x", "xhat", "y"):
            a, b = getattr(got, name), getattr(want, name)
            assert np.all(np.abs(a - b) <= 1e-12 * np.abs(b).max(axis=0)), name


def test_pair_evaluates_the_truth_vector_once_per_stage(monkeypatch):
    # the truth vector calls sin once; the design and the drive never do
    ex = example_system()
    design = replace(ex.nominal, f_L=(ex.nominal.f_L[0], parse("tanh(x2)", ex.nominal.dims())))
    calls = 0

    def counting_sin(v):
        nonlocal calls
        calls += 1
        return math.sin(v)

    monkeypatch.setitem(exprlang._CODEGEN_GLOBALS, "sin", counting_sin)
    steps = 50
    cfg = example_cfg(t_end=steps * 0.01, input_signal=("0.0003*cos(t)",))
    compare_cubic_linear(ex.uncertain, design, ex.observer, cfg)
    assert calls == 4 * steps


# the cubic member alone escapes (e' = e^3 - e from e = 2) unless N < 0
# keeps it bounded; an unstable G makes the linear member overflow later
@pytest.mark.parametrize("G, N, failing", [(-1.0, 1.0, {"cubic"}),
                                           (30.0, 0.5, {"cubic", "linear"}),
                                           (30.0, -1.0, {"linear"})],
                         ids=["cubic-only", "both", "linear-only"])
def test_pair_failure_names_the_earliest_failing_member(G, N, failing):
    dims = SignalDims(n=1, n_u=0, n_y=1)
    zero = parse("0", dims)
    plant = PlantModel(A=[[-1.0]], C=[[1.0]], D=np.zeros((1, 0)), n_u=0,
                       f_u=(zero,), f_L=(zero,))
    obs = ObserverParams(G=[[G]], J=[[0.0]], E=[[0.0]], N=[[N]], theta=[[1.0]])
    cfg = SimConfig(h=0.01, t_end=30.0, x0=[3.0], xhat0=[1.0], input_signal=())
    alone = {}
    for label, member in (("cubic", obs), ("linear", replace(obs, N=np.zeros((1, 1))))):
        try:
            simulate(plant, plant, member, cfg)
        except SimulationError as exc:
            alone[label] = str(exc)
    assert alone.keys() == failing
    with pytest.raises(SimulationError) as pair:
        compare_cubic_linear(plant, plant, obs, cfg)
    # the message of the member that fails first, "... (step k)"
    earliest = min(alone.values(), key=lambda m: int(m.rsplit("step ", 1)[1].rstrip(")")))
    assert str(pair.value) == earliest


# --- CSV output -----------------------------------------------------------

def test_trajectory_csv_format(tmp_path):
    ex = example_system()
    res = simulate(ex.nominal, ex.nominal, ex.observer, example_cfg(t_end=0.1))
    path = tmp_path / "run.csv"
    write_trajectory_csv(res, path)
    raw = path.read_bytes()
    assert b"\r" not in raw
    lines = raw.decode().splitlines()
    assert lines[0] == "t,x1,x2,xhat1,xhat2,y1,Jo"
    assert len(lines) == res.t.size + 1
    data = np.loadtxt(path, delimiter=",", skiprows=1)
    assert np.allclose(data[:, 0], res.t, atol=1e-12)
    assert np.allclose(data[:, 1:3], res.x, rtol=1e-11, atol=1e-18)
    assert np.allclose(data[:, 5], res.y.ravel(), rtol=1e-11, atol=1e-18)
    assert np.allclose(data[:, 6], res.jo, rtol=1e-11, atol=1e-18)


def test_example_study_csvs_are_what_write_trajectory_csv_writes(tmp_path):
    # the study formats its shared t, x and y columns once; each file must
    # still be the public writer's output for that run
    report = sim.example_study(tmp_path / "study")
    for label, rep in (("nominal", report.nominal), ("uncertain", report.uncertain)):
        for kind in ("cubic", "linear"):
            path = tmp_path / f"{label}_{kind}.csv"
            write_trajectory_csv(getattr(rep, kind), path)
            assert (tmp_path / "study" / path.name).read_bytes() == path.read_bytes()


def test_trajectory_csv_matches_per_value_formatting(tmp_path):
    special = [-1.5, -0.0, 0.0, 1e-300, -1e-300, 1e300, -1e300, 1.0 / 3.0, 5e-324]
    rows = len(special)
    col = np.array(special)
    res = SimResult(t=col, x=np.column_stack([col[::-1], -col]),
                    xhat=np.column_stack([col * 7.0, np.roll(col, 3)]),
                    y=np.roll(col, 1)[:, None], jo=np.roll(col, 5))
    path = tmp_path / "special.csv"
    write_trajectory_csv(res, path)
    expected = "t,x1,x2,xhat1,xhat2,y1,Jo\n"
    for k in range(rows):
        row = [res.t[k], *res.x[k], *res.xhat[k], *res.y[k], res.jo[k]]
        expected += ",".join(f"{v:.12e}" for v in row) + "\n"
    assert path.read_bytes() == expected.encode()


def _printf_rows(table):
    return "".join(",".join(f"{v:.12e}" for v in row) + "\n" for row in table.tolist()).encode()


def _float_below_power_of_ten(p):
    x = float(Fraction(10) ** p)
    return x if Fraction(x) < Fraction(10) ** p else math.nextafter(x, 0.0)


@given(st.lists(st.floats(), min_size=1, max_size=64), st.integers(1, 7))
def test_csv_kernel_is_per_value_formatting(values, cols):
    # nan, infinities and subnormals included; rows are joined by "," and LF
    table = np.resize(np.array(values), (len(values), cols))
    assert sim._csv_text(table) == _printf_rows(table)


def test_csv_kernel_listed_cases():
    # zeros, the smallest subnormal, three-digit exponents, the ends of the
    # integer-arithmetic range, near-ties and the largest float below each
    # power of ten in that range
    cases = [0.0, 5e-324, 1e300, 1e-11, 1e35,
             1.2345678901235e-7, -7.0000000000005e3, 9.9999999999995e-5,
             *(_float_below_power_of_ten(p) for p in range(-10, 35))]
    column = np.array(cases + [-v for v in cases])[:, None]
    assert sim._csv_text(column) == _printf_rows(column)
