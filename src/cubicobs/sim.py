"""Fixed-step simulation of a plant coupled to its cubic observer.

The truth plant integrates ``dx/dt = A x + f_u + D f_g + f_L`` with its
own delay lists; the observer integrates

    dw/dt = G w + J y + (I - E C)(f_u + f_L(xhat))
            - ((y - C xhat)' theta (y - C xhat)) N (y - C xhat)

against the *design* model's expressions and delays, reconstructing
``xhat = w + E y`` from the measured output.  Truth and design model may
differ; that mismatch is exactly what the cubic term is there to absorb.
The linear observer is the same observer with ``N = 0``; with ``N = 0``
the cubic term is not computed at all.

The truth never depends on the observer, so one integration carries
several observers that share ``truth``, ``design`` and the run settings:
:func:`simulate` integrates one, :func:`compare_cubic_linear` an observer
and its linear twin.  The integrator is classical RK4 on the joint state
``z = [x; w_1; ...; w_M]``.  Every delay and ``t_end`` are whole multiples
of the step ``h``, so every stage sits at a half-step position
``j = 0 .. 2 steps`` (time ``(j/2) h``).  Each run compiles the truth and
design expressions into one Python function per expression vector
(:func:`~cubicobs.exprlang.compile_vector`, which reuses generated code
across runs) and folds the linear algebra into block matrices.  The loop
carries ``[z; R z]`` (outputs, estimates and output errors) as a Python
list, so one RK4 stage is one compiled truth call, one compiled design
call per observer and one matrix product that yields the next stage's
input; one more product ends the step.  The drive depends on ``t`` alone:
it is evaluated once per half step on one grid reaching back to the
largest input lag, before integration starts, and each lag reads a slice
of it.  Delayed outputs are read from a half-step table of the output:
grid samples, and between them the mean of the two neighbours (linear
interpolation at the midpoint).  Before ``t = 0`` the drive is evaluated
analytically (or zeroed) and the output history is frozen at ``y(0)`` (or
zeroed), per the prehistory policy.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace

import numpy as np

from .exprlang import (Expr, ExprError, ExprEvalError, compile_vector, parse_input_signal,
                       unparse, variables)
# unused here since expressions are compiled, but benchmark tracing wraps
# sim.evaluate by name; it goes when the tracer drops that wrapper
from .exprlang import evaluate  # noqa: F401
from .model import ConfigError, ObserverParams, PlantModel, validate

__all__ = [
    "SimulationError",
    "SimConfig",
    "SimResult",
    "HistoryBuffer",
    "simulate",
    "cumulative_error",
    "ComparisonReport",
    "compare_cubic_linear",
    "StudyReport",
    "example_study",
    "write_trajectory_csv",
    "input_signals",
    "DEFAULT_INPUT_SIGNAL",
]

_DIV_TOL = 1e-9


class SimulationError(RuntimeError):
    """Integration failed (non-finite state or expression blow-up)."""


# Default drive for the bundled study and the simulate command.  The example
# plant couples x1*x2 through the unknown-input channel and the mismatched
# variant is locally unstable at the origin, so a unit-amplitude drive pushes
# either plant into finite-time escape well before t = 20.  This amplitude
# keeps both trajectories bounded over the study horizon with margin to spare
# while still exciting the model mismatch visibly.
DEFAULT_INPUT_SIGNAL = "0.0003*sin(t)"


def input_signals(text: str, n_u: int) -> tuple[Expr, ...]:
    """Parse one drive expression in ``t`` and replicate it per channel."""
    e = parse_input_signal(text)
    return (e,) * n_u


@dataclass
class SimConfig:
    """One simulation request.

    ``input_signal`` holds one expression in ``t`` per input channel; each
    must read back as itself through :func:`parse_input_signal`, as model
    expressions must through :func:`~cubicobs.model.validate`.
    ``prehistory`` is ``"analytic"`` (drive evaluated at negative times,
    output history frozen at its initial value) or ``"zero"``.
    """

    h: float
    t_end: float
    x0: np.ndarray
    xhat0: np.ndarray
    input_signal: tuple[Expr, ...]
    prehistory: str = "analytic"

    def __post_init__(self):
        self.x0 = np.asarray(self.x0, dtype=float).ravel()
        self.xhat0 = np.asarray(self.xhat0, dtype=float).ravel()
        self.input_signal = tuple(self.input_signal)
        for name in ("x0", "xhat0"):
            if not np.isfinite(getattr(self, name)).all():
                raise ConfigError(f"{name}: entries must be finite")
        if not 0 < self.h < np.inf:
            raise ConfigError("h: step must be positive and finite")
        if not self.h <= self.t_end < np.inf:
            raise ConfigError("t_end: must be finite and at least one step")
        if self.prehistory not in ("analytic", "zero"):
            raise ConfigError(f"prehistory: unknown policy {self.prehistory!r}")
        for i, e in enumerate(self.input_signal):
            text = unparse(e)
            try:
                back = parse_input_signal(text)
            except ExprError as exc:
                raise ConfigError(f"input_signal[{i}]: {exc}") from None
            if back != e:
                raise ConfigError(f"input_signal[{i}]: {text} reads back as {unparse(back)}")


@dataclass(eq=False)
class SimResult:
    """Grid trajectories of one observer's run; ``jo`` is the running
    integral of ``|x - xhat|^2`` (trapezoid rule on the grid).  Observers
    integrated together each get their own copies of ``t``, ``x`` and ``y``."""

    t: np.ndarray
    x: np.ndarray
    xhat: np.ndarray
    y: np.ndarray
    jo: np.ndarray


class HistoryBuffer:
    """Ring buffer of past grid samples of a vector signal.

    ``depth`` is the largest lookback in steps.  ``sample(k)`` returns the
    stored grid sample; indices before the start of the run fall back to
    the prehistory policy (``"hold"`` freezes the initial sample,
    ``"zero"`` returns zeros).  ``value_at(q)`` linearly interpolates at a
    fractional grid index, which is how half-step stage times are served.
    :func:`simulate` keeps its own half-step table of the same values and
    does not use this class.
    """

    def __init__(self, dim: int, depth: int, initial: np.ndarray, policy: str = "hold"):
        if depth < 0:
            raise ValueError("depth must be nonnegative")
        if policy not in ("hold", "zero"):
            raise ValueError(f"unknown prehistory policy {policy!r}")
        self.dim = dim
        self.depth = depth
        self.policy = policy
        self._data = np.zeros((depth + 1, dim))
        self._initial = np.asarray(initial, dtype=float).copy()
        self._latest = -1

    def push(self, k: int, value: np.ndarray) -> None:
        if k != self._latest + 1:
            raise ValueError(f"samples must be pushed in order (got {k}, expected {self._latest + 1})")
        self._data[k % (self.depth + 1)] = value
        self._latest = k

    def sample(self, k: int) -> np.ndarray:
        if k < 0:
            if self.policy == "zero":
                return np.zeros(self.dim)
            return self._initial
        if k > self._latest or k < self._latest - self.depth:
            raise ValueError(
                f"sample {k} outside the retained window "
                f"[{self._latest - self.depth}, {self._latest}]"
            )
        return self._data[k % (self.depth + 1)]

    def value_at(self, q: float) -> np.ndarray:
        k = int(np.floor(q))
        frac = q - k
        if frac < 1e-9:
            return self.sample(k)
        if frac > 1.0 - 1e-9:
            return self.sample(k + 1)
        return (1.0 - frac) * self.sample(k) + frac * self.sample(k + 1)


def _grid_steps(span: float, h: float, what: str) -> int:
    """``span / h`` as a whole number of steps; ``what`` names ``span``."""
    k = int(round(span / h))
    if abs(span - k * h) > _DIV_TOL * max(1.0, abs(span)):
        raise ConfigError(f"{what}: {span:g} is not an integer multiple of step {h:g}")
    return k


def _delay_steps(delays, h: float, label: str) -> list[int]:
    return [_grid_steps(d, h, f"{label}[{i}]") for i, d in enumerate(delays)]


def _input_lags(exprs, delta_steps: list[int]) -> set[int]:
    """Lags (in steps) of the input slots ``exprs`` reference; slot 0 has lag 0."""
    return {0 if ref.slot == 0 else delta_steps[ref.slot - 1]
            for e in exprs for ref in variables(e) if ref.kind == "u"}


def simulate(truth: PlantModel, design: PlantModel, obs: ObserverParams,
             cfg: SimConfig) -> SimResult:
    """Integrate plant and observer jointly over ``[0, t_end]``.

    ``truth`` generates the states and measurements; ``design`` supplies
    the expressions and delays the observer believes in.  The result holds
    the grid trajectories of ``x``, of the estimate ``xhat`` (which starts
    at ``xhat0``), of ``y`` and of the error integral ``jo``.
    """
    return _integrate(truth, design, [obs], cfg)[0]


def _integrate(truth: PlantModel, design: PlantModel, observers: list[ObserverParams],
               cfg: SimConfig) -> list[SimResult]:
    """Integrate ``truth`` once, carrying every observer in ``observers``.

    The observers share ``truth``, ``design`` and ``cfg``; the result
    holds one :class:`SimResult` per observer, in order.  A failure of any
    member ends the run at the earliest step any member fails.
    """
    for obs in observers:
        for label, plant in (("truth", truth), ("design", design)):
            report = validate(plant, obs)
            if report:
                names = ", ".join(v.name for v in report)
                raise ConfigError(f"{label} model failed validation: {names}")
    if truth.n != design.n or truth.n_y != design.n_y or truth.n_u != design.n_u:
        raise ConfigError("truth and design models must share n, n_u, n_y")
    n, n_y, n_u = truth.n, truth.n_y, truth.n_u
    if cfg.x0.shape != (n,):
        raise ConfigError(f"x0: expected {n} entries, got {cfg.x0.shape}")
    if cfg.xhat0.shape != (n,):
        raise ConfigError(f"xhat0: expected {n} entries, got {cfg.xhat0.shape}")
    if len(cfg.input_signal) != n_u:
        raise ConfigError(
            f"input_signal: expected {n_u} expressions, got {len(cfg.input_signal)}"
        )

    h = cfg.h
    delta_truth = _delay_steps(truth.delta, h, "delta")
    tau_truth = _delay_steps(truth.tau, h, "tau")
    delta_design = _delay_steps(design.delta, h, "delta")
    tau_design = _delay_steps(design.tau, h, "tau")
    steps = _grid_steps(cfg.t_end, h, "t_end")
    analytic_pre = cfg.prehistory == "analytic"
    n_half = 2 * steps + 1  # stage positions j = 0 .. 2 steps, time (j/2) h

    # The drive depends on t alone: evaluate it once per half-step on one grid,
    # positions p = -2 L_max .. 2 steps at time (p/2) h, where L_max is the
    # largest input lag referenced.  Lag L reads stage j at p = j - 2 L.  A
    # failure is raised at the first step whose stages reach it through any lag.
    truth_exprs = truth.f_u + truth.f_g + truth.f_L
    design_exprs = design.f_u + design.f_L
    lags = _input_lags(truth_exprs, delta_truth) | _input_lags(design_exprs, delta_design)
    u_off = 2 * max(lags, default=0)  # grid index of p = 0
    grid: list = [None] * (u_off + n_half)
    failed: dict[int, ExprEvalError] = {}  # grid index -> error, in order
    if lags:
        drive_fn = compile_vector(cfg.input_signal)
        zero_u = (0.0,) * n_u
        for i in range(len(grid)):
            p = i - u_off
            if p < 0 and not analytic_pre:
                grid[i] = zero_u
                continue
            try:
                grid[i] = drive_fn((), None, None, (p * 0.5) * h)
            except ExprEvalError as exc:
                failed[i] = exc
    fail_step, drive_error = steps, None
    for lag in sorted(lags):
        start = u_off - 2 * lag  # grid index of this lag's stage j = 0
        i = next((i for i in failed if i >= start), None)
        if i is not None and i - start < n_half:
            step = max(0, (i - start - 1) // 2)  # the first step whose stages reach it
            if step < fail_step:
                fail_step, drive_error = step, failed[i]
    unused = [None] * n_half

    def input_slots(delta_steps: list[int]) -> list[tuple]:
        # entry j: the input vector of every delay slot at stage position j
        return list(zip(*(grid[u_off - 2 * lag:u_off - 2 * lag + n_half] if lag in lags
                          else unused for lag in [0] + delta_steps)))

    u_truth = input_slots(delta_truth)
    u_design = input_slots(delta_design)

    # z = [x; w_1; ...; w_M].  R z = [y; xhat_1; ...; xhat_M; e_m ...] with
    # y = C x, xhat_m = w_m + E_m y and, for each observer with N != 0 only,
    # the output error e_m = y - C_d xhat_m.  The derivative is
    #     dz = W g,  g = [z; f_truth; f_design_1; ...; f_design_M; (e_m' theta_m e_m) e_m ...],
    # with f_truth = [f_u; f_g; f_L] at x and f_design_m = [f_u; f_L] at xhat_m.
    # The loop carries s = [z; R z] = S z as a list, S = [I; R], so one RK4
    # stage is one product: its input is s + c h S W g = [c h S W | I] [g; s].
    C_t, C_d, n_g = truth.C, design.C, truth.n_g
    M = len(observers)
    n_cubic = sum(bool(obs.N.any()) for obs in observers)  # N = 0 skips the term
    nz = n + M * n
    fd_col = nz + 2 * n + n_g  # columns: z, f_truth, each f_design_m, cubic
    c_col = fd_col + 2 * M * n
    e_row = n_y + M * n
    In = np.eye(n)
    R = np.zeros((e_row + n_cubic * n_y, nz))
    W = np.zeros((nz, c_col + n_cubic * n_y))
    R[:n_y, :n] = C_t
    W[:n, :n] = truth.A
    W[:n, nz:fd_col] = np.hstack([In, truth.D, In])
    xhat_at, err_at = [], []  # where each xhat_m and cubic e_m sit in s
    for m, obs in enumerate(observers):
        w = slice(n + m * n, n + (m + 1) * n)
        r = n_y + m * n
        R[r:r + n, :n] = obs.E @ C_t
        R[r:r + n, w] = In
        xhat_at.append((nz + r, nz + r + n))
        W[w, :n] = obs.J @ C_t
        W[w, w] = obs.G
        W[w, fd_col + 2 * m * n:fd_col + 2 * (m + 1) * n] = np.tile(In - obs.E @ C_d, 2)
        if obs.N.any():
            er, ec = e_row + len(err_at) * n_y, c_col + len(err_at) * n_y
            R[er:er + n_y, :n] = C_t - C_d @ obs.E @ C_t
            R[er:er + n_y, w] = -C_d
            W[w, ec:ec + n_y] = -obs.N
            err_at.append((nz + er, nz + er + n_y, obs.theta.tolist()))
    S = np.vstack([np.eye(nz), R])
    SW = S @ W
    I_s = np.eye(len(S))
    half_stage = np.hstack([(0.5 * h) * SW, I_s])
    full_stage = np.hstack([h * SW, I_s])
    # the step's end, S (z + h/6 W (g1 + 2 g2 + 2 g3 + g4)), from [g1; ...; g4; s]:
    # R z is derived from z afresh every step, so it cannot drift from it
    sixth = (h / 6.0) * SW
    step_end = np.hstack([sixth, 2.0 * sixth, 2.0 * sixth, sixth, S, np.zeros((len(S), len(R)))])
    truth_fn = compile_vector(truth_exprs)
    design_fn = compile_vector(design_exprs)

    x0 = cfg.x0
    y0 = C_t @ x0
    z0 = np.concatenate([x0] + [cfg.xhat0 - obs.E @ y0 for obs in observers])
    traj = np.empty((steps + 1, len(S)))
    traj[0] = S @ z0
    s = traj[0].tolist()

    # Delayed outputs at half-step positions m >= -2 T_max (T_max the largest
    # output lag): row y_off + m holds y at the grid for even m and the mean
    # of its neighbours for odd m, as HistoryBuffer.value_at gives.  Before
    # t = 0 the history is y(0) or zero, per the prehistory policy.
    y_off = 2 * max(tau_truth + tau_design, default=0)
    y_now = s[nz:nz + n_y]
    y_pre = y_now if analytic_pre else [0.0] * n_y
    y_table = [y_pre] * y_off + [y_now]
    if y_off:
        y_table[-2] = [0.5 * p + 0.5 * q for p, q in zip(y_pre, y_now)]
    # per delay slot, the row of stage j = 0, or None for the undelayed output
    y_truth_at = [y_off - 2 * lag if lag else None for lag in tau_truth]
    y_design_at = [y_off - 2 * lag if lag else None for lag in tau_design]

    def stage_terms(j: int, s: list[float]) -> list[float]:
        # g at stage position j (time (j/2) h) from the stage input s
        t = (j * 0.5) * h
        y_now = s[nz:nz + n_y]
        # append loops: a comprehension costs a call even over no delays
        y_truth = [y_now]
        for at in y_truth_at:
            y_truth.append(y_now if at is None else y_table[at + j])
        y_design = [y_now]
        for at in y_design_at:
            y_design.append(y_now if at is None else y_table[at + j])
        g = s[:nz]
        g += truth_fn(s, u_truth[j], y_truth, t)  # x is s[:n]
        u_j = u_design[j]
        for a, b in xhat_at:
            g += design_fn(s[a:b], u_j, y_design, t)
        for a, b, theta_rows in err_at:
            err = s[a:b]
            q = 0.0
            for ea, row in zip(err, theta_rows):
                for tb, eb in zip(row, err):
                    q += ea * tb * eb
            g += [q * e for e in err]
        return g

    # a diverging state overflows inside the stages; the finiteness check
    # after each step reports it, so numpy's own warnings would only repeat it
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(steps):
            j = 2 * k
            try:
                if k == fail_step:
                    raise drive_error
                g1 = stage_terms(j, s)
                g2 = stage_terms(j + 1, (half_stage @ np.array(g1 + s)).tolist())
                g3 = stage_terms(j + 1, (half_stage @ np.array(g2 + s)).tolist())
                g4 = stage_terms(j + 2, (full_stage @ np.array(g3 + s)).tolist())
            except ExprEvalError as exc:
                raise SimulationError(
                    f"expression evaluation failed near t = {k * h:.6g}: {exc}"
                ) from exc
            s_new = step_end @ np.array(g1 + g2 + g3 + g4 + s)
            if not np.isfinite(s_new).all():
                raise SimulationError(
                    f"state became non-finite at t = {(k + 1) * h:.6g} (step {k + 1})"
                )
            traj[k + 1] = s_new
            s = s_new.tolist()
            y_now = s[nz:nz + n_y]
            y_table.append([0.5 * p + 0.5 * q for p, q in zip(y_table[-1], y_now)])
            y_table.append(y_now)

    zs = traj[:, :nz]
    ys = zs[:, :n] @ C_t.T

    results = []
    for m, obs in enumerate(observers):
        res = SimResult(t=np.arange(steps + 1) * h, x=zs[:, :n].copy(),
                        xhat=zs[:, n + m * n:n + (m + 1) * n] + ys @ obs.E.T,
                        y=ys.copy(), jo=np.zeros(steps + 1))
        res.jo = cumulative_error(res)
        results.append(res)
    return results


def cumulative_error(result: SimResult) -> np.ndarray:
    """Running integral of ``|x - xhat|^2`` by the trapezoid rule; an error
    too large to square makes it ``inf``, as in the RK4 loop, unwarned."""
    with np.errstate(over="ignore"):
        g = np.sum((result.x - result.xhat) ** 2, axis=1)
        dt = np.diff(result.t)
        jo = np.zeros_like(g)
        jo[1:] = np.cumsum(0.5 * dt * (g[:-1] + g[1:]))
    return jo


@dataclass(eq=False)
class ComparisonReport:
    """End-time error integrals of a cubic run against its linear twin."""

    jo_cubic: float
    jo_linear: float
    ratio: float
    cubic: SimResult
    linear: SimResult


def compare_cubic_linear(truth: PlantModel, design: PlantModel,
                         obs: ObserverParams, cfg: SimConfig) -> ComparisonReport:
    """Run the scenario with ``obs`` and with its linear twin, the same
    observer with ``N = 0``.

    Both observers ride on one integration of ``truth``, so each result
    equals its own :func:`simulate` call up to rounding.  If either member
    fails, the pair raises :class:`SimulationError` at the earliest step
    any member fails; when only one fails, that is the step :func:`simulate`
    of that observer alone names.
    """
    cubic, linear = _integrate(truth, design, [obs, replace(obs, N=np.zeros_like(obs.N))],
                               cfg)
    jo_c = float(cubic.jo[-1])
    jo_l = float(linear.jo[-1])
    if jo_l > 0:
        ratio = jo_c / jo_l
    else:
        ratio = 1.0 if jo_c == 0 else np.inf
    return ComparisonReport(jo_cubic=jo_c, jo_linear=jo_l, ratio=ratio,
                            cubic=cubic, linear=linear)


@dataclass(eq=False)
class StudyReport:
    nominal: ComparisonReport
    uncertain: ComparisonReport
    files: tuple[str, ...] = ()

    def summary(self) -> str:
        """The ``summary.txt`` text: end-time error integrals and ratios, one
        ``key=value`` line each."""
        lines = []
        for label, rep in (("nominal", self.nominal), ("uncertain", self.uncertain)):
            lines += [f"jo_cubic_{label}={rep.jo_cubic:.12g}\n",
                      f"jo_linear_{label}={rep.jo_linear:.12g}\n",
                      f"ratio_{label}={rep.ratio:.12g}\n"]
        return "".join(lines)


def example_study(out_dir) -> StudyReport:
    """Run the bundled example: nominal and mismatched plant, cubic vs linear.

    Four simulations over ``[0, 20]`` with step ``0.01``, ``x(0) = 0``,
    ``xhat(0) = (-5, -5)`` and drive :data:`DEFAULT_INPUT_SIGNAL`.  Writes
    one trajectory CSV per run plus a ``summary.txt`` of the end-time error
    integrals and ratios into ``out_dir``, creating it if needed, and lists
    them in the report's ``files``.
    """
    from .model import example_system

    ex = example_system()
    cfg = SimConfig(
        h=0.01,
        t_end=20.0,
        x0=np.zeros(2),
        xhat0=np.array([-5.0, -5.0]),
        input_signal=input_signals(DEFAULT_INPUT_SIGNAL, ex.nominal.n_u),
    )
    nominal = compare_cubic_linear(ex.nominal, ex.nominal, ex.observer, cfg)
    uncertain = compare_cubic_linear(ex.uncertain, ex.nominal, ex.observer, cfg)
    report = StudyReport(nominal=nominal, uncertain=uncertain)
    os.makedirs(out_dir, exist_ok=True)
    paths = []
    for name, res in (
        ("nominal_cubic", nominal.cubic),
        ("nominal_linear", nominal.linear),
        ("uncertain_cubic", uncertain.cubic),
        ("uncertain_linear", uncertain.linear),
    ):
        path = os.path.join(out_dir, f"{name}.csv")
        write_trajectory_csv(res, path)
        paths.append(path)
    summary = os.path.join(out_dir, "summary.txt")
    with open(summary, "w", newline="\n") as fh:
        fh.write(report.summary())
    paths.append(summary)
    report.files = tuple(paths)
    return report


def write_trajectory_csv(result: SimResult, path) -> None:
    """Write ``t, x*, xhat*, y*, Jo`` with 13 significant digits and LF endings."""
    n = result.x.shape[1]
    n_y = result.y.shape[1]
    header = (
        ["t"]
        + [f"x{i + 1}" for i in range(n)]
        + [f"xhat{i + 1}" for i in range(n)]
        + [f"y{i + 1}" for i in range(n_y)]
        + ["Jo"]
    )
    rows = np.column_stack([result.t, result.x, result.xhat, result.y, result.jo]).tolist()
    # %-formatting a float with .12e is f"{v:.12e}", byte for byte
    line = ",".join(["%.12e"] * len(header)) + "\n"
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        fh.write("".join([line % tuple(row) for row in rows]))
