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

The truth never depends on the observer, nor one truth on another, so one
integration carries several truths that share ``design``, the observers
and the run settings, each with every observer: :func:`simulate` carries
one truth and one observer, :func:`compare_cubic_linear` an observer and
its linear twin, :func:`example_study` both example truths with that pair.
The integrator is classical RK4 on the joint state
``z = [x_1; ...; x_T; w_11; ...; w_TM]``, ``w_tm`` the m-th observer of
truth t.  Every delay and ``t_end`` are whole multiples of the step ``h``,
so every stage sits at a half-step position ``j = 0 .. 2 steps`` (time
``(j/2) h``).  Each run generates one Python function for its stage, from
the truth and design expressions through exprlang's emitter (generated
code is reused across runs), and folds the linear algebra into block
matrices.  The loop carries ``[z; R z]`` (outputs, estimates and output
errors), so one RK4 stage is one generated call, which evaluates every
truth, every observer's design vector and the cubic terms and returns them
packed as bytes, and one matrix product that yields the next stage's
input; one more product ends the step.  An expression that fails makes the
stage re-run through :func:`~cubicobs.exprlang.evaluate` in group order
(each truth, then its observers), which raises the tree walk's error.  The
drive depends on ``t`` alone: a function generated the same way evaluates
it once per half step on one grid reaching back to the largest input lag,
before integration starts, and each lag reads a slice of it.  A sample
that fails is kept in the grid as its error, which the first stage to read
it raises through the same fallback.  Delayed outputs are read from a
half-step table of the output, kept only when an expression reads a
delayed output: grid samples, and between them the mean of the two
neighbours (linear interpolation at the midpoint).  Before ``t = 0`` the
drive is evaluated analytically (or zeroed) and the output history is
frozen at ``y(0)`` (or zeroed), per the prehistory policy.
"""

from __future__ import annotations

import math
import os
import struct
from dataclasses import dataclass, replace

import numpy as np

from .exprlang import (_CODEGEN_GLOBALS, Expr, ExprError, ExprEvalError, SignalDims,
                       _compile_source, _emit, _guarded_source, _read_back, evaluate)
from .model import ConfigError, ObserverParams, PlantModel, _assign, _read_only, validate

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


@dataclass(frozen=True)
class SimConfig:
    """One simulation request.

    ``x0`` and ``xhat0`` are finite and stored as read-only copies.
    ``input_signal`` is a sequence of one expression in ``t`` per input
    channel, each as text or as a tree, so one drive on every channel is
    ``(text,) * n_u``; a bare string is refused.  It stores the trees
    :func:`~cubicobs.exprlang.parse_input_signal` builds, as a plant does:
    text is parsed once, a tree must read back as itself.
    ``prehistory`` is ``"analytic"`` (drive evaluated at negative times,
    output history frozen at its initial value) or ``"zero"``.  The config
    is frozen, so a drive becomes generated code only after this check;
    :func:`dataclasses.replace` makes a new config and checks it again.
    """

    h: float
    t_end: float
    x0: np.ndarray
    xhat0: np.ndarray
    input_signal: tuple[Expr, ...]
    prehistory: str = "analytic"

    def __post_init__(self):
        _assign(self, x0=_read_only(np.ravel(self.x0)), xhat0=_read_only(np.ravel(self.xhat0)))
        for name in ("x0", "xhat0"):
            if not np.isfinite(getattr(self, name)).all():
                raise ConfigError(f"{name}: entries must be finite")
        if not 0 < self.h < np.inf:
            raise ConfigError("h: step must be positive and finite")
        if not self.h <= self.t_end < np.inf:
            raise ConfigError("t_end: must be finite and at least one step")
        if self.prehistory not in ("analytic", "zero"):
            raise ConfigError(f"prehistory: unknown policy {self.prehistory!r}")
        if isinstance(self.input_signal, str):
            raise ConfigError("input_signal: must be a sequence of expressions, not a string")
        drives = []
        for i, e in enumerate(self.input_signal):
            try:
                drives.append(_read_back(e, SignalDims(0, 0, 0), allow_time=True))
            except ExprError as exc:
                raise ConfigError(f"input_signal[{i}]: {exc}") from None
        _assign(self, input_signal=tuple(drives))


@dataclass(eq=False)
class SimResult:
    """Grid trajectories of one observer's run; ``jo`` is the running
    integral of ``|x - xhat|^2`` (trapezoid rule on the grid).  Observers
    and truths integrated together each get their own copies of ``t``,
    ``x`` and ``y``."""

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


def _stage_source(members, cubic_at, nz: int, n_y: int) -> tuple[str, set[int], set[int]]:
    """Source of ``_stage(j, s)``, the packed ``g`` of the stage at position
    ``j``, with the input lags and the nonzero output lags (in steps) it reads.

    ``members`` holds ``(exprs, x_at, y_at, u_slot_lags, y_slot_lags)`` for
    each truth and then each of its observers: ``x_at`` is where its state
    sits in ``s``, ``y_at`` where its truth's outputs sit among the outputs,
    ``u_slot_lags[slot]`` the lag of input delay slot ``slot`` (slot 0 has
    lag 0) and ``y_slot_lags[slot]`` that of an output slot.
    ``cubic_at`` holds ``(e_at, theta_rows)`` per observer with ``N != 0``.
    The function reads its inputs at fixed places: states and output errors
    in ``s``, the drive in ``grid`` and delayed outputs in ``ytab`` at a
    constant offset plus ``j``; offset 0 is the largest lag read.
    Expressions are emitted by exprlang's emitter, so each performs the
    float operations of ``evaluate``, and wrapped by its guarded-source
    builder, which checks them for finiteness and falls back to
    ``_reference``, as the drive's function does.  State loads and cubic
    values cannot raise and come first, so the fallback finds them bound; a
    drive row that holds an error fails its read with ``TypeError``.
    """
    loads: dict[tuple, str] = {}  # (table, lag, index) -> local, in order of first use

    def load(item: tuple) -> str:
        return loads.setdefault(item, f"v{len(loads)}")

    z = [load(("s", 0, i)) for i in range(nz)]
    lines: dict[str, str] = {}
    results: list[str] = []
    for exprs, x_at, y_at, u_slot_lags, y_slot_lags in members:
        def bind(ref):
            i = ref.index - 1
            if ref.kind == "x":
                return load(("s", 0, x_at + i))
            if ref.kind == "u":
                return load(("grid", u_slot_lags[ref.slot], i))
            lag = y_slot_lags[ref.slot]
            return load(("ytab", lag, y_at + i) if lag else ("s", 0, nz + y_at + i))
        results += [_emit(e, lines, bind) for e in exprs]
    # (e' theta e) e, summed as the loop "q += e_a theta_ab e_b" sums it
    cubic_lines, cubic = [], []
    for m, (e_at, theta_rows) in enumerate(cubic_at):
        e = [load(("s", 0, e_at + i)) for i in range(n_y)]
        q = " + ".join(f"{ea} * ({tab!r}) * {eb}"
                       for ea, row in zip(e, theta_rows) for tab, eb in zip(row, e))
        cubic_lines.append(f"q{m} = 0.0 + {q}")
        for ei in e:
            cubic.append(f"c{len(cubic)}")
            cubic_lines.append(f"{cubic[-1]} = q{m} * {ei}")
    lags = {table: {lag for t, lag, _ in loads if t == table} for table in ("grid", "ytab")}
    offset = {table: 2 * max(read, default=0) for table, read in lags.items()}
    state = [f"{name} = s[{i}]" for (table, _, i), name in loads.items() if table == "s"]
    signals = {name: f"{name} = {table}[j + {offset[table] - 2 * lag}][{i}]"
               for (table, lag, i), name in loads.items() if table != "s"}
    # literals, drive samples and output-table rows are finite, a stage
    # input need not be
    check = [r for r in results if not r.startswith("(") and r not in signals]
    src = _guarded_source(
        "def _stage(j, s):",
        state + cubic_lines + [*signals.values()]
        + [f"{name} = {rhs}" for rhs, name in lines.items()], check,
        f"return _pack({', '.join(z + results + cubic)})",
        f"return _pack({', '.join(z + ['*_reference(j, s)'] + cubic)})")
    return src, lags["grid"], lags["ytab"]


def _drive_function(exprs: tuple[Expr, ...]):
    """Generated ``_drive(t)``: the tuple of the drive expressions ``exprs``,
    which read back, at time ``t``.  Its values are ``evaluate``'s bit for
    bit, and a failure raises ``evaluate``'s :class:`ExprEvalError`."""
    lines: dict[str, str] = {}
    results = [_emit(e, lines, None) for e in exprs]
    src = _guarded_source(
        "def _drive(t):", [f"{name} = {rhs}" for rhs, name in lines.items()],
        [r for r in results if r.startswith("_")],  # literals and t are finite
        f"return ({', '.join(results)},)", "return _reference(t)")
    namespace = {**_CODEGEN_GLOBALS,
                 "_reference": lambda t: tuple(evaluate(e, t=t) for e in exprs)}
    exec(_compile_source(src, "<cubicobs.sim drive>"), namespace)
    return namespace["_drive"]


def simulate(truth: PlantModel, design: PlantModel, obs: ObserverParams,
             cfg: SimConfig) -> SimResult:
    """Integrate plant and observer jointly over ``[0, t_end]``.

    ``truth`` generates the states and measurements; ``design`` supplies
    the expressions and delays the observer believes in.  The result holds
    the grid trajectories of ``x``, of the estimate ``xhat`` (which starts
    at ``xhat0``), of ``y`` and of the error integral ``jo``.
    """
    return _integrate([truth], design, [obs], cfg)[0][0]


def _integrate(truths: list[PlantModel], design: PlantModel, observers: list[ObserverParams],
               cfg: SimConfig) -> list[list[SimResult]]:
    """Integrate every truth in ``truths`` once, each carrying every observer
    in ``observers``, all in one RK4 loop.

    The truths share ``design``, ``observers`` and ``cfg``; the result holds
    one list of :class:`SimResult` per truth, one per observer, in order.  A
    failure of any member ends the run at the earliest stage any member
    fails; within a stage, members fail in group order: the first truth,
    its observers, the next truth, and so on.  The models checked
    themselves when built; here each observer must fit ``design``.
    """
    for obs in observers:
        validate(design, obs)
    n, n_y, n_u = design.n, design.n_y, design.n_u
    if any((truth.n, truth.n_y, truth.n_u) != (n, n_y, n_u) for truth in truths):
        raise ConfigError("truth and design models must share n, n_u, n_y")
    if cfg.x0.shape != (n,):
        raise ConfigError(f"x0: expected {n} entries, got {cfg.x0.shape}")
    if cfg.xhat0.shape != (n,):
        raise ConfigError(f"xhat0: expected {n} entries, got {cfg.xhat0.shape}")
    if len(cfg.input_signal) != n_u:
        raise ConfigError(
            f"input_signal: expected {n_u} expressions, got {len(cfg.input_signal)}"
        )

    h = cfg.h

    def slot_lags(plant):
        return ([0] + _delay_steps(plant.delta, h, "delta"),
                [0] + _delay_steps(plant.tau, h, "tau"))

    truth_lags = [slot_lags(truth) for truth in truths]  # each truth's, then the design's
    design_lags = slot_lags(design)
    steps = _grid_steps(cfg.t_end, h, "t_end")
    analytic_pre = cfg.prehistory == "analytic"
    n_half = 2 * steps + 1  # stage positions j = 0 .. 2 steps, time (j/2) h

    # z = [x_1; ...; x_T; w_11; ...; w_TM], w_tm the m-th observer of truth t.
    # R z = [y_1; ...; y_T; xhat_11; ...; xhat_TM; e_tm ...] with y_t = C_t x_t,
    # xhat_tm = w_tm + E_m y_t and, for each observer with N != 0 only, the
    # output error e_tm = y_t - C_d xhat_tm.  The derivative is
    #     dz = W g,  g = [z; f_1; f_11; ...; f_1M; ...; f_T; ...; f_TM; (e' theta_m e) e ...],
    # with f_t = [f_u; f_g; f_L] of truth t at x_t and f_tm = [f_u; f_L] of the
    # design at xhat_tm.  The loop carries s = [z; R z] = S z, S = [I; R].  One
    # generated call turns a stage's input s into g, packed as bytes; one product
    # turns g into the next stage's input s + c h S W g = [c h S W | I] [g; s].
    C_d = design.C
    T, M = len(truths), len(observers)
    n_cubic = T * sum(bool(obs.N.any()) for obs in observers)  # N = 0 skips the term
    nz = T * (n + M * n)
    e_row = T * (n_y + M * n)
    c_col = nz + sum(2 * n + truth.n_g for truth in truths) + T * M * 2 * n
    In = np.eye(n)
    R = np.zeros((e_row + n_cubic * n_y, nz))
    W = np.zeros((nz, c_col + n_cubic * n_y))
    members = []  # each truth, then its observers: the stage's group order
    cubic_at = []  # where each cubic e_tm sits in s, with its theta_m
    col = nz  # where the next member's values sit in g
    for t, truth in enumerate(truths):
        C_t, x, y_at = truth.C, slice(t * n, (t + 1) * n), t * n_y
        R[y_at:y_at + n_y, x] = C_t
        W[x, x] = truth.A
        W[x, col:col + 2 * n + truth.n_g] = np.hstack([In, truth.D, In])
        col += 2 * n + truth.n_g
        members.append((truth.f_u + truth.f_g + truth.f_L, t * n, y_at, *truth_lags[t]))
        for m, obs in enumerate(observers):
            w = slice(T * n + (t * M + m) * n, T * n + (t * M + m + 1) * n)
            r = T * n_y + (t * M + m) * n
            R[r:r + n, x] = obs.E @ C_t
            R[r:r + n, w] = In
            members.append((design.f_u + design.f_L, nz + r, y_at, *design_lags))
            W[w, x] = obs.J @ C_t
            W[w, w] = obs.G
            W[w, col:col + 2 * n] = np.tile(In - obs.E @ C_d, 2)
            col += 2 * n
            if obs.N.any():
                er, ec = e_row + len(cubic_at) * n_y, c_col + len(cubic_at) * n_y
                R[er:er + n_y, x] = C_t - C_d @ obs.E @ C_t
                R[er:er + n_y, w] = -C_d
                W[w, ec:ec + n_y] = -obs.N
                cubic_at.append((nz + er, obs.theta.tolist()))
    S = np.vstack([np.eye(nz), R])
    SW = S @ W
    I_s = np.eye(len(S))
    half_stage = np.hstack([(0.5 * h) * SW, I_s])
    full_stage = np.hstack([h * SW, I_s])
    # the step's end, S (z + h/6 W (g1 + 2 g2 + 2 g3 + g4)), from [g1; ...; g4; s]:
    # R z is derived from z afresh every step, so it cannot drift from it
    sixth = (h / 6.0) * SW
    step_end = np.hstack([sixth, 2.0 * sixth, 2.0 * sixth, sixth, S, np.zeros((len(S), len(R)))])
    src, u_lags, y_lags = _stage_source(members, cubic_at, nz, n_y)

    # The drive depends on t alone: evaluate it once per half-step on one grid,
    # positions p = -2 L_max .. 2 steps at time (p/2) h, where L_max is the
    # largest input lag the stage reads.  Lag L reads stage j at p = j - 2 L.  A
    # failed sample keeps its error in the grid, raised by the stage that reads it.
    u_off = 2 * max(u_lags, default=0)  # grid index of p = 0
    grid: list = [None] * (u_off + n_half)
    if u_lags:
        drive = _drive_function(cfg.input_signal)
        zero_u = (0.0,) * n_u
        for i in range(len(grid)):
            p = i - u_off
            if p < 0 and not analytic_pre:
                grid[i] = zero_u
                continue
            try:
                grid[i] = drive((p * 0.5) * h)
            except ExprEvalError as exc:
                grid[i] = exc

    x0 = cfg.x0
    z0 = np.concatenate([x0] * T + [cfg.xhat0 - obs.E @ (truth.C @ x0)
                                    for truth in truths for obs in observers])
    traj = np.empty((steps + 1, len(S)))
    traj[0] = S @ z0
    s = traj[0].tolist()
    n_out = T * n_y  # every truth's outputs, [y_1; ...; y_T]

    # Delayed outputs at half-step positions m >= -2 T_max (T_max the largest
    # output lag the stage reads): row y_off + m holds every truth's y at the
    # grid for even m and the mean of its neighbours for odd m, linear
    # interpolation at the midpoint.  Before t = 0 the history is y(0) or zero,
    # per the prehistory policy.
    y_off = 2 * max(y_lags, default=0)
    y_table: list[list[float]] = []
    if y_off:
        y_now = s[nz:nz + n_out]
        y_pre = y_now if analytic_pre else [0.0] * n_out
        y_table += [y_pre] * (y_off - 1)
        y_table += [[0.5 * p + 0.5 * q for p, q in zip(y_pre, y_now)], y_now]

    def reference(j: int, s: list[float]) -> list[float]:
        # the stage's expression values through evaluate, in group order: raises
        # the error a tree walk raises, where the generated code failed,
        # including a failed drive sample of a member's input slots
        t = (j * 0.5) * h
        y_now = s[nz:nz + n_out]
        out = []
        for exprs, x_at, y_at, u_slot_lags, y_slot_lags in members:
            u = [grid[j + u_off - 2 * lag] if lag in u_lags else None for lag in u_slot_lags]
            for row in u:
                if isinstance(row, ExprEvalError):
                    raise row
            y = [(y_now if not lag else y_table[j + y_off - 2 * lag])[y_at:y_at + n_y]
                 if not lag or lag in y_lags else None for lag in y_slot_lags]
            out += [evaluate(e, s[x_at:x_at + n], u, y, t) for e in exprs]
        return out

    namespace = {**_CODEGEN_GLOBALS, "_reference": reference, "grid": grid, "ytab": y_table,
                 "_pack": struct.Struct(f"{W.shape[1]}d").pack}
    exec(_compile_source(src, "<cubicobs.sim stage>"), namespace)
    stage = namespace["_stage"]
    zeros = np.zeros(len(S))
    s_bytes = traj[0].tobytes()

    # a diverging state overflows inside the stages; the finiteness check
    # after each step reports it, so numpy's own warnings would only repeat it
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(steps):
            j = 2 * k
            try:
                g1 = stage(j, s)
                g2 = stage(j + 1, half_stage.dot(np.frombuffer(g1 + s_bytes)).tolist())
                g3 = stage(j + 1, half_stage.dot(np.frombuffer(g2 + s_bytes)).tolist())
                g4 = stage(j + 2, full_stage.dot(np.frombuffer(g3 + s_bytes)).tolist())
            except ExprEvalError as exc:
                raise SimulationError(
                    f"expression evaluation failed near t = {k * h:.6g}: {exc}"
                ) from exc
            s_new = step_end.dot(np.frombuffer(g1 + g2 + g3 + g4 + s_bytes), out=traj[k + 1])
            # inf * 0 and nan * 0 are nan: the product is finite iff s_new is
            if not math.isfinite(s_new.dot(zeros)):
                raise SimulationError(
                    f"state became non-finite at t = {(k + 1) * h:.6g} (step {k + 1})"
                )
            s_bytes = s_new.tobytes()
            s = s_new.tolist()
            if y_off:
                y_now = s[nz:nz + n_out]
                y_table.append([0.5 * p + 0.5 * q for p, q in zip(y_table[-1], y_now)])
                y_table.append(y_now)

    zs = traj[:, :nz]
    groups = []
    for t, truth in enumerate(truths):
        xs = zs[:, t * n:(t + 1) * n]
        ys = xs @ truth.C.T
        group = []
        for m, obs in enumerate(observers):
            w = T * n + (t * M + m) * n
            res = SimResult(t=np.arange(steps + 1) * h, x=xs.copy(),
                            xhat=zs[:, w:w + n] + ys @ obs.E.T, y=ys.copy(),
                            jo=np.zeros(steps + 1))
            res.jo = cumulative_error(res)
            group.append(res)
        groups.append(group)
    return groups


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

    Both observers ride on one integration of ``truth`` (the integration
    :func:`example_study` shares between its two truths), so each result
    equals its own :func:`simulate` call up to rounding.  If either member
    fails, the pair raises :class:`SimulationError` at the earliest step any
    member fails; when only one fails, that is the step :func:`simulate` of
    that observer alone names.
    """
    return _compare([truth], design, obs, cfg)[0]


def _compare(truths: list[PlantModel], design: PlantModel, obs: ObserverParams,
             cfg: SimConfig) -> list[ComparisonReport]:
    """:func:`compare_cubic_linear` of each truth in ``truths``, every pair
    carried by one :func:`_integrate` call."""
    reports = []
    for cubic, linear in _integrate(truths, design,
                                    [obs, replace(obs, N=np.zeros_like(obs.N))], cfg):
        jo_c = float(cubic.jo[-1])
        jo_l = float(linear.jo[-1])
        if jo_l > 0:
            ratio = jo_c / jo_l
        else:
            ratio = 1.0 if jo_c == 0 else np.inf
        reports.append(ComparisonReport(jo_cubic=jo_c, jo_linear=jo_l, ratio=ratio,
                                        cubic=cubic, linear=linear))
    return reports


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
    ``xhat(0) = (-5, -5)`` and drive :data:`DEFAULT_INPUT_SIGNAL`, carried
    by one integration.  Writes one trajectory CSV per run, as
    :func:`write_trajectory_csv` writes it, plus a ``summary.txt`` of the
    end-time error integrals and ratios into ``out_dir``, creating it if
    needed, and lists them in the report's ``files``.
    """
    from .model import example_system

    ex = example_system()
    cfg = SimConfig(
        h=0.01,
        t_end=20.0,
        x0=np.zeros(2),
        xhat0=np.array([-5.0, -5.0]),
        input_signal=(DEFAULT_INPUT_SIGNAL,) * ex.nominal.n_u,
    )
    nominal, uncertain = _compare([ex.nominal, ex.uncertain], ex.nominal, ex.observer, cfg)
    report = StudyReport(nominal=nominal, uncertain=uncertain)
    os.makedirs(out_dir, exist_ok=True)
    paths = []
    # the four runs share t, and the two of each plant share x and y: format
    # those columns once
    t_text = _column_text(nominal.cubic.t)
    for label, rep in (("nominal", nominal), ("uncertain", uncertain)):
        x_text = [_column_text(c) for c in rep.cubic.x.T]
        y_text = [_column_text(c) for c in rep.cubic.y.T]
        for kind, res in (("cubic", rep.cubic), ("linear", rep.linear)):
            path = os.path.join(out_dir, f"{label}_{kind}.csv")
            _write_csv(path, t_text, x_text, res.xhat.T, y_text, res.jo)
            paths.append(path)
    summary = os.path.join(out_dir, "summary.txt")
    with open(summary, "w", newline="\n") as fh:
        fh.write(report.summary())
    paths.append(summary)
    report.files = tuple(paths)
    return report


def write_trajectory_csv(result: SimResult, path) -> None:
    """Write ``t, x*, xhat*, y*, Jo`` with 13 significant digits and LF endings."""
    _write_csv(path, result.t, result.x.T, result.xhat.T, result.y.T, result.jo)


# %-formatting a float with .12e is f"{v:.12e}", byte for byte
def _column_text(values: np.ndarray) -> list[str]:
    """Each value of ``values`` as it stands in a trajectory CSV."""
    return ["%.12e" % v for v in values.tolist()]


def _write_csv(path, t, x, xhat, y, jo) -> None:
    """Write a trajectory CSV; ``x``, ``xhat`` and ``y`` hold one column per
    entry, and each column is an array of values or :func:`_column_text` of one."""
    header = (["t"] + [f"x{i + 1}" for i in range(len(x))]
              + [f"xhat{i + 1}" for i in range(len(xhat))] + [f"y{i + 1}" for i in range(len(y))]
              + ["Jo"])
    columns = [t, *x, *xhat, *y, jo]
    line = ",".join(["%s" if isinstance(c, list) else "%.12e" for c in columns]) + "\n"
    rows = zip(*[c if isinstance(c, list) else c.tolist() for c in columns])
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        fh.write("".join([line % row for row in rows]))
