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

No truth depends on an observer or on another truth, so one integration
carries several truths sharing ``design``, the observers and the run
settings, each with every observer.  It is a plan, built by :func:`_plan`
from all but the initial state, and a classical RK4 run of it, :func:`_run`.
A plan holds the joint step matrices and the drive at every half step, one
read-only float64 column per input channel.  A plan is kept until one of its
models dies or the kept plans' arrays, generated source and recordings pass
:data:`_KEPT_PLAN_BYTES` bytes, the least recently used going first; a
larger plan runs once and is not kept.  A call on the same truth, design and
observer objects (compared by identity; they are frozen) with the same step,
horizon and drive text runs its kept plan again from its own initial state
without planning anew.

The second run in a row of a kept plan of one truth from the same initial
truth state ``x0`` copies the truth's values and its first observer's
``f_u``, which reads no state, out of the step buffer after each step and
keeps its delayed-output table; the plan's later runs from that ``x0``
write them back instead of evaluating them, whatever ``xhat0`` is.  A
recording is charged against the same bound (see :func:`_recording`); one
that would not fit is never started.  Every run
but a replayed one runs the plain stage, and a replayed run that fails runs
again, so every failure is the one a fresh plan's run reports."""

from __future__ import annotations

import functools
import math
import os
import struct
import weakref
from dataclasses import dataclass, replace

import numpy as np

from .exprlang import (_CODEGEN_GLOBALS, Expr, ExprError, ExprEvalError, SignalDims,
                       _compile_source, _emit, _guarded_source, _read_back, evaluate, unparse)
from .model import ConfigError, ObserverParams, PlantModel, _assign, _eq_fields, _read_only, validate
from .numlin import _finite

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
# The most steps of ``h`` a run or a delay may span, refused before the
# trajectory, drive grid or output table that grow with it are allocated.
MAX_STEPS = 10**7


class SimulationError(RuntimeError):
    """Integration failed (non-finite state or expression blow-up)."""


# Default drive for the bundled study and the simulate command.  The example
# plant couples x1*x2 through the unknown-input channel and the mismatched
# variant is locally unstable at the origin, so a unit-amplitude drive pushes
# either plant into finite-time escape well before t = 20.  This amplitude
# keeps both trajectories bounded over the study horizon with margin to spare
# while still exciting the model mismatch visibly.
DEFAULT_INPUT_SIGNAL = "0.0003*sin(t)"


@dataclass(frozen=True, eq=False)
class SimConfig:
    """One simulation request.

    ``x0`` and ``xhat0`` are finite and stored as read-only copies.
    ``input_signal`` is a sequence of one expression in ``t`` per input
    channel, each as text or as a tree, so one drive on every channel is
    ``(text,) * n_u``; a bare string is refused.  It stores the trees
    :func:`~cubicobs.exprlang.parse_input_signal` builds, as a plant does:
    text is parsed once, a tree must read back as itself.  Their text, which
    keys kept plans, is printed once too.  Before ``t = 0`` the drive is
    evaluated at negative times and the output is held at ``y(0)``.  A run of more than :data:`MAX_STEPS` steps is refused when it
    starts.  The config is frozen, so a drive becomes generated code only
    after this check; :func:`dataclasses.replace` makes a new config and
    checks it again.
    """

    h: float
    t_end: float
    x0: np.ndarray
    xhat0: np.ndarray
    input_signal: tuple[Expr, ...]

    def __post_init__(self):
        _assign(self, x0=_read_only(np.ravel(self.x0)), xhat0=_read_only(np.ravel(self.xhat0)))
        for name in ("x0", "xhat0"):
            if not np.isfinite(getattr(self, name)).all():
                raise ConfigError(f"{name}: entries must be finite")
        if not 0 < self.h < np.inf:
            raise ConfigError("h: step must be positive and finite")
        if not self.h <= self.t_end < np.inf:
            raise ConfigError("t_end: must be finite and at least one step")
        if isinstance(self.input_signal, str):
            raise ConfigError("input_signal: must be a sequence of expressions, not a string")
        drives = []
        for i, e in enumerate(self.input_signal):
            try:
                drives.append(_read_back(e, SignalDims(0, 0, 0), allow_time=True))
            except ExprError as exc:
                raise ConfigError(f"input_signal[{i}]: {exc}") from None
        # the drive's text, which tells "-0.0" from "0.0" as tree == does not
        _assign(self, input_signal=tuple(drives), _drive_text=tuple(map(unparse, drives)))

    __eq__ = _eq_fields


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
    stored grid sample; indices before the start of the run hold
    ``initial``.  ``value_at(q)`` linearly interpolates at a
    fractional grid index, which is how half-step stage times are served.
    :func:`simulate` keeps its own half-step table of the same values and
    does not use this class.
    """

    def __init__(self, dim: int, depth: int, initial: np.ndarray):
        if depth < 0:
            raise ValueError("depth must be nonnegative")
        self.dim = dim
        self.depth = depth
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
    """``span / h`` in whole steps, at most :data:`MAX_STEPS`; ``what`` names ``span``."""
    ratio = span / h
    if not ratio <= MAX_STEPS:  # inf included
        raise ConfigError(f"{what}: {span:g} is too many steps of {h:g} to count")
    k = int(round(ratio))
    if abs(span - k * h) > _DIV_TOL * max(1.0, abs(span)):
        raise ConfigError(f"{what}: {span:g} is not an integer multiple of step {h:g}")
    return k


def _slot_lags(plant: PlantModel, h: float) -> tuple[list[int], ...]:
    """The lags in steps of ``plant``'s input and of its output delay slots; slot 0 has lag 0."""
    return tuple([0] + [_grid_steps(d, h, f"{label}[{i}]") for i, d in enumerate(delays)]
                 for label, delays in (("delta", plant.delta), ("tau", plant.tau)))


def _stage_source(members, cubic_at, nz: int, n_y: int, ns: int,
                  check_drive: bool = False, replay: int = 0) -> tuple:
    """Source of ``_stage(j, s, o)``, which writes the ``f`` of the stage at
    position ``j`` (each member's values, then the cubic terms) into ``_buf``
    at byte ``o``, the lags it reads from the drive and ``ytab`` and their offsets.

    ``members`` holds ``(exprs, x_at, y_at, u_slot_lags, y_slot_lags)`` for
    each truth and then each of its observers: ``x_at`` is where its state
    sits in ``s``, ``y_at`` where its truth's outputs sit among the outputs,
    ``u_slot_lags[slot]`` the lag of input delay slot ``slot`` (slot 0 has
    lag 0) and ``y_slot_lags[slot]`` that of an output slot.
    ``cubic_at`` holds ``(e_at, theta_rows)`` per observer with ``N != 0``.
    The function reads its inputs at fixed places: states and output errors
    in ``s`` (``ns`` entries), input channel ``i`` in ``grid<i>`` and delayed
    outputs in ``ytab`` at row ``j`` plus the table's offset minus twice the
    lag; the offset is twice the largest lag read.  Expressions are emitted by
    exprlang's emitter, so each performs the float operations of
    ``evaluate``, and wrapped by its guarded-source builder, which checks
    them for finiteness and falls back to ``_reference``, as the drive's
    function does.  The one statement that unpacks ``s`` and the cubic values
    cannot raise and come first, so the fallback finds them bound.  Drive
    samples are finite but failed ones, which are nan: ``check_drive`` adds
    every drive sample read to the finiteness check.

    The replay form, ``replay > 0``, is for a plan of one truth, whose values
    lead ``f``, followed by its first observer's ``f_u``: it evaluates none
    of the first ``replay`` values and writes only those after them, at byte
    ``o``, falling back to the reference's values of the members after the
    truth, ``_tail``, less the replayed ones.  Its offsets and lags are
    still those of every member's reads.
    """
    loads: dict[tuple, str] = {}  # (table, lag, index) -> local, in order of first use
    read: dict[str, set] = {"s": set(), "grid": set(), "ytab": set()}  # lags, by any member

    def load(item: tuple, replayed: bool = False) -> str:
        read[item[0]].add(item[1])
        return "_" if replayed else loads.setdefault(item, f"v{len(loads)}")

    lines: dict[str, str] = {}
    results: list[str] = []
    for at, (e, (_, x_at, y_at, u_slot_lags, y_slot_lags)) in enumerate(
            (e, member) for member in members for e in member[0]):
        replayed = at < replay

        def bind(ref):
            i = ref.index - 1
            if ref.kind == "x":
                return load(("s", 0, x_at + i), replayed)
            if ref.kind == "u":
                return load(("grid", u_slot_lags[ref.slot], i), replayed)
            lag = y_slot_lags[ref.slot]
            return load(("ytab", lag, y_at + i) if lag else ("s", 0, nz + y_at + i), replayed)
        # a replayed value is emitted only for its reads, into lines of its own
        value = _emit(e, {} if replayed else lines, bind)
        if not replayed:
            results.append(value)
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
    offset = {table: 2 * max(read[table], default=0) for table in ("grid", "ytab")}
    state = {i: name for (table, _, i), name in loads.items() if table == "s"}
    targets = ", ".join(state.get(i, "_") for i in range(ns))
    unpack = [f"[{targets}] = s"] if state else []
    signals = {name: (f"{name} = grid{i}[j + {offset[table] - 2 * lag}]" if table == "grid"
                      else f"{name} = ytab[j + {offset[table] - 2 * lag}][{i}]")
               for (table, lag, i), name in loads.items() if table != "s"}
    # literals, drive samples (unless told) and output-table rows are finite,
    # a stage input need not be
    check = [r for r in results if not r.startswith("(") and r not in signals]
    if check_drive:
        check += [name for (table, _, _), name in loads.items() if table == "grid"]
    reference = f"_tail(j, s)[{replay - len(members[0][0])}:]" if replay else "_reference(j, s)"
    src = _guarded_source(
        "def _stage(j, s, o):",
        unpack + cubic_lines + [*signals.values()]
        + [f"{name} = {rhs}" for rhs, name in lines.items()], check,
        f"return _pack(_buf, o, {', '.join(results + cubic)})",
        f"return _pack(_buf, o, {', '.join([f'*{reference}'] + cubic)})")
    return src, read["grid"], read["ytab"], offset["grid"], offset["ytab"]


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


# The most bytes the kept plans may hold together in arrays, generated source
# and recordings.
_KEPT_PLAN_BYTES = 32 * 2**20
# Kept plans by key, least recently used first, each as (plan, bytes, refs,
# x0, recording): refs are weak references to the key's models, and the first
# of them to die drops the entry, so a plan goes with its models and a key
# never names the id of a dead model, which a new object may take.  x0 holds
# the bytes of the initial state of the plan's last run, recording is a
# filled _recording from that x0, or None, and bytes counts both.
_kept_plans: dict = {}


def _integrate(truths: list[PlantModel], design: PlantModel, observers: list[ObserverParams],
               cfg: SimConfig, *, linear_twin: bool = False) -> list[list[SimResult]]:
    """Integrate every truth in ``truths`` once, each carrying every observer
    in ``observers``, all in one RK4 loop; with ``linear_twin``, each
    observer is followed by its linear twin (``N = 0``), built only when
    the call is planned.

    The truths share ``design``, ``observers`` and ``cfg``; the result holds
    one list of :class:`SimResult` per truth, one per observer, in order.  A
    failure of any member ends the run at the earliest stage any member
    fails; within a stage, members fail in group order: the first truth,
    its observers, the next truth, and so on.  The models checked
    themselves when built; here each observer must fit ``design``.

    No truth reads an observer, and no design's ``f_u`` reads a state, so
    runs of one plan from one ``x0`` share their truth's values and their
    observers' ``f_u``.  A kept plan of one truth records the truth's and
    its first observer's in its second run in a row from the same ``x0``
    (see :func:`_recording` for its bytes), and its later runs from that
    ``x0`` replay the recording instead of evaluating them; a run from
    another ``x0`` drops it, and a recording run that fails keeps none.
    The drive is keyed by the text ``cfg`` printed once.  A replayed run
    that fails runs again without it, so it fails as a fresh plan's run does.
    """
    key = (tuple(map(id, truths)), id(design), tuple(map(id, observers)), linear_twin,
           cfg.h, cfg.t_end, cfg._drive_text)
    kept = _kept_plans.pop(key, None)
    if kept is None:
        refs = [weakref.ref(m, lambda _: _kept_plans.pop(key, None))
                for m in (*truths, design, *observers)]
        if linear_twin:
            observers = [o for obs in observers
                         for o in (obs, replace(obs, N=np.zeros_like(obs.N)))]
        kept = _plan(truths, design, observers, cfg), 0, refs, None, None
    plan, _, refs, last_x0, recording = kept
    size = len(plan.src) + sum(a.nbytes for a in (plan.S, *plan.P, *plan.grid[0]))
    x0 = cfg.x0.tobytes()
    if x0 != last_x0:
        recording = None
    replay = recording is not None
    if not replay and x0 == last_x0:
        recording = _recording(plan, _KEPT_PLAN_BYTES - size)
    try:
        if replay:
            try:
                return _run(plan, cfg.x0, cfg.xhat0, recording)
            except SimulationError:
                pass  # run again without it, to raise what a fresh plan's run raises
        return _run(plan, cfg.x0, cfg.xhat0, None if replay else recording)
    finally:
        if recording is not None and recording[1].flags.writeable:
            recording = None  # filled only by a run that completed
        if size <= _KEPT_PLAN_BYTES:  # a larger plan's run dwarfs its planning
            _kept_plans[key] = plan, size + (recording[3] if recording else 0), refs, x0, recording
            total = sum(entry[1] for entry in _kept_plans.values())
            while total > _KEPT_PLAN_BYTES:
                total -= _kept_plans.pop(next(iter(_kept_plans)))[1]


@dataclass(frozen=True, eq=False)
class _Plan:
    """What :func:`_run` needs besides the initial state, built by :func:`_plan`.

    The joint state is ``z = [x_1; ...; x_T; w_11; ...; w_TM]``, ``w_tm`` the
    m-th observer of truth t; ``layout`` holds ``(C_t, x_t, ((E_1, w_t1), ...))``
    for each truth, ``x_t`` and ``w_tm`` slices of ``z``.  Stages read ``s = S z
    = [z; R z]``, ``R z = [y_1; ...; y_T; xhat_11; ...; xhat_TM; e_tm ...]``
    with ``y_t = C_t x_t``, ``xhat_tm = w_tm + E_m y_t`` and, for each observer
    with ``N != 0`` only, the output error ``e_tm = y_t - C_d xhat_tm``.
    """

    h: float
    steps: int
    n: int
    n_y: int
    layout: tuple
    stage: tuple  # (members, cubic_at), as _stage_source takes them
    S: np.ndarray
    P: tuple  # (P1, P2, P3, step_end)
    src: str  # _stage_source's, reading u_lags and y_lags
    u_lags: set[int]
    y_lags: set[int]
    u_off: int
    y_off: int
    grid: tuple  # _drive_grid's (columns, failed), or ((), {}) when no stage reads the drive


def _plan(truths: list[PlantModel], design: PlantModel, observers: list[ObserverParams],
          cfg: SimConfig) -> _Plan:
    """The :class:`_Plan` of ``_integrate(truths, design, observers, cfg)``."""
    for obs in observers:
        validate(design, obs)
    n, n_y, n_u = design.n, design.n_y, design.n_u
    if any((truth.n, truth.n_y, truth.n_u) != (n, n_y, n_u) for truth in truths):
        raise ConfigError("truth and design models must share n, n_u, n_y")
    if len(cfg.input_signal) != n_u:
        raise ConfigError(f"input_signal: expected {n_u} expressions, got {len(cfg.input_signal)}")
    h = cfg.h
    *truth_lags, design_lags = (_slot_lags(plant, h) for plant in [*truths, design])
    steps = _grid_steps(cfg.t_end, h, "t_end")

    # dz = W [z; f],  f = [f_1; f_11; ...; f_1M; ...; f_T; ...; f_TM; (e' theta_m e) e ...],
    # with f_t = [f_u; f_g; f_L] of truth t at x_t and f_tm = [f_u; f_L] of the
    # design at xhat_tm.
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
    layout = []
    col = nz  # where the next member's values sit in [z; f]

    finite = functools.partial(_finite, error=ConfigError, where=" in the simulation plan")
    # finite models whose products overflow are refused by name, unwarned;
    # C_t is truth t's output matrix, C_d the design's
    with np.errstate(over="ignore", invalid="ignore"):
        for t, truth in enumerate(truths):
            C_t, x, y_at = truth.C, slice(t * n, (t + 1) * n), t * n_y
            R[y_at:y_at + n_y, x] = C_t
            W[x, x] = truth.A
            W[x, col:col + 2 * n + truth.n_g] = np.hstack([In, truth.D, In])
            col += 2 * n + truth.n_g
            members.append((truth.f_u + truth.f_g + truth.f_L, t * n, y_at, *truth_lags[t]))
            placed = []
            for m, obs in enumerate(observers):
                w = slice(T * n + (t * M + m) * n, T * n + (t * M + m + 1) * n)
                r = T * n_y + (t * M + m) * n
                placed.append((obs.E, w))
                R[r:r + n, x] = finite("E C_t", obs.E @ C_t)
                R[r:r + n, w] = In
                members.append((design.f_u + design.f_L, nz + r, y_at, *design_lags))
                W[w, x] = finite("J C_t", obs.J @ C_t)
                W[w, w] = obs.G
                W[w, col:col + 2 * n] = np.tile(In - finite("E C_d", obs.E @ C_d), 2)
                col += 2 * n
                if obs.N.any():
                    er, ec = e_row + len(cubic_at) * n_y, c_col + len(cubic_at) * n_y
                    R[er:er + n_y, x] = finite("C_t - C_d E C_t",
                                               C_t - finite("C_d E C_t", C_d @ obs.E @ C_t))
                    R[er:er + n_y, w] = -C_d
                    W[w, ec:ec + n_y] = -obs.N
                    cubic_at.append((nz + er, obs.theta.tolist()))
            layout.append((C_t, x, tuple(placed)))
        S = np.vstack([np.eye(nz), R])
        # One step's buffer is [f4 | s4 | f3 | s3 | f2 | s2 | f1 | s1]: s1 the step's start,
        # s_k stage k's input (z_k its head), f_k what stage k writes.  Stage k + 1 reads
        # s1 + c h S W [z_k; f_k], one product over the buffer from f_k on, written to
        # s_{k+1} ahead of it.  The step ends in S (z1 + h/6 W ([z1; f1] + 2 [z2; f2] +
        # 2 [z3; f3] + [z4; f4])): R z is derived from z afresh, so it cannot drift.
        ns, sixth = len(S), h / 6.0
        SW = np.roll(finite("S W", S @ W), -nz, axis=1)
        SW = np.hstack([SW, np.zeros((ns, ns - nz))])  # on [f_k; s_k]
        P = tuple(np.hstack([c * SW for c in coefs]) for coefs in (
            [0.5 * h], [0.5 * h, 0.0], [h, 0.0, 0.0], [sixth, 2.0 * sixth, 2.0 * sixth, sixth]))
        for Pk in P[:3]:
            Pk[:, -ns:] += np.eye(ns)  # plus s1, the step's start
        P[3][:, -ns:][:, :nz] += S  # plus S z1
        for Pk in P:
            finite("h S W", Pk)
    for a in (S, *P):  # a run reads them only
        a.flags.writeable = False
    src, u_lags, y_lags, u_off, y_off = _stage_source(members, cubic_at, nz, n_y, ns)
    grid = _drive_grid(cfg.input_signal, u_off, steps, h) if u_lags else ((), {})
    if grid[1]:
        src = _stage_source(members, cubic_at, nz, n_y, ns, check_drive=True)[0]
    return _Plan(h, steps, n, n_y, tuple(layout), (tuple(members), tuple(cubic_at)), S, P, src,
                 u_lags, y_lags, u_off, y_off, grid)


def _drive_grid(exprs: tuple, u_off: int, steps: int, h: float) -> tuple:
    """``(columns, failed)``: the drive at half-step positions ``p = -u_off ..
    2 steps`` (time ``(p/2) h``, negative before ``t = 0``), as one read-only
    float64 column per channel indexed by ``p + u_off``.  A position whose
    sample failed is nan in every column, and ``failed`` maps its index to
    the error, which the stage that reads it raises."""
    drive = _drive_function(exprs)
    flat, failed, nan_row = [], {}, (math.nan,) * len(exprs)
    for p in range(-u_off, 2 * steps + 1):
        try:
            flat += drive((p * 0.5) * h)
        except ExprEvalError as exc:
            failed[p + u_off] = exc
            flat += nan_row
    columns = np.array(flat).reshape(-1, len(exprs)).T.copy()
    columns.flags.writeable = False
    return tuple(columns), failed


def _recording(plan: _Plan, room: int) -> tuple | None:
    """An empty recording of ``plan``'s one truth, ``(src, values, y_table,
    nbytes)``, for :func:`_run` to fill, or ``None`` when the plan has
    several truths or the recording's bytes would pass ``room``.

    ``src`` is the replay form of the plan's stage source, ``values`` a
    writeable float64 array of one row per step, the ``V + n`` values that
    lead ``f`` (the truth's ``V`` and its first observer's ``f_u``) in each
    of the step's four stages, which :func:`_run` makes read-only once
    filled, and ``y_table`` a list for the run's delayed-output table.
    ``nbytes`` is ``values.nbytes``, ``144 + 40 n_y`` per table row (more
    than a row list's header, slot and floats), ``512`` and ``src``.
    """
    if len(plan.layout) != 1:
        return None
    members, cubic_at = plan.stage
    ns, nz = plan.S.shape
    lead = len(members[0][0]) + plan.n  # the truth's values, then its first observer's f_u
    src = _stage_source(members, cubic_at, nz, plan.n_y, ns, bool(plan.grid[1]), lead)[0]
    shape = (plan.steps, 4 * lead)
    rows = plan.y_off and plan.y_off - 1 + 2 * plan.steps
    nbytes = 512 + len(src) + 8 * shape[0] * shape[1] + rows * (144 + 40 * plan.n_y)
    return (src, np.empty(shape), [], nbytes) if nbytes <= room else None


def _run(plan: _Plan, x0: np.ndarray, xhat0: np.ndarray,
         recording: tuple | None = None) -> list[list[SimResult]]:
    """Integrate ``plan`` from ``x0`` in every truth and ``xhat0`` in every
    observer, after checking their shapes, leaving the plan as it was.
    Each RK4 stage is one generated call and one product of ``plan.P``; a
    stage whose expression fails re-runs through :func:`_reference`.

    With an empty ``recording`` (see :func:`_recording`), the run copies the
    values that lead ``f`` out of the step buffer into it after each step
    and keeps its delayed-output table.  A filled one, which must come from
    a run from this ``x0``, is replayed: each step's row is written back
    before the step's stages, which evaluate neither the truth nor the first
    observer's ``f_u``, and the kept table is read instead of grown.  An
    initial state whose products overflow is refused by name."""
    for name, v in (("x0", x0), ("xhat0", xhat0)):
        if v.shape != (plan.n,):
            raise ConfigError(f"{name}: expected {plan.n} entries, got {v.shape}")
    n_y, h, steps, y_off = plan.n_y, plan.h, plan.steps, plan.y_off
    S, (P1, P2, P3, step_end) = plan.S, plan.P
    (ns, nz), nb = S.shape, P1.shape[1]  # entries of s_k, of z, of [f_k; s_k]
    n_out = len(plan.layout) * n_y  # every truth's outputs, [y_1; ...; y_T]
    z0 = np.empty(nz)
    traj = np.empty((steps + 1, ns))
    with np.errstate(over="ignore", invalid="ignore"):
        for C, x, placed in plan.layout:
            z0[x] = x0
            for E, w in placed:
                z0[w] = xhat0 - E @ (C @ x0)
        traj[0] = S @ _finite("xhat0 - E C x0", z0, ConfigError, " in the initial state")
    _finite("S z0", traj[0], ConfigError, " in the initial state")
    s = traj[0].tolist()
    # Delayed outputs at half-step positions m >= -y_off: row y_off + m holds every
    # truth's y at the grid for even m and the mean of its neighbours (linear
    # interpolation) for odd m, and y(0) before t = 0.
    y_table = [s[nz:nz + n_out]] * (y_off - 1)
    src, record, replay, lead = plan.src, False, False, 0
    if recording is not None:
        replay_src, values, kept_table, _ = recording
        record = values.flags.writeable  # empty, else filled
        replay = not record
        lead = values.shape[1] // 4  # values recorded per stage
        if replay:
            src, y_table = replay_src, kept_table
        else:
            kept_table += y_table
            y_table = kept_table
    grow = y_off and not replay  # a replayed run's table is complete
    step_buf = bytearray(8 * 4 * nb)
    buf = np.frombuffer(step_buf)
    s2, s3, s4, s1 = (buf[at * nb - ns:at * nb] for at in (3, 2, 1, 4))
    tail1, tail2, tail3 = buf[3 * nb:], buf[2 * nb:], buf[nb:]  # from f1, f2, f3 on
    # f_k sits at entry (4 - k) nb, led by the recorded values, which a
    # replayed stage skips
    lead_at = (nb * np.arange(4)[:, None] + np.arange(lead)).ravel()
    o1, o2, o3, o4 = (8 * (at * nb + replay * lead) for at in (3, 2, 1, 0))
    grid = [column.tolist() for column in plan.grid[0]]
    reference = functools.partial(_reference, plan, grid, y_table)
    namespace = {**_CODEGEN_GLOBALS, **{f"grid{i}": column for i, column in enumerate(grid)},
                 "_reference": functools.partial(reference, 0),
                 "_tail": functools.partial(reference, 1),
                 "ytab": y_table, "_buf": step_buf,
                 "_pack": struct.Struct(f"{nb - ns - replay * lead}d").pack_into}
    exec(_compile_source(src, "<cubicobs.sim stage>"), namespace)
    stage = namespace["_stage"]
    zeros = np.zeros(ns)
    s1[:] = traj[0]

    # a diverging state overflows inside the stages; the finiteness check
    # after each step reports it, so numpy's own warnings would only repeat it
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(steps):
            j = 2 * k
            if grow:
                y_now = s[nz:nz + n_out]
                y_table += [[0.5 * p + 0.5 * q for p, q in zip(y_table[-1], y_now)], y_now]
            if replay:
                buf[lead_at] = values[k]
            try:
                stage(j, s, o1)
                stage(j + 1, P1.dot(tail1, out=s2).tolist(), o2)
                stage(j + 1, P2.dot(tail2, out=s3).tolist(), o3)
                stage(j + 2, P3.dot(tail3, out=s4).tolist(), o4)
            except ExprEvalError as exc:
                raise SimulationError(
                    f"expression evaluation failed near t = {k * h:.6g}: {exc}"
                ) from exc
            if record:
                values[k] = buf[lead_at]
            s_new = step_end.dot(buf, out=traj[k + 1])
            s = s_new.tolist()
            # a finite sum proves s_new finite; finite entries can overflow it,
            # and as inf * 0 and nan * 0 are nan, s_new . 0 is finite iff s_new is
            if not math.isfinite(sum(s)) and not math.isfinite(s_new.dot(zeros)):
                raise SimulationError(
                    f"state became non-finite at t = {(k + 1) * h:.6g} (step {k + 1})"
                )
            s1[:] = s_new
    if record:
        values.flags.writeable = False  # filled

    groups = []
    for C, x, placed in plan.layout:
        xs = traj[:, x]
        ys = xs @ C.T
        group = []
        for E, w in placed:
            res = SimResult(t=np.arange(steps + 1) * h, x=xs.copy(), xhat=traj[:, w] + ys @ E.T,
                            y=ys.copy(), jo=np.zeros(steps + 1))
            res.jo = cumulative_error(res)
            group.append(res)
        groups.append(group)
    return groups


def _reference(plan: _Plan, grid: list, y_table: list, first: int, j: int,
               s: list[float]) -> list[float]:
    """The values of the members from ``plan.stage[0][first]`` on at stage
    position ``j`` from ``s``, through :func:`~cubicobs.exprlang.evaluate`
    in group order: raises the tree walk's error where the generated code
    failed, a failed drive sample included.  ``grid`` holds the plan's drive
    columns as float lists."""
    n, n_y, nz, failed = plan.n, plan.n_y, plan.S.shape[1], plan.grid[1]
    y_now = s[nz:nz + len(plan.layout) * n_y]
    out = []
    for exprs, x_at, y_at, u_slot_lags, y_slot_lags in plan.stage[0][first:]:
        rows = [j + plan.u_off - 2 * lag if lag in plan.u_lags else None for lag in u_slot_lags]
        for at in rows:
            if at in failed:
                # each run of the plan raises it again: from a fresh traceback
                raise failed[at].with_traceback(None)
        u = [None if at is None else [column[at] for column in grid] for at in rows]
        y = [(y_now if not lag else y_table[j + plan.y_off - 2 * lag])[y_at:y_at + n_y]
             if not lag or lag in plan.y_lags else None for lag in y_slot_lags]
        out += [evaluate(e, s[x_at:x_at + n], u, y, (j * 0.5) * plan.h) for e in exprs]
    return out


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
    for cubic, linear in _integrate(truths, design, [obs], cfg, linear_twin=True):
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
    by one integration.  Writes one trajectory CSV per run through
    :func:`write_trajectory_csv`, plus a ``summary.txt`` of the
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
    for label, rep in (("nominal", nominal), ("uncertain", uncertain)):
        for kind, res in (("cubic", rep.cubic), ("linear", rep.linear)):
            path = os.path.join(out_dir, f"{label}_{kind}.csv")
            write_trajectory_csv(res, path)
            paths.append(path)
    summary = os.path.join(out_dir, "summary.txt")
    with open(summary, "w", newline="\n") as fh:
        fh.write(report.summary())
    paths.append(summary)
    report.files = tuple(paths)
    return report


def write_trajectory_csv(result: SimResult, path) -> None:
    """Write ``t, x*, xhat*, y*, Jo`` with LF endings, each value byte for
    byte as ``"%.12e" % v`` prints it (13 significant digits).

    An unwritable ``path`` raises ``OSError``.
    """
    def names(prefix, values):
        return [f"{prefix}{i + 1}" for i in range(values.shape[1])]

    header = ",".join(["t", *names("x", result.x), *names("xhat", result.xhat),
                       *names("y", result.y), "Jo"]) + "\n"
    text = _csv_text(np.column_stack([result.t, result.x, result.xhat, result.y, result.jo]))
    with open(path, "wb") as fh:
        fh.write(header.encode())
        fh.write(text)


@functools.cache
def _csv_tables():
    """What :func:`_csv_text` looks up, built on its first call: the layout
    of one field and, each as one 4-byte item, ``[fill, "-" or fill, d, "."]``
    for each sign and leading digit ``d``, the four digits of ``0 .. 9999``
    and ``"e±XX"`` for exponents ``-10 .. 35``; then ``10**0 .. 10**22``."""
    def ascii4(*chars):
        return np.stack(np.broadcast_arrays(*chars), axis=-1).astype(np.uint8).view(np.uint32)[..., 0]

    field = np.dtype({"names": ["head", "g1", "g2", "g3", "exp", "sep"],
                      "formats": [np.uint32] * 5 + [np.uint8],
                      "offsets": [0, 4, 8, 12, 16, 20], "itemsize": 21})
    sign, lead = np.divmod(np.arange(20), 10)
    heads = ascii4(0, 45 * sign, 48 + lead, 46)
    q = np.arange(10000)
    quads = ascii4(*(48 + q // p % 10 for p in (1000, 100, 10, 1)))
    x = np.abs(np.arange(-10, 36))
    exps = ascii4(101, np.repeat([45, 43], [10, 36]), 48 + x // 10, 48 + x % 10)
    powers = np.array([10 ** p for p in range(23)], dtype=float)
    return field, heads, quads, exps, powers


def _csv_text(table: np.ndarray) -> bytes:
    """The rows of the 2-D float array ``table`` as CSV lines: each value
    byte for byte ``"%.12e" % v``, joined by ``","``, each row ended by LF.

    Each value fills a 21-byte field: its text, NUL fill bytes and its
    separator; one boolean mask strips the fill at the end.  A value with
    ``|v|`` in ``[1e-10, 1e35)`` is scaled to ``r = |v| 10**k``,
    ``k = 12 - floor(log10 |v|)``, so ``|k| <= 22``: every power of ten up
    to ``10**22 = 2**22 5**22`` is exact in binary64 (``5**22 < 2**53``,
    ``5**23`` is not), so ``r`` carries the one rounding of a product or
    quotient.  Below ``2**44`` the spacing of doubles is at most ``2**-9``,
    so ``r`` is within ``2**-10`` of the exact ``|v| 10**k``.  Where ``r`` is
    more than ``2e-3`` from a half-integer, ``rint(r)`` is therefore the
    exact value correctly rounded, and when ``1e12 <= r`` and
    ``m = rint(r) <= 1e13`` it holds the 13 printed digits (``m == 1e13``
    prints ``1.000000000000`` at the next exponent); an inexact ``log10``
    only moves ``r`` out of that range.  Every other value (zeros,
    subnormals, magnitudes outside that range, three-digit exponents,
    ``inf``, ``nan`` and near-ties) is formatted by ``"%.12e" % v`` itself.
    """
    field, heads, quads, exps, powers = _csv_tables()
    rows, cols = table.shape
    v = table.ravel()
    a = np.abs(v)
    ok = (a >= 1e-10) & (a < 1e35)  # false for nan
    a[~ok] = 1.0
    k = (12.0 - np.floor(np.log10(a))).clip(-22, 22).astype(np.intp)
    r = a * powers[np.maximum(k, 0)] / powers[np.maximum(-k, 0)]
    m = np.rint(r)
    fast = ok & (r >= 1e12) & (m <= 1e13) & (np.abs(r - np.floor(r) - 0.5) > 2e-3)
    top = m == 1e13
    m[top | ~fast] = 1e12
    digits = m.astype(np.int64)
    out = np.empty(v.size, field)
    out["head"] = heads[10 * np.signbit(v) + digits // 10**12]
    out["g1"] = quads[digits // 10**8 % 10**4]
    out["g2"] = quads[digits // 10**4 % 10**4]
    out["g3"] = quads[digits % 10**4]
    out["exp"] = exps[22 - k + top]  # exponent 12 - k + top, from -10
    out["sep"] = ord(",")
    out["sep"][cols - 1::cols] = ord("\n")
    text = out.view(np.uint8).reshape(v.size, field.itemsize)
    for i in np.flatnonzero(~fast):
        text[i, :20] = np.frombuffer((b"%.12e" % v[i]).ljust(20, b"\0"), np.uint8)
    text = text.ravel()
    return text[text != 0].tobytes()
