"""Plant, observer, and certificate data model with JSON persistence.

A configuration document is a single JSON object:

.. code-block:: json

    {
      "n": 2, "n_u": 1, "n_y": 1, "n_g": 1,
      "A": [[-2, -10], [0, -1]], "C": [[1, 0]], "D": [[-1], [1]],
      "delta": [1.0], "tau": [],
      "f_u": ["u1@1", "u1"],
      "f_g": ["x2*x1"],
      "f_L": ["x1*cos(u1)", "sin(x2)"],
      "lipschitz": {"gamma": 1.0},
      "observer": {"G": "...", "J": "...", "E": "...", "N": "...",
                   "theta": "...", "alpha": 1.0},
      "certificate": {"P": "...", "beta": 100.0}
    }

Matrices are row-major arrays of arrays.  ``f_u`` entries may reference only
input/output variables; the state enters through ``f_g`` and ``f_L``.
``lipschitz`` is either ``{"gamma": g}`` with ``g > 0`` (classical Lipschitz
bound for the design-model nonlinearity) or ``{"rho": r, "a": a, "b": b}``
(one-sided Lipschitz constant plus quadratic inner-boundedness constants).
``observer`` and ``certificate`` are optional.  A certificate block stores
``{"P", "beta"}`` or ``{"P", "mu1", "mu2"}`` only: margins are always
recomputed from the matrices, never trusted from a file.

Every model type is a frozen dataclass that refuses invalid values when it
is built, and stores its arrays as read-only copies, so a model that exists
stays valid; :func:`dataclasses.replace` builds, and checks, a new one.
:func:`validate` checks that an observer fits a plant.  A plant takes each
expression as text or as a tree and stores the tree ``parse`` builds, so a
loaded file's expressions are parsed once, by the plant.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass, fields
from typing import Any

import numpy as np

# ``parse`` stays a name of this module: the benchmark's tracer
# (perfbench/spans.py) wraps ``model.parse``
from .exprlang import Expr, ExprError, SignalDims, _read_back, parse, unparse, variables
from .numlin import as_matrix, psd_violation

__all__ = [
    "ConfigError",
    "PlantModel",
    "Lipschitz",
    "OneSidedLipschitz",
    "LipschitzSpec",
    "ObserverParams",
    "Certificate",
    "SystemConfig",
    "validate",
    "example_system",
    "ExampleSystem",
    "load_config",
    "save_config",
    "config_to_dict",
    "config_from_dict",
]

class ConfigError(ValueError):
    """Configuration violates the schema; the message names the offending field."""


def _read_only(a) -> np.ndarray:
    """A read-only float copy of ``a``."""
    out = np.array(a, dtype=float)
    out.flags.writeable = False
    return out


def _assign(obj, matrices: str = "", **values) -> None:
    """Set fields of a frozen dataclass from its ``__post_init__``: each
    field named in ``matrices`` to a read-only matrix copy, then ``values``."""
    for name in matrices.split():
        object.__setattr__(obj, name, _read_only(as_matrix(getattr(obj, name), name)))
    for name, value in values.items():
        object.__setattr__(obj, name, value)


def _eq_fields(self, other):
    """``==`` over the dataclass fields, arrays by shape and value."""
    if type(other) is not type(self):
        return NotImplemented
    for f in fields(self):
        a, b = getattr(self, f.name), getattr(other, f.name)
        if not (np.array_equal(a, b) if isinstance(a, np.ndarray) else a == b):
            return False
    return True


@dataclass(frozen=True, eq=False)
class PlantModel:
    """State equation data: ``dx/dt = A x + f_u + D f_g + f_L``.

    ``f_u`` collects the known input-driven terms (it may not reference the
    state), ``f_g`` is the unknown-input nonlinearity entering through the
    channel matrix ``D``, and ``f_L`` is the bounded-nonlinearity part that
    the observer replicates.  ``delta`` and ``tau`` are the input and output
    delay lists that the expressions index by slot.

    Each expression is given as text or as a tree.  Text is parsed once; a
    tree must read back as itself (``parse(unparse(e), dims)`` rebuilds it).
    Either way the plant stores the tree ``parse`` built, so it holds
    exactly the trees ``parse`` builds.  Building one raises
    :class:`ConfigError` at the first fault in shapes, ``n_u``, delays,
    component counts and expressions.
    """

    A: np.ndarray
    C: np.ndarray
    D: np.ndarray
    n_u: int
    delta: tuple[float, ...] = ()
    tau: tuple[float, ...] = ()
    f_u: tuple[Expr, ...] = ()
    f_g: tuple[Expr, ...] = ()
    f_L: tuple[Expr, ...] = ()

    def __post_init__(self):
        _assign(self, "A C D",
                delta=tuple(float(d) for d in self.delta),
                tau=tuple(float(d) for d in self.tau))
        n = self.n
        if self.A.shape[1] != n:
            raise ConfigError(f"A must be square, got {self.A.shape}")
        if self.C.shape[1] != n:
            raise ConfigError(f"C must have {n} columns, got {self.C.shape}")
        if self.D.shape[0] != n:
            raise ConfigError(f"D must have {n} rows, got {self.D.shape}")
        if self.n_u < 0:
            raise ConfigError("n_u must be nonnegative")
        for label, delays in (("delta", self.delta), ("tau", self.tau)):
            for i, d in enumerate(delays):
                if not 0 <= d < np.inf:
                    raise ConfigError(f"{label}[{i}] must be nonnegative and finite")
        vectors = (("f_u", tuple(self.f_u), n), ("f_g", tuple(self.f_g), self.n_g),
                   ("f_L", tuple(self.f_L), n))
        for label, exprs, count in vectors:
            if len(exprs) != count:
                raise ConfigError(f"{label} must have {count} components")
        dims = self.dims()
        for label, exprs, _ in vectors:
            trees = []
            for i, e in enumerate(exprs):
                try:
                    trees.append(_read_back(e, dims))
                except ExprError as exc:
                    raise ConfigError(f"{label}[{i}]: {exc}") from None
                if label == "f_u" and any(ref.kind == "x" for ref in variables(trees[-1])):
                    raise ConfigError(f"f_u[{i}]: f_u must not reference state")
            _assign(self, **{label: tuple(trees)})

    @property
    def n(self) -> int:
        return self.A.shape[0]

    @property
    def n_y(self) -> int:
        return self.C.shape[0]

    @property
    def n_g(self) -> int:
        return self.D.shape[1]

    def dims(self) -> SignalDims:
        return SignalDims(
            n=self.n,
            n_u=self.n_u,
            n_y=self.n_y,
            n_delta=len(self.delta),
            n_tau=len(self.tau),
        )

    __eq__ = _eq_fields


@dataclass(frozen=True)
class Lipschitz:
    """Classical Lipschitz bound: ``|f_L(a) - f_L(b)| <= gamma |a - b|``."""

    gamma: float

    def __post_init__(self):
        if not 0 < self.gamma < np.inf:
            raise ConfigError("lipschitz.gamma: must be positive and finite")


@dataclass(frozen=True)
class OneSidedLipschitz:
    """One-sided Lipschitz constant ``rho`` with quadratic inner-boundedness
    constants ``a``, ``b``."""

    rho: float
    a: float
    b: float

    def __post_init__(self):
        for name in ("rho", "a", "b"):
            if not np.isfinite(getattr(self, name)):
                raise ConfigError(f"lipschitz.{name}: must be finite")


LipschitzSpec = Lipschitz | OneSidedLipschitz


@dataclass(frozen=True, eq=False)
class ObserverParams:
    """Gains of the cubic observer.

    The observer integrates ``dw/dt = G w + J y + (I - E C)(f_u + f_L(xhat))
    - ((y - C xhat)' theta (y - C xhat)) N (y - C xhat)`` and reconstructs
    ``xhat = w + E y``.

    Building one raises :class:`ConfigError` unless ``G`` is ``n x n``,
    ``theta`` is ``n_y x n_y`` and positive semidefinite, ``J``, ``E`` and
    ``N`` are ``n x n_y`` and ``alpha`` is positive and finite.
    """

    G: np.ndarray
    J: np.ndarray
    E: np.ndarray
    N: np.ndarray
    theta: np.ndarray
    alpha: float = 1.0

    def __post_init__(self):
        _assign(self, "G J E N theta", alpha=float(self.alpha))
        n, n_y = self.G.shape[0], self.theta.shape[0]
        if self.G.shape != (n, n):
            raise ConfigError(f"G must be square, got {self.G.shape}")
        if self.theta.shape != (n_y, n_y):
            raise ConfigError(f"theta must be square, got {self.theta.shape}")
        if (message := psd_violation(self.theta, "theta")) is not None:
            raise ConfigError(message)
        for name in ("J", "E", "N"):
            if (shape := getattr(self, name).shape) != (n, n_y):
                raise ConfigError(f"{name} must be {n}x{n_y}, got {shape}")
        if not 0 < self.alpha < np.inf:
            raise ConfigError("alpha must be positive and finite")

    __eq__ = _eq_fields


@dataclass(frozen=True, eq=False)
class Certificate:
    """Lyapunov certificate: ``P`` plus multiplier(s).

    Exactly one of ``beta`` (Lipschitz case) or ``mu1``/``mu2`` (one-sided
    case) is set.  No margin is stored: ``cubicobs.cert.verify_lmi_lipschitz``
    and ``verify_lmi_osl`` recompute it from the matrices.
    """

    P: np.ndarray
    beta: float | None = None
    mu1: float | None = None
    mu2: float | None = None

    def __post_init__(self):
        _assign(self, "P")
        has_beta = self.beta is not None
        has_mu = self.mu1 is not None or self.mu2 is not None
        if has_beta and has_mu:
            raise ValueError("certificate carries beta or mu1/mu2, not both")
        if not has_beta and (self.mu1 is None or self.mu2 is None):
            raise ValueError("certificate needs beta, or both mu1 and mu2")

    __eq__ = _eq_fields


@dataclass(frozen=True)
class SystemConfig:
    """One configuration document: plant, bound type, optional observer and
    certificate.  The observer must fit the plant (:func:`validate`), and a
    certificate's ``P`` must be ``n x n`` and its multipliers must match the
    bound type: ``beta`` for :class:`Lipschitz`, ``mu1``/``mu2`` for
    :class:`OneSidedLipschitz`."""

    plant: PlantModel
    lipschitz: LipschitzSpec
    observer: ObserverParams | None = None
    certificate: Certificate | None = None

    def __post_init__(self):
        if self.observer is not None:
            validate(self.plant, self.observer)
        crt = self.certificate
        if crt is None:
            return
        n = self.plant.n
        if crt.P.shape != (n, n):
            raise ConfigError(f"certificate.P must be {n}x{n}, got {crt.P.shape}")
        if crt.beta is not None and not isinstance(self.lipschitz, Lipschitz):
            raise ConfigError("certificate.beta needs a lipschitz.gamma bound")
        if crt.beta is None and not isinstance(self.lipschitz, OneSidedLipschitz):
            raise ConfigError("certificate.mu1/mu2 need a one-sided bound")


# --- validation ----------------------------------------------------------

def validate(plant: PlantModel, observer: ObserverParams) -> None:
    """Check that ``observer`` fits ``plant``: ``G`` is ``n x n`` and
    ``theta`` is ``n_y x n_y``, so ``J``, ``E`` and ``N`` are ``n x n_y``.

    Each model checked the rest when it was built.  Raises
    :class:`ConfigError`.
    """
    n, n_y = plant.n, plant.n_y
    if observer.G.shape != (n, n):
        raise ConfigError(f"G must be {n}x{n}, got {observer.G.shape}")
    if observer.theta.shape != (n_y, n_y):
        raise ConfigError(f"theta must be {n_y}x{n_y}, got {observer.theta.shape}")


# --- built-in example ----------------------------------------------------

@dataclass(frozen=True, eq=False)
class ExampleSystem:
    """The bundled two-state demonstration: nominal and perturbed plants
    sharing one certified observer."""

    nominal: PlantModel
    uncertain: PlantModel
    observer: ObserverParams
    certificate: Certificate
    lipschitz: Lipschitz

    def nominal_config(self) -> SystemConfig:
        return SystemConfig(self.nominal, self.lipschitz, self.observer, self.certificate)

    def uncertain_config(self) -> SystemConfig:
        return SystemConfig(self.uncertain, self.lipschitz, self.observer, self.certificate)


def example_system() -> ExampleSystem:
    """Built-in two-state system with an unknown-input channel and a
    certified cubic observer.

    The nominal plant has a one-second input delay; the perturbed variant
    changes the drift matrix and stretches the delay to two seconds while
    keeping the same expressions, so the pair exercises observer robustness
    against model mismatch.  The stored ``P`` certifies the Lipschitz-case
    feasibility block for ``gamma = 1`` with multiplier ``beta = 100``, and
    ``N`` is the cubic gain ``-alpha P^{-1} C' theta`` for that ``P``.
    """
    f_u = ("u1@1", "u1")
    f_g = ("x2*x1",)
    f_L = ("x1*cos(u1)", "sin(x2)")
    nominal = PlantModel(
        A=[[-2.0, -10.0], [0.0, -1.0]],
        C=[[1.0, 0.0]],
        D=[[-1.0], [1.0]],
        n_u=1,
        delta=(1.0,),
        tau=(),
        f_u=f_u,
        f_g=f_g,
        f_L=f_L,
    )
    uncertain = PlantModel(
        A=[[-0.9, -8.9], [1.1, 0.1]],
        C=[[1.0, 0.0]],
        D=[[-1.0], [1.0]],
        n_u=1,
        delta=(2.0,),
        tau=(),
        f_u=f_u,
        f_g=f_g,
        f_L=f_L,
    )
    P = np.array([[59.0535, 1.7898], [1.7898, 17.8858]])
    C = nominal.C
    theta = np.eye(1)
    alpha = 1.0
    N = -alpha * np.linalg.solve(P, C.T @ theta)
    observer = ObserverParams(
        G=[[-10.0, 0.0], [1.0, -11.0]],
        J=[[0.0], [9.0]],
        E=[[1.0], [-1.0]],
        N=N,
        theta=theta,
        alpha=alpha,
    )
    certificate = Certificate(P=P, beta=100.0)
    return ExampleSystem(nominal, uncertain, observer, certificate, Lipschitz(gamma=1.0))


# --- JSON persistence ----------------------------------------------------

def _need(d: dict, key: str, path: str = "") -> Any:
    if key not in d:
        raise ConfigError(f"{path}{key}: missing required key")
    return d[key]


def _as_int(v, path: str) -> int:
    if not isinstance(v, int) or isinstance(v, bool):
        raise ConfigError(f"{path}: must be an integer")
    return v


def _as_number(v, path: str) -> float:
    # json reads NaN, Infinity and integers too large for a float as numbers
    if isinstance(v, bool) or not isinstance(v, (int, float)) or not abs(v) <= sys.float_info.max:
        raise ConfigError(f"{path}: must be a finite number")
    return float(v)


def _as_mat(v, rows: int, cols: int, path: str) -> np.ndarray:
    if not isinstance(v, list) or len(v) != rows:
        raise ConfigError(f"{path}: must be a {rows}x{cols} array of arrays")
    out = np.empty((rows, cols))
    for i, row in enumerate(v):
        if not isinstance(row, list) or len(row) != cols:
            raise ConfigError(f"{path}[{i}]: must be an array of {cols} numbers")
        for j, entry in enumerate(row):
            out[i, j] = _as_number(entry, f"{path}[{i}][{j}]")
    return out


def _as_exprs(v, count: int, path: str) -> tuple[str, ...]:
    """The expression texts of ``v``; the plant parses them."""
    if not isinstance(v, list) or len(v) != count:
        raise ConfigError(f"{path}: must be a list of {count} expression strings")
    for i, text in enumerate(v):
        if not isinstance(text, str):
            raise ConfigError(f"{path}[{i}]: must be a string")
    return tuple(v)


def config_from_dict(doc: dict) -> SystemConfig:
    """Build a :class:`SystemConfig` from a parsed JSON object."""
    if not isinstance(doc, dict):
        raise ConfigError("document: must be a JSON object")
    n = _as_int(_need(doc, "n"), "n")
    n_u = _as_int(_need(doc, "n_u"), "n_u")
    n_y = _as_int(_need(doc, "n_y"), "n_y")
    n_g = _as_int(_need(doc, "n_g"), "n_g")
    if n < 1:
        raise ConfigError("n: must be at least 1")
    if n_y < 1:
        raise ConfigError("n_y: must be at least 1")
    if n_u < 0 or n_g < 0:
        raise ConfigError("n_u/n_g: must be nonnegative")

    A = _as_mat(_need(doc, "A"), n, n, "A")
    C = _as_mat(_need(doc, "C"), n_y, n, "C")
    D = _as_mat(_need(doc, "D"), n, n_g, "D")

    def delays(key: str) -> tuple[float, ...]:
        v = _need(doc, key)
        if not isinstance(v, list):
            raise ConfigError(f"{key}: must be a list of numbers")
        return tuple(_as_number(entry, f"{key}[{i}]") for i, entry in enumerate(v))

    plant = PlantModel(A=A, C=C, D=D, n_u=n_u, delta=delays("delta"), tau=delays("tau"),
                       f_u=_as_exprs(_need(doc, "f_u"), n, "f_u"),
                       f_g=_as_exprs(_need(doc, "f_g"), n_g, "f_g"),
                       f_L=_as_exprs(_need(doc, "f_L"), n, "f_L"))

    lip = _need(doc, "lipschitz")
    if not isinstance(lip, dict):
        raise ConfigError("lipschitz: must be an object")
    if "gamma" in lip:
        spec: LipschitzSpec = Lipschitz(gamma=_as_number(lip["gamma"], "lipschitz.gamma"))
    elif {"rho", "a", "b"} <= lip.keys():
        spec = OneSidedLipschitz(
            rho=_as_number(lip["rho"], "lipschitz.rho"),
            a=_as_number(lip["a"], "lipschitz.a"),
            b=_as_number(lip["b"], "lipschitz.b"),
        )
    else:
        raise ConfigError('lipschitz: provide {"gamma"} or {"rho", "a", "b"}')

    observer = None
    if "observer" in doc and doc["observer"] is not None:
        obs = doc["observer"]
        if not isinstance(obs, dict):
            raise ConfigError("observer: must be an object")
        theta = (
            _as_mat(obs["theta"], n_y, n_y, "observer.theta")
            if "theta" in obs
            else np.eye(n_y)
        )
        Nmat = (
            _as_mat(obs["N"], n, n_y, "observer.N")
            if "N" in obs
            else np.zeros((n, n_y))
        )
        alpha = _as_number(obs["alpha"], "observer.alpha") if "alpha" in obs else 1.0
        observer = ObserverParams(
            G=_as_mat(_need(obs, "G", "observer."), n, n, "observer.G"),
            J=_as_mat(_need(obs, "J", "observer."), n, n_y, "observer.J"),
            E=_as_mat(_need(obs, "E", "observer."), n, n_y, "observer.E"),
            N=Nmat,
            theta=theta,
            alpha=alpha,
        )

    certificate = None
    if "certificate" in doc and doc["certificate"] is not None:
        crt = doc["certificate"]
        if not isinstance(crt, dict):
            raise ConfigError("certificate: must be an object")
        P = _as_mat(_need(crt, "P", "certificate."), n, n, "certificate.P")
        if "beta" in crt:
            certificate = Certificate(P=P, beta=_as_number(crt["beta"], "certificate.beta"))
        elif {"mu1", "mu2"} <= crt.keys():
            certificate = Certificate(
                P=P,
                mu1=_as_number(crt["mu1"], "certificate.mu1"),
                mu2=_as_number(crt["mu2"], "certificate.mu2"),
            )
        else:
            raise ConfigError('certificate: provide {"P", "beta"} or {"P", "mu1", "mu2"}')

    return SystemConfig(plant=plant, lipschitz=spec, observer=observer,
                        certificate=certificate)


def config_to_dict(cfg: SystemConfig) -> dict:
    """Inverse of :func:`config_from_dict`."""
    plant = cfg.plant
    doc: dict[str, Any] = {
        "n": plant.n,
        "n_u": plant.n_u,
        "n_y": plant.n_y,
        "n_g": plant.n_g,
        "A": plant.A.tolist(),
        "C": plant.C.tolist(),
        "D": plant.D.tolist(),
        "delta": list(plant.delta),
        "tau": list(plant.tau),
        "f_u": [unparse(e) for e in plant.f_u],
        "f_g": [unparse(e) for e in plant.f_g],
        "f_L": [unparse(e) for e in plant.f_L],
    }
    if isinstance(cfg.lipschitz, Lipschitz):
        doc["lipschitz"] = {"gamma": cfg.lipschitz.gamma}
    else:
        doc["lipschitz"] = {
            "rho": cfg.lipschitz.rho,
            "a": cfg.lipschitz.a,
            "b": cfg.lipschitz.b,
        }
    if cfg.observer is not None:
        obs = cfg.observer
        doc["observer"] = {
            "G": obs.G.tolist(),
            "J": obs.J.tolist(),
            "E": obs.E.tolist(),
            "N": obs.N.tolist(),
            "theta": obs.theta.tolist(),
            "alpha": obs.alpha,
        }
    if cfg.certificate is not None:
        crt = cfg.certificate
        block: dict[str, Any] = {"P": crt.P.tolist()}
        if crt.beta is not None:
            block["beta"] = crt.beta
        else:
            block["mu1"] = crt.mu1
            block["mu2"] = crt.mu2
        doc["certificate"] = block
    return doc


def load_config(path) -> SystemConfig:
    """Load and validate a configuration file."""
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: not valid JSON ({exc})") from exc
    return config_from_dict(doc)


def save_config(cfg: SystemConfig, path) -> None:
    """Write ``cfg`` as JSON.

    ``load_config`` of the file returns a config equal to ``cfg``: every
    expression of a plant reads back as itself, so it is written as text
    that ``parse`` reads back as the same tree.
    """
    with open(path, "w") as fh:
        json.dump(config_to_dict(cfg), fh, indent=2)
        fh.write("\n")
