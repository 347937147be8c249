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
``observer`` and ``certificate`` are optional.  A certificate holds ``P``
and either ``beta`` or ``mu1``/``mu2``, never both, and no margin: margins
are always recomputed from the matrices.  Every block, the plant included,
is read and written from the fields of its dataclass, in declaration order.
The reader checks only each value's JSON type (a matrix is a rectangular
array of finite numbers); the model types check every shape and range, and
the declared ``n``, ``n_y`` and ``n_g`` must match the plant's matrices.

Every model type is a frozen dataclass that refuses invalid values when it
is built, and stores its arrays as read-only copies and its scalars as
Python ``float`` (``int`` for ``n_u``), so a model that exists stays valid
and saves as JSON; :func:`dataclasses.replace` builds, and checks, a new one.
:func:`validate` checks that an observer fits a plant.  A plant takes each
expression as text or as a tree and stores the tree ``parse`` builds, so a
loaded file's expressions are parsed once, by the plant.
"""

from __future__ import annotations

import json
import operator
import os
import sys
from dataclasses import MISSING, dataclass, fields, replace

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
    field to its value in ``values``, then each field named in ``matrices``
    to a read-only matrix copy, refusing one that is not finite and 2-D."""
    for name, value in values.items():
        object.__setattr__(obj, name, value)
    for name in matrices.split():
        try:
            object.__setattr__(obj, name, _read_only(as_matrix(getattr(obj, name), name)))
        except ValueError as exc:  # as_matrix names the field
            raise ConfigError(str(exc)) from None


def _as_float(v) -> float:
    """``float(v)``, with an integer past the float range as an infinity."""
    try:
        return float(v)
    except OverflowError:
        return np.inf if v > 0 else -np.inf


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
    :class:`ConfigError` at the first fault in sizes (``n`` and ``n_y`` are
    at least 1), shapes, ``n_u``, delays, component counts and expressions;
    a bare string in place of a delay list or an expression vector is a
    fault.
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
        for name in ("delta", "tau", "f_u", "f_g", "f_L"):
            if isinstance(getattr(self, name), str):
                raise ConfigError(f"{name}: must be a sequence, not a string")
        try:
            n_u = operator.index(self.n_u)
        except TypeError:
            raise ConfigError("n_u must be an integer") from None
        _assign(self, "A C D", n_u=n_u,
                delta=tuple(_as_float(d) for d in self.delta),
                tau=tuple(_as_float(d) for d in self.tau))
        n = self.n
        if n < 1:
            raise ConfigError("n: must be at least 1")
        if self.n_y < 1:
            raise ConfigError("n_y: must be at least 1")
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
        _assign(self, gamma=_as_float(self.gamma))
        if not 0 < self.gamma < np.inf:
            raise ConfigError("lipschitz.gamma: must be positive and finite")
        if self.gamma * self.gamma == np.inf:  # the certificate blocks hold gamma**2
            raise ConfigError(f"lipschitz.gamma: {self.gamma:g} is too large to square")


@dataclass(frozen=True)
class OneSidedLipschitz:
    """One-sided Lipschitz constant ``rho`` with quadratic inner-boundedness
    constants ``a``, ``b``."""

    rho: float
    a: float
    b: float

    def __post_init__(self):
        _assign(self, rho=_as_float(self.rho), a=_as_float(self.a), b=_as_float(self.b))
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

    ``N`` defaults to zero (the linear observer) and ``theta`` to the
    identity, both sized from ``J``.  Building one raises
    :class:`ConfigError` unless ``G`` is ``n x n``, ``theta`` is
    ``n_y x n_y`` and positive semidefinite, ``J``, ``E`` and ``N`` are
    ``n x n_y`` and ``alpha`` is positive and finite.
    """

    G: np.ndarray
    J: np.ndarray
    E: np.ndarray
    N: np.ndarray | None = None
    theta: np.ndarray | None = None
    alpha: float = 1.0

    def __post_init__(self):
        _assign(self, "G J E", alpha=_as_float(self.alpha))
        _assign(self, "N theta", N=np.zeros(self.J.shape) if self.N is None else self.N,
                theta=np.eye(self.J.shape[1]) if self.theta is None else self.theta)
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
        _assign(self, "P", **{name: _as_float(v) for name in ("beta", "mu1", "mu2")
                              if (v := getattr(self, name)) is not None})
        has_beta = self.beta is not None
        has_mu = self.mu1 is not None or self.mu2 is not None
        if has_beta and has_mu:
            raise ConfigError("certificate: carries beta or mu1/mu2, not both")
        if not has_beta and (self.mu1 is None or self.mu2 is None):
            raise ConfigError("certificate: needs beta, or both mu1 and mu2")

    __eq__ = _eq_fields


@dataclass(frozen=True)
class SystemConfig:
    """One configuration document: plant, bound type, optional observer and
    certificate.  The observer must fit the plant (:func:`validate`), and a
    certificate's ``P`` must be ``n x n`` and its multipliers must match the
    bound type: ``beta`` for :class:`Lipschitz`, ``mu1``/``mu2`` for
    :class:`OneSidedLipschitz`, with finite products with the bound."""

    plant: PlantModel
    lipschitz: LipschitzSpec
    observer: ObserverParams | None = None
    certificate: Certificate | None = None

    def __post_init__(self):
        if self.observer is not None:
            validate(self.plant, self.observer)
        crt, bound = self.certificate, self.lipschitz
        if crt is None:
            return
        n = self.plant.n
        if crt.P.shape != (n, n):
            raise ConfigError(f"certificate.P must be {n}x{n}, got {crt.P.shape}")
        # the multiplier terms of the LMI block (cert.osl_lmi) must be finite
        if crt.beta is not None:
            if not isinstance(bound, Lipschitz):
                raise ConfigError("certificate.beta needs a lipschitz.gamma bound")
            name, terms = "beta", (crt.beta * bound.gamma**2,)
        elif not isinstance(bound, OneSidedLipschitz):
            raise ConfigError("certificate.mu1/mu2 need a one-sided bound")
        else:
            name, terms = "mu1/mu2", (crt.mu1 * bound.rho + crt.mu2 * bound.a,
                                      crt.mu2 * bound.b - crt.mu1)
        if not np.isfinite(terms).all():
            raise ConfigError(f"certificate.{name}: its products with the bound are not finite")


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
    nominal = PlantModel(
        A=[[-2.0, -10.0], [0.0, -1.0]],
        C=[[1.0, 0.0]],
        D=[[-1.0], [1.0]],
        n_u=1,
        delta=(1.0,),
        tau=(),
        f_u=("u1@1", "u1"),
        f_g=("x2*x1",),
        f_L=("x1*cos(u1)", "sin(x2)"),
    )
    uncertain = replace(nominal, A=[[-0.9, -8.9], [1.1, 0.1]], delta=(2.0,))
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

def _need(d: dict, key: str):
    if key not in d:
        raise ConfigError(f"{key}: missing required key")
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


def _as_numbers(v, path: str) -> tuple[float, ...]:
    if not isinstance(v, list):
        raise ConfigError(f"{path}: must be a list of numbers")
    return tuple(_as_number(entry, f"{path}[{i}]") for i, entry in enumerate(v))


def _as_mat(v, path: str) -> np.ndarray:
    """``v`` as a matrix: a nonempty array of equal-length arrays of numbers."""
    if not isinstance(v, list) or not v or not isinstance(v[0], list):
        raise ConfigError(f"{path}: must be a nonempty array of arrays")
    for i, row in enumerate(v):
        if not isinstance(row, list) or len(row) != len(v[0]):
            raise ConfigError(f"{path}[{i}]: must be an array of {len(v[0])} numbers")
    return np.array([[_as_number(entry, f"{path}[{i}][{j}]") for j, entry in enumerate(row)]
                     for i, row in enumerate(v)])


def _as_texts(v, path: str) -> tuple[str, ...]:
    """The expression texts of ``v``; the plant parses them."""
    if not isinstance(v, list):
        raise ConfigError(f"{path}: must be a list of expression strings")
    for i, text in enumerate(v):
        if not isinstance(text, str):
            raise ConfigError(f"{path}[{i}]: must be a string")
    return tuple(v)


# the sizes a document declares ahead of the plant's fields
_SIZES = ("n", "n_u", "n_y", "n_g")
# the JSON reader of each field annotation of the model types
_READERS = {"np.ndarray": _as_mat, "float": _as_number, "int": _as_int,
            "tuple[float, ...]": _as_numbers, "tuple[Expr, ...]": _as_texts}


def _read(cls, block, path: str, defaults: bool = True):
    """A ``cls`` built from the JSON object ``block`` named ``path``: each field
    it holds is read as its annotated type, one it lacks takes its default if
    ``defaults`` and it has one, and ``cls`` checks the rest."""
    if not isinstance(block, dict):
        raise ConfigError(f"{path}: must be an object")
    prefix = path and path + "."
    values = {}
    for f in fields(cls):
        if f.name in block:
            read = _READERS[f.type.removesuffix(" | None")]
            values[f.name] = read(block[f.name], prefix + f.name)
        elif not defaults or f.default is MISSING:
            raise ConfigError(f"{prefix}{f.name}: missing required key")
    return cls(**values)


def config_from_dict(doc: dict) -> SystemConfig:
    """Build a :class:`SystemConfig` from a parsed JSON object."""
    if not isinstance(doc, dict):
        raise ConfigError("document: must be a JSON object")
    # the declared sizes are only compared with the plant: they size nothing
    sizes = {key: _as_int(_need(doc, key), key) for key in _SIZES}
    if sizes["n_u"] < 0 or sizes["n_g"] < 0:
        raise ConfigError("n_u/n_g: must be nonnegative")
    plant = _read(PlantModel, doc, "", defaults=False)
    for key, declared in sizes.items():
        if declared != (actual := getattr(plant, key)):
            raise ConfigError(f"{key}: {declared} does not match the matrices, which give {actual}")

    lip = _need(doc, "lipschitz")
    if not isinstance(lip, dict):
        raise ConfigError("lipschitz: must be an object")
    if "gamma" not in lip and not {"rho", "a", "b"} <= lip.keys():
        raise ConfigError('lipschitz: provide {"gamma"} or {"rho", "a", "b"}')
    spec = _read(Lipschitz if "gamma" in lip else OneSidedLipschitz, lip, "lipschitz")
    blocks = {name: None if doc.get(name) is None else _read(kind, doc[name], name)
              for name, kind in (("observer", ObserverParams), ("certificate", Certificate))}
    return SystemConfig(plant, spec, **blocks)


def _to_json(obj) -> dict:
    """The set fields of ``obj``, in declaration order, as :func:`_read` reads them."""
    def value(v):
        if isinstance(v, np.ndarray):
            return v.tolist()
        if isinstance(v, tuple):
            return [x if isinstance(x, float) else unparse(x) for x in v]
        return v

    return {f.name: value(v) for f in fields(obj) if (v := getattr(obj, f.name)) is not None}


def config_to_dict(cfg: SystemConfig) -> dict:
    """Inverse of :func:`config_from_dict`."""
    doc = {key: getattr(cfg.plant, key) for key in _SIZES} | _to_json(cfg.plant)
    for name in ("lipschitz", "observer", "certificate"):
        if (block := getattr(cfg, name)) is not None:
            doc[name] = _to_json(block)
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
    that ``parse`` reads back as the same tree.  The file is written whole
    or not at all: the text goes to a temporary file beside ``path``, which
    then replaces ``path``.
    """
    directory, name = os.path.split(os.path.abspath(path))
    tmp = os.path.join(directory, f".{name}.{os.urandom(6).hex()}.tmp")
    # mode 0o666 less the umask, as open(path, "w") creates a file
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "w") as fh:
            json.dump(config_to_dict(cfg), fh, indent=2)
            fh.write("\n")
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise
