"""Data model: bundled example values, validation at construction, JSON round-trip."""

import json
from dataclasses import FrozenInstanceError, fields, is_dataclass, replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cubicobs.exprlang import (
    MAX_DEPTH,
    BinOp,
    Call,
    Neg,
    Num,
    Pow,
    SignalDims,
    TimeVar,
    Var,
    evaluate,
    parse,
    unparse,
)
from cubicobs import model
from cubicobs.model import (
    Certificate,
    ConfigError,
    Lipschitz,
    ObserverParams,
    OneSidedLipschitz,
    PlantModel,
    SystemConfig,
    config_from_dict,
    config_to_dict,
    example_system,
    load_config,
    save_config,
    validate,
)
from cubicobs.sim import SimConfig

DIMS = SignalDims(n=2, n_u=1, n_y=1, n_delta=1, n_tau=0)


def small_plant(**overrides):
    base = dict(
        A=[[-2.0, -10.0], [0.0, -1.0]],
        C=[[1.0, 0.0]],
        D=[[-1.0], [1.0]],
        n_u=1,
        delta=(1.0,),
        f_u=(parse("u1@1", DIMS), parse("u1", DIMS)),
        f_g=(parse("x2*x1", DIMS),),
        f_L=(parse("x1*cos(u1)", DIMS), parse("sin(x2)", DIMS)),
    )
    base.update(overrides)
    return PlantModel(**base)


# --- bundled example ------------------------------------------------------

def test_example_system_matrices():
    ex = example_system()
    assert np.array_equal(ex.nominal.A, [[-2.0, -10.0], [0.0, -1.0]])
    assert np.array_equal(ex.nominal.C, [[1.0, 0.0]])
    assert np.array_equal(ex.nominal.D, [[-1.0], [1.0]])
    assert np.array_equal(ex.uncertain.A, [[-0.9, -8.9], [1.1, 0.1]])
    assert ex.nominal.delta == (1.0,)
    assert ex.uncertain.delta == (2.0,)
    # perturbed variant shares the expressions; only matrices and delay differ
    assert ex.uncertain.f_u == ex.nominal.f_u
    assert ex.uncertain.f_L == ex.nominal.f_L


def test_example_observer_and_certificate():
    ex = example_system()
    obs = ex.observer
    assert np.array_equal(obs.E, [[1.0], [-1.0]])
    assert np.array_equal(obs.G, [[-10.0, 0.0], [1.0, -11.0]])
    assert np.array_equal(obs.J, [[0.0], [9.0]])
    assert np.array_equal(obs.theta, np.eye(1))
    assert obs.alpha == 1.0
    # published gain, two significant figures
    assert obs.N[0, 0] == pytest.approx(-0.017, rel=0.05)
    assert obs.N[1, 0] == pytest.approx(0.0017, rel=0.05)
    assert ex.certificate.beta == 100.0
    assert np.array_equal(
        ex.certificate.P, [[59.0535, 1.7898], [1.7898, 17.8858]]
    )
    assert ex.lipschitz.gamma == 1.0


def test_example_validates_clean():
    ex = example_system()
    assert validate(ex.nominal, ex.observer) is None
    assert validate(ex.uncertain, ex.observer) is None


# --- validation at construction -------------------------------------------

def refused(build):
    """The :class:`ConfigError` text ``build()`` raises."""
    with pytest.raises(ConfigError) as info:
        build()
    return str(info.value)


def test_validate_dimension_mismatches():
    assert refused(lambda: small_plant(A=[[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])) == \
        "A must be square, got (2, 3)"
    assert refused(lambda: small_plant(C=[[1.0]])) == "C must have 2 columns, got (1, 1)"
    assert refused(lambda: small_plant(D=[[1.0]])) == "D must have 2 rows, got (1, 1)"
    assert refused(lambda: small_plant(n_u=-1)) == "n_u must be nonnegative"
    assert refused(lambda: small_plant(f_u=(parse("u1", DIMS),))) == \
        "f_u must have 2 components"
    assert refused(lambda: small_plant(f_g=())) == "f_g must have 1 components"
    assert refused(lambda: small_plant(f_L=())) == "f_L must have 2 components"


def test_validate_negative_delay():
    assert refused(lambda: small_plant(delta=(-1.0,))) == \
        "delta[0] must be nonnegative and finite"
    assert refused(lambda: small_plant(tau=(-0.5,))) == "tau[0] must be nonnegative and finite"


@pytest.mark.parametrize("plant_kw, alpha, message", [
    ({"delta": (np.nan,)}, 1.0, "delta[0] must be nonnegative and finite"),
    ({"delta": (np.inf,)}, 1.0, "delta[0] must be nonnegative and finite"),
    ({"tau": (np.nan,)}, 1.0, "tau[0] must be nonnegative and finite"),
    ({"tau": (np.inf,)}, 1.0, "tau[0] must be nonnegative and finite"),
    ({}, np.inf, "alpha must be positive and finite"),
], ids=["delta-nan", "delta-inf", "tau-nan", "tau-inf", "alpha-inf"])
def test_validate_rejects_non_finite_values(plant_kw, alpha, message):
    obs = example_system().observer
    assert refused(lambda: (small_plant(**plant_kw), replace(obs, alpha=alpha))) == message


@pytest.mark.parametrize("label", ["f_u", "f_g", "f_L"])
@pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan], ids=["inf", "-inf", "nan"])
def test_validate_rejects_non_finite_literal(label, value):
    # parse refuses such literals, so only a tree built through the API has
    # one, and save_config would write it as text that load_config refuses
    exprs = list(getattr(small_plant(), label))
    exprs[0] = BinOp("*", Num(value), Var("u", 1))
    word, position = repr(abs(value)), 2 if value < 0 else 1
    assert refused(lambda: small_plant(**{label: tuple(exprs)})) == \
        f"{label}[0]: unknown function or variable {word!r} (at position {position})"


def wrapped(leaf, levels):
    """``leaf`` with ``levels`` additions of 1.0 around it, built through the API."""
    e = leaf
    for _ in range(levels):
        e = BinOp("+", e, Num(1.0))
    return e


@pytest.mark.parametrize("levels", [MAX_DEPTH + 1, 150, 1000])
def test_validate_rejects_tree_deeper_than_parse_accepts(levels):
    # at 1000 levels a recursive walk would raise RecursionError; unparse
    # prints the tree and parse refuses its 101st parenthesis
    tree = wrapped(Var("x", 1), levels)
    assert refused(lambda: small_plant(f_L=(tree, parse("x2", DIMS)))) == \
        f"f_L[0]: expression nested too deeply (at position {MAX_DEPTH})"


def example_with(label, tree):
    """The bundled nominal config with ``tree`` as ``label[0]``."""
    cfg = example_system().nominal_config()
    exprs = (tree,) + getattr(cfg.plant, label)[1:]
    return replace(cfg, plant=replace(cfg.plant, **{label: exprs}))


def printed(label, tree):
    """The bundled nominal document with ``unparse(tree)`` as ``label[0]``."""
    doc = base_doc()
    doc[label][0] = unparse(tree)
    return doc


def round_trips(label, tree):
    """Whether the document printed with ``tree`` as ``label[0]`` loads back
    with ``tree`` there."""
    try:
        back = config_from_dict(printed(label, tree))
    except ConfigError:
        return False
    return getattr(back.plant, label)[0] == tree


# a negative literal reads back as a sign over a positive one, so a plant
# refuses it at any depth; past the limit load_config refuses the file too
@pytest.mark.parametrize("leaf, levels, refusal, load_error", [
    (Var("x", 1), MAX_DEPTH, None, None),
    (Num(-2.0), MAX_DEPTH - 1, "reads back as", None),
    (Num(-2.0), MAX_DEPTH, "nested too deeply", "nested too deeply"),
], ids=["var-at-limit", "negative-at-limit", "negative-past-limit"])
def test_validate_depth_agrees_with_load_config(tmp_path, leaf, levels, refusal, load_error):
    tree = wrapped(leaf, levels)
    path = tmp_path / "deep.json"
    path.write_text(json.dumps(printed("f_L", tree)))
    if refusal is None:
        cfg = example_with("f_L", tree)
        assert load_config(path) == cfg
        return
    assert refusal in refused(lambda: example_with("f_L", tree))
    if load_error is None:
        assert load_config(path).plant.f_L[0] != tree
    else:
        with pytest.raises(ConfigError, match=load_error):
            load_config(path)


X1 = Var("x", 1)

# API-built trees that parse never builds, with what a plant says of each
NOT_PARSE_TREES = {
    "modulo": (BinOp("%", X1, Num(3.0)), "unexpected character '%' (at position 3)"),
    "power-of-negative": (BinOp("*", Pow(Num(-2.0), 2), X1),
                          "((-2.0^2)*x1) reads back as ((-(2.0^2))*x1)"),
    "negative-literal": (BinOp("*", Num(-2.0), X1), "(-2.0*x1) reads back as ((-2.0)*x1)"),
    "sign-of-negative": (Neg(Num(-2.0)), "expected a number, variable, or '(' (at position 2)"),
    "unknown-kind": (Var("z", 1), "unknown variable kind 'z' (at position 0)"),
    "time": (BinOp("*", TimeVar(), X1), "unknown function or variable 't' (at position 1)"),
    "negative-exponent": (Pow(X1, -1),
                          "power exponent must be a nonnegative integer (at position 4)"),
    "fractional-exponent": (Pow(X1, 2.5),
                            "power exponent must be a nonnegative integer (at position 4)"),
    "unknown-function": (Call("sqrt", X1), "unknown function or variable 'sqrt' (at position 0)"),
    "numpy-literal": (Num(np.float64(2.0)), "malformed number (at position 2)"),
}


@pytest.mark.parametrize("case", list(NOT_PARSE_TREES))
def test_validate_refuses_trees_parse_does_not_build(case):
    tree, message = NOT_PARSE_TREES[case]
    assert refused(lambda: example_with("f_L", tree)) == f"f_L[0]: {message}"
    assert not round_trips("f_L", tree)


# API trees from an alphabet wider than the grammar
API_LEAVES = st.one_of(
    st.builds(Num, st.one_of(st.floats(), st.integers(-3, 3),
                             st.sampled_from([np.float64(2.0), 2**60 + 1, True]))),
    st.builds(Var, st.sampled_from("xuyz"), st.integers(-1, 3), st.integers(-1, 2)),
    st.just(TimeVar()),
)


def api_nodes(children):
    return st.one_of(
        st.builds(Neg, children),
        st.builds(BinOp, st.sampled_from(["+", "-", "*", "/", "%", "+-"]), children, children),
        st.builds(Pow, children, st.sampled_from([0, 2, 3, -1, 2.5])),
        st.builds(Call, st.sampled_from(["sin", "exp", "abs", "sqrt"]), children),
    )


API_TREES = st.builds(
    wrapped,
    st.recursive(API_LEAVES, api_nodes, max_leaves=6),
    st.one_of(st.integers(0, 3), st.integers(MAX_DEPTH - 4, 150)),
)


@settings(max_examples=400)
@given(label=st.sampled_from(["f_u", "f_g", "f_L"]), tree=API_TREES)
def test_validate_accepts_iff_save_load_round_trips(label, tree):
    # a tree builds a model iff its printed document loads back equal
    try:
        cfg = example_with(label, tree)
    except ConfigError:
        cfg = None
    assert (cfg is not None) == round_trips(label, tree)
    if cfg is not None:
        assert config_from_dict(printed(label, tree)) == cfg


def test_plant_takes_text_and_stores_the_parsed_tree():
    # text is parsed once; a tree is stored as parse rebuilds it
    assert small_plant(f_u=("u1@1", "u1"), f_g=("x2*x1",),
                       f_L=("x1*cos(u1)", "sin(x2)")) == small_plant()
    assert refused(lambda: small_plant(f_L=("x1 +", "sin(x2)"))) == \
        "f_L[0]: expected a number, variable, or '(' (at position 4)"
    # Num(3) == Num(3.0) reads back, and is stored as the float literal, so
    # it evaluates as its saved and reloaded copy does
    cfg = example_with("f_L", BinOp("*", Pow(Num(3), 40), Var("x", 1)))
    stored = cfg.plant.f_L[0]
    assert type(stored.left.base.value) is float
    loaded = config_from_dict(config_to_dict(cfg)).plant.f_L[0]
    assert evaluate(stored, (1.0, 0.0)) == evaluate(loaded, (1.0, 0.0)) == 3.0 ** 40


def test_validate_state_in_f_u():
    assert refused(lambda: small_plant(f_u=(parse("x1", DIMS), parse("u1", DIMS)))) == \
        "f_u[0]: f_u must not reference state"


def test_validate_ref_out_of_model_range():
    # parsed against roomier dims, then checked against the actual plant
    wide = SignalDims(n=5, n_u=3, n_y=2, n_delta=2, n_tau=1)
    assert refused(lambda: small_plant(f_L=(parse("x5", wide), parse("sin(x2)", wide)))) == \
        "f_L[0]: x5: state index out of range (n=2)"


@pytest.mark.parametrize("text", ["x3", "u2", "u1@2", "y2", "y1@1"])
def test_ref_range_message_shared_by_parse_and_validate(text):
    wide = SignalDims(n=3, n_u=2, n_y=2, n_delta=2, n_tau=1)
    message = refused(lambda: small_plant(f_L=(parse(text, wide), parse("sin(x2)", wide))))
    doc = base_doc()
    doc["f_L"][0] = text
    assert refused(lambda: config_from_dict(doc)) == message
    if text == "x3":
        assert message == "f_L[0]: x3: state index out of range (n=2)"


def test_observer_blocks():
    ex = example_system()
    obs = ex.observer
    # an observer checks its own shapes, theta and alpha
    assert refused(lambda: replace(obs, G=np.ones((2, 3)))) == "G must be square, got (2, 3)"
    assert refused(lambda: replace(obs, G=np.eye(3))) == "J must be 3x1, got (2, 1)"
    assert refused(lambda: replace(obs, theta=[[1.0, 0.0]])) == "theta must be square, got (1, 2)"
    assert refused(lambda: replace(obs, theta=[[-1.0]])) == "theta must be positive semidefinite"
    assert refused(lambda: replace(obs, alpha=0.0)) == "alpha must be positive and finite"
    # validate checks that a self-consistent observer fits the plant, and a
    # config calls it
    zeros = np.zeros((3, 1))
    three = ObserverParams(G=np.eye(3), J=zeros, E=zeros, N=zeros, theta=obs.theta)
    assert refused(lambda: validate(ex.nominal, three)) == "G must be 2x2, got (3, 3)"
    assert refused(lambda: replace(ex.nominal_config(), observer=three)) == \
        "G must be 2x2, got (3, 3)"
    zeros = np.zeros((2, 2))
    two_outputs = ObserverParams(G=obs.G, J=zeros, E=zeros, N=zeros, theta=np.eye(2))
    assert refused(lambda: validate(ex.nominal, two_outputs)) == \
        "theta must be 1x1, got (2, 2)"


def test_validate_theta_symmetry():
    zeros = np.zeros((2, 2))
    assert refused(lambda: ObserverParams(G=np.eye(2), J=np.eye(2), E=zeros, N=zeros,
                                          theta=[[1.0, 0.5], [0.0, 1.0]])) == \
        "theta must be symmetric (asymmetry 5.00e-01)"


def model_instances():
    """One instance of each dataclass of ``model.__all__``, and a SimConfig."""
    ex = example_system()
    return [ex, ex.nominal, ex.observer, ex.certificate, ex.lipschitz, ex.nominal_config(),
            OneSidedLipschitz(rho=0.5, a=0.75, b=1.5),
            SimConfig(h=0.1, t_end=1.0, x0=[0.0, 0.0], xhat0=[1.0, 1.0], input_signal=())]


def test_models_are_frozen_with_read_only_arrays():
    instances = model_instances()
    classes = {getattr(model, name) for name in model.__all__}
    assert {type(obj) for obj in instances} == \
        {cls for cls in classes if is_dataclass(cls)} | {SimConfig}
    for obj in instances:
        for f in fields(obj):
            value = getattr(obj, f.name)
            with pytest.raises(FrozenInstanceError):
                setattr(obj, f.name, value)
            if isinstance(value, np.ndarray):
                assert not value.flags.writeable, f"{type(obj).__name__}.{f.name}"


def test_plant_copies_the_callers_array():
    # a plant cannot change behind the check it passed: a write to the
    # caller's array leaves it alone, a write to its field raises
    A = np.array([[-2.0, -10.0], [0.0, -1.0]])
    plant = small_plant(A=A)
    A[0, 0] = np.inf
    assert plant.A[0, 0] == -2.0
    with pytest.raises(ValueError):
        plant.A[0, 0] = np.inf
    with pytest.raises(ValueError, match="A has non-finite entries"):
        replace(plant, A=A)


# --- certificate constraints ---------------------------------------------

def test_certificate_multiplier_exclusivity():
    P = np.eye(2)
    assert Certificate(P=P, beta=1.0).mu1 is None
    assert Certificate(P=P, mu1=2.0, mu2=3.0).beta is None
    with pytest.raises(ValueError, match="not both"):
        Certificate(P=P, beta=1.0, mu1=2.0, mu2=3.0)
    with pytest.raises(ValueError, match="beta"):
        Certificate(P=P)
    with pytest.raises(ValueError):
        Certificate(P=P, mu1=2.0)


def test_config_refuses_certificate_of_other_size():
    # save_config would write a file load_config refuses
    cfg = example_system().nominal_config()
    assert refused(lambda: replace(cfg, certificate=Certificate(P=np.eye(3), beta=100.0))) == \
        "certificate.P must be 2x2, got (3, 3)"
    assert refused(lambda: replace(cfg, certificate=Certificate(P=np.ones((2, 3)), beta=1.0))) \
        == "certificate.P must be 2x2, got (2, 3)"


def test_lipschitz_gamma_positive():
    with pytest.raises(ValueError):
        Lipschitz(gamma=0.0)
    with pytest.raises(ValueError):
        Lipschitz(gamma=-1.0)


# --- JSON round-trip ------------------------------------------------------

def test_dict_roundtrip_nominal_and_uncertain():
    ex = example_system()
    for cfg in (ex.nominal_config(), ex.uncertain_config()):
        back = config_from_dict(config_to_dict(cfg))
        assert back == cfg


def test_dict_roundtrip_one_sided_and_mu_certificate():
    ex = example_system()
    cfg = SystemConfig(
        plant=ex.nominal,
        lipschitz=OneSidedLipschitz(rho=0.5, a=0.75, b=1.5),
        observer=ex.observer,
        certificate=Certificate(P=np.eye(2), mu1=1.5, mu2=1.0),
    )
    back = config_from_dict(config_to_dict(cfg))
    assert back == cfg
    assert isinstance(back.lipschitz, OneSidedLipschitz)


def test_file_roundtrip(tmp_path):
    ex = example_system()
    path = tmp_path / "nominal.json"
    save_config(ex.nominal_config(), path)
    assert load_config(path) == ex.nominal_config()


def test_observer_block_defaults():
    ex = example_system()
    doc = config_to_dict(ex.nominal_config())
    for key in ("N", "theta", "alpha"):
        del doc["observer"][key]
    cfg = config_from_dict(doc)
    assert np.array_equal(cfg.observer.N, np.zeros((2, 1)))
    assert np.array_equal(cfg.observer.theta, np.eye(1))
    assert cfg.observer.alpha == 1.0


# --- schema errors carry field paths -------------------------------------

def base_doc():
    return config_to_dict(example_system().nominal_config())


def test_error_missing_key():
    doc = base_doc()
    del doc["A"]
    with pytest.raises(ConfigError, match="A"):
        config_from_dict(doc)


def test_error_bad_expression_names_entry():
    doc = base_doc()
    doc["f_L"][0] = "x1 +"
    with pytest.raises(ConfigError, match=r"f_L\[0\]"):
        config_from_dict(doc)


def test_error_state_reference_in_f_u():
    doc = base_doc()
    doc["f_u"][0] = "x1"
    with pytest.raises(ConfigError, match=r"f_u\[0\].*state"):
        config_from_dict(doc)


def test_error_negative_delay_names_entry():
    doc = base_doc()
    doc["delta"][0] = -2.0
    with pytest.raises(ConfigError, match=r"delta\[0\]"):
        config_from_dict(doc)


def test_error_matrix_shape():
    doc = base_doc()
    doc["A"] = [[1.0, 2.0]]
    with pytest.raises(ConfigError, match="A"):
        config_from_dict(doc)


def test_error_gamma_nonpositive():
    doc = base_doc()
    doc["lipschitz"] = {"gamma": 0.0}
    with pytest.raises(ConfigError, match="gamma"):
        config_from_dict(doc)


@pytest.mark.parametrize("value", [float("nan"), float("inf"), 10**400],
                         ids=["nan", "inf", "huge-int"])
def test_error_non_finite_scalar_names_field(tmp_path, value):
    doc = base_doc()
    doc["lipschitz"] = {"rho": value, "a": 1.0, "b": 0.0}
    doc["observer"]["alpha"] = value
    path = tmp_path / "non_finite.json"
    path.write_text(json.dumps(doc))  # json writes and reads NaN and Infinity
    with pytest.raises(ConfigError, match=r"lipschitz\.rho: must be a finite number"):
        load_config(path)
    doc["lipschitz"] = {"gamma": 1.0}
    with pytest.raises(ConfigError, match=r"observer\.alpha: must be a finite number"):
        config_from_dict(doc)


@pytest.mark.parametrize("bound, multipliers, rule", [
    ({"rho": 0.5, "a": 0.75, "b": 1.5}, {"beta": 100.0}, r"certificate\.beta"),
    ({"gamma": 1.0}, {"mu1": 1.0, "mu2": 1.0}, r"certificate\.mu1/mu2"),
], ids=["beta-with-one-sided", "mu-with-gamma"])
def test_load_config_rejects_certificate_of_other_bound(tmp_path, bound, multipliers, rule):
    doc = base_doc()
    doc["lipschitz"] = bound
    doc["certificate"] = {"P": doc["certificate"]["P"], **multipliers}
    path = tmp_path / "mixed.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ConfigError, match=rule):
        load_config(path)


def test_error_unknown_lipschitz_block():
    doc = base_doc()
    doc["lipschitz"] = {"rho": 1.0}
    with pytest.raises(ConfigError, match="lipschitz"):
        config_from_dict(doc)


def test_error_reference_beyond_dims():
    doc = base_doc()
    doc["f_L"][0] = "u1@2"  # only one input delay configured
    with pytest.raises(ConfigError, match=r"f_L\[0\]"):
        config_from_dict(doc)


CONFIG_ERRORS = {
    "document": (lambda d: [d], "document: must be a JSON object"),
    "n-not-integer": (lambda d: {**d, "n": "2"}, "n: must be an integer"),
    "n-zero": (lambda d: {**d, "n": 0}, "n: must be at least 1"),
    "n_y-zero": (lambda d: {**d, "n_y": 0}, "n_y: must be at least 1"),
    "n_u-negative": (lambda d: {**d, "n_u": -1}, "n_u/n_g: must be nonnegative"),
    "matrix-row": (lambda d: {**d, "A": [[1.0, 2.0], [3.0]]},
                   "A[1]: must be an array of 2 numbers"),
    "delays": (lambda d: {**d, "delta": 1.0}, "delta: must be a list of numbers"),
    "expressions": (lambda d: {**d, "f_u": "u1"},
                    "f_u: must be a list of 2 expression strings"),
    "expression": (lambda d: {**d, "f_g": [1.0]}, "f_g[0]: must be a string"),
    "lipschitz": (lambda d: {**d, "lipschitz": 1.0}, "lipschitz: must be an object"),
    "observer": (lambda d: {**d, "observer": [1.0]}, "observer: must be an object"),
    "certificate": (lambda d: {**d, "certificate": 1.0}, "certificate: must be an object"),
    "multipliers": (lambda d: {**d, "certificate": {"P": d["certificate"]["P"]}},
                    'certificate: provide {"P", "beta"} or {"P", "mu1", "mu2"}'),
}


@pytest.mark.parametrize("case", list(CONFIG_ERRORS))
def test_config_error_names_its_field(case):
    change, message = CONFIG_ERRORS[case]
    with pytest.raises(ConfigError) as exc:
        config_from_dict(change(base_doc()))
    assert str(exc.value) == message


def test_load_config_bad_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(ConfigError, match="JSON"):
        load_config(path)


def test_load_config_missing_file(tmp_path):
    with pytest.raises(ConfigError, match="cannot read"):
        load_config(tmp_path / "absent.json")


def test_unparse_expressions_survive(tmp_path):
    # serialized expressions are the fully parenthesized text form
    doc = base_doc()
    assert doc["f_g"] == [unparse(example_system().nominal.f_g[0])]
