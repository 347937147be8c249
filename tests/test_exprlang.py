"""Expression language: grammar, range checks, evaluation, round-trip."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cubicobs import exprlang, sim
from cubicobs.exprlang import (
    MAX_DEPTH,
    BinOp,
    Call,
    ExprError,
    ExprEvalError,
    ExprRangeError,
    ExprSyntaxError,
    Neg,
    Num,
    Pow,
    SignalDims,
    TimeVar,
    Var,
    evaluate,
    parse,
    parse_input_signal,
    unparse,
    variables,
)

DIMS = SignalDims(n=2, n_u=2, n_y=1, n_delta=2, n_tau=1)


def ev(text, x=(), u=None, y=None, t=0.0, dims=DIMS, allow_time=False):
    return evaluate(parse(text, dims, allow_time=allow_time), x, u, y, t)


# --- parsing -------------------------------------------------------------

def test_parse_structure_precedence():
    e = parse("x1 + x2*x1", DIMS)
    assert e == BinOp("+", Var("x", 1), BinOp("*", Var("x", 2), Var("x", 1)))


def test_unary_minus_binds_looser_than_power():
    assert parse("-x1^2", DIMS) == Neg(Pow(Var("x", 1), 2))
    assert ev("-2^2") == -4.0


def test_delay_slots_parse():
    assert parse("u1@2", DIMS) == Var("u", 1, 2)
    assert parse("y1@1", DIMS) == Var("y", 1, 1)
    assert parse("u2", DIMS) == Var("u", 2, 0)


def test_function_calls_parse():
    e = parse("sin(x1)*cos(u1)", DIMS)
    assert e == BinOp("*", Call("sin", Var("x", 1)), Call("cos", Var("u", 1)))


def test_time_variable_gating():
    assert parse("t", SignalDims(0, 0, 0), allow_time=True) == TimeVar()
    with pytest.raises(ExprSyntaxError):
        parse("t", DIMS)
    assert parse_input_signal("0.5*sin(t)") == BinOp(
        "*", Num(0.5), Call("sin", TimeVar())
    )


def test_syntax_errors_carry_position():
    with pytest.raises(ExprSyntaxError) as exc:
        parse("x1 + ", DIMS)
    assert exc.value.position == 5
    with pytest.raises(ExprSyntaxError):
        parse("", DIMS)
    with pytest.raises(ExprSyntaxError):
        parse("sin x1", DIMS)
    with pytest.raises(ExprSyntaxError):
        parse("x1 x2", DIMS)
    with pytest.raises(ExprSyntaxError):
        parse("x1^x2", DIMS)  # exponent must be a literal


@pytest.mark.parametrize("text, position", [("1e999*x1", 0), ("x1 + 2e308", 5)])
def test_overflowing_literal_is_a_syntax_error(text, position):
    with pytest.raises(ExprSyntaxError, match="number out of range") as exc:
        parse(text, DIMS)
    assert exc.value.position == position
    with pytest.raises(ExprSyntaxError, match="number out of range"):
        parse_input_signal("1e999*t")


@pytest.mark.parametrize("text, message, position", [
    ("x1^" + "9" * 5000, "power exponent out of range", 3),
    ("x1^" + "9" * 400, "power exponent out of range", 3),
    ("x1^9007199254740993", "power exponent out of range", 3),
    ("1 + x" + "1" * 4400, "component index out of range", 4),
    ("u1@" + "1" * 4400, "delay slot out of range", 3),
], ids=["exponent", "exponent-400-digits", "exponent-9007199254740993", "index", "slot"])
def test_integer_past_the_digit_limit_is_a_syntax_error(text, message, position):
    # int() refuses more than 4300 digits with a bare ValueError
    with pytest.raises(ExprSyntaxError, match=f"^{message} \\(at position {position}\\)$") as exc:
        parse(text, DIMS)
    assert exc.value.position == position


def test_a_power_exponent_of_2_to_the_53_is_kept_exact():
    # the largest exponent accepted: a double holds it exactly, and it is even
    e = parse_input_signal("t^9007199254740992")
    assert e.exponent == 2**53 and evaluate(e, t=-1.0) == 1.0


def test_range_errors():
    with pytest.raises(ExprRangeError, match="state index"):
        parse("x3", DIMS)
    with pytest.raises(ExprRangeError, match="cannot be delayed"):
        parse("x1@1", DIMS)
    with pytest.raises(ExprRangeError, match="delay slot"):
        parse("u1@3", DIMS)
    with pytest.raises(ExprRangeError, match="delay slot"):
        parse("y1@2", DIMS)
    with pytest.raises(ExprRangeError, match=">= 1"):
        parse("x0", DIMS)


@pytest.mark.parametrize("text, message", [
    ("(x1", "expected ')' (at position 3)"),
    ("sin(x1", "expected ')' (at position 6)"),
    ("2e+", "malformed number (at position 0)"),
    ("3.5e", "malformed number (at position 0)"),
    ("1e+x1", "malformed number (at position 0)"),
])
def test_unclosed_group_and_bare_exponent_messages(text, message):
    with pytest.raises(ExprSyntaxError) as exc:
        parse(text, DIMS)
    assert str(exc.value) == message


NO_DELAYS = SignalDims(n=2, n_u=1, n_y=1)


@pytest.mark.parametrize("text, dims, message", [
    ("x0", DIMS, "x0: component index must be >= 1"),
    ("u0", DIMS, "u0: component index must be >= 1"),
    ("x3", DIMS, "x3: state index out of range (n=2)"),
    ("x3@1", DIMS, "x3@1: state index out of range (n=2)"),
    ("x1@1", DIMS, "x1@1: state references cannot be delayed"),
    ("u3", DIMS, "u3: input index out of range (n_u=2)"),
    ("u1@3", DIMS, "u1@3: input delay slot out of range (2 configured)"),
    ("u1@1", NO_DELAYS, "u1@1: input delay slot out of range (0 configured)"),
    ("y2", DIMS, "y2: output index out of range (n_y=1)"),
    ("y1@2", DIMS, "y1@2: output delay slot out of range (1 configured)"),
    ("y1@1", NO_DELAYS, "y1@1: output delay slot out of range (0 configured)"),
])
def test_range_error_messages(text, dims, message):
    with pytest.raises(ExprRangeError) as exc:
        parse(text, dims)
    assert str(exc.value) == message


# --- evaluation ----------------------------------------------------------

def test_evaluate_hand_values():
    assert ev("2*x1 + x2^3", x=(3.0, 2.0)) == 14.0
    assert ev("sin(t)", t=math.pi / 2, dims=SignalDims(0, 0, 0), allow_time=True) == 1.0
    assert ev("(x1 - x2)/2", x=(5.0, 1.0)) == 2.0
    assert ev("abs(-3.5)") == 3.5
    assert ev("2^0") == 1.0


def test_evaluate_delay_slots_route_to_env():
    u = {0: (10.0, 20.0), 1: (1.0, 2.0), 2: (0.5, 0.25)}
    y = {0: (7.0,), 1: (3.0,)}
    assert ev("u1 + u1@1 + u2@2", u=u) == 10.0 + 1.0 + 0.25
    assert ev("y1@1 - y1", y=y) == 3.0 - 7.0


def test_evaluate_rejects_nonfinite():
    with pytest.raises(ExprEvalError, match="division by zero"):
        ev("x1/x2", x=(1.0, 0.0))
    with pytest.raises(ExprEvalError):
        ev("exp(x1)", x=(1e4,))
    with pytest.raises(ExprEvalError):
        ev("x1^4", x=(1e100,))


def test_evaluate_missing_binding():
    with pytest.raises(ExprEvalError, match="no input signal"):
        ev("u1")


NESTINGS = {
    # name: text whose tree (or parenthesis nesting) is k deep
    "parentheses": lambda k: "(" * k + "x1" + ")" * k,
    "calls": lambda k: "sin(" * k + "x1" + ")" * k,
    "signs": lambda k: "-(" * (k - 1) + "-x1" + ")" * (k - 1),
    "sum": lambda k: "+".join(["x1"] * (k + 1)),
    "product": lambda k: "*".join(["x1"] * (k + 1)),
    "powers": lambda k: "(" * (k - 1) + "x1" + "^2)" * (k - 1) + "^2",
}


@pytest.mark.parametrize("shape", list(NESTINGS))
def test_nesting_depth_limit(shape):
    text = NESTINGS[shape](MAX_DEPTH)
    e = parse(text, DIMS)
    assert parse(unparse(e), DIMS) == e  # the printed form nests no deeper
    with pytest.raises(ExprSyntaxError, match="expression nested too deeply"):
        parse(NESTINGS[shape](MAX_DEPTH + 1), DIMS)


@pytest.mark.parametrize("text, position", [
    ("sin(x²)", 5), ("0.5*²", 4), ("x１", 1), ("١", 0),
], ids=["superscript", "superscript-number", "fullwidth", "arabic-indic"])
def test_digits_are_ascii_only(text, position):
    # str.isdigit accepts all four; int() and float() read some of them
    with pytest.raises(ExprSyntaxError, match=f"unexpected character .* {position}"):
        parse(text, DIMS)


def test_variables_iterates_depth_first():
    e = parse("x1*sin(u2@1) - y1", DIMS)
    assert list(variables(e)) == [Var("x", 1), Var("u", 2, 1), Var("y", 1)]


# --- round-trip ----------------------------------------------------------

def random_expr(rng, depth, with_time):
    """Sample a tree the grammar can print and re-read.

    Constants are nonnegative (a negative literal would re-parse as Neg).
    """
    if depth <= 0:
        pick = rng.integers(0, 3 if with_time else 2)
        if pick == 0:
            return Num(float(abs(rng.standard_normal()) * 10.0 ** rng.integers(-3, 4)))
        if pick == 2:
            return TimeVar()
        kind = ("x", "u", "y")[rng.integers(0, 3)]
        limit = {"x": DIMS.n, "u": DIMS.n_u, "y": DIMS.n_y}[kind]
        index = int(rng.integers(1, limit + 1))
        if kind == "x":
            return Var(kind, index)
        slots = DIMS.n_delta if kind == "u" else DIMS.n_tau
        return Var(kind, index, int(rng.integers(0, slots + 1)))
    pick = rng.integers(0, 4)
    if pick == 0:
        return Neg(random_expr(rng, depth - 1, with_time))
    if pick == 1:
        op = "+-*/"[rng.integers(0, 4)]
        return BinOp(op, random_expr(rng, depth - 1, with_time),
                     random_expr(rng, depth - 1, with_time))
    if pick == 2:
        return Pow(random_expr(rng, depth - 1, with_time), int(rng.integers(0, 5)))
    func = ("sin", "cos", "tanh", "exp", "abs")[rng.integers(0, 5)]
    return Call(func, random_expr(rng, depth - 1, with_time))


def test_roundtrip_200_random_exprs():
    rng = np.random.default_rng(12345)
    for i in range(200):
        with_time = bool(i % 2)
        e = random_expr(rng, depth=int(rng.integers(1, 5)), with_time=with_time)
        text = unparse(e)
        back = parse(text, DIMS, allow_time=with_time)
        assert back == e, f"round-trip changed {text!r}"
        assert unparse(back) == text


def test_roundtrip_time_only_signals():
    rng = np.random.default_rng(99)
    dims0 = SignalDims(0, 0, 0)
    for _ in range(50):
        e = random_expr(rng, depth=2, with_time=True)
        # keep only trees with no signal references; the rest are covered above
        if any(True for _ in variables(e)):
            continue
        assert parse(unparse(e), dims0, allow_time=True) == e


# --- generated code ------------------------------------------------------

def outcome(fn):
    """Values as exact hex strings, or the ExprEvalError message."""
    try:
        return [v.hex() for v in fn()]
    except ExprEvalError as exc:
        return f"ExprEvalError: {exc}"


def tree_walk(exprs, x, u, y, t):
    return tuple(evaluate(e, x, u, y, t) for e in exprs)


def generated(exprs, stage=None):
    """``f(x, u, y, t) -> tuple``: the simulator's generated code for ``exprs``.

    Expressions with no signal reference run as the drive, unless ``stage``;
    others run as the one member of a stage whose state ``s`` is ``x``
    followed by ``y[0]``, with input slots 0, 1, 2 at lags 0, 1, 2 on the
    drive grid and output slot 1 at lag 1 in the output table.  The grid
    and the table reach back to the largest lag the stage reads.
    """
    exprs = tuple(exprs)
    if stage is None:
        stage = any(True for e in exprs for _ in variables(e))
    if not stage:
        drive = sim._drive_function(exprs)
        return lambda x, u, y, t: drive(t)
    src, u_lags, y_lags, u_off, y_off = sim._stage_source(
        [(exprs, 0, 0, [0, 1, 2], [0, 1])], [], DIMS.n, DIMS.n_y, DIMS.n + DIMS.n_y)
    grid = [[None] * (u_off + 1) for _ in range(DIMS.n_u)]  # one column per channel
    ytab = [None] * (y_off + 1)
    namespace = {**exprlang._CODEGEN_GLOBALS, "ytab": ytab,
                 **{f"grid{i}": column for i, column in enumerate(grid)},
                 "_buf": None, "_pack": lambda buf, o, *v: v}
    exec(exprlang._compile_source(src, "<test stage>"), namespace)

    def call(x, u, y, t):
        for lag in u_lags:  # slot = lag
            for i, column in enumerate(grid):
                column[u_off - 2 * lag] = u[lag][i] if u else None
        for lag in y_lags:
            ytab[y_off - 2 * lag] = y[lag] if y else None
        namespace["_reference"] = lambda j, s: tree_walk(exprs, x, u, y, t)
        return namespace["_stage"](0, [*x, *(y[0] if y else [0.0])], 0)
    return call


def time_only(e):
    """``e`` with every signal reference replaced by ``t``: a drive."""
    match e:
        case Var():
            return TimeVar()
        case Neg(arg):
            return Neg(time_only(arg))
        case BinOp(op, left, right):
            return BinOp(op, time_only(left), time_only(right))
        case Pow(base, exponent):
            return Pow(time_only(base), exponent)
        case Call(func, arg):
            return Call(func, time_only(arg))
    return e


def random_signal(rng, size):
    # zeros divide, huge values overflow powers and exp, tiny ones underflow
    scales = (0.0, 1e-300, 1e-3, 1.0, 1.0, 1e3, 1e100, 1e200)
    return [float(rng.standard_normal() * scales[rng.integers(0, len(scales))])
            for _ in range(size)]


def test_compiled_vectors_agree_with_tree_walk():
    # odd cases run as drives, even ones as stages
    rng = np.random.default_rng(2024)
    n_ok = n_err = 0
    for i in range(400):
        exprs = [random_expr(rng, depth=int(rng.integers(1, 6)), with_time=bool(i % 2))
                 for _ in range(int(rng.integers(1, 4)))]
        if i % 2:
            exprs = [time_only(e) for e in exprs]
        x = random_signal(rng, DIMS.n)
        u = [random_signal(rng, DIMS.n_u) for _ in range(DIMS.n_delta + 1)]
        y = [random_signal(rng, DIMS.n_y) for _ in range(DIMS.n_tau + 1)]
        t = random_signal(rng, 1)[0]
        expected = outcome(lambda: tree_walk(exprs, x, u, y, t))
        assert outcome(lambda: generated(exprs)(x, u, y, t)) == expected, \
            [unparse(e) for e in exprs]
        if isinstance(expected, str):
            n_err += 1
        else:
            n_ok += 1
    # both outcomes are exercised, not just one
    assert n_ok >= 150 and n_err >= 40


@pytest.mark.parametrize("text, x, message", [
    ("x1/x2", (1.0, 0.0), "division by zero"),
    ("x1/x2", [1.0, -0.0], "division by zero"),
    ("x1^4", (1e100, 1.0), "overflow in power"),
    ("x1^4", [-1e100, 1.0], "overflow in power"),
    ("exp(x1)", (1e4, 1.0), "exp failed: math range error"),
    ("x1*x1 - x1*x1", (1e200, 1.0), "non-finite value while evaluating"),
    ("x1*x2*0", (1e200, 1e200), "non-finite value while evaluating"),
])
def test_compiled_vector_raises_tree_walk_error(text, x, message):
    exprs = [parse("x2 + 1", DIMS), parse(text, DIMS)]
    expected = outcome(lambda: tree_walk(exprs, x, None, None, 0.0))
    assert message in expected
    assert outcome(lambda: generated(exprs)(x, None, None, 0.0)) == expected


def test_compiled_vector_returns_finite_results_whose_sum_overflows():
    # the generated check sums the results; these sums overflow, so the
    # stage and the drive go through evaluate, which returns the same
    # finite values
    for exprs, x, t in (([parse("x1", DIMS), parse("x2 * 2", DIMS)], (1.5e308, 8e307), 0.0),
                        ([parse_input_signal("t * 2"), parse_input_signal("t * 1.5")], (), 8e307)):
        want = outcome(lambda: tree_walk(exprs, x, None, None, t))
        assert isinstance(want, list)
        assert outcome(lambda: generated(exprs)(x, None, None, t)) == want


def test_compiled_vector_literals_and_empty():
    # literal results are left out of the finiteness check, which is then
    # empty for the literals alone; -0 keeps its sign
    for exprs in ([Num(2.5), Num(0.0)], [Num(2.5), parse("-0", DIMS), Num(0.0)]):
        want = [v.hex() for v in tree_walk(exprs, (), None, None, 0.0)]
        for stage in (False, True):
            assert [v.hex() for v in generated(exprs, stage)((0.0, 0.0), None, None, 0.0)] == want
    assert want[1] == (-0.0).hex()


@pytest.mark.parametrize("tree", [
    Num(np.float64(2.0)),
    Pow(Var("x", 1), 2.5),
    Var("z", 1),
    BinOp("%", Var("x", 1), Num(3.0)),
    Num(math.inf),
    Num(math.nan),
    Var("x", 1, 1),
], ids=["numpy-literal", "fractional-power", "unknown-kind", "modulo", "inf", "nan",
        "delayed-state"])
def test_compiled_vector_refuses_trees_parse_never_builds(tree):
    # each used to compile, then misread (z1 as y1, % as /) or fail when
    # called; the read-back is the check a stage tree passes when its plant
    # is built, before it becomes generated code
    with pytest.raises(ExprError):
        exprlang._read_back(tree, DIMS)


@pytest.mark.parametrize("first, second", [
    (Num(2.0), Num(2)),
    (BinOp("*", Num(2.0), Var("x", 1)), BinOp("*", Num(2), Var("x", 1))),
    (Pow(Num(2.0), 3), Pow(Num(2), 3)),
], ids=["literal", "product", "power"])
def test_compiled_code_is_reused_by_text_not_by_equality(first, second):
    # the pairs compare equal but print differently, so they compile apart
    assert first == second
    x = (1.5, 0.0)
    generated([first])
    got = generated([second])(x, None, None, 0.0)
    want = tree_walk([second], x, None, None, 0.0)
    assert got == want and [type(v) for v in got] == [type(v) for v in want]


def test_compiled_code_reuse_keeps_refusing_negative_zero():
    # Num(-0.0) == Num(0.0); a cache keyed on trees would return +0.0 for
    # -0, and would let Num(-0.0) through the read-back
    assert generated([Num(0.0)])((), None, None, 0.0)[0].hex() == (0.0).hex()
    assert generated([parse("-0", DIMS)])((), None, None, 0.0)[0].hex() == (-0.0).hex()
    with pytest.raises(ExprError, match=r"-0\.0 reads back as \(-0\.0\)"):
        exprlang._read_back(Num(-0.0), DIMS)


def test_compiled_functions_share_code_not_namespaces():
    drive = (parse_input_signal("1/t"),)
    f = sim._drive_function(drive)
    g = sim._drive_function(drive)
    assert f.__code__ is g.__code__
    assert f.__globals__ is not g.__globals__
    assert outcome(lambda: g(0.0)) == "ExprEvalError: division by zero"
    assert f(2.0) == (0.5,)


# --- arbitrary input -----------------------------------------------------

# pieces of the grammar's alphabet, plus long runs that nest or chain deeply
PIECES = st.one_of(
    st.sampled_from(["x1", "x2", "u2@1", "y1@1", "t", "1", "2.5", "1e3", "9e999",
                     "+", "-", "*", "/", "^", "@", "(", ")", "sin(", "abs(", " ",
                     ".", "e", "q", "x0", "²", "１", "١"]),
    st.builds(lambda piece, k: piece * k,
              st.sampled_from(["(", "sin(", "-", "-(", "+x1", ")", "*x1"]),
              st.integers(0, 3000)),
)


@settings(max_examples=300)
@given(st.lists(PIECES, max_size=8).map("".join))
def test_parse_raises_only_expr_errors(text):
    try:
        e = parse(text, DIMS, allow_time=True)
    except ExprError:
        return
    assert parse(unparse(e), DIMS, allow_time=True) == e
