"""Scalar expressions over state, delayed inputs, and delayed outputs.

Plant and observer nonlinearities are written in a tiny arithmetic language:

    expr   := term (('+' | '-') term)*
    term   := factor (('*' | '/') factor)*
    factor := ['-'] atom ['^' uint]
    atom   := number | var | func '(' expr ')' | '(' expr ')'
    var    := ('x' | 'u' | 'y') uint ['@' uint]
    func   := 'sin' | 'cos' | 'tanh' | 'exp' | 'abs'

``x3`` is state component 3, ``u1@2`` is input component 1 delayed by the
second entry of the input-delay list, ``y2`` is the undelayed output
component 2.  Delay slot 0 (or no ``@``) means undelayed; slots count
1-based into the model's delay lists.  State references cannot be delayed.
Powers bind tighter than unary minus, so ``-x1^2`` is ``-(x1^2)``.

Component indices and delay slots are checked against the declared model
dimensions at parse time, not at evaluation time, and a numeric literal
too large for a float is a syntax error.  So is nesting deeper than
:data:`MAX_DEPTH` (100) levels of operators or of parentheses, which keeps
every recursive walk far inside Python's recursion limit.  Digits are
ASCII only.  Drive signals use the same grammar with the single extra
variable ``t`` (see :func:`parse_input_signal`); model nonlinearities may
not reference ``t``.

:func:`parse` owns these rules.  A tree built through the API is valid
when ``parse(unparse(e))`` rebuilds it.  :class:`cubicobs.model.PlantModel`
and :class:`cubicobs.sim.SimConfig` take each expression as text, which
they parse once, or as a tree, which must read back as itself and is
stored as ``parse`` rebuilds it.  So a negative literal is written
``Neg(Num(2.0))``, as ``parse`` builds it, not ``Num(-2.0)``, and an
integer literal ``Num(2)`` is stored as ``Num(2.0)``.

Evaluation is strict about arithmetic: division by zero, overflow, and any
non-finite result raise :class:`ExprEvalError` instead of propagating
``inf``/``nan`` into an integrator.

:func:`evaluate` walks the tree and is the reference semantics.  It takes
the state ``x``, the input and output vectors ``u[slot]`` and ``y[slot]``
of each delay slot, and the time ``t``.  Hot loops run generated code
instead, written by one emitter that performs the same float operations
in the same order as :func:`evaluate`, so its values are bit-equal.  The
simulator (:mod:`cubicobs.sim`) generates two functions from valid trees
through one builder: its stage function and its drive.  Generated code
checks finiteness once per call; on any failure (division by zero,
overflow, a domain error, a non-finite component) it re-runs
:func:`evaluate`, which raises the same :class:`ExprEvalError`, with the
same message, as a tree walk.  Compiled code is reused for later source
of the same text.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from types import CodeType
from typing import Callable, Iterator, Sequence, Union

__all__ = [
    "SignalDims",
    "Num",
    "Var",
    "TimeVar",
    "Neg",
    "BinOp",
    "Pow",
    "Call",
    "Expr",
    "ExprError",
    "ExprSyntaxError",
    "ExprRangeError",
    "ExprEvalError",
    "MAX_DEPTH",
    "parse",
    "parse_input_signal",
    "evaluate",
    "unparse",
    "variables",
]

_FUNC_IMPL: dict[str, Callable[[float], float]] = {
    "sin": math.sin,
    "cos": math.cos,
    "tanh": math.tanh,
    "exp": math.exp,
    "abs": abs,
}


class ExprError(ValueError):
    """Base class for expression-language failures."""


class ExprSyntaxError(ExprError):
    """Malformed expression text; carries the character position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class ExprRangeError(ExprError):
    """A variable reference is outside the declared model dimensions."""


class ExprEvalError(ExprError):
    """Evaluation failed: division by zero, overflow, or non-finite result."""


@dataclass(frozen=True)
class SignalDims:
    """Dimensions an expression may reference.

    ``n`` states, ``n_u`` inputs, ``n_y`` outputs, plus the lengths of the
    input-delay and output-delay lists.
    """

    n: int
    n_u: int
    n_y: int
    n_delta: int = 0
    n_tau: int = 0


@dataclass(frozen=True)
class Num:
    value: float


@dataclass(frozen=True)
class Var:
    kind: str  # "x" | "u" | "y"
    index: int  # 1-based component
    slot: int = 0  # 0 = undelayed, k >= 1 indexes the delay list


@dataclass(frozen=True)
class TimeVar:
    """Bare ``t``; only valid in drive-signal expressions."""


@dataclass(frozen=True)
class Neg:
    arg: "Expr"


@dataclass(frozen=True)
class BinOp:
    op: str  # "+" | "-" | "*" | "/"
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class Pow:
    base: "Expr"
    exponent: int  # nonnegative literal


@dataclass(frozen=True)
class Call:
    func: str
    arg: "Expr"


Expr = Union[Num, Var, TimeVar, Neg, BinOp, Pow, Call]


# --- lexer ---------------------------------------------------------------

_DIGITS = frozenset("0123456789")  # str.isdigit also takes "²", "１", "١"
_PUNCT = {**dict.fromkeys("+-*/^@", "op"), "(": "lparen", ")": "rparen"}  # token kinds


def _tokenize(text: str) -> list[tuple[str, object, int]]:
    tokens: list[tuple[str, object, int]] = []
    i, nchars = 0, len(text)
    while i < nchars:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch in _PUNCT:
            tokens.append((_PUNCT[ch], ch, i))
            i += 1
            continue
        if ch in _DIGITS or ch == ".":
            start = i
            while i < nchars and text[i] in _DIGITS:
                i += 1
            if i < nchars and text[i] == ".":
                i += 1
                while i < nchars and text[i] in _DIGITS:
                    i += 1
            if text[start:i] == ".":
                raise ExprSyntaxError("malformed number", start)
            if i < nchars and text[i] in "eE":
                j = i + 1
                if j < nchars and text[j] in "+-":
                    j += 1
                if j >= nchars or text[j] not in _DIGITS:
                    raise ExprSyntaxError("malformed number", start)
                i = j
                while i < nchars and text[i] in _DIGITS:
                    i += 1
            tokens.append(("number", text[start:i], start))
            continue
        if ch.isalpha():
            start = i
            while i < nchars and text[i].isalpha():
                i += 1
            word = text[start:i]
            digit_start = i
            while i < nchars and text[i] in _DIGITS:
                i += 1
            if i > digit_start:
                tokens.append(("var", (word, text[digit_start:i]), start))
            else:
                tokens.append(("word", word, start))
            continue
        raise ExprSyntaxError(f"unexpected character {ch!r}", i)
    tokens.append(("eof", "", nchars))
    return tokens


# --- parser --------------------------------------------------------------

# Deepest tree (a leaf is 0 deep, so a sum of 101 terms is 100 deep) and
# deepest parenthesis nesting that parse accepts.  At the limit the parser
# recurses ~510 frames and each recursive tree walker ~105; unparse is
# iterative, so it prints any tree and parse then refuses a deeper one.
MAX_DEPTH = 100


class _Parser:
    def __init__(self, tokens, dims: SignalDims, allow_time: bool):
        self.tokens = tokens
        self.pos = 0
        self.dims = dims
        self.allow_time = allow_time
        self.open = 0  # parentheses entered and not yet closed

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def parse(self) -> Expr:
        e, _ = self.chain("+-")
        kind, _, pos = self.peek()
        if kind != "eof":
            raise ExprSyntaxError("unexpected trailing input", pos)
        return e

    # the methods below return their node and its depth
    def nested(self, node: Expr, depth: int, pos: int) -> tuple[Expr, int]:
        if depth > MAX_DEPTH:
            raise ExprSyntaxError("expression nested too deeply", pos)
        return node, depth

    def chain(self, ops: str) -> tuple[Expr, int]:
        """``expr`` for ``ops = "+-"``, ``term`` for ``"*/"``: left-associative."""
        node, depth = self.chain("*/") if ops == "+-" else self.factor()
        while True:
            kind, val, pos = self.peek()
            if kind != "op" or val not in ops:
                return node, depth
            self.advance()
            right, d = self.chain("*/") if ops == "+-" else self.factor()
            node, depth = self.nested(BinOp(val, node, right), 1 + max(depth, d), pos)

    def factor(self) -> tuple[Expr, int]:
        kind, val, minus = self.peek()
        negate = kind == "op" and val == "-"
        if negate:
            self.advance()
        node, depth = self.atom()
        kind, val, pos = self.peek()
        if kind == "op" and val == "^":
            self.advance()
            node, depth = self.nested(Pow(node, self.uint("power exponent")), depth + 1, pos)
        return self.nested(Neg(node), depth + 1, minus) if negate else (node, depth)

    def atom(self) -> tuple[Expr, int]:
        kind, val, pos = self.advance()
        if kind == "number":
            value = float(val)
            if not math.isfinite(value):
                raise ExprSyntaxError("number out of range", pos)
            return Num(value), 0
        if kind == "var":
            return self.var_ref(val, pos), 0
        if kind == "word":
            if val in _FUNC_IMPL:
                k, _, p = self.advance()
                if k != "lparen":
                    raise ExprSyntaxError(f"expected '(' after {val}", p)
                arg, depth = self.group(p)
                return self.nested(Call(val, arg), depth + 1, pos)
            if val == "t" and self.allow_time:
                return TimeVar(), 0
            raise ExprSyntaxError(f"unknown function or variable {val!r}", pos)
        if kind == "lparen":
            return self.group(pos)
        raise ExprSyntaxError("expected a number, variable, or '('", pos)

    def group(self, pos: int) -> tuple[Expr, int]:
        """The expression after the '(' at ``pos``, through its ')'."""
        self.open += 1
        if self.open > MAX_DEPTH:
            raise ExprSyntaxError("expression nested too deeply", pos)
        e = self.chain("+-")
        k, _, p = self.advance()
        if k != "rparen":
            raise ExprSyntaxError("expected ')'", p)
        self.open -= 1
        return e

    def uint(self, what: str) -> int:
        kind, val, pos = self.advance()
        if kind != "number" or not str(val).isdigit():
            raise ExprSyntaxError(f"{what} must be a nonnegative integer", pos)
        return int(val)

    def var_ref(self, val, pos: int) -> Expr:
        word, digits = val
        if word not in ("x", "u", "y"):
            raise ExprSyntaxError(f"unknown variable kind {word!r}", pos)
        index = int(digits)
        slot = 0
        kind, tok, _ = self.peek()
        if kind == "op" and tok == "@":
            self.advance()
            slot = self.uint("delay slot")
        dims, problem = self.dims, None
        name, label, count, slots = {
            "x": ("state", "n", dims.n, 0),
            "u": ("input", "n_u", dims.n_u, dims.n_delta),
            "y": ("output", "n_y", dims.n_y, dims.n_tau),
        }[word]
        if index < 1:
            problem = "component index must be >= 1"
        elif index > count:
            problem = f"{name} index out of range ({label}={count})"
        elif slot > slots:
            problem = ("state references cannot be delayed" if word == "x"
                       else f"{name} delay slot out of range ({slots} configured)")
        ref = Var(word, index, slot)
        if problem is not None:
            raise ExprRangeError(f"{unparse(ref)}: {problem}")
        return ref


def parse(text: str, dims: SignalDims, *, allow_time: bool = False) -> Expr:
    """Parse ``text`` against the declared dimensions.

    Raises :class:`ExprSyntaxError` with a character position on malformed
    input or nesting deeper than :data:`MAX_DEPTH`, and
    :class:`ExprRangeError` when a reference is out of range.
    """
    tokens = _tokenize(text)
    if tokens[0][0] == "eof":
        raise ExprSyntaxError("empty expression", 0)
    return _Parser(tokens, dims, allow_time).parse()


def parse_input_signal(text: str) -> Expr:
    """Parse a drive signal: an expression in the single variable ``t``."""
    return parse(text, SignalDims(0, 0, 0), allow_time=True)


def _read_back(e: str | Expr, dims: SignalDims, *, allow_time: bool = False) -> Expr:
    """The tree :func:`parse` builds for ``e``: text is parsed once; a tree
    is printed and parsed back, and must read back as itself.  Raises the
    :class:`ExprSyntaxError` or :class:`ExprRangeError` of ``parse``, or
    :class:`ExprError` when a tree reads back as another one."""
    if isinstance(e, str):
        return parse(e, dims, allow_time=allow_time)
    text = unparse(e)
    back = parse(text, dims, allow_time=allow_time)
    if back != e:
        raise ExprError(f"{text} reads back as {unparse(back)}")
    return back


# --- evaluation ----------------------------------------------------------

def evaluate(e: Expr, x: Sequence[float] = (), u=None, y=None,
             t: float = 0.0) -> float:
    """Evaluate ``e``; the result is always finite.

    ``x`` is the state vector, ``u[slot]`` and ``y[slot]`` the input and
    output vectors at each delay slot (0 = undelayed), ``t`` the time.
    Signals ``e`` does not reference may be ``None``.
    """
    val = _eval(e, x, u, y, t)
    if not math.isfinite(val):
        raise ExprEvalError(f"non-finite value while evaluating {unparse(e)}")
    return val


def _eval(e: Expr, x, u, y, t: float) -> float:
    match e:
        case Num(value):
            return value
        case TimeVar():
            return t
        case Var(kind, index, slot):
            if kind == "x":
                vec = x
            elif kind == "u":
                if u is None:
                    raise ExprEvalError("no input signal bound for u reference")
                vec = u[slot]
            else:
                if y is None:
                    raise ExprEvalError("no output signal bound for y reference")
                vec = y[slot]
            try:
                return float(vec[index - 1])
            except IndexError:
                raise ExprEvalError(
                    f"{kind}{index}: environment vector too short"
                ) from None
        case Neg(arg):
            return -_eval(arg, x, u, y, t)
        case BinOp(op, left, right):
            a = _eval(left, x, u, y, t)
            b = _eval(right, x, u, y, t)
            if op == "+":
                return a + b
            if op == "-":
                return a - b
            if op == "*":
                return a * b
            if b == 0.0:
                raise ExprEvalError("division by zero")
            return a / b
        case Pow(base, exponent):
            try:
                return _eval(base, x, u, y, t) ** exponent
            except OverflowError:
                raise ExprEvalError("overflow in power") from None
        case Call(func, arg):
            v = _eval(arg, x, u, y, t)
            try:
                return _FUNC_IMPL[func](v)
            except (OverflowError, ValueError) as exc:
                raise ExprEvalError(f"{func} failed: {exc}") from None
    raise TypeError(f"not an expression node: {e!r}")


# --- compilation ---------------------------------------------------------

# names the generated code may use besides its arguments and locals
_CODEGEN_GLOBALS = {**_FUNC_IMPL, "isfinite": math.isfinite}

# Generated code objects are keyed on their source text, never on the trees:
# Num(2) == Num(2.0) and Num(0.0) == Num(-0.0), yet each pair compiles to
# different code.
@functools.lru_cache(maxsize=256)
def _compile_source(src: str, filename: str) -> CodeType:
    """``compile(src, filename, "exec")``, reused for every later ``src`` of
    the same text.  ``src`` must hold only code generated from trees that
    read back through :func:`parse`."""
    return compile(src, filename, "exec")


def _emit(e: Expr, lines: dict[str, str], bind: Callable[[Var], str] | None) -> str:
    """Add the statements computing ``e`` to ``lines``; return the name or
    literal holding it.

    ``bind(ref)`` names the local holding each reference, called in the
    order ``variables`` yields them.  ``lines`` maps each right-hand side to
    the local it is assigned to, in order.  Every inner node gets its own
    local, so the generated source never nests deeper than one operator
    however deep the tree is, and a subtree met again (same operation on
    the same locals) reuses its local: every local is assigned once and
    every function is pure, so the value and any exception are those of
    the first computation.  A tree without references needs no ``bind``.
    """
    match e:
        case Num(value):
            return f"({value!r})"
        case TimeVar():
            return "t"
        case Var():
            return bind(e)
        case Neg(arg):
            rhs = f"-{_emit(arg, lines, bind)}"
        case BinOp(op, left, right):
            rhs = f"{_emit(left, lines, bind)} {op} {_emit(right, lines, bind)}"
        case Pow(base, exponent):
            rhs = f"{_emit(base, lines, bind)} ** {exponent}"
        case Call(func, arg):
            rhs = f"{func}({_emit(arg, lines, bind)})"
    return lines.setdefault(rhs, f"_{len(lines)}")


def _guarded_source(head: str, body: list[str], check: list[str], fast: str,
                    slow: str) -> str:
    """Source of the function ``head``: ``body`` and ``fast`` when the names
    in ``check`` are all finite, else ``slow``, which re-runs
    :func:`evaluate`.  ``check`` is tested once, through its sum; a sum of
    finite values that overflows only sends the call through ``slow``, as
    does any arithmetic, domain, lookup or type failure in ``body``.  The
    whole body runs inside the guard, so every name ``slow`` reads from it
    must be bound by lines that cannot raise, ahead of any line that can.
    """
    total = " + ".join(dict.fromkeys(check))
    body = body + ([f"if isfinite({total}):", f"    {fast}"] if total else [fast])
    return (f"{head}\n"
            + "    try:\n"
            + "".join(f"        {line}\n" for line in body)
            + "    except (ArithmeticError, ValueError, LookupError, TypeError):\n"
            + "        pass\n"
            + f"    {slow}\n")


# --- printing ------------------------------------------------------------

def unparse(e: Expr) -> str:
    """Fully parenthesized text form; ``parse`` of the result rebuilds ``e``
    when ``e`` is a tree ``parse`` can build.

    The walk is iterative, so it prints trees of any depth; ``parse`` then
    refuses one nested deeper than :data:`MAX_DEPTH`.
    """
    out: list[str] = []
    stack: list = [e]  # nodes still to print, and text, in reverse order
    while stack:
        item = stack.pop()
        match item:
            case str():
                out.append(item)
            case Num(value):
                out.append(repr(value))
            case TimeVar():
                out.append("t")
            case Var(kind, index, slot):
                out.append(f"{kind}{index}" + (f"@{slot}" if slot else ""))
            case Neg(arg):
                stack += (")", arg, "(-")
            case BinOp(op, left, right):
                stack += (")", right, f"{op}", left, "(")
            case Pow(base, exponent):
                stack += (f"^{exponent})", base, "(")
            case Call(func, arg):
                stack += (")", arg, f"{func}(")
            case _:
                raise TypeError(f"not an expression node: {item!r}")
    return "".join(out)


def variables(e: Expr) -> Iterator[Var]:
    """Yield every variable reference in the tree (depth-first)."""
    match e:
        case Var():
            yield e
        case Neg(arg) | Call(_, arg) | Pow(arg, _):
            yield from variables(arg)
        case BinOp(_, left, right):
            yield from variables(left)
            yield from variables(right)
