"""A small arithmetic expression language for configuration files.

Grammar (standard precedence, lowest to highest):

    expr    := term (('+' | '-') term)*
    term    := factor (('*' | '/') factor)*
    factor  := '-' factor | power
    power   := atom ('^' factor)?          # right-associative
    atom    := NUMBER | 'pi' | NAME | NAME '(' expr ')' | '(' expr ')'

Functions: sin, cos, exp, log, abs, sqrt (all unary).  '^' is
right-associative and unary minus binds tighter than '^' on its left
operand, so "-x^2" parses as -(x^2) and "2^3^2" as 2^(3^2).  There is no
implicit multiplication.

compile_expr() is the one evaluator: it turns a parsed expression into a
closure that takes floats (Python math) or arrays (NumPy ufuncs) and
raises ExprEvalError naming the node on the same inputs either way.
evaluate() is that closure on float bindings.  The test suite keeps a tree
walk over the AST as the reference the closures are checked against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, FrozenSet, Mapping, Set, Union

import numpy as np

from .errors import ExprArityError, ExprEvalError, ExprNameError, ExprSyntaxError

FUNCTIONS = {
    "sin": math.sin,
    "cos": math.cos,
    "exp": math.exp,
    "log": math.log,
    "abs": abs,
    "sqrt": math.sqrt,
}

CONSTANTS = {"pi": math.pi}


@dataclass(frozen=True)
class Num:
    value: float

    def __str__(self):
        return repr(self.value)


@dataclass(frozen=True)
class Var:
    name: str

    def __str__(self):
        return self.name


@dataclass(frozen=True)
class Neg:
    operand: "Node"

    def __str__(self):
        return f"(-{self.operand})"


@dataclass(frozen=True)
class BinOp:
    op: str
    left: "Node"
    right: "Node"

    def __str__(self):
        return f"({self.left} {self.op} {self.right})"


@dataclass(frozen=True)
class Call:
    fn: str
    arg: "Node"

    def __str__(self):
        return f"{self.fn}({self.arg})"


Node = Union[Num, Var, Neg, BinOp, Call]


@dataclass(frozen=True)
class Expr:
    """A parsed, immutable expression with its declared variable set."""

    root: Node
    allowed_vars: FrozenSet[str]

    def __str__(self):
        return str(self.root)

    def free_vars(self) -> Set[str]:
        out: Set[str] = set()
        _collect_vars(self.root, out)
        return out

    def __call__(self, **bindings):
        return evaluate(self, bindings)


def _collect_vars(node: Node, out: Set[str]):
    if isinstance(node, Var):
        out.add(node.name)
    elif isinstance(node, Neg):
        _collect_vars(node.operand, out)
    elif isinstance(node, BinOp):
        _collect_vars(node.left, out)
        _collect_vars(node.right, out)
    elif isinstance(node, Call):
        _collect_vars(node.arg, out)


def _tokenize(source: str):
    """Yield (kind, text, offset) tokens; kinds: num, name, op, lparen, rparen."""
    tokens = []
    i, n = 0, len(source)
    while i < n:
        c = source[i]
        if c.isspace():
            i += 1
            continue
        if c.isdigit() or (c == "." and i + 1 < n and source[i + 1].isdigit()):
            j = i
            seen_dot = False
            while j < n and (source[j].isdigit() or (source[j] == "." and not seen_dot)):
                if source[j] == ".":
                    seen_dot = True
                j += 1
            if j < n and source[j] in "eE":
                k = j + 1
                if k < n and source[k] in "+-":
                    k += 1
                if k < n and source[k].isdigit():
                    j = k
                    while j < n and source[j].isdigit():
                        j += 1
            tokens.append(("num", source[i:j], i))
            i = j
        elif c.isalpha() or c == "_":
            j = i
            while j < n and (source[j].isalnum() or source[j] == "_"):
                j += 1
            tokens.append(("name", source[i:j], i))
            i = j
        elif c in "+-*/^":
            tokens.append(("op", c, i))
            i += 1
        elif c == "(":
            tokens.append(("lparen", c, i))
            i += 1
        elif c == ")":
            tokens.append(("rparen", c, i))
            i += 1
        elif c == ",":
            tokens.append(("comma", c, i))
            i += 1
        else:
            raise ExprSyntaxError(f"unexpected character {c!r}", i)
    tokens.append(("end", "", n))
    return tokens


class _Parser:
    def __init__(self, source: str, allowed_vars: Set[str]):
        self.source = source
        self.allowed = set(allowed_vars)
        self.tokens = _tokenize(source)
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind, text=None):
        kind_, text_, off = self.peek()
        if kind_ != kind or (text is not None and text_ != text):
            want = text if text is not None else kind
            raise ExprSyntaxError(f"expected {want!r}", off)
        return self.advance()

    def parse(self) -> Node:
        node = self.expr()
        kind, text, off = self.peek()
        if kind != "end":
            raise ExprSyntaxError(f"unexpected {text!r}", off)
        return node

    def expr(self) -> Node:
        node = self.term()
        while self.peek()[:2] in (("op", "+"), ("op", "-")):
            op = self.advance()[1]
            node = BinOp(op, node, self.term())
        return node

    def term(self) -> Node:
        node = self.factor()
        while self.peek()[:2] in (("op", "*"), ("op", "/")):
            op = self.advance()[1]
            node = BinOp(op, node, self.factor())
        return node

    def factor(self) -> Node:
        if self.peek()[:2] == ("op", "-"):
            self.advance()
            return Neg(self.factor())
        return self.power()

    def power(self) -> Node:
        base = self.atom()
        if self.peek()[:2] == ("op", "^"):
            self.advance()
            return BinOp("^", base, self.factor())
        return base

    def atom(self) -> Node:
        kind, text, off = self.peek()
        if kind == "num":
            self.advance()
            return Num(float(text))
        if kind == "lparen":
            self.advance()
            node = self.expr()
            self.expect("rparen")
            return node
        if kind == "name":
            self.advance()
            if self.peek()[0] == "lparen":
                if text not in FUNCTIONS:
                    raise ExprNameError(text, off)
                self.advance()
                arg = self.expr()
                if self.peek()[0] == "comma":
                    raise ExprArityError(text, 2, self.peek()[2])
                self.expect("rparen")
                return Call(text, arg)
            if text in CONSTANTS:
                return Num(CONSTANTS[text])
            if text in FUNCTIONS:
                raise ExprArityError(text, 0, off)
            if text not in self.allowed:
                raise ExprNameError(text, off)
            return Var(text)
        raise ExprSyntaxError("incomplete expression" if kind == "end" else f"unexpected {text!r}", off)


def parse(source: str, allowed_vars) -> Expr:
    """Parse a source string into an immutable Expr.

    Every identifier must be a known function, the constant pi, or a member
    of allowed_vars; anything else is an ExprNameError naming the offender.
    """
    if not source or not source.strip():
        raise ExprSyntaxError("empty expression", 0)
    allowed = frozenset(allowed_vars)
    root = _Parser(source, allowed).parse()
    return Expr(root=root, allowed_vars=allowed)


def _scalar_call(node: Call, x: float) -> float:
    """A function node on a float, with the language's domain checks."""
    fn = node.fn
    x = float(x)
    if fn == "log" and x <= 0.0:
        raise ExprEvalError(f"log of nonpositive value {x!r}", node)
    if fn == "sqrt" and x < 0.0:
        raise ExprEvalError(f"sqrt of negative value {x!r}", node)
    if fn in ("sin", "cos") and math.isinf(x):
        raise ExprEvalError(f"{fn} of infinite value {x!r}", node)
    try:
        return float(FUNCTIONS[fn](x))
    except OverflowError:
        raise ExprEvalError(f"{fn} overflow at {x!r}", node) from None


def _scalar_power(node: BinOp, lhs: float, rhs: float) -> float:
    """lhs ^ rhs on floats, with the language's domain checks."""
    lhs, rhs = float(lhs), float(rhs)
    if lhs == 0.0 and rhs < 0.0:
        raise ExprEvalError(f"zero to the negative power {rhs!r}", node)
    if lhs < 0.0 and math.isfinite(lhs) and math.isfinite(rhs) and rhs != math.floor(rhs):
        raise ExprEvalError(f"non-integer power of negative base {lhs!r}", node)
    try:
        return lhs ** rhs
    except OverflowError:
        raise ExprEvalError(f"power overflow at base {lhs!r}", node) from None


# -- compilation to closures over NumPy ufuncs -------------------------------

_UFUNCS = {
    "sin": np.sin,
    "cos": np.cos,
    "exp": np.exp,
    "log": np.log,
    "abs": np.abs,
    "sqrt": np.sqrt,
}


def _fail_where(bad, value, message: str, node: Node):
    """Raise ExprEvalError naming node if any element of bad is set,
    reporting value at the first such element."""
    if bad is False or not np.count_nonzero(bad):
        return
    if np.ndim(bad):
        value = np.broadcast_to(value, np.shape(bad))[bad].flat[0]
    raise ExprEvalError(f"{message} {float(value)!r}", node)


def _array_call(node: Call, x: np.ndarray) -> np.ndarray:
    """A function node on an array, with the checks of _scalar_call made
    on every element."""
    fn = node.fn
    if fn == "log":
        _fail_where(x <= 0.0, x, "log of nonpositive value", node)
    elif fn == "sqrt":
        _fail_where(x < 0.0, x, "sqrt of negative value", node)
    elif fn in ("sin", "cos"):
        _fail_where(np.isinf(x), x, f"{fn} of infinite value", node)
    y = _UFUNCS[fn](x)
    if fn == "exp":
        over = np.isinf(y)
        if np.count_nonzero(over):
            _fail_where(over & np.isfinite(x), x, "exp overflow at", node)
    return y


def _array_power(node: BinOp, lhs, rhs) -> np.ndarray:
    """lhs ^ rhs on arrays, with the checks of _scalar_power made on every
    element."""
    _fail_where((lhs == 0.0) & (rhs < 0.0), rhs, "zero to the negative power", node)
    _fail_where(
        (lhs < 0.0) & np.isfinite(lhs) & np.isfinite(rhs) & (np.floor(rhs) != rhs),
        lhs, "non-integer power of negative base", node,
    )
    y = np.power(lhs, rhs)
    over = np.isinf(y)
    if np.count_nonzero(over):
        _fail_where(over & np.isfinite(lhs) & np.isfinite(rhs), lhs, "power overflow at base", node)
    return y


def _compile(node: Node) -> Callable:
    if isinstance(node, Num):
        value = node.value
        return lambda env: value
    if isinstance(node, Var):
        name = node.name

        def var(env):
            try:
                return env[name]
            except KeyError:
                raise ExprEvalError(f"unbound variable '{name}'", node) from None

        return var
    if isinstance(node, Neg):
        operand = _compile(node.operand)
        return lambda env: -operand(env)
    if isinstance(node, Call):
        arg = _compile(node.arg)

        def call(env):
            x = arg(env)
            return _scalar_call(node, x) if isinstance(x, float) else _array_call(node, x)

        return call
    left, right = _compile(node.left), _compile(node.right)
    op = node.op
    if op == "+":
        return lambda env: left(env) + right(env)
    if op == "-":
        return lambda env: left(env) - right(env)
    if op == "*":
        return lambda env: left(env) * right(env)
    if op == "/":
        def divide(env):
            lhs = left(env)
            rhs = right(env)
            _fail_where(rhs == 0.0, rhs, "division by zero: divisor", node)
            return lhs / rhs

        return divide

    def power(env):
        lhs = left(env)
        rhs = right(env)
        if isinstance(lhs, float) and isinstance(rhs, float):
            return _scalar_power(node, lhs, rhs)
        return _array_power(node, lhs, rhs)

    return power


def compile_expr(e: Expr) -> Callable[[Mapping[str, object]], object]:
    """Compile the AST once into a closure env -> value.

    env maps each variable to a float or an array; arrays broadcast against
    each other, and the value has their broadcast shape.  On floats the
    closure uses the math functions of FUNCTIONS; on arrays, NumPy ufuncs.
    Domain errors raise ExprEvalError naming the node: log of x <= 0, sqrt
    of x < 0, sin or cos of an infinite value, division by zero, zero to a
    negative power, a finite negative base to a finite non-integer power,
    and exp or '^' overflowing from finite operands (on arrays: if any
    element is such an input), checked on the arguments explicitly.
    Underflow and inf/nan from the other operations pass through, so
    NumPy's floating-point warnings, which flag just those values, are
    silenced.
    """
    run = _compile(e.root)

    def compiled(env):
        for v in env.values():
            if type(v) is not float:
                with np.errstate(all="ignore"):
                    return run(env)
        # Pure-float evaluation never reaches NumPy and cannot warn.
        return run(env)

    return compiled


def evaluate(e: Expr, bindings: Dict[str, float]) -> float:
    """IEEE double evaluation of e under the given bindings, each cast to
    float: compile_expr's closure on floats, with its ExprEvalErrors."""
    return compile_expr(e)({name: float(v) for name, v in bindings.items()})


def pretty(e: Expr) -> str:
    """Fully parenthesized rendering; parse(pretty(e)) reproduces the AST."""
    return str(e.root)
