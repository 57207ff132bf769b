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

compile_function() is the one evaluator: it compiles a list of parsed
expressions into one generated Python function, built from the AST alone,
that evaluates every function and '^' by the NumPy ufuncs of FUNCTIONS,
on floats and arrays alike, and raises ExprEvalError naming the node.
evaluate() is that function on float bindings.  The test suite keeps a
tree walk over the AST, on Python's math functions, as the reference the
generated functions are checked against.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, FrozenSet, Mapping, NamedTuple, Optional, Sequence, Set, Union

import numpy as np

from .errors import ExprArityError, ExprEvalError, ExprNameError, ExprSyntaxError

FUNCTIONS = {
    "sin": np.sin,
    "cos": np.cos,
    "exp": np.exp,
    "log": np.log,
    "abs": np.abs,
    "sqrt": np.sqrt,
}

CONSTANTS = {"pi": math.pi}


class Num(NamedTuple):
    value: float

    def __str__(self):
        return repr(self.value)


class Var(NamedTuple):
    name: str

    def __str__(self):
        return self.name


class Neg(NamedTuple):
    operand: "Node"

    def __str__(self):
        return f"(-{self.operand})"


class BinOp(NamedTuple):
    op: str
    left: "Node"
    right: "Node"

    def __str__(self):
        return f"({self.left} {self.op} {self.right})"


class Call(NamedTuple):
    """A function node: fn names a function of FUNCTIONS, applied with
    the language's domain checks.  Python code enters as a Leaf."""

    fn: str
    arg: "Node"

    def __str__(self):
        return f"{self.fn}({self.arg})"


class Leaf(NamedTuple):
    """Component j of the call owner.<method>(*args) of a Python field
    (see stage.compile_stage), or with j None the value of the call, such
    as a Python phi(y1, yd1) or gamma(t) of lienard.lienard_reduce (method
    "__call__"): made once per owner, method and args, unchecked.  Each
    arg names a variable or a column group that the caller of emit binds,
    which the Leaf reads, or is passed as it is.  The parser never builds
    one.  Two Leaves are equal only when they are the same node."""

    owner: object
    method: str
    args: tuple
    j: Optional[int] = None

    __eq__, __ne__, __hash__ = object.__eq__, object.__ne__, object.__hash__

    def __str__(self):
        """name(args) or name.method(args)[j]: each name the object's
        __name__ or class name, each variable its own name."""
        name = lambda o: o if isinstance(o, str) else getattr(o, "__name__", type(o).__name__)
        method = "" if self.method == "__call__" else f".{self.method}"
        index = "" if self.j is None else f"[{self.j}]"
        return f"{name(self.owner)}{method}({', '.join(map(name, self.args))}){index}"


Node = Union[Num, Var, Neg, BinOp, Call, Leaf]


class Expr(NamedTuple):
    """A parsed, immutable expression with its declared variable set."""

    root: Node
    allowed_vars: FrozenSet[str]

    def __str__(self):
        """Fully parenthesized rendering; parse(str(e)) reproduces the AST
        of an expression that holds no Leaf."""
        return str(self.root)

    def free_vars(self) -> Set[str]:
        out: Set[str] = set()
        _collect_vars(self.root, out)
        return out


def _collect_vars(node: Node, out: Set[str], bound=()):
    """Add to out the variables node reads outside the subtrees whose ids
    are in bound."""
    if id(node) in bound:
        return
    if isinstance(node, Var):
        out.add(node.name)
    elif isinstance(node, Neg):
        _collect_vars(node.operand, out, bound)
    elif isinstance(node, BinOp):
        _collect_vars(node.left, out, bound)
        _collect_vars(node.right, out, bound)
    elif isinstance(node, Call):
        _collect_vars(node.arg, out, bound)
    elif isinstance(node, Leaf):
        out.update(a for a in node.args if isinstance(a, str))


_DIGITS = "0123456789"  # str.isdigit also takes non-ASCII digits, which float() rejects


def _tokenize(source: str):
    """Yield (kind, text, offset) tokens; kinds: num, name, op, lparen, rparen."""
    tokens = []
    i, n = 0, len(source)
    while i < n:
        c = source[i]
        if c.isspace():
            i += 1
            continue
        if c in _DIGITS or (c == "." and i + 1 < n and source[i + 1] in _DIGITS):
            j = i
            seen_dot = False
            while j < n and (source[j] in _DIGITS or (source[j] == "." and not seen_dot)):
                if source[j] == ".":
                    seen_dot = True
                j += 1
            if j < n and source[j] in "eE":
                k = j + 1
                if k < n and source[k] in "+-":
                    k += 1
                if k < n and source[k] in _DIGITS:
                    j = k
                    while j < n and source[j] in _DIGITS:
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


# -- compilation to one generated function over NumPy ufuncs ------------------


def _fail_where(bad, value, message: str, node: Node):
    """Raise ExprEvalError naming node if any element of bad is set,
    reporting value at the first such element."""
    if bad is False or not np.count_nonzero(bad):
        return
    if np.ndim(bad):
        value = np.broadcast_to(value, np.shape(bad))[bad].flat[0]
    raise ExprEvalError(f"{message} {float(value)!r}", node)


def _call(node: Call, x):
    """A function node on an array or a float, with the language's domain
    checks made on every element."""
    fn = node.fn
    if fn == "log":
        _fail_where(x <= 0.0, x, "log of nonpositive value", node)
    elif fn == "sqrt":
        _fail_where(x < 0.0, x, "sqrt of negative value", node)
    elif fn in ("sin", "cos"):
        _fail_where(np.isinf(x), x, f"{fn} of infinite value", node)
    y = FUNCTIONS[fn](x)
    if fn == "exp":
        over = np.isinf(y)
        if np.count_nonzero(over):
            _fail_where(over & np.isfinite(x), x, "exp overflow at", node)
    return y


def _power(node: BinOp, lhs, rhs):
    """lhs ^ rhs on arrays or floats, with the language's domain checks
    made on every element."""
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


#: What generated code calls, by the names it calls them.
_RUNTIME = {
    "asarray": np.asarray, "empty": np.empty, "shape": np.shape,
    "broadcast_shapes": np.broadcast_shapes, "fail_where": _fail_where,
    "call": _call, "power": _power,
}


def _emit(node: Node, names: dict, ns: dict, lines: list) -> str:
    """Append to lines the statements computing node; return the name of
    its value.  names maps each variable to its local, and the id of each
    subtree bound to a column (a hoisted subtree of stage.compile_stage)
    to that column's local (a subtree so bound is read, not computed); ns
    gains every constant (k<i>) and operation node (n<i>) the statements
    refer to; (id(owner), method, args: locals or ids) maps to the local
    of that Leaf call: with j None the call's own local."""
    if id(node) in names:
        return names[id(node)]
    if isinstance(node, Var):
        return names[node.name]
    i = len(ns)
    if isinstance(node, Num):
        ns[f"k{i}"] = node.value
        return f"k{i}"
    ns[f"n{i}"] = node
    v = f"v{i}"
    if isinstance(node, Leaf):
        call = (id(node.owner), node.method, tuple(names[a] if isinstance(a, str) else id(a) for a in node.args))
        if call not in names:
            args = ", ".join(names[a] if isinstance(a, str) else f"n{i}.args[{j}]" for j, a in enumerate(node.args))
            method = "" if node.method == "__call__" else f".{node.method}"
            names[call] = v if node.j is None else f"r{i}"
            lines.append(f"{names[call]} = n{i}.owner{method}({args})")
        if node.j is None:
            return names[call]
        lines.append(f"{v} = {names[call]}[..., {node.j}]")
    elif isinstance(node, Neg):
        lines.append(f"{v} = -{_emit(node.operand, names, ns, lines)}")
    elif isinstance(node, Call):
        x = _emit(node.arg, names, ns, lines)
        lines.append(f"{v} = call(n{i}, {x})")
    else:
        lhs = _emit(node.left, names, ns, lines)
        rhs = _emit(node.right, names, ns, lines)
        op = node.op if node.op in ("+", "-", "*", "/") else "^"
        if op == "^":
            lines.append(f"{v} = power(n{i}, {lhs}, {rhs})")
        else:
            if op == "/" and not (isinstance(node.right, Num) and node.right.value != 0.0):  # a nonzero constant cannot be 0
                lines.append(f"fail_where({rhs} == 0.0, {rhs}, 'division by zero: divisor', n{i})")
            lines.append(f"{v} = {lhs} {op} {rhs}")
    return v


def emit(roots: Sequence[Node], names: Mapping, ns: dict):
    """The statements computing each root, as (lines, value names): _emit
    on each, with one call per Leaf owner, method and args (n<i>.owner(...)
    for the method "__call__"), shared by every root.  names maps each
    variable, column group and bound subtree (by id) to its local; ns
    gains the constants and nodes the lines refer to (see define)."""
    names, lines = dict(names), []
    return lines, [_emit(root, names, ns, lines) for root in roots]


def define(source: str, ns: dict) -> Callable:
    """Compile source that defines a function named fn, once, with the
    runtime and ns (a dict emit filled) as its globals; returns fn."""
    ns = {**_RUNTIME, **ns}
    exec(compile(source, "<ddebranch.expr>", "exec"), ns)
    return ns["fn"]


def compile_function(exprs: Union[Expr, Sequence[Expr]], args: Sequence) -> Callable:
    """Compile expressions once into one generated Python function of args.

    Each entry of args is a variable name, bound to that argument, or a
    list of names, bound to the columns [..., j] of that argument: a state
    array, maybe with leading batch axes.  Given one Expr the function
    returns its value; given a list, an array of the batch shape of the
    first state argument, broadcast against any array name argument, plus
    one axis of len(exprs) components.

    Arguments are floats or arrays; arrays broadcast against each other,
    and a value has their broadcast shape.  Functions and '^' are the
    NumPy ufuncs of FUNCTIONS on floats and arrays alike, so a float and
    the same value in an array give the same bits.  Domain errors raise
    ExprEvalError naming the node: log of x <= 0, sqrt of x < 0, sin or
    cos of an infinite value, division by zero, zero to a negative power,
    a finite negative base to a finite non-integer power, and exp or '^'
    overflowing from finite operands (on arrays: if any element is such
    an input), checked on the arguments explicitly.  Underflow and inf/nan
    from the other operations pass through, so NumPy's floating-point
    warnings, which flag just those values, are silenced: every expression
    is evaluated under one np.errstate.  The returned function's
    __wrapped__ is the bare generated function, for callers that run under
    an errstate of their own.  The source is built from the AST alone
    (emit, define): the locals are generated names, and the constants,
    nodes and functions it uses are bound by name in the function's
    globals.  stage.compile_stage builds its RK4 kernel from the same
    pieces.
    """
    roots = [exprs.root] if isinstance(exprs, Expr) else [e.root for e in exprs]
    used: Set[str] = set()
    for root in roots:
        _collect_vars(root, used)
    params = [f"a{i}" for i in range(len(args))]
    head, names, states, scalars = [], {}, [], []
    for a, arg in zip(params, args):
        if isinstance(arg, str):
            names[arg] = a
            scalars.append(a)
            continue
        states.append(a)
        head.append(f"{a} = asarray({a}, dtype=float)")
        for j, col in enumerate(arg):
            if col in used:
                names[col] = f"{a}c{j}"
                head.append(f"{a}c{j} = {a}[..., {j}]")
    ns: dict = {}
    body, values = emit(roots, names, ns)
    if isinstance(exprs, Expr):
        tail = [f"return {values[0]}"]
    else:
        tail = [f"batch = {states[0]}.shape[:-1]"]
        for a in scalars:  # a scalar, or an array that already has the batch shape, needs no broadcast
            tail += [f"if type({a}) is not float and getattr({a}, 'shape', ()) not in ((), batch):",
                     f"    batch = broadcast_shapes(shape({a}), batch)"]
        tail.append(f"out = empty(batch + ({len(values)},))")
        tail += [f"out[..., {j}] = {v}" for j, v in enumerate(values)]
        tail.append("return out")
    source = "\n".join([f"def fn({', '.join(params)}):", *("    " + line for line in head + body + tail)])
    fn = define(source, ns)
    return np.errstate(all="ignore")(fn)


def evaluate(e: Expr, bindings: Dict[str, float]) -> float:
    """IEEE double evaluation of e under the given bindings, each cast to
    float: compile_function's function of e's variables, with its
    ExprEvalErrors, as a float.  A variable bindings lacks is an
    ExprEvalError too."""
    env = {name: float(v) for name, v in bindings.items()}
    names = sorted(e.free_vars())
    for name in names:
        if name not in env:
            raise ExprEvalError(f"unbound variable '{name}'", Var(name))
    return float(compile_function(e, names)(*(env[name] for name in names)))
