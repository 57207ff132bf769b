"""Expression language: parsing, precedence, evaluation, round trips."""

import math
import random

import numpy as np
import pytest

from ddebranch import expr as dsl
from ddebranch.errors import (
    ExprArityError,
    ExprEvalError,
    ExprNameError,
    ExprSyntaxError,
)
from ddebranch.expr import BinOp, Call, Neg, Num, Var
from ddebranch.stage import compile_stage, state_columns


def ev(source, allowed=(), **bindings):
    return dsl.evaluate(dsl.parse(source, set(allowed) | set(bindings)), bindings)


def _compile_expr(e):
    """e as a function of a mapping of its variables to floats or arrays:
    compile_function of its free variables, in sorted order."""
    names = sorted(e.free_vars())
    fn = dsl.compile_function(e, names)
    return lambda env: fn(*(env[name] for name in names))


class TestParsingAndEvaluation:
    def test_function_call(self):
        assert ev("sin(yd1)", yd1=math.pi / 2) == pytest.approx(1.0)

    def test_damping_coefficient_shape(self):
        # cos t/(sin t + 2) - (sin t + 2) at t = 0 is 1/2 - 2
        assert ev("cos(t)/(sin(t)+2) - (sin(t)+2)", t=0.0) == pytest.approx(-1.5)

    def test_literal(self):
        assert ev("3.5") == 3.5

    def test_scientific_notation(self):
        assert ev("1.5e-3") == 1.5e-3
        assert ev("2E2") == 200.0

    def test_pi_constant(self):
        assert ev("pi") == math.pi

    def test_power_right_associative(self):
        assert ev("2^3^2") == 512.0

    def test_unary_minus_below_power(self):
        assert ev("-x^2", x=3.0) == -9.0
        assert ev("(-x)^2", x=3.0) == 9.0

    def test_precedence(self):
        assert ev("1 + 2*3^2") == 19.0
        assert ev("6/3/2") == 1.0
        assert ev("2 - 3 - 4") == -5.0

    def test_all_functions(self):
        assert ev("cos(0)") == 1.0
        assert ev("exp(1)") == pytest.approx(math.e)
        assert ev("log(exp(2))") == pytest.approx(2.0)
        assert ev("abs(-4.5)") == 4.5
        assert ev("sqrt(9)") == 3.0

    def test_free_vars(self):
        e = dsl.parse("x1*sin(t) + yd1", {"x1", "t", "yd1", "y1"})
        assert e.free_vars() == {"x1", "t", "yd1"}

    def test_evaluate_casts_bindings_and_ignores_extra_ones(self):
        # Ints and NumPy scalars are cast to float, a binding the
        # expression does not read is ignored, and the value is a float.
        e = dsl.parse("a / b", {"a", "b", "c"})
        value = dsl.evaluate(e, {"a": 1, "b": np.float32(4.0), "c": math.inf})
        assert type(value) is float and value == 0.25

    def test_compile_function_binds_names_and_state_columns(self):
        # A name is bound to its argument, a list of names to the columns
        # of a state array; a list of expressions gives one column each,
        # over the state's batch shape broadcast against the name's array.
        # Each entry equals evaluate at that row, bit for bit.
        exprs = [dsl.parse(source, {"s", "x1", "y1"}) for source in ("x1*s + y1", "sin(y1) - s", "2")]
        fn = dsl.compile_function(exprs, ["s", ["x1", "y1"]])
        state = np.array([[0.5, -1.25], [2.0, 0.75], [-3.0, 1.5]])
        for s, shape in ((0.3, (3, 3)), (np.array([[0.3], [-0.7]]), (2, 3, 3))):
            out = fn(s, state)
            assert out.shape == shape
            rows = np.broadcast_to(np.asarray(s, dtype=float), shape[:-1])
            for index in np.ndindex(*shape[:-1]):
                x1, y1 = state[index[-1]]
                env = {"s": float(rows[index]), "x1": float(x1), "y1": float(y1)}
                assert out[index].tolist() == [dsl.evaluate(e, env) for e in exprs]
        single = dsl.compile_function(exprs[0], ["s", ["x1", "y1"]])
        assert single(0.3, state).tolist() == fn(0.3, state)[:, 0].tolist()


class TestErrors:
    def test_incomplete_expression_offset(self):
        with pytest.raises(ExprSyntaxError) as exc:
            dsl.parse("x1 +", {"x1"})
        assert exc.value.offset == 4

    def test_unexpected_character_offset(self):
        with pytest.raises(ExprSyntaxError) as exc:
            dsl.parse("1 + @", set())
        assert exc.value.offset == 4

    @pytest.mark.parametrize("source, offset, char", [
        # str.isdigit takes both; float() rejects the first and reads the
        # second as 3.
        ("p - 2\u00b2", 5, "\u00b2"),
        ("x + \u0663", 4, "\u0663"),
    ])
    def test_non_ascii_digit_is_unexpected(self, source, offset, char):
        with pytest.raises(ExprSyntaxError, match=f"unexpected character {char!r}") as exc:
            dsl.parse(source, {"p", "x"})
        assert exc.value.offset == offset

    def test_unbalanced_paren(self):
        with pytest.raises(ExprSyntaxError):
            dsl.parse("sin(x", {"x"})

    def test_empty_source(self):
        with pytest.raises(ExprSyntaxError):
            dsl.parse("   ", set())

    def test_unknown_identifier_named(self):
        with pytest.raises(ExprNameError) as exc:
            dsl.parse("x1 + bogus", {"x1"})
        assert exc.value.name == "bogus"
        assert exc.value.offset == 5

    def test_variable_not_allowed_for_slot(self):
        with pytest.raises(ExprNameError):
            dsl.parse("t + y1", {"y1"})

    def test_two_argument_call(self):
        with pytest.raises(ExprArityError):
            dsl.parse("sin(x, y)", {"x", "y"})

    def test_function_without_call(self):
        with pytest.raises(ExprArityError):
            dsl.parse("sin + 1", set())

    def test_unknown_function(self):
        with pytest.raises(ExprNameError):
            dsl.parse("tan(x)", {"x"})

    def test_division_by_zero(self):
        with pytest.raises(ExprEvalError):
            ev("1/(x - 1)", x=1.0)

    def test_log_domain(self):
        with pytest.raises(ExprEvalError):
            ev("log(0)")

    def test_sqrt_domain(self):
        with pytest.raises(ExprEvalError):
            ev("sqrt(-1)")

    def test_unbound_variable(self):
        e = dsl.parse("x + y", {"x", "y"})
        with pytest.raises(ExprEvalError, match="unbound variable 'y'") as exc:
            dsl.evaluate(e, {"x": 1.0})
        assert exc.value.node == Var("y")

    @pytest.mark.parametrize("source, bad", [
        ("x^0.5", -1.0),        # negative base, non-integer power
        ("x^(-1)", 0.0),        # zero to a negative power
        ("exp(x)", 1000.0),     # overflow
        ("sin(x)", math.inf),
        ("cos(x)", -math.inf),
        ("x^400", 10.0),        # power overflow
    ])
    def test_domain_error_names_the_node(self, source, bad):
        e = dsl.parse(source, {"x"})
        compiled = _compile_expr(e)
        calls = [
            lambda: dsl.evaluate(e, {"x": bad}),
            lambda: compiled({"x": bad}),
            lambda: compiled({"x": np.array([0.5, bad, 0.25])}),
        ]
        for call in calls:
            with pytest.raises(ExprEvalError) as exc:
                call()
            assert exc.value.node is e.root

    @pytest.mark.parametrize("source", ["0^(-1)", "exp(1000)", "sin(1/0.5 + exp(800))"])
    def test_constant_domain_errors(self, source):
        e = dsl.parse(source, set())
        with pytest.raises(ExprEvalError):
            dsl.evaluate(e, {})
        with pytest.raises(ExprEvalError):
            _compile_expr(e)({})

    def test_underflow_is_not_an_error(self):
        for source, x in [("exp(x)", -1000.0), ("x^2", 1e-200), ("2^x", -2000.0)]:
            e = dsl.parse(source, {"x"})
            assert dsl.evaluate(e, {"x": x}) == 0.0
            assert _compile_expr(e)({"x": x}) == 0.0
            assert np.array_equal(_compile_expr(e)({"x": np.array([x, x])}), [0.0, 0.0])

    def test_nonfinite_results_without_domain_error_pass_through(self):
        # inf and nan that evaluate returns silently are not errors either.
        e = dsl.parse("x*x - x*x", {"x"})
        assert math.isnan(dsl.evaluate(e, {"x": 1e200}))
        assert np.isnan(_compile_expr(e)({"x": np.array([1e200])})).all()


def _random_node(rnd, depth):
    """Random AST over variables a, b, c."""
    if depth <= 0 or rnd.random() < 0.3:
        if rnd.random() < 0.5:
            return Num(round(rnd.uniform(0.1, 9.9), 3))
        return Var(rnd.choice(["a", "b", "c"]))
    kind = rnd.choice(["bin", "bin", "neg", "call"])
    if kind == "neg":
        return Neg(_random_node(rnd, depth - 1))
    if kind == "call":
        fn = rnd.choice(["sin", "cos", "exp", "abs"])
        return Call(fn, _random_node(rnd, depth - 1))
    op = rnd.choice(["+", "-", "*", "/", "^"])
    return BinOp(op, _random_node(rnd, depth - 1), _random_node(rnd, depth - 1))


def _random_asts():
    """The 100 random ASTs of the round-trip tests."""
    rnd = random.Random(42)
    return [_random_node(rnd, 4) for _ in range(100)]


def _rename(node, names):
    """node with each variable a renamed names[a]."""
    if isinstance(node, Var):
        return Var(names[node.name])
    if isinstance(node, Neg):
        return Neg(_rename(node.operand, names))
    if isinstance(node, Call):
        return Call(node.fn, _rename(node.arg, names))
    if isinstance(node, BinOp):
        return BinOp(node.op, _rename(node.left, names), _rename(node.right, names))
    return node


#: The tree walk's functions: Python's math, not the NumPy ufuncs of the
#: generated functions.
FUNCTIONS = {
    "sin": math.sin,
    "cos": math.cos,
    "exp": math.exp,
    "log": math.log,
    "abs": abs,
    "sqrt": math.sqrt,
}


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


def _tree_walk(node, bindings):
    """The reference semantics: the AST walked on floats, with the
    language's scalar domain checks."""
    if isinstance(node, Num):
        return node.value
    if isinstance(node, Var):
        try:
            return float(bindings[node.name])
        except KeyError:
            raise ExprEvalError(f"unbound variable '{node.name}'", node) from None
    if isinstance(node, Neg):
        return -_tree_walk(node.operand, bindings)
    if isinstance(node, Call):
        return _scalar_call(node, _tree_walk(node.arg, bindings))
    lhs = _tree_walk(node.left, bindings)
    rhs = _tree_walk(node.right, bindings)
    op = node.op
    if op == "+":
        return lhs + rhs
    if op == "-":
        return lhs - rhs
    if op == "*":
        return lhs * rhs
    if op == "/":
        if rhs == 0.0:
            raise ExprEvalError(f"division by zero: divisor {rhs!r}", node)
        return lhs / rhs
    return _scalar_power(node, lhs, rhs)


def _agree(got, want) -> bool:
    """Equal to 1e-12 relative, with matching infinities and nans."""
    if math.isnan(want) or math.isinf(want):
        return got == want or (math.isnan(want) and math.isnan(got))
    return abs(got - want) <= 1e-12 * abs(want)


class TestCompiled:
    def test_matches_reference_on_random_asts(self):
        # Each compiled function against the tree walk, on floats and on a
        # 1-d array of the same points; an input that raises in the walk
        # must raise in the function too.
        points = np.random.default_rng(0).uniform(-3.0, 3.0, size=(8, 3))
        arrays = {name: points[:, i] for i, name in enumerate("abc")}
        n_raised = 0
        for root in _random_asts():
            e = dsl.parse(str(root), {"a", "b", "c"})
            compiled = _compile_expr(e)
            wants = []
            for row in points:
                env = {name: float(v) for name, v in zip("abc", row)}
                try:
                    want = _tree_walk(e.root, env)
                except ExprEvalError:
                    with pytest.raises(ExprEvalError):
                        compiled(env)
                    wants.append(None)
                    continue
                got = compiled(env)
                assert _agree(float(got), want), (str(root), env, got, want)
                wants.append(want)
            if None in wants:
                n_raised += 1
                with pytest.raises(ExprEvalError):
                    compiled(arrays)
                continue
            got = np.broadcast_to(compiled(arrays), (len(points),))
            for g, w in zip(got, wants):
                assert _agree(float(g), w), (str(root), g, w)
        # The corpus exercises the error paths as well as the values.
        assert 0 < n_raised < 50
        # Four ASTs at a time as one function of (t, [a, b, c]) over the
        # (8, 3) batch, every other one times t: at a float t, and at a
        # (2, 1) array t that broadcasts against the batch axis.
        roots = _random_asts()
        n_raised = 0
        for i in range(0, len(roots), 4):
            sources = [f"t*({r})" if j % 2 else str(r) for j, r in enumerate(roots[i:i + 4])]
            exprs = [dsl.parse(src, {"a", "b", "c", "t"}) for src in sources]
            fn = dsl.compile_function(exprs, ["t", ["a", "b", "c"]])
            for t in (0.7, np.array([[0.7], [-1.3]])):
                ts = np.broadcast_to(t, (1, len(points)) if np.ndim(t) == 0 else (2, len(points)))
                try:
                    wants = [[[_tree_walk(e.root, {"t": tk, **dict(zip("abc", row))}) for e in exprs]
                              for tk, row in zip(t_row, points)] for t_row in ts]
                except ExprEvalError:
                    n_raised += 1
                    with pytest.raises(ExprEvalError):
                        fn(t, points)
                    continue
                got = fn(t, points)
                assert got.shape == np.shape(t)[:1] + (len(points), len(exprs))
                for g, w in zip(np.reshape(got, (-1, len(exprs))), np.reshape(wants, (-1, len(exprs)))):
                    assert all(_agree(float(gj), wj) for gj, wj in zip(g, w)), (sources, t, g, w)
        assert 0 < n_raised < 50  # of 25 functions at two times each

    def test_stage_matches_field_path_on_random_asts(self):
        # compile_stage of random f, g and h (k = s = 1) at one node: its
        # time-only part at a (1, 1, 1) array of the time, its interval
        # part on a one-row block and then its node slope (the kernel's
        # step(-1, -2)), which writes into the slopes it is bound to,
        # against the fields compiled one by one and combined as lam * f
        # and at * g (+ lam * h), all at one (1, 1) array t: equal bit for
        # bit, or raising ExprEvalError naming the node the stage's order
        # makes first.  The time-only part evaluates the maximal subtrees
        # reading only t, within those reading only t, xd1 and yd1 (of f,
        # then g, then h), so one of them that fails is named first; then
        # the interval part the latter; then the node slope names f's node
        # before g's and g's before h's, while the field path evaluates g
        # before f.
        x, y, xd, yd = state_columns(1, 1)
        renames = ({"a": "xd1", "b": "y1", "c": "t"}, {"a": "x1", "b": "y1", "c": "x1"},
                   {"a": "yd1", "b": "x1", "c": "t"})
        rng = np.random.default_rng(1)
        state, delayed = rng.uniform(-3.0, 3.0, (2, 8, 2))
        t, at, lam = np.array([[0.7]]), -1.3, 0.45
        args = (t, state[:, :1], state[:, 1:], delayed[:, :1], delayed[:, 1:])

        def attempt(fn, *fn_args):
            try:
                return fn(*fn_args), None
            except ExprEvalError as exc:
                return None, exc.node

        def maximal(node, free):
            # The maximal operation subtrees reading only variables in free.
            if isinstance(node, (Num, Var)):
                return []
            if dsl.Expr(node, frozenset()).free_vars() <= free:
                return [node]
            kids = (node.left, node.right) if isinstance(node, BinOp) else (
                (node.operand,) if isinstance(node, Neg) else (node.arg,))
            return [sub for kid in kids for sub in maximal(kid, free)]

        def first_error(exprs, timed):
            for e in exprs:
                for hoisted in maximal(e.root, {"t", "xd1", "yd1"}):
                    for sub in maximal(hoisted, {"t"}) if timed else [hoisted]:
                        fn = dsl.compile_function(dsl.Expr(sub, frozenset()), ["t", xd + yd])
                        node = attempt(fn, t, delayed[None])[1]
                        if node is not None:
                            return node
            return None

        def node_slope(stage):
            # The stage's phase that raised (or None) and the node it named,
            # else the slopes it wrote.
            block, node = attempt(stage.times, t[..., None])
            if node is not None:
                return "times", node, None
            D = np.empty((1,) + delayed.shape[:-1] + (stage.width,))
            D[..., :2] = delayed
            S, K = state[None].copy(), np.empty((1,) + state.shape)
            interval, step = stage.bind(lam, 1.0, block, [at], [float(t[0, 0])], D, S, K,
                                        np.empty((5,) + state.shape), 1e9)
            for phase, fn, fn_args in (("interval", interval, (0, 1)), ("slope", step, (-1, -2))):
                node = attempt(fn, *fn_args)[1]
                if node is not None:
                    return phase, node, None
            return None, None, K[0]

        roots = _random_asts()
        sources = [[str(_rename(root, names)) for root, names in zip(roots[i:i + 3], renames)]
                   for i in range(len(roots) - 2)]
        # The corpus has no f and g that both fail outside the state-free
        # subtrees, and no time-only subtree that fails; these do.
        sources += [["sqrt(y1 - 9)", "log(x1 - 9)", "yd1 - t"], ["sqrt(xd1) + log(t - 1)", "x1", "yd1"]]
        outcomes = {"equal": 0, "timed": 0, "hoisted": 0, "hoisted before a field's first": 0,
                    "f before g": 0, "same node": 0}
        for triple in sources:
            f, g, h = ([dsl.parse(src, set(names.values()))] for src, names in zip(triple, renames))
            (fv, f_node), (hv, h_node) = (attempt(dsl.compile_function(e, ["t", x, y, xd, yd]), *args)
                                          for e in (f, h))
            gv, g_node = attempt(dsl.compile_function(g, [x, y]), *args[1:3])
            for with_h in (False, True):
                exprs = f + g + h * with_h
                timed_node, hoisted_node = first_error(exprs, True), first_error(exprs, False)
                field_nodes = [f_node, g_node] + [h_node] * with_h
                want_node = timed_node or hoisted_node or next((n for n in field_nodes if n is not None), None)
                with np.errstate(all="ignore"):  # as inside a sweep
                    phase, stage_node, got = node_slope(compile_stage(1, 1, f, g, h if with_h else None))
                    if want_node is None:
                        want = np.concatenate([lam * fv, at * gv[None] + lam * hv if with_h else at * gv[None]],
                                              axis=-1)
                assert stage_node is want_node
                assert phase == ("times" if timed_node else "interval" if hoisted_node else
                                 "slope" if want_node else None)
                if want_node is None:
                    assert got.tobytes() == want.tobytes()
                    outcomes["equal"] += 1
                elif timed_node is not None:
                    outcomes["timed"] += 1
                elif hoisted_node is not None:
                    first_field = next(n for n in [g_node, f_node, h_node] if n is not None)
                    outcomes["hoisted" if first_field is hoisted_node else "hoisted before a field's first"] += 1
                elif f_node is not None and g_node is not None:
                    outcomes["f before g"] += 1
                else:
                    outcomes["same node"] += 1
        assert all(outcomes.values()), outcomes

    def test_inf_and_pi_constants(self):
        # 1e999 parses to inf, which the function binds by name.
        for x, want in [(2.0, math.inf), (-1.0, -math.inf)]:
            assert ev("1e999*x", x=x) == want
            e = dsl.parse("1e999*x", {"x"})
            assert np.array_equal(_compile_expr(e)({"x": np.array([x, x])}), [want, want])
        assert math.isnan(ev("1e999*x", x=0.0))
        assert ev("2*pi*x", x=0.5) == math.pi

    def test_bound_function_node_is_applied_unchecked_and_hoisted(self):
        # A Python function enters as the Leaf of its call (the Lienard
        # reduction binds sigma so, as gamma(t)): it is applied as it is,
        # with no domain check, and a Leaf called with t alone is hoisted
        # like any node that reads t alone, a column of the time part.  A
        # Call held the function, with a hoisting rule of its own, until
        # every Python function became a Leaf.
        def tan(t):
            return np.tan(t)

        leaf = dsl.Leaf(tan, "__call__", ("t",))
        node = BinOp("/", Call("sin", Var("yd1")), leaf)
        e = dsl.Expr(node, frozenset({"t", "yd1"}))
        assert e.free_vars() == {"t", "yd1"}
        assert dsl.compile_function(e, ["t", "yd1"])(np.pi / 4, 1.0) == math.sin(1.0) / np.tan(np.pi / 4)
        assert math.isnan(dsl.compile_function(dsl.Expr(leaf, frozenset({"t"})), ["t"])(math.inf))
        stage = compile_stage(1, 1, [e], [dsl.parse("x1 - y1", {"x1", "y1"})])
        t = np.array([[0.5], [0.75]])
        times = stage.times(t[..., None])  # t, then tan(t): the subtree that reads t alone
        assert times.shape == (2, 1, 2) and times[..., 1].tobytes() == np.tan(t).tobytes()
        delayed = np.random.default_rng(1).uniform(-1.0, 1.0, (2, 3, 2))
        block = np.empty((2, 3, stage.width))  # xd1, yd1, then lam*(sin(yd1)/tan(t)) as one column
        block[..., :2] = delayed
        assert stage.width == 3
        buffers = np.empty((2, 3, 2))
        interval, _ = stage.bind(2.0, 1.0, times, [], [], block, buffers, buffers, np.empty((5, 3, 2)), 1e9)
        interval(0, 2)
        assert block[..., 2].tobytes() == (2.0 * (np.sin(delayed[..., 1]) / np.tan(t))).tobytes()
        with pytest.raises(ExprNameError):
            dsl.parse("tan(t)", {"t"})

    def test_one_leaf_call_per_owner_method_and_arguments(self):
        # Leaves of one owner's method in one evaluation share a call only
        # when they pass the same arguments: phi on (y, yd) and on (y, y)
        # are two calls, and a second leaf on (y, yd) reads the first's.
        calls = []

        class Owner:
            def phi(self, y, yd):
                calls.append((y.tolist(), yd.tolist()))
                return np.stack([y + 2.0 * yd, y - yd], axis=-1)

        owner = Owner()
        roots = [dsl.Leaf(owner, "phi", ("y", "yd"), 0), dsl.Leaf(owner, "phi", ("y", "y"), 0),
                 dsl.Leaf(owner, "phi", ("y", "yd"), 1)]
        ns = {}
        lines, values = dsl.emit(roots, {"y": "a", "yd": "b"}, ns)
        fn = dsl.define("\n".join(["def fn(a, b):", *("    " + line for line in lines),
                                   f"    return {', '.join(values)}"]), ns)
        got = fn(np.array([1.0]), np.array([10.0]))
        assert [v.tolist() for v in got] == [[21.0], [3.0], [-9.0]]
        assert calls == [([1.0], [10.0]), ([1.0], [1.0])]


class TestRoundTrip:
    def test_pretty_print_round_trip(self):
        allowed = {"a", "b", "c"}
        for root in _random_asts():
            printed = str(root)
            reparsed = dsl.parse(printed, allowed)
            assert reparsed.root == root
            assert str(reparsed) == printed

    def test_golden_corpus_matches_closed_form(self):
        cases = [
            ("sin(0.5) + cos(0.3)^2", math.sin(0.5) + math.cos(0.3) ** 2),
            ("exp(-1.2)*sqrt(2)", math.exp(-1.2) * math.sqrt(2)),
            ("(1 + 2.5)/(3 - 0.5)", 3.5 / 2.5),
            ("-1 + 0.5*sin(pi/6)", -1 + 0.5 * math.sin(math.pi / 6)),
            ("2^(-0.5)", 2 ** -0.5),
            ("abs(-3.5) - log(2.718281828459045)", 3.5 - math.log(math.e)),
        ]
        for source, expected in cases:
            got = ev(source)
            assert got == pytest.approx(expected, rel=1e-15)
