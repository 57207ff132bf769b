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


def ev(source, allowed=(), **bindings):
    return dsl.evaluate(dsl.parse(source, set(allowed) | set(bindings)), bindings)


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

    def test_callable_interface(self):
        e = dsl.parse("a + b", {"a", "b"})
        assert e(a=1.0, b=2.5) == 3.5


class TestErrors:
    def test_incomplete_expression_offset(self):
        with pytest.raises(ExprSyntaxError) as exc:
            dsl.parse("x1 +", {"x1"})
        assert exc.value.offset == 4

    def test_unexpected_character_offset(self):
        with pytest.raises(ExprSyntaxError) as exc:
            dsl.parse("1 + @", set())
        assert exc.value.offset == 4

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
        with pytest.raises(ExprEvalError):
            dsl.evaluate(e, {"x": 1.0})
        with pytest.raises(ExprEvalError):
            dsl.compile_expr(e)({"x": 1.0})

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
        compiled = dsl.compile_expr(e)
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
            dsl.compile_expr(e)({})

    def test_underflow_is_not_an_error(self):
        for source, x in [("exp(x)", -1000.0), ("x^2", 1e-200), ("2^x", -2000.0)]:
            e = dsl.parse(source, {"x"})
            assert dsl.evaluate(e, {"x": x}) == 0.0
            assert dsl.compile_expr(e)({"x": x}) == 0.0
            assert np.array_equal(dsl.compile_expr(e)({"x": np.array([x, x])}), [0.0, 0.0])

    def test_nonfinite_results_without_domain_error_pass_through(self):
        # inf and nan that evaluate returns silently are not errors either.
        e = dsl.parse("x*x - x*x", {"x"})
        assert math.isnan(dsl.evaluate(e, {"x": 1e200}))
        assert np.isnan(dsl.compile_expr(e)({"x": np.array([1e200])})).all()


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
        return dsl._scalar_call(node, _tree_walk(node.arg, bindings))
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
    return dsl._scalar_power(node, lhs, rhs)


def _agree(got, want) -> bool:
    """Equal to 1e-12 relative, with matching infinities and nans."""
    if math.isnan(want) or math.isinf(want):
        return got == want or (math.isnan(want) and math.isnan(got))
    return abs(got - want) <= 1e-12 * abs(want)


class TestCompiled:
    def test_matches_reference_on_random_asts(self):
        # Each compiled closure against the tree walk, on floats and on a
        # 1-d array of the same points; an input that raises in the walk
        # must raise in the closure too.
        points = np.random.default_rng(0).uniform(-3.0, 3.0, size=(8, 3))
        arrays = {name: points[:, i] for i, name in enumerate("abc")}
        n_raised = 0
        for root in _random_asts():
            e = dsl.parse(str(root), {"a", "b", "c"})
            compiled = dsl.compile_expr(e)
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


class TestRoundTrip:
    def test_pretty_print_round_trip(self):
        allowed = {"a", "b", "c"}
        for root in _random_asts():
            printed = str(root)
            reparsed = dsl.parse(printed, allowed)
            assert reparsed.root == root
            assert dsl.pretty(reparsed) == printed

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
