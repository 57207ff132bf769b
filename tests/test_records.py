"""The package's records.  A record whose fields need no check is a
typing.NamedTuple; a class stays a frozen dataclass only when its
__post_init__ validates or normalizes its fields (test_runtime checks that
rule on every class a CLI request loads)."""

import numpy as np
import pytest

from ddebranch import expr as dsl
from ddebranch import fields
from ddebranch.config import LoadedProblem
from ddebranch.continuation import Branch, BranchPoint
from ddebranch.degree import DegreeReport
from ddebranch.expr import BinOp, Call, Leaf, Neg, Num, Var
from ddebranch.fields import FieldHandle
from ddebranch.integrator import Trajectory
from ddebranch.poincare import FixedPointRecord
from ddebranch.problem import History

#: The records that are NamedTuples.
KINDS = {"Num", "Var", "Neg", "BinOp", "Call", "Leaf", "Expr", "FieldHandle", "DegreeReport",
         "Trajectory", "FixedPointRecord", "BranchPoint", "Branch", "SigmaResult", "_Autonomous",
         "LoadedProblem", "SunflowerSetup"}


@pytest.fixture(scope="module")
def records(sunflower):
    """One record of each kind, by its class name."""
    setup = sunflower
    e = dsl.parse("-x + sin(x) * 2", {"x"})
    history = History.constant([0.0, 0.0], 1.0, m=8)
    point = BranchPoint(0.5, history, 1e-12, 0.25, 0.125)
    built = [
        setup, setup.sigma, setup.scalar.f, e, e.root, e.root.left, e.root.left.operand,
        e.root.right.left, e.root.right.right, setup.coupled.f.exprs[0].root.left,
        LoadedProblem(coupled=setup.coupled, a=setup.scalar.a, sigma=setup.sigma),
        FieldHandle(1, lambda z: z), DegreeReport(1, 0.5, []),
        Trajectory(history, np.zeros(2), np.zeros((2, 2)), np.zeros((2, 2)), 1),
        FixedPointRecord(history, 1e-12, -1, 0.5), point, Branch([point], np.zeros(2), "reached_lambda_max"),
    ]
    return {type(r).__name__: r for r in built}


def test_no_field_of_a_record_can_be_assigned(records):
    assert set(records) == KINDS
    for name, record in records.items():
        for field in record._fields:
            with pytest.raises(AttributeError):
                setattr(record, field, None)


def test_parsed_expressions_are_equal_by_value():
    for source in ("x^2 - sin(x)/3", "-(x + 1) * exp(-x)"):
        a, b = dsl.parse(source, {"x"}), dsl.parse(source, {"x"})
        assert a is not b and a == b and hash(a) == hash(b)
        assert a.root == b.root and hash(a.root) == hash(b.root)
    assert dsl.parse("x + 1", {"x"}) != dsl.parse("x - 1", {"x"})
    assert Num(2.0) != Neg(Num(2.0)) and Var("x") != Call("sin", Var("x"))


def test_a_leaf_equals_only_itself():
    leaf, twin = Leaf(np.sin, "__call__", ("t",)), Leaf(np.sin, "__call__", ("t",))
    assert leaf == leaf and leaf != twin and not leaf == twin
    assert len({leaf, twin, leaf}) == 2
    x = Var("x")
    assert BinOp("/", x, leaf) == BinOp("/", x, leaf) and BinOp("/", x, leaf) != BinOp("/", x, twin)


def test_replace_keeps_a_nodes_type():
    leaf = Leaf(np.sin, "__call__", ("t",))
    for node in (Num(1.0), Var("x"), Neg(Var("x")), BinOp("+", Var("x"), Num(1.0)), Call("sin", Var("x")), leaf):
        first = node._fields[0]
        assert type(node._replace(**{first: getattr(node, first)})) is type(node)
    moved = leaf._replace(j=1)
    assert type(moved) is Leaf and moved.j == 1 and moved[:3] == leaf[:3] and moved != leaf


def test_branch_point_fields_read_as_before():
    history = History.constant([0.5], 1.0, m=8)
    p = BranchPoint(lam=0.5, history=history, residual=1e-12, sup_norm=0.25, min_dist_to_trivial=0.125)
    assert BranchPoint._fields == ("lam", "history", "residual", "sup_norm", "min_dist_to_trivial")
    assert (p.lam, p.history, p.residual, p.sup_norm, p.min_dist_to_trivial) == (0.5, history, 1e-12, 0.25, 0.125)
    assert p == BranchPoint(0.5, history, 1e-12, 0.25, 0.125)


def test_a_leaf_renders_as_its_call(sunflower):
    problem = sunflower.coupled
    assert str(problem.f.exprs[0]) == "(<lambda>(y1, yd1) / PeriodicFn1D(t))"
    assert str(Leaf(problem, "eval_g", ("x", "y"), 1)) == "CoupledProblem.eval_g(x, y)[1]"
    assert str(Leaf(fields, "average_f", (problem, "x", "y"), 0)) == "ddebranch.fields.average_f(CoupledProblem, x, y)[0]"
