"""The benchmark's tracer (perfbench/spans.py) wraps package functions by
name; a rename or deletion that breaks it must fail here, in tier 1."""

import importlib.util
import sys
from pathlib import Path

# Every module Tracer.install imports, so that it loads none of its own.
from ddebranch import config, continuation, degree, expr, fields, integrator, lienard, poincare  # noqa: F401
from ddebranch.fields import FieldHandle
from ddebranch.problem import CoupledProblem

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _bindings():
    """Every attribute of every loaded ddebranch module, and of the two
    classes whose methods the tracer patches, keyed by (owner, name)."""
    out = {}
    for modname, module in list(sys.modules.items()):
        if module is not None and (modname == "ddebranch" or modname.startswith("ddebranch.")):
            out.update(((modname, attr), value) for attr, value in vars(module).items())
    for cls in (CoupledProblem, FieldHandle):
        out.update(((cls.__name__, attr), value) for attr, value in vars(cls).items())
    return out


def test_tracer_installs_and_restores_every_patch():
    tracer = _load_spans().Tracer()
    before = _bindings()
    try:
        tracer.install()
        installed = _bindings()
        patched = {key for key, value in installed.items() if before.get(key) is not value}
        for key in [("ddebranch.expr", "evaluate"), ("ddebranch.fields", "make_wf"),
                    ("ddebranch.integrator", "integrate"), ("ddebranch.poincare", "integrate"),
                    ("CoupledProblem", "eval_g"), ("FieldHandle", "__call__")]:
            assert key in patched, key
        expr.evaluate(expr.parse("x + 1", {"x"}), {"x": 1.0})
        assert tracer.counts["expr.evaluate"] == 1
    finally:
        tracer.uninstall()
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is value for key, value in before.items())
