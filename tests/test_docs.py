"""The README's examples run as written, its defaults are the code's, and
the code it names exists."""

import dataclasses
import importlib
import re
from pathlib import Path

import ddebranch
from ddebranch.continuation import ContinuationConfig
from ddebranch.poincare import TranslationConfig
from ddebranch.problem import DEFAULT_N_QUAD

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_use_example_runs(capsys):
    section = README.read_text().split("## Library use", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(block, "README.md", "exec"), {})
    assert "reached_lambda_max" in capsys.readouterr().out


def test_stated_defaults_match_the_settings_classes():
    # Each numerics and branch step setting states its default once, and
    # that default is the one its settings class holds.
    text = README.read_text()
    numerics = text.split("`numerics` keys", 1)[1].split("Per-command blocks:", 1)[0]
    branch = text.split("* `branch`:", 1)[1].split("### Expression language", 1)[0]
    stated = re.findall(r"`(\w+)`\s+\([^()]*?\bdefault ([^,;)\s]+)[^()]*\)", numerics + branch)
    assert {key: float(value) for key, value in stated} == {
        "n_quad": DEFAULT_N_QUAD,
        **{key: getattr(TranslationConfig, key)
           for key in ("m", "steps_per_delay", "newton_tol", "fd_step")},
        **{key: getattr(ContinuationConfig, key) for key in ("h0", "h_min", "h_max", "max_points")},
    }
    assert len(stated) == len(dict(stated))
    library_m = re.search(r"`ContinuationConfig`\s+defaults\s+to\s+`m = (\d+)`", numerics)
    assert int(library_m.group(1)) == ContinuationConfig.m


def test_code_references_resolve():
    # Every `mod.name` or `ddebranch.mod.name` whose mod is a ddebranch
    # module names an attribute that module has; `degree.json` and other
    # file names are not references.  Every `Class.member` whose class
    # ddebranch exports names an attribute or a dataclass field of it.
    text = README.read_text()
    package = Path(ddebranch.__file__).parent
    modules = {path.stem for path in package.glob("*.py")} - {"__init__"}
    refs = re.findall(r"`(?:ddebranch\.)?([a-z_]+)\.([A-Za-z_][\w.]*)`", text)
    checked, missing = 0, []
    for mod, dotted in refs:
        if mod not in modules or dotted.rsplit(".", 1)[-1] in ("json", "csv"):
            continue
        obj = importlib.import_module(f"ddebranch.{mod}")
        for name in dotted.split("."):
            obj = getattr(obj, name, None)
        checked += 1
        if obj is None:
            missing.append(f"{mod}.{dotted}")
    assert checked >= 5
    members = 0
    for cls_name, member in re.findall(r"`(?:ddebranch\.)?([A-Z]\w*)\.([A-Za-z_]\w*)`", text):
        cls = getattr(ddebranch, cls_name, None)
        if not isinstance(cls, type):
            continue
        fields = {f.name for f in dataclasses.fields(cls)} if dataclasses.is_dataclass(cls) else set()
        members += 1
        if member not in fields and not hasattr(cls, member):
            missing.append(f"{cls_name}.{member}")
    assert members >= 2
    assert missing == []


def test_every_export_is_named_in_the_readme_or_used_by_another_module():
    # An export that only the tests call does not belong in ddebranch.__all__:
    # each name is named in the README or used by a module of the package
    # other than its own (__init__ aside).
    text = README.read_text()
    package = Path(ddebranch.__file__).parent
    sources = {path.stem: path.read_text() for path in package.glob("*.py") if path.stem != "__init__"}
    unused = []
    for name in ddebranch.__all__:
        home = getattr(ddebranch, name).__module__.rsplit(".", 1)[-1]
        word = re.compile(rf"\b{name}\b")
        if not word.search(text) and not any(word.search(src) for mod, src in sources.items() if mod != home):
            unused.append(name)
    assert len(ddebranch.__all__) >= 20
    assert unused == []
