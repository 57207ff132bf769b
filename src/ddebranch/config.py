"""Run-configuration loading and validation for the command-line front end.

Configs are single JSON documents.  Validation is strict: unknown keys are
hard errors, and every expression is parsed against the variable set legal
for its slot before any computation starts.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, replace
from typing import NamedTuple, Optional

import numpy as np

from . import expr as dsl
from .continuation import ContinuationConfig
from .errors import ConfigError, DdeBranchError, ExprError, InvalidParameterError
from .lienard import SigmaResult
from .poincare import TranslationConfig
from .problem import DEFAULT_N_QUAD, BatchField, Box, CoupledProblem, PeriodicFn1D
from .stage import state_columns

_TOP_KEYS = {"problem", "numerics", "integrate", "degree", "sigma", "verify_index", "branch"}
#: The problem keys, besides "preset", of each preset (None: an explicit problem).
_PRESET_KEYS = {
    "classic-sunflower": {"T", "r", "alpha", "beta"},
    "sunflower": {"T", "r", "a", "phi"},
    None: {"T", "r", "a", "dims", "f", "g", "h"},
}
_PROBLEM_KEYS = {"preset"}.union(*_PRESET_KEYS.values())
_INTEGRATE_KEYS = {"lambda", "mu", "t_end", "init", "resolution"}
_DEGREE_KEYS = {"field", "exprs", "vars", "box", "negate"}
_VERIFY_KEYS = {"lambda", "box"}
_BOX_KEYS = {"lower", "upper"}


def _check_keys(obj, allowed, path):
    if not isinstance(obj, dict):
        raise ConfigError(f"{path}: expected an object")
    unknown = set(obj) - allowed
    if unknown:
        raise ConfigError(f"{path}: unknown key(s) {sorted(unknown)}")


def _require(obj, key, path):
    if key not in obj:
        raise ConfigError(f"{path}: missing required key '{key}'")
    return obj[key]


def _number(obj, key, path, default=None, positive=False):
    if key not in obj:
        if default is None:
            raise ConfigError(f"{path}: missing required key '{key}'")
        return default
    v = obj[key]
    if not isinstance(v, (int, float)) or isinstance(v, bool):
        raise ConfigError(f"{path}.{key}: expected a number, got {v!r}")
    if positive and v <= 0:
        raise ConfigError(f"{path}.{key}: must be positive, got {v}")
    return float(v)


def _integer(obj, key, path, default=None, positive=False):
    v = _number(obj, key, path, default, positive)
    if not float(v).is_integer():
        raise ConfigError(f"{path}.{key}: expected an integer, got {obj[key]!r}")
    return int(v)


def _numbers(v, path) -> np.ndarray:
    """A number or a list of numbers, as a float array."""
    items = v if isinstance(v, list) else [v]
    if not all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in items):
        raise ConfigError(f"{path}: expected a number or a list of numbers, got {v!r}")
    return np.asarray(v, dtype=float)


def _parse_box(obj, path) -> Box:
    _check_keys(obj, _BOX_KEYS, path)
    bounds = {key: _numbers(_require(obj, key, path), f"{path}.{key}") for key in ("lower", "upper")}
    return _settings(Box, obj, path, {}, **bounds)


def _parse_exprs(sources, allowed, path):
    if isinstance(sources, str):
        sources = [sources]
    if not isinstance(sources, list) or not all(isinstance(s, str) for s in sources):
        raise ConfigError(f"{path}: expected an expression string or list of strings")
    out = []
    for i, src in enumerate(sources):
        try:
            out.append(dsl.parse(src, allowed))
        except ExprError as exc:
            raise ConfigError(f"{path}[{i}]: {exc}") from exc
    return out


def _state_vars(k, s, with_time=True, with_delays=True):
    x, y, xd, yd = state_columns(k, s)
    return set(x + y + (xd + yd if with_delays else []) + (["t"] if with_time else []))


def _vector_field(exprs, k, s, with_time) -> BatchField:
    """The field whose components are exprs, compiled into one function.

    Its arguments are (t, x, y, xd, yd) when with_time (f and h), else
    (x, y) (g).  Each state argument may carry a leading batch axis, and t
    may be an array that broadcasts against it; the result has the batch
    shape plus one axis of len(exprs) components.
    """
    states = state_columns(k, s)
    return BatchField(dsl.compile_function(exprs, ["t", *states] if with_time else states[:2]), exprs)


class LoadedProblem(NamedTuple):
    """A problem resolved from config: the coupled system, its coefficient
    a, and the sigma transform of a sunflower preset and the parameter value
    lam = -beta/r of the classic-sunflower preset."""

    coupled: CoupledProblem
    a: PeriodicFn1D
    sigma: Optional[SigmaResult] = None
    default_lambda: Optional[float] = None


#: The settings each block may set, with the reader of each one's type.
_TRANSLATION_SETTINGS = {"m": _integer, "steps_per_delay": _integer,
                         "newton_tol": _number, "fd_step": _number}
_STEP_SETTINGS = {"h0": _number, "h_min": _number, "h_max": _number, "max_points": _integer,
                  "domain": lambda block, key, path: _parse_box(block[key], f"{path}.{key}")}
_NUMERICS_KEYS = {"n_quad"} | set(_TRANSLATION_SETTINGS)
_BRANCH_KEYS = {"origin", "lambda_max"} | set(_STEP_SETTINGS)


def _numerics_block(config: dict) -> dict:
    block = config.get("numerics", {})
    _check_keys(block, _NUMERICS_KEYS, "numerics")
    return block


def _settings(cls, block, path, readers, **given):
    """cls from the keys of readers that block sets, plus given; cls's own
    defaults fill the rest, and a value it rejects is a ConfigError."""
    given.update((key, read(block, key, path)) for key, read in readers.items() if key in block)
    try:
        return cls(**given)
    except InvalidParameterError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def translation_config(config: dict) -> TranslationConfig:
    """The numerics block's translation settings."""
    return _settings(TranslationConfig, _numerics_block(config), "numerics", _TRANSLATION_SETTINGS)


def continuation_config(config: dict) -> ContinuationConfig:
    """The branch block's step settings over translation_config(config), so
    a branch the config gives no m runs at TranslationConfig's default."""
    block = config.get("branch", {})
    _check_keys(block, _BRANCH_KEYS, "branch")
    return _settings(ContinuationConfig, block, "branch", _STEP_SETTINGS,
                     **asdict(translation_config(config)))


def _load_periodic_expr(source: str, period: float, path: str) -> PeriodicFn1D:
    """The coefficient a from its DSL source: the compiled function,
    declared to take arrays of t (a BatchField, not probed)."""
    (e,) = _parse_exprs(source, {"t"}, path)
    return PeriodicFn1D(eval=BatchField(dsl.compile_function(e, ["t"])), period=period)


def load_problem(config: dict) -> LoadedProblem:
    """Resolve the problem block; the coupled problem averages with
    numerics.n_quad cells."""
    block = _require(config, "problem", "config")
    n_quad = _integer(_numerics_block(config), "n_quad", "numerics", default=DEFAULT_N_QUAD)
    _check_keys(block, _PROBLEM_KEYS, "problem")
    preset = block.get("preset")
    if preset is not None and preset not in ("sunflower", "classic-sunflower"):
        raise ConfigError(f"problem.preset: unknown preset {preset!r}")
    extra = sorted(set(block) - _PRESET_KEYS[preset] - {"preset"})
    if extra:
        where = f"with the {preset} preset" if preset else "without a preset"
        raise ConfigError(f"problem.{extra[0]}: not allowed {where}")

    if preset == "classic-sunflower":
        T = _number(block, "T", "problem", default=2.0 * math.pi, positive=True)
        r = _number(block, "r", "problem", positive=True)
        alpha = _number(block, "alpha", "problem")
        beta = _number(block, "beta", "problem")
        from .presets import classic_sunflower_setup

        try:
            setup, lam = classic_sunflower_setup(alpha, beta, r, T)
            coupled = replace(setup.coupled, n_quad=n_quad)
        except DdeBranchError as exc:
            raise ConfigError(f"problem: {exc}") from exc
        return LoadedProblem(
            coupled=coupled, sigma=setup.sigma, a=setup.scalar.a, default_lambda=lam,
        )

    if preset == "sunflower":
        T = _number(block, "T", "problem", default=2.0 * math.pi, positive=True)
        r = _number(block, "r", "problem", default=1.0, positive=True)
        a_src = block.get("a", "-1 + 0.5*sin(t)")
        phi_src = block.get("phi", "sin(yd1)")
        a = _load_periodic_expr(a_src, T, "problem.a")
        (phi_e,) = _parse_exprs(phi_src, {"y1", "yd1"}, "problem.phi")
        from .presets import dsl_phi, sunflower_setup

        try:
            setup = sunflower_setup(a, dsl_phi(phi_e), T, r)
            coupled = replace(setup.coupled, n_quad=n_quad)
        except DdeBranchError as exc:
            raise ConfigError(f"problem: {exc}") from exc
        return LoadedProblem(coupled=coupled, sigma=setup.sigma, a=a)

    # Explicit coupled problem.
    dims = _require(block, "dims", "problem")
    _check_keys(dims, {"k", "s"}, "problem.dims")
    k = _integer(dims, "k", "problem.dims")
    s = _integer(dims, "s", "problem.dims")
    T = _number(block, "T", "problem", positive=True)
    r = _number(block, "r", "problem", positive=True)
    a = _load_periodic_expr(_require(block, "a", "problem"), T, "problem.a")

    g_exprs = _parse_exprs(_require(block, "g", "problem"), _state_vars(k, s, with_time=False, with_delays=False), "problem.g")
    if len(g_exprs) != s:
        raise ConfigError(f"problem.g: expected {s} component(s), got {len(g_exprs)}")
    g = _vector_field(g_exprs, k, s, with_time=False)

    f = None
    if k > 0:
        f_exprs = _parse_exprs(_require(block, "f", "problem"), _state_vars(k, s), "problem.f")
        if len(f_exprs) != k:
            raise ConfigError(f"problem.f: expected {k} component(s), got {len(f_exprs)}")
        f = _vector_field(f_exprs, k, s, with_time=True)
    elif "f" in block:
        raise ConfigError("problem.f: not allowed when k = 0")

    h = None
    if "h" in block:
        h_exprs = _parse_exprs(block["h"], _state_vars(k, s), "problem.h")
        if len(h_exprs) != s:
            raise ConfigError(f"problem.h: expected {s} component(s), got {len(h_exprs)}")
        h = _vector_field(h_exprs, k, s, with_time=True)

    try:
        coupled = CoupledProblem(
            dim_x=k, dim_y=s, f=f, g=g, h=h, a=a, period=T, delay=r, n_quad=n_quad
        )
    except ConfigError:
        raise
    except DdeBranchError as exc:
        raise ConfigError(f"problem: {exc}") from exc
    return LoadedProblem(coupled=coupled, a=a)


def _reject_constant(name):
    raise ConfigError(f"config is not valid JSON: {name} is not a JSON number")


def load_config(path) -> dict:
    try:
        with open(path) as fh:
            config = json.load(fh, parse_constant=_reject_constant)
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    _check_keys(config, _TOP_KEYS, "config")
    return config
