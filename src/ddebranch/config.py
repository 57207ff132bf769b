"""Run-configuration loading and validation for the command-line front end.

Configs are single JSON documents.  Validation is strict: unknown keys are
hard errors, and every expression is parsed against the variable set legal
for its slot before any computation starts.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from . import expr as dsl
from .errors import ConfigError, ExprError
from .lienard import SigmaResult
from .problem import BatchField, Box, CoupledProblem, PeriodicFn1D

_TOP_KEYS = {"problem", "numerics", "integrate", "degree", "sigma", "verify_index", "branch"}
_PROBLEM_KEYS = {"preset", "a", "phi", "alpha", "beta", "T", "r", "dims", "f", "g", "h"}
_NUMERICS_KEYS = {"n_quad", "steps_per_delay", "m", "newton_tol", "fd_step"}
_INTEGRATE_KEYS = {"lambda", "mu", "t_end", "init", "resolution"}
_DEGREE_KEYS = {"field", "exprs", "vars", "box", "method", "negate"}
_VERIFY_KEYS = {"lambda", "box"}
_BRANCH_KEYS = {"origin", "lambda_max", "h0", "h_min", "h_max", "max_points", "domain"}
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


def _parse_box(obj, path) -> Box:
    _check_keys(obj, _BOX_KEYS, path)
    lower = _require(obj, "lower", path)
    upper = _require(obj, "upper", path)
    try:
        return Box(lower=np.asarray(lower, dtype=float), upper=np.asarray(upper, dtype=float))
    except Exception as exc:
        raise ConfigError(f"{path}: {exc}") from exc


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
    names = set()
    if with_time:
        names.add("t")
    names |= {f"x{i+1}" for i in range(k)}
    names |= {f"y{j+1}" for j in range(s)}
    if with_delays:
        names |= {f"xd{i+1}" for i in range(k)}
        names |= {f"yd{j+1}" for j in range(s)}
    return names


def _vector_field(exprs, k, s, with_time) -> BatchField:
    """The field whose components are exprs, compiled once.

    Its arguments are (t, x, y, xd, yd) when with_time (f and h), else
    (x, y) (g).  Each state argument may carry a leading batch axis, and t
    may be an array that broadcasts against it; the result has the batch
    shape plus one axis of len(exprs) components.
    """
    fns = [dsl.compile_expr(e) for e in exprs]
    used = set().union(*(e.free_vars() for e in exprs))
    prefixes = ("x", "y", "xd", "yd") if with_time else ("x", "y")
    # (state argument, column, variable name) of each variable in use.
    binds = [
        (arg, j, f"{p}{j + 1}")
        for arg, (p, n) in enumerate(zip(prefixes, (k, s, k, s)))
        for j in range(n)
        if f"{p}{j + 1}" in used
    ]

    def field(*args):
        env = {}
        if with_time:
            t, *args = args
            env["t"] = t
        for arg, j, name in binds:
            env[name] = np.asarray(args[arg], dtype=float)[..., j]
        shape = np.shape(args[0])[:-1]
        if with_time and np.ndim(t):
            shape = np.broadcast_shapes(np.shape(t), shape)
        out = np.empty(shape + (len(fns),))
        for j, fn in enumerate(fns):
            out[..., j] = fn(env)
        return out

    return BatchField(field)


@dataclass(frozen=True)
class NumericsConfig:
    n_quad: int = 1024
    steps_per_delay: int = 32
    m: int = 32
    newton_tol: float = 1e-9
    fd_step: float = 1e-6


@dataclass(frozen=True)
class LoadedProblem:
    """A problem resolved from config: the coupled system, plus the sigma
    transform when it came from a sunflower preset and the parameter value
    lam = -beta/r when it came from the classic-sunflower preset."""

    coupled: CoupledProblem
    sigma: Optional[SigmaResult] = None
    a: Optional[PeriodicFn1D] = None
    default_lambda: Optional[float] = None


def parse_numerics(config: dict) -> NumericsConfig:
    block = config.get("numerics", {})
    _check_keys(block, _NUMERICS_KEYS, "numerics")
    n_quad = int(_number(block, "n_quad", "numerics", default=1024))
    spd = int(_number(block, "steps_per_delay", "numerics", default=32))
    m = int(_number(block, "m", "numerics", default=32))
    tol = _number(block, "newton_tol", "numerics", default=1e-9, positive=True)
    fd = _number(block, "fd_step", "numerics", default=1e-6, positive=True)
    return NumericsConfig(n_quad=n_quad, steps_per_delay=spd, m=m, newton_tol=tol, fd_step=fd)


def _load_periodic_expr(source: str, period: float, path: str) -> PeriodicFn1D:
    (e,) = _parse_exprs(source, {"t"}, path)
    fn = dsl.compile_expr(e)

    def ev(t):
        v = fn({"t": t})
        if type(t) is float or np.shape(v) == np.shape(t):
            return v
        return np.full(np.shape(t), v)  # a constant expression

    return PeriodicFn1D(eval=ev, period=period)


def load_problem(config: dict) -> LoadedProblem:
    """Resolve the problem block; the coupled problem averages with
    numerics.n_quad cells."""
    block = _require(config, "problem", "config")
    n_quad = parse_numerics(config).n_quad
    _check_keys(block, _PROBLEM_KEYS, "problem")
    preset = block.get("preset")
    if preset is not None and preset not in ("sunflower", "classic-sunflower"):
        raise ConfigError(f"problem.preset: unknown preset {preset!r}")

    if preset == "classic-sunflower":
        for key in ("a", "phi", "dims", "f", "g", "h"):
            if key in block:
                raise ConfigError(f"problem.{key}: not allowed with the classic-sunflower preset")
        T = _number(block, "T", "problem", default=2.0 * math.pi, positive=True)
        r = _number(block, "r", "problem", positive=True)
        alpha = _number(block, "alpha", "problem")
        beta = _number(block, "beta", "problem")
        from .presets import classic_sunflower_setup

        try:
            setup, lam = classic_sunflower_setup(alpha, beta, r, T)
            coupled = replace(setup.coupled, n_quad=n_quad)
        except Exception as exc:
            raise ConfigError(f"problem: {exc}") from exc
        return LoadedProblem(
            coupled=coupled, sigma=setup.sigma, a=setup.scalar.a, default_lambda=lam,
        )

    if preset == "sunflower":
        for key in ("dims", "f", "g", "h", "alpha", "beta"):
            if key in block:
                raise ConfigError(f"problem.{key}: not allowed with the sunflower preset")
        T = _number(block, "T", "problem", default=2.0 * math.pi, positive=True)
        r = _number(block, "r", "problem", default=1.0, positive=True)
        a_src = block.get("a", "-1 + 0.5*sin(t)")
        phi_src = block.get("phi", "sin(yd1)")
        a = _load_periodic_expr(a_src, T, "problem.a")
        (phi_e,) = _parse_exprs(phi_src, {"y1", "yd1"}, "problem.phi")
        phi_fn = dsl.compile_expr(phi_e)

        def phi(y, yd):
            return phi_fn({"y1": y, "yd1": yd})

        from .presets import sunflower_setup

        try:
            setup = sunflower_setup(a, phi, T, r)
            coupled = replace(setup.coupled, n_quad=n_quad)
        except Exception as exc:
            raise ConfigError(f"problem: {exc}") from exc
        return LoadedProblem(coupled=coupled, sigma=setup.sigma, a=a)

    # Explicit coupled problem.
    dims = _require(block, "dims", "problem")
    _check_keys(dims, {"k", "s"}, "problem.dims")
    k = int(_number(dims, "k", "problem.dims"))
    s = int(_number(dims, "s", "problem.dims"))
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
    except Exception as exc:
        raise ConfigError(f"problem: {exc}") from exc
    return LoadedProblem(coupled=coupled, a=a)


def load_config(path) -> dict:
    try:
        with open(path) as fh:
            config = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    _check_keys(config, _TOP_KEYS, "config")
    return config
