"""Command-line front end.

Subcommands: integrate, degree, sigma, verify-index, branch.  Every command
reads a single JSON config (--config), writes its artifacts under --out,
and embeds the resolved config in each JSON report.  Exit codes: 0 success,
2 config/validation error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import expr as dsl
from .config import (
    _check_keys,
    _number,
    _parse_box,
    _parse_exprs,
    _require,
    load_config,
    load_problem,
    parse_numerics,
    _BRANCH_KEYS,
    _DEGREE_KEYS,
    _INTEGRATE_KEYS,
    _VERIFY_KEYS,
)
from .continuation import ContinuationConfig, continue_branch
from .degree import degree_1d, degree_2d_winding, degree_nd_jacobian
from .errors import ConfigError, DdeBranchError, ExprError
from .fields import FieldHandle, nu_field
from .integrator import integrate
from .lienard import sigma_transform
from .poincare import TranslationConfig, verify_index_identity
from .problem import History

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3


def _emit_error(exc: Exception):
    payload = {"error": {"type": type(exc).__name__, "message": str(exc)}}
    offset = getattr(exc, "offset", None)
    if offset is not None:
        payload["error"]["offset"] = offset
    print(json.dumps(payload), file=sys.stderr)


def _write_json(path: Path, payload: dict):
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, allow_nan=False)
        fh.write("\n")


def cmd_integrate(config: dict, out: Path, args) -> int:
    block = _require(config, "integrate", "config")
    _check_keys(block, _INTEGRATE_KEYS, "integrate")
    lam = _number(block, "lambda", "integrate", default=0.0)
    mu = _number(block, "mu", "integrate", default=1.0)
    t_end = _number(block, "t_end", "integrate", positive=True)
    resolution = int(_number(block, "resolution", "integrate", default=400, positive=True))
    loaded = load_problem(config)
    problem = loaded.coupled
    num = parse_numerics(config)
    init_spec = block.get("init", 0.0)
    if isinstance(init_spec, (int, float)):
        point = np.full(problem.dim, float(init_spec))
    else:
        point = np.asarray(init_spec, dtype=float)
        if point.size != problem.dim:
            raise ConfigError(
                f"integrate.init: expected {problem.dim} value(s), got {point.size}"
            )
    init = History.constant(point, problem.delay, m=num.m)
    traj = integrate(problem, lam, mu, init, t_end, steps_per_delay=num.steps_per_delay)
    csv_path = out / "trajectory.csv"
    traj.to_csv(csv_path, resolution=resolution)
    if not args.quiet:
        print(f"wrote {csv_path}")
    return EXIT_OK


def _degree_field(config: dict, block: dict):
    kind = block.get("field", "expr")
    if kind == "nu":
        loaded = load_problem(config)
        field = nu_field(loaded.coupled)
        return field, field.dim
    if kind != "expr":
        raise ConfigError(f"degree.field: expected 'nu' or 'expr', got {kind!r}")
    var_names = _require(block, "vars", "degree")
    if not isinstance(var_names, list) or not all(isinstance(v, str) for v in var_names):
        raise ConfigError("degree.vars: expected a list of variable names")
    exprs = _parse_exprs(_require(block, "exprs", "degree"), set(var_names), "degree.exprs")
    if len(exprs) != len(var_names):
        raise ConfigError(
            f"degree: field has {len(exprs)} component(s) but {len(var_names)} variable(s)"
        )

    fns = [dsl.compile_expr(e) for e in exprs]

    def ev(Z):
        env = {name: Z[:, j] for j, name in enumerate(var_names)}
        return np.stack([np.broadcast_to(f(env), Z.shape[:1]) for f in fns], axis=-1)

    return FieldHandle(dim=len(var_names), eval=ev, name="expr"), len(var_names)


#: Each degree method: its call on a box, the name of the resolution
#: argument that --seed-grid sets, and the box dimension it needs (None: any).
_DEGREE_METHODS = {
    "sign-1d": (lambda fn, box, **kw: degree_1d(fn, (box.lower[0], box.upper[0]), **kw), "n_check", 1),
    "winding-2d": (degree_2d_winding, "n_boundary", 2),
    "jacobian-nd": (degree_nd_jacobian, "grid_per_axis", None),
}


def cmd_degree(config: dict, out: Path, args) -> int:
    block = _require(config, "degree", "config")
    _check_keys(block, _DEGREE_KEYS, "degree")
    fn, dim = _degree_field(config, block)
    box = _parse_box(_require(block, "box", "degree"), "degree.box")
    if box.dim != dim:
        raise ConfigError(f"degree.box: dimension {box.dim} does not match field dimension {dim}")
    if block.get("negate", False):
        fn = fn.negated()
    method = block.get("method", "auto")
    if method == "auto":
        method = {1: "sign-1d", 2: "winding-2d"}.get(dim, "jacobian-nd")
    if method not in _DEGREE_METHODS:
        raise ConfigError(f"degree.method: unknown method {method!r}")
    run, resolution, needs = _DEGREE_METHODS[method]
    if needs not in (None, dim):
        raise ConfigError(f"degree.method: {method!r} needs box dimension {needs}, got {dim}")
    kwargs = {} if args.seed_grid is None else {resolution: args.seed_grid}
    report = run(fn, box, **kwargs)
    payload = report.to_dict()
    payload["config"] = config
    path = out / "degree.json"
    _write_json(path, payload)
    if not args.quiet:
        print(f"degree = {report.degree} ({report.method}); wrote {path}")
    return EXIT_OK


def cmd_sigma(config: dict, out: Path, args) -> int:
    block = config.get("sigma", {})
    _check_keys(block, set(), "sigma")
    loaded = load_problem(config)
    if loaded.sigma is not None:
        result = loaded.sigma
    else:
        if loaded.a is None:
            raise ConfigError("sigma: the problem block must provide a coefficient a")
        result = sigma_transform(loaded.a)
    csv_path = out / "sigma.csv"
    result.to_csv(csv_path)
    payload = {
        "c0": result.c0,
        "sign": result.sign,
        "avg_sigma": result.avg_sigma,
        "config": config,
    }
    json_path = out / "sigma.json"
    _write_json(json_path, payload)
    if not args.quiet:
        print(f"wrote {csv_path} and {json_path}")
    return EXIT_OK


def cmd_verify_index(config: dict, out: Path, args) -> int:
    block = _require(config, "verify_index", "config")
    _check_keys(block, _VERIFY_KEYS, "verify_index")
    lam = _number(block, "lambda", "verify_index", positive=True)
    box = _parse_box(_require(block, "box", "verify_index"), "verify_index.box")
    loaded = load_problem(config)
    num = parse_numerics(config)
    cfg = TranslationConfig(
        m=num.m, steps_per_delay=num.steps_per_delay,
        newton_tol=num.newton_tol, fd_step=num.fd_step,
    )
    report = verify_index_identity(loaded.coupled, lam, box, cfg)
    report["config"] = config
    path = out / "index_identity.json"
    _write_json(path, report)
    if not args.quiet:
        status = "PASS" if report["pass"] else "FAIL"
        print(f"index identity {status}: lhs={report['lhs_sum']} rhs={report['rhs']}; wrote {path}")
    return EXIT_OK


def cmd_branch(config: dict, out: Path, args) -> int:
    block = _require(config, "branch", "config")
    _check_keys(block, _BRANCH_KEYS, "branch")
    loaded = load_problem(config)
    problem = loaded.coupled
    num = parse_numerics(config)
    origin = np.asarray(_require(block, "origin", "branch"), dtype=float)
    lambda_max = _number(block, "lambda_max", "branch")
    domain = None
    if "domain" in block:
        domain = _parse_box(block["domain"], "branch.domain")
    ccfg = ContinuationConfig(
        h0=_number(block, "h0", "branch", default=0.05, positive=True),
        h_min=_number(block, "h_min", "branch", default=1e-6, positive=True),
        h_max=_number(block, "h_max", "branch", default=0.25, positive=True),
        newton_tol=num.newton_tol,
        max_points=int(_number(block, "max_points", "branch", default=200, positive=True)),
        m=num.m,
        steps_per_delay=num.steps_per_delay,
        fd_step=num.fd_step,
        domain=domain,
    )
    branch = continue_branch(problem, origin, lambda_max, ccfg)
    csv_path = out / "branch.csv"
    branch.to_csv(csv_path)
    payload = branch.to_json_dict()
    payload["config"] = config
    json_path = out / "branch.json"
    _write_json(json_path, payload)
    if not args.quiet:
        print(
            f"branch: {len(branch.points)} point(s), termination={branch.termination}; "
            f"wrote {csv_path} and {json_path}"
        )
    return EXIT_OK


_COMMANDS = {
    "integrate": cmd_integrate,
    "degree": cmd_degree,
    "sigma": cmd_sigma,
    "verify-index": cmd_verify_index,
    "branch": cmd_branch,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ddebranch",
        description="Periodic solutions of periodically perturbed coupled delay "
        "differential equations: integration, degree, sigma transform, index "
        "identity checks, and branch continuation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="path to the JSON run config")
        p.add_argument("--out", default=".", help="output directory (default: cwd)")
        p.add_argument("--quiet", action="store_true")
        if name == "degree":
            p.add_argument("--seed-grid", type=int, default=None,
                           help="resolution of the degree method: n_check (sign-1d), "
                           "n_boundary (winding-2d) or grid_per_axis (jacobian-nd)")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = load_config(args.config)
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        return _COMMANDS[args.command](config, out, args)
    except (ConfigError, ExprError) as exc:
        _emit_error(exc)
        return EXIT_CONFIG
    except DdeBranchError as exc:
        _emit_error(exc)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
