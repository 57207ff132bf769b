"""Command-line front end.

Subcommands: integrate, degree, sigma, verify-index, branch.  Every command
reads a single JSON config (--config), writes its artifacts under --out,
and embeds the resolved config in each JSON report.  Exit codes: 0 success,
2 config/validation error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import expr as dsl
from .config import (
    _check_keys,
    _integer,
    _number,
    _numbers,
    _parse_box,
    _parse_exprs,
    _require,
    continuation_config,
    load_config,
    load_problem,
    translation_config,
    _DEGREE_KEYS,
    _INTEGRATE_KEYS,
    _VERIFY_KEYS,
)
from .continuation import continue_branch
from .degree import MIN_CELLS, degree_auto
from .errors import ConfigError, DdeBranchError, ExprError
from .fields import FieldHandle, nu_field
from .integrator import integrate
from .lienard import sigma_transform, verify_sigma
from .poincare import verify_index_identity
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


def _check_dim(got: int, dim: int, key: str):
    if got != dim:
        raise ConfigError(f"{key}: dimension {got} does not match problem dimension {dim}")


def cmd_integrate(config: dict, out: Path, args) -> int:
    block = _require(config, "integrate", "config")
    _check_keys(block, _INTEGRATE_KEYS, "integrate")
    lam = _number(block, "lambda", "integrate", default=0.0)
    mu = _number(block, "mu", "integrate", default=1.0)
    if not lam >= 0:
        raise ConfigError(f"integrate.lambda: must be >= 0, got {block['lambda']}")
    if not 0 <= mu <= 1:
        raise ConfigError(f"integrate.mu: must be in [0, 1], got {block['mu']}")
    t_end = _number(block, "t_end", "integrate", positive=True)
    resolution = _integer(block, "resolution", "integrate", default=400, positive=True)
    problem = load_problem(config).coupled
    cfg = translation_config(config)
    point = _numbers(block.get("init", 0.0), "integrate.init")
    if point.ndim and point.size != problem.dim:
        raise ConfigError(f"integrate.init: expected {problem.dim} value(s), got {point.size}")
    init = History.constant(np.full(problem.dim, point), problem.delay, m=cfg.m)
    traj = integrate(problem, lam, mu, init, t_end, steps_per_delay=cfg.steps_per_delay)
    csv_path = out / "trajectory.csv"
    traj.to_csv(csv_path, resolution=resolution)
    if not args.quiet:
        print(f"wrote {csv_path}")
    return EXIT_OK


def _degree_field(config: dict, block: dict):
    kind = block.get("field", "expr")
    if kind == "nu":
        for key in ("exprs", "vars"):
            if key in block:
                raise ConfigError(f"degree.{key}: not allowed with field 'nu'")
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

    ev = dsl.compile_function(exprs, [var_names])
    return FieldHandle(dim=len(var_names), eval=ev), len(var_names)


def cmd_degree(config: dict, out: Path, args) -> int:
    block = _require(config, "degree", "config")
    _check_keys(block, _DEGREE_KEYS, "degree")
    fn, dim = _degree_field(config, block)
    box = _parse_box(_require(block, "box", "degree"), "degree.box")
    if box.dim != dim:
        raise ConfigError(f"degree.box: dimension {box.dim} does not match field dimension {dim}")
    negate = block.get("negate", False)
    if not isinstance(negate, bool):
        raise ConfigError(f"degree.negate: expected true or false, got {negate!r}")
    if negate:
        fn = fn.negated()
    report = degree_auto(fn, box) if args.seed_grid is None else degree_auto(fn, box, cells=args.seed_grid)
    payload = report.to_dict()
    payload["config"] = config
    path = out / "degree.json"
    _write_json(path, payload)
    if not args.quiet:
        print(f"degree = {report.degree}; wrote {path}")
    return EXIT_OK


def cmd_sigma(config: dict, out: Path, args) -> int:
    block = config.get("sigma", {})
    _check_keys(block, set(), "sigma")
    loaded = load_problem(config)
    result = loaded.sigma if loaded.sigma is not None else sigma_transform(loaded.a)
    csv_path = out / "sigma.csv"
    result.to_csv(csv_path)
    payload = {
        "c0": result.c0,
        "sign": result.sign,
        "avg_sigma": result.avg_sigma,
        "residual": verify_sigma(loaded.a, result.sigma),
    }
    if loaded.default_lambda is not None:
        payload["lambda"] = loaded.default_lambda
    payload["config"] = config
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
    _check_dim(box.dim, loaded.coupled.dim, "verify_index.box")
    report = verify_index_identity(loaded.coupled, lam, box, translation_config(config))
    report["config"] = config
    path = out / "index_identity.json"
    _write_json(path, report)
    if not args.quiet:
        status = "PASS" if report["pass"] else "FAIL"
        print(f"index identity {status}: lhs={report['lhs_sum']} rhs={report['rhs']}; wrote {path}")
    return EXIT_OK


def cmd_branch(config: dict, out: Path, args) -> int:
    block = _require(config, "branch", "config")
    cfg = continuation_config(config)
    loaded = load_problem(config)
    origin = _numbers(_require(block, "origin", "branch"), "branch.origin")
    _check_dim(origin.size, loaded.coupled.dim, "branch.origin")
    if cfg.domain is not None:
        _check_dim(cfg.domain.dim, loaded.coupled.dim, "branch.domain")
    lambda_max = _number(block, "lambda_max", "branch")
    if not lambda_max >= 0:
        raise ConfigError(f"branch.lambda_max: must be >= 0, got {block['lambda_max']}")
    branch = continue_branch(loaded.coupled, origin, lambda_max, cfg)
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
    """One parser for every command: the command, then the shared options
    (--seed-grid is the degree command's alone; see main)."""
    parser = argparse.ArgumentParser(
        prog="ddebranch",
        description="Periodic solutions of periodically perturbed coupled delay "
        "differential equations: integration, degree, sigma transform, index "
        "identity checks, and branch continuation.",
    )
    parser.add_argument("command", choices=_COMMANDS)
    parser.add_argument("--config", required=True, help="path to the JSON run config")
    parser.add_argument("--out", default=".", help="output directory (default: cwd)")
    parser.add_argument("--quiet", action="store_true")
    parser.add_argument("--seed-grid", default=None,
                        help="degree only: cells per face axis of the boundary and per axis of the "
                        f"zero search (default 16, at least {MIN_CELLS})")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.seed_grid is not None:
        # The command is checked before the value, so any value given to
        # another command gets the same answer.
        if args.command != "degree":
            parser.error(f"--seed-grid is accepted only by degree, not {args.command}")
        try:
            args.seed_grid = int(args.seed_grid)
        except ValueError:
            parser.error(f"argument --seed-grid: invalid int value: {args.seed_grid!r}")
        if args.seed_grid < MIN_CELLS:
            parser.error(f"argument --seed-grid: must be >= {MIN_CELLS}, got {args.seed_grid}")
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
