"""Command-line surface: run solvers, certify traces, compare solvers.

Exit codes: 0 success, 1 certificate violation, 2 configuration error,
3 reference unavailable (or unusable) or corrupt trace data.  PROXCERT_SEED
overrides --seed when set; seeds stored in a trace or given in --spec are kept.

`_run_from_spec` turns a run spec (a `compare --spec` object, or one built from
flags) into a problem and a `SolverConfig`.  Every problem spec (flags, a run
spec's, a trace's) reaches its generator, which checks it, through FAMILIES.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import asdict

import numpy as np

# certify_trace is not called here; it stays in this namespace because
# bench/tracer.py wraps `cli.certify_trace` by name
from .certificates import EnergyContext, certify_blocks, certify_trace  # noqa: F401
from .errors import (
    PROBLEM_RULES,
    VARIANTS,
    ConfigurationError,
    DataCorruptionError,
    FitUnavailableError,
    ReferenceUnavailableError,
    RejectedInputError,
)
from .harness import (
    compare_solvers,
    random_box_quadratic,
    random_lasso,
    random_quadratic,
    reference_solution,
)
from .problems import as_vector
from .solvers import SolverConfig, run
from .traceio import TraceMeta, read_trace, write_comparison, write_report, write_trace

SOLVER_NAMES = tuple(variant.replace("_", "-") for variant in VARIANTS)
# A run spec's keys, all required; `compare --spec` defaults the last four.
RUN_SPEC_KEYS = ("problem", "solver", "alpha", "step_mode", "max_iters", "grad_map_tol")
# Each problem family: its generator, and its spec keys (its parameters) with their
# defaults, or another key's name for its value.  The problem flags have no defaults.
FAMILIES = {
    "quadratic": (random_quadratic, {"seed": 0, "dim": 20, "cond": 10}),
    "lasso": (random_lasso, {"seed": 0, "rows": 20, "cols": "rows", "lam": None}),
    "box-quadratic": (random_box_quadratic, {"seed": 0, "dim": 20}),
}
ALIASES = {"rows": "dim"}  # a lasso spec may give its rows as `dim`


def _require(mapping: dict, key: str, what: str):
    """mapping[key], or a ConfigurationError naming the key if missing or null."""
    value = mapping.get(key)
    if value is None:
        raise ConfigurationError(f"{what} has no {key!r}")
    return value


def _effective_seed(seed):
    """--seed (None if not given), or PROXCERT_SEED when set."""
    env = os.environ.get("PROXCERT_SEED")
    if env is None:
        return seed
    try:
        return int(env)
    except ValueError:
        raise ConfigurationError(f"PROXCERT_SEED must be an integer, got {env!r}")


def build_problem_from_spec(spec: dict):
    """Instantiate a generated problem from its spec (see FAMILIES)."""
    generator, args = _problem_args(spec)
    return generator(**args)


def _problem_args(spec: dict):
    """(generator, arguments) of a problem spec: each of its family's keys with
    its value in the spec, else its alias's, else its default.  A key that is
    not the family's (an alias is, without its key) is refused; a None (a JSON
    null) is absent, and no value is coerced."""
    if not isinstance(spec, dict):
        raise ConfigurationError(f"problem spec must be a JSON object, got {spec!r}")
    name = spec.get("name")
    if not isinstance(name, str) or name not in FAMILIES:
        raise ConfigurationError(
            f"unknown problem {name!r}; valid options: {', '.join(FAMILIES)}")
    generator, keys = FAMILIES[name]
    given = {key: value for key, value in spec.items() if value is not None}
    valid = ["name", *keys] + [ALIASES[key] for key in keys
                               if key in ALIASES and key not in given]
    unknown = ", ".join(repr(key) for key in given if key not in valid)
    if unknown:
        raise ConfigurationError(
            f"problem spec has unknown key(s) {unknown}; valid: {', '.join(valid)}")
    args = {}
    for key, default in keys.items():
        default = args[default] if isinstance(default, str) else default
        args[key] = given.get(key, given.get(ALIASES.get(key), default))
    return generator, args


def _refuse_problem_flags(args, why: str) -> None:
    """A ConfigurationError naming each problem flag given, where `why` says
    that the command would not read them."""
    given = [key for key in ("problem", *PROBLEM_RULES) if getattr(args, key) is not None]
    if given:
        raise ConfigurationError(f"--{', --'.join(given)} given {why}")


def _problem_spec_from_args(args) -> dict:
    flags = {key: getattr(args, key) for key in PROBLEM_RULES}  # None if not given
    flags.update(name=args.problem, seed=_effective_seed(args.seed))
    values = _problem_args(flags)[1]
    return {"name": args.problem, **{k: v for k, v in values.items() if v is not None}}


def resolve_step(step_mode: str, lipschitz: float) -> float:
    """Map a step-mode string to a concrete s (validated later against 1/L)."""
    if lipschitz <= 0.0 and step_mode in ("half-inverse-L", "inverse-L"):
        raise ConfigurationError("L-relative step modes need L > 0")
    if step_mode == "half-inverse-L":
        return 0.5 / lipschitz
    if step_mode == "inverse-L":
        return 1.0 / lipschitz
    if isinstance(step_mode, str) and step_mode.startswith("explicit:"):
        try:
            return float(step_mode.split(":", 1)[1])
        except ValueError:
            raise ConfigurationError(f"bad explicit step in {step_mode!r}")
    raise ConfigurationError(
        f"unknown step-mode {step_mode!r}; valid: half-inverse-L, inverse-L, "
        "explicit:<value>"
    )


def _run_from_spec(spec: dict, what: str):
    """(problem, SolverConfig) of a run spec, which has every key of
    RUN_SPEC_KEYS and no other; `what` names the spec in errors."""
    unknown = ", ".join(repr(key) for key in spec if key not in RUN_SPEC_KEYS)
    if unknown:
        raise ConfigurationError(
            f"{what} has unknown key(s) {unknown}; valid: {', '.join(RUN_SPEC_KEYS)}")
    problem_spec, solver, alpha, step_mode, max_iters, grad_map_tol = [
        _require(spec, key, what) for key in RUN_SPEC_KEYS]
    if solver not in SOLVER_NAMES:
        raise ConfigurationError(
            f"unknown solver {solver!r}; valid options: {', '.join(SOLVER_NAMES)}"
        )
    problem = build_problem_from_spec(problem_spec)
    step = resolve_step(step_mode, problem.smooth.lipschitz)
    variant = solver.replace("-", "_")
    return problem, SolverConfig(variant, alpha, step, max_iters, grad_map_tol)


def _spec_from_flags(args, solver: str) -> dict:
    """The run spec of the problem and solver flags, for one solver."""
    return {"problem": _problem_spec_from_args(args), "solver": solver,
            "alpha": args.alpha, "step_mode": args.step_mode,
            "max_iters": args.max_iters, "grad_map_tol": args.grad_map_tol}


def cmd_run(args) -> int:
    spec = _spec_from_flags(args, args.solver)
    problem, config = _run_from_spec(spec, "run")
    trace = run(problem, config, np.zeros(problem.dim), iterates=False)
    meta = TraceMeta(**asdict(config), problem_hash=problem.content_hash,
                     problem=spec["problem"])
    write_trace(args.out, meta, trace, args.format)
    print(f"wrote {len(trace)} records to {args.out}")
    return 0


def _reference_context(args, problem, config) -> EnergyContext:
    x_star = f_star = None
    if args.x_star is not None:
        x_star = as_vector([float(c) for c in args.x_star.split(",")], problem.dim)
    if args.f_star is not None:
        f_star = args.f_star
    if x_star is None or f_star is None:
        ref = reference_solution(problem, budget=args.ref_budget)
        x_star = ref.x_star if x_star is None else x_star
        f_star = ref.f_star if f_star is None else f_star
    return EnergyContext(
        alpha=config.alpha,
        s=config.step,
        mu=problem.smooth.strong_convexity,
        lipschitz=problem.smooth.lipschitz,
        x_star=x_star,
        f_star=f_star,
    )


def _check_stop_rule(config, trace) -> None:
    """A data error unless the trace ends at the first record where config.stops."""
    if not len(trace):
        raise DataCorruptionError("trace has no records")
    k, gnorm = trace.k, trace.grad_map_norm
    stops = config.stops(k, gnorm)
    settings = f"max_iters = {config.max_iters}, grad_map_tol = {config.grad_map_tol!r}"
    if not stops.any():
        raise DataCorruptionError(
            f"trace ends at k={k[-1]} with grad_map_norm {float(gnorm[-1])!r}, "
            f"where a run with {settings} goes on; rows are missing from its end"
        )
    i = int(np.argmax(stops))
    if i < len(trace) - 1:
        raise DataCorruptionError(
            f"a run with {settings} stops at record k={k[i]} (grad_map_norm "
            f"{float(gnorm[i])!r}), but the trace goes on past it"
        )


def cmd_certify(args) -> int:
    if args.problem is None:
        _refuse_problem_flags(args, "without --problem; the trace's problem is certified")
    meta, trace = read_trace(args.trace)
    config = meta.config()
    _check_stop_rule(config, trace)
    if args.problem is not None:
        spec = _problem_spec_from_args(args)
    elif meta.problem is not None:
        spec = meta.problem
    else:
        raise ConfigurationError("trace carries no problem spec; pass --problem")
    problem = build_problem_from_spec(spec)
    if meta.problem_hash is not None and meta.problem_hash != problem.content_hash:
        raise ConfigurationError(
            "trace was produced on a different problem (content hash mismatch)"
        )
    ctx = _reference_context(args, problem, config)
    table = certify_blocks(ctx, trace.replay(problem, config), len(trace), config.variant)
    write_report(args.report, table, args.format)
    print(f"wrote {len(table)} certificate lines to {args.report}")
    violations = np.flatnonzero(table.applies & ~table.passed)
    if violations.size:
        worst = table[violations[0]]
        print(f"FIRST VIOLATION at k={worst.k} name={worst.name} "
              f"lhs={worst.lhs!r} rhs={worst.rhs!r}")
        return 1
    return 0


def _specs_from_args(args) -> list:
    if args.spec:
        _refuse_problem_flags(args, "with --spec, whose specs state their problem")
        specs = [json.loads(s) for s in args.spec]
        for position, spec in enumerate(specs, start=1):
            if not isinstance(spec, dict):
                raise ConfigurationError(
                    f"compare --spec #{position} must be a JSON object, got {spec!r}"
                )
        defaults = {"alpha": 3.0, "step_mode": "half-inverse-L",
                    "max_iters": args.max_iters, "grad_map_tol": args.grad_map_tol}
        return [{**defaults, **spec} for spec in specs]
    if not args.solvers or args.problem is None:
        raise ConfigurationError("compare needs --spec, or --solvers with --problem")
    return [_spec_from_flags(args, name) for name in args.solvers.split(",") if name]


def cmd_compare(args) -> int:
    specs = _specs_from_args(args)
    if len(specs) < 2:
        raise ConfigurationError("compare needs at least two solver specs")
    problems, configs = zip(*[_run_from_spec(s, "compare spec") for s in specs])
    if len({p.content_hash for p in problems}) != 1:
        raise ConfigurationError("compare specs name different problems")
    problem = problems[0]
    comparison = compare_solvers(problem, configs, np.zeros(problem.dim),
                                 budget=args.ref_budget)
    write_comparison(args.table, comparison, args.format)
    summary = {
        "rho_hat": {label: (fit.rho_hat if fit else None)
                    for label, fit in comparison.fits.items()},
        "r_squared": {label: (fit.r_squared if fit else None)
                      for label, fit in comparison.fits.items()},
        "window": {label: (list(fit.window) if fit else None)
                   for label, fit in comparison.fits.items()},
        "rho_lower_bound": comparison.rho_lower_bound,
        "sqrt_mu_over_L": comparison.sqrt_mu_over_l,
        "problem_hash": comparison.problem_hash,
    }
    with open(args.summary, "w") as fh:
        json.dump(summary, fh, indent=2)
        fh.write("\n")
    print(f"wrote comparison table to {args.table} and summary to {args.summary}")
    return 0


def _add_problem_flags(parser, required: bool) -> None:
    parser.add_argument("--problem", choices=FAMILIES, required=required,
                        help="generated problem family")
    parser.add_argument("--dim", type=int, help="dimension (quadratic families)")
    parser.add_argument("--cond", type=int, help="condition number (quadratic)")
    parser.add_argument("--rows", type=int, help="lasso rows")
    parser.add_argument("--cols", type=int, help="lasso cols")
    parser.add_argument("--lam", type=float, help="lasso l1 weight")
    parser.add_argument("--seed", type=int,
                        help="64-bit generator seed (PROXCERT_SEED overrides)")


def _add_solver_flags(parser) -> None:
    parser.add_argument("--alpha", type=float, default=3.0)
    parser.add_argument("--step-mode", default="half-inverse-L",
                        help="half-inverse-L | inverse-L | explicit:<value>")
    parser.add_argument("--max-iters", type=int, default=1000)
    parser.add_argument("--grad-map-tol", type=float, default=0.0)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="proxcert",
        description="Accelerated proximal gradient solvers with per-iteration "
                    "certificates of the proved inequalities and rate envelopes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a solver and write a trace file")
    _add_problem_flags(p_run, required=True)
    p_run.add_argument("--solver", choices=SOLVER_NAMES, required=True)
    _add_solver_flags(p_run)
    p_run.add_argument("--out", required=True, help="trace output path")
    p_run.add_argument("--format", choices=("csv", "jsonl"), default="csv")
    p_run.set_defaults(func=cmd_run)

    p_cert = sub.add_parser("certify", help="evaluate certificates on a trace")
    p_cert.add_argument("--trace", required=True)
    _add_problem_flags(p_cert, required=False)
    p_cert.add_argument("--report", required=True, help="report output path")
    p_cert.add_argument("--format", choices=("csv", "jsonl"), default="csv")
    p_cert.add_argument("--ref-budget", type=int, default=100_000)
    p_cert.add_argument("--f-star", type=float, default=None,
                        help="externally supplied optimum (overrides the computed one)")
    p_cert.add_argument("--x-star", default=None,
                        help="externally supplied minimizer, comma-separated")
    p_cert.set_defaults(func=cmd_certify)

    p_cmp = sub.add_parser("compare", help="run several solvers on one problem")
    _add_problem_flags(p_cmp, required=False)
    p_cmp.add_argument("--solvers", default=None,
                       help="comma-separated solver names sharing the problem flags")
    p_cmp.add_argument("--spec", action="append", default=None,
                       help="full run spec as JSON; repeatable")
    _add_solver_flags(p_cmp)
    p_cmp.add_argument("--table", required=True, help="gap table output path")
    p_cmp.add_argument("--summary", required=True, help="JSON summary output path")
    p_cmp.add_argument("--format", choices=("csv", "jsonl"), default="csv")
    p_cmp.add_argument("--ref-budget", type=int, default=100_000)
    p_cmp.set_defaults(func=cmd_compare)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse reports bad usage and exits 2
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (ConfigurationError, RejectedInputError, FitUnavailableError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except ReferenceUnavailableError as exc:
        print(f"reference error: {exc}", file=sys.stderr)
        return 3
    except DataCorruptionError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3
    except (OSError, ValueError) as exc:
        # unreadable paths, truncated or non-proxcert files, bad numbers
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
