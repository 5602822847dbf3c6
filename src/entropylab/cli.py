"""Command line front end.

Subcommands:
  eval      evaluate a named functional on a JSON instance file
  check     run verifier suites and write JSON reports
  optimize  run the variational solver on an instance file
  gen       generate random instance files

All commands are reproducible: the seed defaults to 0xC0FFEE, can be set
with --seed or the ENTROPYLAB_SEED environment variable, and identical
arguments produce byte-identical output files.

Exit codes: 0 success / all checks passed, 1 check violations (or an
inconclusive witness search), 2 usage or input errors, 3 numerical errors.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from . import functionals as fn
from .errors import (
    ConvergenceFailure,
    DimensionError,
    DomainError,
    EntropyLabError,
    NonFiniteObjective,
    NotAContraction,
    NumericalInconsistency,
    ParseError,
)
from .matrix_core import (
    random_contraction_tuple,
    random_hermitian,
    random_pd,
)
from .serialization import (
    contraction_tuple_to_json,
    dump_json,
    load_json,
    matrix_to_json,
    multi_instance_to_json,
    read_fields,
)
from .variational import SolverConfig, maximize
from .verifiers import CHECKS, CheckConfig, DEFAULT_DIMS, DEFAULT_SEED, run_check

# eval name -> (attribute of ``functionals``, instance fields in argument
# order; see serialization.read_fields).  The attribute is looked up at
# call time.
FUNCTIONALS = {
    "relative_entropy": ("relative_entropy", {"A": "pd", "B": "pd"}),
    "reduced_relative_entropy": ("reduced_relative_entropy",
                                 {"A": "pd", "B": "pd", "H": "matrix"}),
    "lieb_trace": ("lieb_trace", {"A": "pd", "B": "pd", "H": "matrix", "p": "float"}),
    "lieb_derivative": ("lieb_trace_derivative_at_zero", {"A": "pd", "B": "pd", "H": "matrix"}),
    "phi": ("trace_exp_functional", {"A": "pd", "L": "hermitian", "H": "matrix"}),
    "multi_phi": ("multi_trace_exp", {"inst": "multi"}),
    "gt_jensen_rhs": ("gt_jensen_rhs", {"inst": "multi"}),
    "gibbs_objective": ("gibbs_objective", {"X": "pd", "B": "pd"}),
}
# optimize objective -> the data fields ``maximize`` takes.
OBJECTIVE_FIELDS = {
    "gibbs": {"B": "pd"},
    "phi": {"A": "pd", "L": "hermitian", "H": "matrix"},
}


def _resolve_seed(flag_value) -> int:
    if flag_value is not None:
        return int(flag_value)
    env = os.environ.get("ENTROPYLAB_SEED")
    if env is not None:
        try:
            return int(env, 0)
        except ValueError as exc:
            raise ParseError(f"ENTROPYLAB_SEED is not an integer: {env!r}") from exc
    return DEFAULT_SEED


def cmd_eval(args) -> int:
    attr, fields = FUNCTIONALS[args.functional]
    inputs = read_fields(load_json(args.instance), fields, str(args.instance))
    value = getattr(fn, attr)(*inputs.values())
    print(f"{value:.15g}")
    if args.out:
        dump_json({"functional": args.functional,
                   "inputs": {"file": str(args.instance)},
                   "value": value}, args.out)
    return 0


def _parse_dims(values) -> tuple:
    dims = []
    for chunk in values:
        parts = chunk.split(",")
        if len(parts) != 3:
            raise ParseError(f"--dims expects 'k,m,n', got {chunk!r}")
        try:
            dims.append(tuple(int(p) for p in parts))
        except ValueError as exc:
            raise ParseError(f"--dims expects integers, got {chunk!r}") from exc
    return tuple(dims)


def cmd_check(args) -> int:
    names = list(CHECKS) if args.suite == "all" else [args.suite]
    cfg = CheckConfig(
        trials=args.trials,
        seed=_resolve_seed(args.seed),
        dims=_parse_dims(args.dims) if args.dims else DEFAULT_DIMS,
        tol_abs=args.tol_abs,
        tol_rel=args.tol_rel,
    )
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    summary = {"seed": cfg.seed, "trials": cfg.trials, "checks": {}}
    all_passed = True
    for name in names:
        report = run_check(name, cfg)
        (out_dir / f"{name}.json").write_text(report.to_json() + "\n")
        if report.passed:
            status = "PASS"
        elif report.semantics == "witness_search" and not report.violations:
            status = "INCONCLUSIVE"
        else:
            status = "FAIL"
        print(f"{name}: {status} (trials={report.trials_run}, "
              f"violations={len(report.violations)}, worst_gap={report.worst_gap})")
        summary["checks"][name] = {
            "passed": report.passed,
            "status": status,
            "violations": len(report.violations),
            "worst_gap": report.worst_gap,
        }
        all_passed = all_passed and report.passed
    summary["all_passed"] = all_passed
    dump_json(summary, out_dir / "summary.json")
    print(f"summary: {'all passed' if all_passed else 'NOT all passed'} "
          f"({sum(1 for c in summary['checks'].values() if c['passed'])}/{len(names)})")
    return 0 if all_passed else 1


def cmd_optimize(args) -> int:
    obj = load_json(args.instance)
    cfg = SolverConfig(
        max_iters=args.max_iters,
        grad_tol=args.grad_tol,
        initial_step=args.initial_step,
        backtrack_factor=args.backtrack_factor,
        armijo_c=args.armijo_c,
    )
    data = read_fields(obj, OBJECTIVE_FIELDS[args.objective], str(args.instance))
    result = maximize(args.objective, data, cfg)
    record = {
        "objective": args.objective,
        "value": result.value,
        "iterations": result.iterations,
        "final_grad_norm": result.final_grad_norm,
        "converged": result.converged,
        "argmax": matrix_to_json(result.argmax),
        "objective_history": result.objective_history,
    }
    print(json.dumps(record, indent=2, sort_keys=True))
    if args.out:
        dump_json(record, args.out)
    return 0


def cmd_gen(args) -> int:
    seed = _resolve_seed(args.seed)
    if args.kind == "pd":
        out = matrix_to_json(random_pd(args.dim, (args.eig_lo, args.eig_hi), seed))
    elif args.kind == "hermitian":
        out = matrix_to_json(random_hermitian(args.dim, args.scale, seed))
    elif args.kind == "contraction_tuple":
        tup = random_contraction_tuple(args.k, args.m, args.n, args.sum_identity, seed)
        out = contraction_tuple_to_json(tup)
    else:  # multi_instance
        from .matrix_core import make_rng

        rng = make_rng(seed)
        tup = random_contraction_tuple(args.k, args.m, args.n, args.sum_identity, rng)
        L = random_hermitian(args.n, args.scale, rng)
        if args.b_list:
            inst = fn.MultiInstance(
                L=L, H=tup,
                b_list=[random_hermitian(args.m, args.scale, rng) for _ in range(args.k)])
        else:
            inst = fn.MultiInstance(
                L=L, H=tup,
                a_list=[random_pd(args.m, (args.eig_lo, args.eig_hi), rng)
                        for _ in range(args.k)])
        out = multi_instance_to_json(inst)
    dump_json(out, args.out)
    print(f"wrote {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="entropylab",
        description="Trace functionals on the positive definite cone: "
                    "evaluation, property verification, and variational optimization.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("eval", help="evaluate a functional on an instance file")
    p_eval.add_argument("functional", choices=tuple(FUNCTIONALS))
    p_eval.add_argument("instance", type=Path, help="JSON instance file")
    p_eval.add_argument("--out", type=Path, default=None, help="write a JSON record here")
    p_eval.set_defaults(func=cmd_eval)

    p_check = sub.add_parser("check", help="run verifier suites")
    p_check.add_argument("suite", choices=("all",) + tuple(CHECKS))
    p_check.add_argument("--trials", type=int, default=200)
    p_check.add_argument("--seed", type=int, default=None)
    p_check.add_argument("--tol-abs", type=float, default=1e-9)
    p_check.add_argument("--tol-rel", type=float, default=1e-9)
    p_check.add_argument("--dims", action="append", metavar="k,m,n",
                         help="instance dimension triple; repeatable")
    p_check.add_argument("--out-dir", type=Path, default=Path("reports"))
    p_check.set_defaults(func=cmd_check)

    p_opt = sub.add_parser("optimize", help="maximize a variational objective")
    p_opt.add_argument("objective", choices=tuple(OBJECTIVE_FIELDS))
    p_opt.add_argument("instance", type=Path)
    p_opt.add_argument("--max-iters", type=int, default=500)
    p_opt.add_argument("--grad-tol", type=float, default=1e-8)
    p_opt.add_argument("--initial-step", type=float, default=1.0)
    p_opt.add_argument("--backtrack-factor", type=float, default=0.5)
    p_opt.add_argument("--armijo-c", type=float, default=1e-4)
    p_opt.add_argument("--out", type=Path, default=None)
    p_opt.set_defaults(func=cmd_optimize)

    p_gen = sub.add_parser("gen", help="generate random instance files")
    p_gen.add_argument("kind", choices=("pd", "hermitian", "contraction_tuple", "multi_instance"))
    p_gen.add_argument("--out", type=Path, required=True)
    p_gen.add_argument("--seed", type=int, default=None)
    p_gen.add_argument("--dim", type=int, default=3)
    p_gen.add_argument("--k", type=int, default=1)
    p_gen.add_argument("--m", type=int, default=2)
    p_gen.add_argument("--n", type=int, default=2)
    p_gen.add_argument("--eig-lo", type=float, default=0.05)
    p_gen.add_argument("--eig-hi", type=float, default=5.0)
    p_gen.add_argument("--scale", type=float, default=1.0)
    p_gen.add_argument("--sum-identity", action="store_true")
    p_gen.add_argument("--b-list", action="store_true",
                       help="multi_instance: generate self-adjoint B_i instead of PD A_i")
    p_gen.set_defaults(func=cmd_gen)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (NumericalInconsistency, NonFiniteObjective, ConvergenceFailure) as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 3
    except (ParseError, DimensionError, NotAContraction, DomainError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except EntropyLabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
