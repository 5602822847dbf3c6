"""Command line front end.

Subcommands:
  eval      evaluate a named functional on a JSON instance file
  check     run verifier suites and write JSON reports
  optimize  maximize a variational objective on an instance file at its
            closed-form argmax; its flags are --grad-tol (the certificate's
            bound on the gradient norm there) and --out
  gen       generate random instance files

Flag defaults are read from ``CheckConfig``, ``SolverConfig`` and
``matrix_core.EIG_RANGE``, not repeated here, and the names and instance
fields of ``eval`` and ``optimize`` from ``functionals.FUNCTIONALS`` and
``variational.OBJECTIVES``.

All commands are reproducible: the seed defaults to 0xC0FFEE, can be set
with --seed or the ENTROPYLAB_SEED environment variable, each in decimal or
with a 0x, 0o or 0b prefix, and identical arguments produce byte-identical
output files.

``main`` builds its argument parser on its first call and reuses it for
every later call in the process; parsing leaves the parser unchanged, so
a call sees nothing of the calls before it.  Only repeated calls in one
process gain from this: the ``entropylab`` script calls ``main`` once.

Exit codes: 0 success / all checks passed, 1 check violations (or an
inconclusive witness search), 2 usage, input or output errors, 3 numerical
errors.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from pathlib import Path

from . import functionals as fn
from .errors import (
    ConvergenceFailure,
    EntropyLabError,
    NonFiniteObjective,
    NumericalInconsistency,
    OutputError,
    ParseError,
)
from .matrix_core import (
    EIG_RANGE,
    make_rng,
    random_contraction_tuple,
    random_hermitian,
    random_pd,
)
from .serialization import (
    contraction_tuple_to_json,
    dump_json,
    dumps,
    load_json,
    matrix_to_json,
    multi_instance_to_json,
    read_fields,
)
from .variational import OBJECTIVES, SolverConfig, maximize
from .verifiers import CHECKS, CheckConfig, DEFAULT_DIMS, DEFAULT_SEED, check_dims, run_check


def _seed(text: str) -> int:
    """A seed as --seed and ENTROPYLAB_SEED take it: decimal, leading zeros
    included (as in 012), or with a 0x, 0o or 0b prefix.  Its range is
    checked by the config that takes it."""
    for base in (10, 0):
        try:
            return int(text, base)
        except ValueError:
            pass
    raise argparse.ArgumentTypeError(f"not an integer: {text!r}")


def _resolve_seed(flag_value) -> int:
    if flag_value is not None:
        return flag_value
    env = os.environ.get("ENTROPYLAB_SEED")
    if env is not None:
        try:
            return _seed(env)
        except argparse.ArgumentTypeError as exc:
            raise ParseError(f"ENTROPYLAB_SEED is not an integer: {env!r}") from exc
    return DEFAULT_SEED


def cmd_eval(args) -> int:
    attr, fields = fn.FUNCTIONALS[args.functional]
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
    for name in names:  # a check that cannot use the dims fails before any report is written
        check_dims(name, cfg)
    out_dir = Path(args.out_dir)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise OutputError(f"cannot create {out_dir}: {exc}") from exc
    summary = {"seed": cfg.seed, "trials": cfg.trials, "checks": {}}
    all_passed = True
    for name in names:
        report = run_check(name, cfg)
        dump_json(report.to_dict(), out_dir / f"{name}.json")
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
    cfg = SolverConfig(grad_tol=args.grad_tol)
    data = read_fields(obj, OBJECTIVES[args.objective][1], str(args.instance))
    result = maximize(args.objective, data, cfg)
    record = {
        "objective": args.objective,
        "value": result.value,
        "final_grad_norm": result.final_grad_norm,
        "converged": result.converged,
        "argmax": matrix_to_json(result.argmax),
    }
    print(dumps(record))
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
    p_eval.add_argument("functional", choices=tuple(fn.FUNCTIONALS))
    p_eval.add_argument("instance", type=Path, help="JSON instance file")
    p_eval.add_argument("--out", type=Path, default=None, help="write a JSON record here")

    p_check = sub.add_parser("check", help="run verifier suites")
    p_check.add_argument("suite", choices=("all",) + tuple(CHECKS))
    p_check.add_argument("--trials", type=int, default=CheckConfig.trials)
    p_check.add_argument("--seed", type=_seed, default=None)
    p_check.add_argument("--tol-abs", type=float, default=CheckConfig.tol_abs)
    p_check.add_argument("--tol-rel", type=float, default=CheckConfig.tol_rel)
    p_check.add_argument("--dims", action="append", metavar="k,m,n",
                         help="instance dimension triple; repeatable")
    p_check.add_argument("--out-dir", type=Path, default=Path("reports"))

    p_opt = sub.add_parser("optimize", help="maximize a variational objective")
    p_opt.add_argument("objective", choices=tuple(OBJECTIVES))
    p_opt.add_argument("instance", type=Path)
    p_opt.add_argument("--grad-tol", type=float, default=SolverConfig.grad_tol)
    p_opt.add_argument("--out", type=Path, default=None)

    p_gen = sub.add_parser("gen", help="generate random instance files")
    p_gen.add_argument("kind", choices=("pd", "hermitian", "contraction_tuple", "multi_instance"))
    p_gen.add_argument("--out", type=Path, required=True)
    p_gen.add_argument("--seed", type=_seed, default=None)
    p_gen.add_argument("--dim", type=int, default=3)
    p_gen.add_argument("--k", type=int, default=1)
    p_gen.add_argument("--m", type=int, default=2)
    p_gen.add_argument("--n", type=int, default=2)
    p_gen.add_argument("--eig-lo", type=float, default=EIG_RANGE[0])
    p_gen.add_argument("--eig-hi", type=float, default=EIG_RANGE[1])
    p_gen.add_argument("--scale", type=float, default=1.0)
    p_gen.add_argument("--sum-identity", action="store_true")
    p_gen.add_argument("--b-list", action="store_true",
                       help="multi_instance: generate self-adjoint B_i instead of PD A_i")

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    # The handler is looked up at call time, not stored in the long-lived
    # parser, so a rebinding of a ``cmd_*`` function takes effect.
    handler = {"eval": cmd_eval, "check": cmd_check, "optimize": cmd_optimize,
               "gen": cmd_gen}[args.command]
    try:
        return handler(args)
    except (NumericalInconsistency, NonFiniteObjective, ConvergenceFailure) as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 3
    except EntropyLabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
