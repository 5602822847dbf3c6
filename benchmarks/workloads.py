"""The three workloads: how each makes its inputs, what one timed op is, and
how each op's output is checked.

A workload is a function ``(lab, seed, work_dir, **size) -> list[Op]`` that
writes its inputs, warms the code paths its ops use and returns the ops of
one round.  Every round runs the same ops on the same inputs, so each op
must give the same output in every round.  ``lab`` is the imported
``entropylab`` package.

Checks against scipy run only after the timed phase (``oracles`` is imported
inside the check functions), so scipy counts in neither ``setup_s`` nor
``peak_rss_mb``.
"""

from __future__ import annotations

import contextlib
import io
import json
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Callable

import numpy as np

# The eight checks of ``check all``, in its order.
ALL_CHECKS = ("sh_convexity", "phi_concavity", "multi_concavity", "gt_jensen",
              "gibbs_identity", "derivative_limit", "gt_route_gap", "homogeneity")
# gt_route_gap aborts at n >= 8 (exp underflow below the PD floor), so the
# large-matrix workload leaves it out.
LARGE_CHECKS = tuple(c for c in ALL_CHECKS if c != "gt_route_gap")
# One check command per (check, dims) pair, so the sizes a round runs do not
# depend on the seed.  k*m >= n in each, as the isometric checks need.  Five
# sizes make the op latencies dense enough that their median does not jump
# between two ops of very different cost.
LARGE_DIMS = ("1,16,16", "2,10,20", "1,24,24", "2,14,28", "1,32,32")
LARGE_TRIALS = 8
SMALL_TRIALS = 200
# (n, m) of the request instances: L and X are n x n, A is m x m, H is m x n.
REQUEST_SIZES = ((2, 2), (4, 3), (8, 8), (16, 12))
WITNESS_REQUESTS = 4
WITNESS_SEARCH_TRIALS = 40


class OpFailed(Exception):
    """An op that did not complete: a non-zero exit code or an exception."""


@dataclass
class Op:
    key: str
    call: Callable[[], object]                 # timed
    check: Callable[[object], list]            # untimed: problems with one output
    # Untimed: the output, from what ``call`` returned, to compare and check.
    collect: Callable[[object], object] = lambda raw: raw


def run_cli(cli, argv: list[str], ok_codes=(0,)) -> str:
    """One CLI request through ``entropylab.cli.main``; returns its stdout."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    if code not in ok_codes:
        raise OpFailed(f"entropylab {' '.join(argv)} exited {code}: {err.getvalue().strip()}")
    return out.getvalue()


def _warm(cli, argv: list[str]) -> None:
    # Warm-up runs at one trial, where a witness search may find nothing and
    # exit 1; only the code paths matter here.
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        cli.main(argv)


# ---------------------------------------------------------------------------
# check_small and check_large
# ---------------------------------------------------------------------------

def _report_problems(report_bytes: bytes) -> list[str]:
    import oracles

    report = json.loads(report_bytes)
    name = report["check_name"]
    problems = []
    if report["passed"] is not True:
        problems.append(f"{name}: report is not passed ({report['note']})")
    errors = [v for v in report["violations"] if v.get("kind") == "error"]
    if errors:
        problems.append(f"{name}: {len(errors)} error records, first: {errors[0].get('error')}")
    if report["semantics"] == "witness_search":
        for w in report["violations"]:
            problems += [f"{name} trial {w['trial']}: {p}" for p in oracles.witness_problems(w)]
    return problems


def _check_ops(lab, seed: int, work: Path, checks, dims_list, trials: int) -> list[Op]:
    ops = []
    for check in checks:
        for dims in dims_list:
            key = f"{check}@{dims}" if dims else check
            out_dir = work / key
            dims_args = ["--dims", dims] if dims else []
            base = ["check", check, "--seed", str(seed), "--out-dir", str(out_dir), *dims_args]
            report = out_dir / f"{check}.json"
            _warm(lab.cli, [*base, "--trials", "1"])
            report.unlink(missing_ok=True)
            ops.append(Op(key=key,
                          # Exit 1 means the report holds violations: an
                          # output for the check below, not a failed op.
                          call=partial(run_cli, lab.cli, [*base, "--trials", str(trials)],
                                       ok_codes=(0, 1)),
                          collect=partial(_take_report, report),
                          check=_report_problems))
    return ops


def _take_report(path: Path, _stdout: str) -> bytes:
    # Removed once read, so every op must write its report anew.
    data = path.read_bytes()
    path.unlink()
    return data


def check_small(lab, seed: int, work: Path, trials: int = SMALL_TRIALS) -> list[Op]:
    """The eight checks of ``check all`` at the default dims (n <= 4)."""
    return _check_ops(lab, seed, work, ALL_CHECKS, [None], trials)


def check_large(lab, seed: int, work: Path, trials: int = LARGE_TRIALS,
                dims=LARGE_DIMS) -> list[Op]:
    """Seven checks (all but gt_route_gap) at n from 16 to 32."""
    return _check_ops(lab, seed, work, LARGE_CHECKS, dims, trials)


# ---------------------------------------------------------------------------
# requests
# ---------------------------------------------------------------------------

def _haar(rng, n: int) -> np.ndarray:
    q, r = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    d = np.diag(r)
    return q * (d / np.abs(d))


def _hermitian(rng, n: int, lo: float, hi: float) -> np.ndarray:
    u = _haar(rng, n)
    a = (u * rng.uniform(lo, hi, n)) @ u.conj().T
    return (a + a.conj().T) / 2.0


def _pd(rng, n):
    return _hermitian(rng, n, 0.1, 4.0)


def _self_adjoint(rng, n):
    return _hermitian(rng, n, -1.5, 1.5)


def _contraction(rng, m: int, n: int) -> np.ndarray:
    g = rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n))
    return g * (rng.uniform(0.3, 0.95) / np.linalg.norm(g, 2))


def _isometry_blocks(rng, k: int, m: int, n: int) -> list[np.ndarray]:
    """k blocks of m x n with sum H_i* H_i = I (needs k*m >= n)."""
    q, r = np.linalg.qr(rng.standard_normal((k * m, n)) + 1j * rng.standard_normal((k * m, n)))
    d = np.diag(r)
    q = q * (d / np.abs(d))
    return [q[i * m:(i + 1) * m] for i in range(k)]


def _value_problems(expected: float, out: str) -> list[str]:
    value = float(out.strip())
    if abs(value - expected) <= 1e-9 * (1.0 + abs(expected)):
        return []
    return [f"value {value!r} differs from the scipy value {expected!r}"]


def _optimum_problems(expected: float, out: str) -> list[str]:
    rec = json.loads(out)
    problems = []
    if rec["converged"] is not True:
        problems.append(f"solver did not converge (gradient norm {rec['final_grad_norm']})")
    if not abs(rec["value"] - expected) <= 1e-6 * abs(expected):
        problems.append(f"optimum {rec['value']!r} differs from {expected!r} by more than 1e-6 relative")
    return problems


def _re_evaluate_problems(record: dict, out: dict) -> list[str]:
    import oracles

    tol = 1e-9 * (1.0 + abs(out["lhs"]) + abs(out["rhs"]))
    problems = [f"re_evaluate: {p}" for p in oracles.witness_problems({**record, "gap": out["gap"]})]
    if not abs(out["gap"] - record["gap"]) <= tol:
        problems.append(f"re_evaluate gap {out['gap']!r} differs from the recorded {record['gap']!r}")
    return problems


def _request_specs(rng, n: int, m: int) -> list:
    """(name, CLI argv head, instance, oracle function, its argument keys)
    for the requests of one size."""
    H = _contraction(rng, m, n)
    stacked = _contraction(rng, 2 * m, n)
    return [
        ("relative_entropy", ["eval", "relative_entropy"],
         {"A": _pd(rng, n), "B": _pd(rng, n)}, "relative_entropy", "AB"),
        ("reduced_relative_entropy", ["eval", "reduced_relative_entropy"],
         {"A": _pd(rng, m), "B": _pd(rng, n), "H": H}, "reduced_relative_entropy", "ABH"),
        ("lieb_trace", ["eval", "lieb_trace"],
         {"A": _pd(rng, m), "B": _pd(rng, n), "H": H, "p": float(rng.uniform(0.05, 0.95))},
         "lieb_trace", "ABHp"),
        ("lieb_derivative", ["eval", "lieb_derivative"],
         {"A": _pd(rng, m), "B": _pd(rng, n), "H": _contraction(rng, m, n)},
         "lieb_derivative", "ABH"),
        ("phi", ["eval", "phi"],
         {"A": _pd(rng, m), "L": _self_adjoint(rng, n), "H": _contraction(rng, m, n)},
         "phi", "ALH"),
        ("multi_phi", ["eval", "multi_phi"],
         {"L": _self_adjoint(rng, n), "H": [stacked[:m], stacked[m:]],
          "A": [_pd(rng, m), _pd(rng, m)], "sum_is_identity": False},
         "multi_phi", "LHA"),
        ("gt_jensen_rhs", ["eval", "gt_jensen_rhs"],
         {"L": _self_adjoint(rng, n), "H": _isometry_blocks(rng, 2, m, n),
          "B": [_self_adjoint(rng, m), _self_adjoint(rng, m)], "sum_is_identity": True},
         "gt_jensen_rhs", "LHB"),
        ("gibbs_objective", ["eval", "gibbs_objective"],
         {"X": _pd(rng, n), "B": _pd(rng, n)}, "gibbs_objective", "XB"),
        ("optimize_gibbs", ["optimize", "gibbs"], {"B": _pd(rng, n)}, "trace", "B"),
        ("optimize_phi", ["optimize", "phi"],
         {"A": _pd(rng, m), "L": _self_adjoint(rng, n), "H": _contraction(rng, m, n)},
         "phi", "ALH"),
    ]


def _reference(oracle: str, inst: dict, keys: str) -> float:
    import oracles

    return getattr(oracles, oracle)(*(inst[k] for k in keys))


def _encode(a: np.ndarray) -> dict:
    return {"rows": a.shape[0], "cols": a.shape[1],
            "data": [[float(z.real), float(z.imag)] for z in a.ravel()]}


def _to_json(inst: dict) -> dict:
    return {key: _encode(val) if isinstance(val, np.ndarray)
            else [_encode(v) for v in val] if isinstance(val, list)
            else val
            for key, val in inst.items()}


def requests(lab, seed: int, work: Path, sizes=REQUEST_SIZES,
             witnesses: int = WITNESS_REQUESTS) -> list[Op]:
    """A stream of single requests: ``eval`` of every functional and
    ``optimize gibbs|phi`` through the CLI, on instance files written here,
    plus ``verifiers.re_evaluate`` on gt_route_gap witness records."""
    rng = np.random.default_rng([seed, 0x7265])
    work.mkdir(parents=True, exist_ok=True)
    ops, warmed = [], set()
    for n, m in sizes:
        for name, head, inst, oracle, keys in _request_specs(rng, n, m):
            key = f"{name}@{m}x{n}"
            path = work / f"{key}.json"
            path.write_text(json.dumps(_to_json(inst)))
            argv = [*head, str(path)]
            if name not in warmed:
                run_cli(lab.cli, argv)
                warmed.add(name)
            checker = _optimum_problems if head[0] == "optimize" else _value_problems
            ops.append(Op(key=key, call=partial(run_cli, lab.cli, argv),
                          check=lambda out, args=(oracle, inst, keys), c=checker:
                              c(_reference(*args), out)))
    # Witness records as a report holds them: found by the check, then read
    # back from JSON.  Trials use per-trial substreams, so a longer search
    # finds the witnesses of a shorter one first.
    trials, found = WITNESS_SEARCH_TRIALS, []
    while len(found) < witnesses:
        if trials > 16 * WITNESS_SEARCH_TRIALS:
            raise OpFailed(f"witness search found {len(found)} witnesses, {witnesses} needed")
        cfg = lab.verifiers.CheckConfig(trials=trials, seed=seed)
        found = lab.verifiers.search_gt_route_gap(cfg).violations
        trials *= 2
    for j, record in enumerate(json.loads(json.dumps(found[:witnesses]))):
        # Looked up at call time, so a traced binding is the one called.
        call = lambda rec=record: lab.verifiers.re_evaluate("gt_route_gap", rec)  # noqa: E731
        if j == 0:
            call()
        ops.append(Op(key=f"re_evaluate@{j}", call=call,
                      check=lambda out, rec=record: _re_evaluate_problems(rec, out)))
    return ops


WORKLOADS = {"check_small": check_small, "check_large": check_large, "requests": requests}
