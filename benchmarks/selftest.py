#!/usr/bin/env python3
"""Quick self-test of the benchmark, kept apart from the library's tests.

    python3 benchmarks/selftest.py

It runs each workload at a tiny size, untraced and traced, and requires
every output check to pass; it then corrupts one value at a time (a
functional scaled by 1 + 1e-6, an output that changes between rounds) and
requires the checks to reject it, and requires that the tracer does not
record the speed probe.  It also runs the benchmark command on the requests
workload and compares the metric names it prints with BENCHMARK.json, and
runs it from a copy without ``src/``, where it must exit non-zero without
printing a result.  Exits 0 when every case holds.
"""

from __future__ import annotations

import contextlib
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import entropylab.cli  # noqa: E402

import probe  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SEED = 7
TINY = {
    "check_small": {"trials": 10},
    "check_large": {"trials": 1, "dims": ("1,16,16",)},
    "requests": {"sizes": ((2, 2), (4, 3)), "witnesses": 1},
}


@contextlib.contextmanager
def scaled(name: str, factor: float):
    """Scale the named function's value in every module that binds it."""
    lab = entropylab
    mods = (lab.functionals, lab.verifiers, lab.variational, lab.cli)
    original = next(getattr(m, name) for m in mods if hasattr(m, name))
    bound = [m for m in mods if getattr(m, name, None) is original]
    for m in bound:
        setattr(m, name, lambda *a, **k: factor * original(*a, **k))
    try:
        yield
    finally:
        for m in bound:
            setattr(m, name, original)


def problems_of(workload: str, work: Path, trace: bool = False) -> tuple[list, list, dict]:
    ops = workloads.WORKLOADS[workload](entropylab, SEED, work, **TINY[workload])
    rounds = run.Rounds(ops)
    rounds.run_round()
    metrics = {}
    if trace:
        tracer = tracing.Tracer(entropylab)
        tracer.install()
        try:
            rounds.run_round(tracer)
        finally:
            tracer.uninstall()
        round_s = rounds.round_s()
        metrics = tracing.layer_metrics(tracer, round_s[:1], round_s[1:])
    else:
        rounds.run_round()
    return rounds.failures, rounds.problems(), metrics


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "benchmarks/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    failed = []

    def expect(ok: bool, what: str) -> None:
        print(f"{'ok  ' if ok else 'FAIL'} {what}")
        if not ok:
            failed.append(what)

    (ROOT / ".bench_out").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=ROOT / ".bench_out") as tmp:
        tmp = Path(tmp)
        for name in workloads.WORKLOADS:
            fails, probs, metrics = problems_of(name, tmp / name / "clean", trace=True)
            expect(not fails and not probs, f"{name}: tiny run passes its checks {fails + probs}")
            expect(set(metrics) == {m["name"] for m in spec["per_layer"]},
                   f"{name}: traced metrics match BENCHMARK.json per_layer")

        corruptions = [
            ("check_small", "gibbs_objective", 1 + 1e-6),
            ("check_large", "multi_trace_exp", 1 + 1e-6),
            ("requests", "trace_exp_functional", 1 + 1e-6),
            ("requests", "gt_route_value", 1 + 1e-6),
            # The optimum is checked at 1e-6 relative, so 1e-5 must show.
            ("requests", "phi_objective", 1 + 1e-5),
        ]
        for workload, fname, factor in corruptions:
            with scaled(fname, factor):
                fails, probs, _ = problems_of(workload, tmp / workload / fname)
            expect(bool(probs) and not fails,
                   f"{workload}: {fname} scaled by {factor} is rejected ({len(probs)} problems)")

        tracer = tracing.Tracer(entropylab)
        tracer.install()
        try:
            probe.timed()
        finally:
            tracer.uninstall()
        expect(len(tracer.start) == 0, "the speed probe records no spans under the tracer")

        ops = workloads.requests(entropylab, SEED, tmp / "drift", **TINY["requests"])
        rounds = run.Rounds(ops)
        rounds.run_round()
        key = ops[0].key
        rounds.first[key] = rounds.first[key].replace("\n", "0\n")
        rounds.run_round()
        expect(any("differs between rounds" in p for p in rounds.problems()),
               "an output that changes between rounds is rejected")

        for trace, kind in (("0", "end_to_end"), ("1", "per_layer")):
            proc = bench("--workload", "requests", "--seed", str(SEED),
                         "--seconds", "0.5", "--trace", trace)
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            expect(proc.returncode == 0 and result["correct"] and result["failed"] == 0
                   and set(result["metrics"]) == {m["name"] for m in spec[kind]},
                   f"the command prints every {kind} metric with --trace {trace}")

        bare = tmp / "bare"
        bare.mkdir()
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in spec["paths"]:
            shutil.copytree(ROOT / path, bare / path, ignore=shutil.ignore_patterns("__pycache__"))
        proc = bench("--workload", "requests", "--seed", "1", "--seconds", "1", "--trace", "0",
                     cwd=bare)
        expect(proc.returncode != 0 and not proc.stdout.strip(),
               "without src/ the command exits non-zero and prints no result")

    print("self-test", "FAILED: " + "; ".join(failed) if failed else "passed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
