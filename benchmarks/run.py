#!/usr/bin/env python3
"""Benchmark of entropylab: one workload, one process, one JSON result line.

    python3 benchmarks/run.py --workload check_small --seed 1 --seconds 30 --trace 0

Run from anywhere inside a checkout; the library is imported from the
checkout's ``src/``.  The run sets up its inputs several times (the median
counts as set-up time), then runs whole rounds of the workload's ops until
``--seconds`` have passed, checks every output and prints one JSON object
as the last line of stdout.  Every timing it reports is scaled to a fixed
machine speed, measured by a probe timed between the ops (see probe.py):

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs untraced
rounds for the first half of ``--seconds`` and traced rounds for the rest,
and reports the per-layer metrics and the tracing overhead.  A record of
the run with its environment, and with ``--trace 1`` the spans, is written
under ``.bench_out/``.
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_out"
SETUP_REPEATS = 3
# Probes timed at each point of the set-up; their median sets its scale.
SETUP_PROBES = 9
# Over 30 runs the import time grew as the probe time to the power 0.52
# (correlation 0.75 between their logarithms).
IMPORT_EXPONENT = 0.5
# Each probe is the median of this many in a row, so that the first, which
# runs with the caches an op left behind, does not count.
PROBE_REPEATS = 3
# One BLAS thread: the matrices are at most 64 x 64 and the box is shared.
BLAS_THREADS = "1"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def parse_args(argv, workload_names):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=workload_names)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not 0 <= args.seed < 2 ** 63:
        p.error("--seed must be a non-negative 63-bit integer")
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def environment() -> dict:
    import numpy as np

    build = np.show_config(mode="dicts").get("Build Dependencies", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": build.get("blas"),
        "lapack": build.get("lapack"),
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "thread_env": {var: os.environ.get(var) for var in THREAD_VARS},
        "platform": platform.platform(),
    }


class Rounds:
    """Timings and outputs of the timed rounds.

    The speed probe runs before the first op and after every op.  Each op's
    time is also reported scaled by ``probe.NOMINAL_S`` over the mean of the
    probes just before and just after it, which takes out the host's drift
    in speed.  (A median over more probes around the op followed the drift
    less well: the drift changes within seconds, and a round of check_small
    takes four.)
    """

    def __init__(self, ops):
        self.ops = ops
        # Only the first output of each op is kept, so memory does not grow
        # with the number of rounds; later ones are compared with it.
        self.first: dict[str, object] = {}
        self.drifted: set[str] = set()
        # One (round, op key, seconds, completed) per attempted op.
        self.samples: list[tuple[int, str, float, bool]] = []
        self.probe_s: list[float] = []
        self.rounds = 0
        self.attempted = 0
        self.failures: list[str] = []

    def run_round(self, tracer=None) -> None:
        import probe  # here, so that importing run.py does not import numpy

        if not self.probe_s:
            self.probe_s.append(probe.timed(PROBE_REPEATS))
        for op in self.ops:
            if tracer is not None:
                tracer.current_op = self.attempted
            self.attempted += 1
            t = time.perf_counter()
            ok = True
            try:
                raw = op.call()
                dt = time.perf_counter() - t
                out = op.collect(raw)
            except Exception as exc:  # a failed op is counted; the run goes on
                dt, ok = time.perf_counter() - t, False
                self.failures.append(f"{op.key}: {type(exc).__name__}: {exc}")
            self.probe_s.append(probe.timed(PROBE_REPEATS))
            self.samples.append((self.rounds, op.key, dt, ok))
            if ok and self.first.setdefault(op.key, out) != out:
                self.drifted.add(op.key)
        self.rounds += 1

    def scaled_s(self) -> list[float]:
        """Each sample's time at the probe's nominal speed."""
        import probe

        probes = self.probe_s
        return [dt * probe.NOMINAL_S * 2.0 / (probes[i] + probes[i + 1])
                for i, (_, _, dt, _) in enumerate(self.samples)]

    def round_s(self, scaled: bool = True) -> list[float]:
        """The summed op time of each round."""
        times = self.scaled_s() if scaled else [s[2] for s in self.samples]
        out = [0.0] * self.rounds
        for (r, _, _, _), dt in zip(self.samples, times):
            out[r] += dt
        return out

    def completed_s(self) -> dict[str, list[float]]:
        """The scaled times of each op's completed calls, by op key."""
        out: dict[str, list[float]] = {}
        for (_, key, _, ok), dt in zip(self.samples, self.scaled_s()):
            if ok:
                out.setdefault(key, []).append(dt)
        return out

    def problems(self) -> list[str]:
        """Every op gives one output in every round; the first is checked."""
        out = [f"{key}: output differs between rounds" for key in sorted(self.drifted)]
        for op in self.ops:
            if op.key in self.first:
                out += [f"{op.key}: {p}" for p in op.check(self.first[op.key])]
        return out


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def main(argv=None) -> int:
    src = ROOT / "src"
    if not (src / "entropylab" / "__init__.py").is_file():
        print(f"error: {src} holds no entropylab package; run inside a checkout",
              file=sys.stderr)
        return 2
    # Before numpy is first imported, which reads them.
    for var in THREAD_VARS:
        os.environ[var] = BLAS_THREADS
    sys.path.insert(0, str(src))
    import entropylab.cli  # imports every module of the package
    import_s = time.perf_counter() - _T0

    import probe
    import tracing
    import workloads

    args = parse_args(argv, tuple(workloads.WORKLOADS))
    make_ops = workloads.WORKLOADS[args.workload]
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = OUT / f"work-{os.getpid()}"
    try:
        setup_times, setup_probe_s = [], [probe.timed(SETUP_PROBES)]
        for i in range(SETUP_REPEATS):
            t = time.perf_counter()
            ops = make_ops(entropylab, args.seed, work / f"setup{i}")
            setup_times.append(time.perf_counter() - t)
            setup_probe_s.append(probe.timed(SETUP_PROBES))

        rounds = Rounds(ops)
        tracer = None
        start = time.perf_counter()
        # A traced run spends its first half untraced, as the baseline of
        # the tracing overhead.
        untraced_until = start + (args.seconds / 2 if args.trace else args.seconds)
        while time.perf_counter() < untraced_until or not rounds.rounds:
            rounds.run_round()
        untraced_rounds = rounds.rounds
        if args.trace:
            tracer = tracing.Tracer(entropylab)
            tracer.install()
            try:
                while time.perf_counter() < start + args.seconds or rounds.rounds == untraced_rounds:
                    rounds.run_round(tracer)
            finally:
                tracer.uninstall()
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        problems = rounds.problems()
    finally:
        shutil.rmtree(work, ignore_errors=True)

    # Timings are scaled to the probe's nominal speed (see probe.py), each by
    # the probes around it.  The import slows about half as much as the probe
    # does, so it is scaled by the square root of the probe ratio.
    scaled_import_s = import_s * (probe.NOMINAL_S / setup_probe_s[0]) ** IMPORT_EXPONENT
    scaled_setup_s = [dt * probe.NOMINAL_S * 2.0 / (before + after) for dt, before, after
                      in zip(setup_times, setup_probe_s, setup_probe_s[1:])]
    round_s = rounds.round_s()
    if tracer is None:
        completed = rounds.completed_s()
        metrics = {
            "setup_s": metric(scaled_import_s + statistics.median(scaled_setup_s), "s"),
            "run_s": metric(statistics.median(round_s), "s"),
            "ops_per_s": metric(sum(map(len, completed.values())) / sum(round_s), "1/s"),
            # The median over the ops of each op's median time.
            "op_p50_ms": metric(statistics.median(map(statistics.median, completed.values())) * 1e3,
                                "ms"),
            "peak_rss_mb": metric(peak_rss_mb, "MB"),
        }
    else:
        metrics = tracing.layer_metrics(tracer, untraced_round_s=round_s[:untraced_rounds],
                                        traced_round_s=round_s[untraced_rounds:])
    result = {"correct": not problems, "attempted": rounds.attempted,
              "failed": len(rounds.failures), "metrics": metrics}

    OUT.mkdir(exist_ok=True)
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": environment(),
              "rounds": rounds.rounds, "raw_round_s": rounds.round_s(scaled=False),
              "round_s": round_s,
              "probe_s": {"nominal": probe.NOMINAL_S,
                          "median": statistics.median(rounds.probe_s),
                          "setup": setup_probe_s, "rounds": rounds.probe_s},
              "op_s": [dt for _, _, dt, _ in rounds.samples],
              "import_s": import_s, "setup_repeats_s": setup_times,
              "failures": rounds.failures, "problems": problems, "result": result}
    (OUT / f"{tag}.json").write_text(json.dumps(record, indent=2) + "\n")
    if tracer is not None:
        tracer.save(OUT / f"{tag}-spans.npz")

    for line in (rounds.failures + problems)[:20]:
        print(line, file=sys.stderr)
    print(json.dumps(result))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
