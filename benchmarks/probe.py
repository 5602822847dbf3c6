"""Machine-speed probe: a fixed piece of work that runs no entropylab code.

The host this benchmark runs on is shared, and its speed drifts: the ops of
one workload ran up to 1.5 times slower for seconds to minutes at a time, in
CPU time as well as in wall time.  Such drift moves every timing of a run
alike, so the benchmark times this probe between its ops and reports each
op's time scaled by ``NOMINAL_S / probe time``: seconds on a machine where
the probe takes ``NOMINAL_S``.  A change to entropylab moves the op times
and leaves the probe alone, so it moves the scaled times just as it would
move raw ones.

The probe does in plain numpy what an entropylab op does at n = 4: it draws
a random Hermitian matrix, validates it, takes its logarithm through
``eigh`` and writes the result as a JSON record.  A probe with the same mix
of Python, numpy wrappers and small LAPACK calls follows the drift the ops
see more closely than a tight loop does.  It holds its own reference to
``numpy.linalg.eigh``, so the tracer, which replaces that attribute, neither
records nor slows it.
"""

from __future__ import annotations

import json
import statistics
import time

import numpy as np

# The probe's time on the reference machine (2 vCPUs of an Intel Xeon, one
# BLAS thread, in its faster state), so that scaled figures read as seconds
# there.
NOMINAL_S = 0.002
_REPS = 12
_SEED = 0x70726f6265
_N = 4

_eigh = np.linalg.eigh


def _work() -> float:
    rng = np.random.default_rng(_SEED)
    s = 0.0
    for _ in range(_REPS):
        g = rng.standard_normal((_N, _N)) + 1j * rng.standard_normal((_N, _N))
        a = (g + g.conj().T) / 2.0
        if not np.allclose(a, a.conj().T):
            raise AssertionError("the probe's matrix is not Hermitian")
        w, v = _eigh(a)
        log_a = (v * np.log(np.abs(w) + 0.1)) @ v.conj().T
        s += float(np.trace(log_a).real)
        s += len(json.dumps({"rows": _N, "cols": _N,
                             "data": [[float(z.real), float(z.imag)] for z in log_a.ravel()]}))
    return s


def timed(repeats: int = 1) -> float:
    """Seconds one probe takes now: the median of ``repeats`` probes in a row."""
    times = []
    for _ in range(repeats):
        t = time.perf_counter()
        _work()
        times.append(time.perf_counter() - t)
    return statistics.median(times)


_work()  # the first call pays for LAPACK's lazy set-up
