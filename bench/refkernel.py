"""A fixed reference computation for measuring the machine's speed.

On a shared machine the same computation can take 1.5x longer for seconds or
minutes at a time, and every timing of a run moves with it.  The benchmark
times this kernel every half second of work and scales each latency by the
kernel's speed at that moment, so run-to-run figures compare work, not the
neighbours' load.  The kernel does what the engine does most (exact rational
division of sparse polynomials held in dicts), but uses only the standard
library, so no change to segrekit can make it faster or slower.  Do not
change it: the scaled figures of two versions are comparable only when both
were measured against the same kernel.

Work done in fresh processes (the ``cli`` workload, and the import of
segrekit in every set-up) goes mostly to starting Python and importing
modules, and on a shared machine that part slows down and speeds up on its
own, which the kernel above does not follow.  That work is scaled instead by
the time of a fresh interpreter importing numpy (``CHILD``), sampled next to
every operation.  numpy is installed with the toolchain, not part of
segrekit, so no change to segrekit moves this reference either."""

from __future__ import annotations

import os
import random
import subprocess
import sys
import time
from dataclasses import dataclass
from typing import Callable
from fractions import Fraction

NOMINAL_S = 0.008        # the kernel's time that scaled figures are expressed at
CHILD_NOMINAL_S = 0.15   # the child reference's time that scaled figures are expressed at
CHILD_CODE = "import numpy"
# BLAS thread pools in each fresh process would compete with the process's
# own thread on a machine of few cores, so children run with one BLAS thread
CHILD_ENV = {"OPENBLAS_NUM_THREADS": "1"}


def _key(m):
    return (sum(m), tuple(-e for e in reversed(m)))


def _poly(rng, nvars, nterms, degree):
    p = {}
    for _ in range(nterms):
        m = [0] * nvars
        for _ in range(rng.randint(0, degree)):
            m[rng.randrange(nvars)] += 1
        p[tuple(m)] = Fraction(rng.randint(1, 9) * rng.choice((-1, 1)), rng.randint(1, 5))
    return p


_rng = random.Random(5)
_BASIS = [_poly(_rng, 4, 6, 2) for _ in range(5)]
_LEADS = [(max(b, key=_key), b) for b in _BASIS]
_TARGETS = [_poly(_rng, 4, 12, 5) for _ in range(12)]


def _run():
    for target in _TARGETS:
        work, rem, steps = dict(target), {}, 0
        while work and steps < 60:
            steps += 1
            m = max(work, key=_key)
            c = work.pop(m)
            for lm, b in _LEADS:
                if all(x <= y for x, y in zip(lm, m)):
                    f = c / b[lm]
                    shift = tuple(a - e for a, e in zip(m, lm))
                    for mb, cb in b.items():
                        if mb != lm:
                            k = tuple(a + e for a, e in zip(mb, shift))
                            v = work.get(k, 0) - f * cb
                            if v:
                                work[k] = v
                            else:
                                work.pop(k, None)
                    break
            else:
                rem[m] = c


def sample() -> float:
    """Seconds the kernel takes now."""
    t0 = time.perf_counter()
    _run()
    return time.perf_counter() - t0


def child_env() -> dict:
    """Environment for every child process the benchmark starts."""
    return {**os.environ, **CHILD_ENV}


def child_sample() -> float:
    """Seconds a fresh interpreter takes now to import numpy."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", CHILD_CODE], env=child_env(), check=True,
                   stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    return time.perf_counter() - t0


@dataclass(frozen=True)
class Reference:
    """A reference computation, the time that scaled figures are expressed
    at, and how many seconds of operations may pass between two samples."""

    sample: Callable[[], float]
    nominal_s: float
    every_s: float


KERNEL = Reference(sample, NOMINAL_S, 0.5)
CHILD = Reference(child_sample, CHILD_NOMINAL_S, 0.0)
