"""Independent numeric cross-check: damped Newton root counting.

Never authoritative; only used to corroborate exact solution counts, with a
residual tolerance on the numeric side alone.  The systems it checks have a
few variables, so plain ``complex`` arithmetic serves."""

from __future__ import annotations

import math
import random
from typing import List, NamedTuple, Optional, Sequence

from segrekit.poly import Poly

RESIDUAL_TOL = 1e-9
DEDUP_TOL = 1e-6


def _compile(p: Poly, idx: Sequence[int]) -> list:
    """The terms of ``p`` as (coefficient, [(position, exponent)]), where
    position indexes the point and ``idx`` maps it to the table."""
    return [(complex(c.re) + 1j * complex(c.im),
             [(pos, m[i]) for pos, i in enumerate(idx) if m[i]])
            for m, c in p.terms.items()]


def _eval(terms: list, x: Sequence[complex]) -> complex:
    """Value of compiled terms at x.  ``complex ** int`` raises on overflow
    where a float product would give inf; the value then reads as inf, so
    a Newton step that overshoots that far is just no improvement."""
    s = 0j
    for t, powers in terms:
        try:
            for pos, e in powers:
                t *= x[pos] ** e
        except OverflowError:
            return complex(math.inf)
        s += t
    return s


def _norm(v: Sequence[complex]) -> float:
    return math.sqrt(sum(abs(z) ** 2 for z in v))


def _lstsq_step(J: Sequence[Sequence[complex]],
                f: Sequence[complex]) -> Optional[List[complex]]:
    """The s minimising |J s + f|, from the normal equations
    (J^H J) s = -J^H f by Gaussian elimination with partial pivoting;
    None when J^H J is singular."""
    cols = list(zip(*J))
    n = len(cols)
    A = [[sum(u.conjugate() * v for u, v in zip(a, b)) for b in cols]
         + [-sum(u.conjugate() * v for u, v in zip(a, f))] for a in cols]
    for c in range(n):
        p = max(range(c, n), key=lambda r: abs(A[r][c]))
        if A[p][c] == 0:
            return None
        A[c], A[p] = A[p], A[c]
        for r in range(c + 1, n):
            m = A[r][c] / A[c][c]
            A[r] = [u - m * v for u, v in zip(A[r], A[c])]
    s = [0j] * n
    for c in reversed(range(n)):
        s[c] = (A[c][n] - sum(A[c][k] * s[k] for k in range(c + 1, n))) / A[c][c]
    return s


class OracleResult(NamedTuple):
    count: int
    max_residual: float
    roots: list
    failed_starts: int


def numeric_oracle(system: Sequence[Poly], names: Sequence[str],
                   box: float = 3.0, samples: int = 200, seed: int = 0,
                   iters: int = 60) -> OracleResult:
    """Approximate count of isolated roots of a square (or overdetermined)
    polynomial system by multistart damped Newton with deduplication."""
    idx = [system[0].table.index(n) for n in names]
    values = [_compile(p, idx) for p in system]
    jacobian = [[_compile(p.diff(n), idx) for n in names] for p in system]

    def value(x):
        return [_eval(terms, x) for terms in values]

    rng = random.Random(seed)
    roots: List[List[complex]] = []
    max_res = 0.0
    failed = 0
    for _ in range(samples):
        x = [complex(rng.uniform(-box, box), rng.uniform(-box, box)) for _ in names]
        ok = False
        for _ in range(iters):
            f = value(x)
            r = _norm(f)
            if r < RESIDUAL_TOL:
                ok = True
                break
            step = _lstsq_step([[_eval(d, x) for d in row] for row in jacobian], f)
            if step is None:
                break
            lam = 1.0
            improved = False
            for _ in range(30):
                xn = [a + lam * b for a, b in zip(x, step)]
                if _norm(value(xn)) < r:
                    x = xn
                    improved = True
                    break
                lam /= 2
            if not improved:
                break
        if not ok:
            failed += 1
            continue
        res = _norm(value(x))
        max_res = max(max_res, res)
        if not any(_norm([a - b for a, b in zip(x, r0)]) < DEDUP_TOL * (1 + _norm(r0))
                   for r0 in roots):
            roots.append(x)
    return OracleResult(len(roots), max_res, roots, failed)
