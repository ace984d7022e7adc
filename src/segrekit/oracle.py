"""Independent numeric cross-check: damped Newton root counting.

Never authoritative; only used to corroborate exact solution counts, with a
residual tolerance on the numeric side alone."""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

import numpy as np

from .poly import Poly

RESIDUAL_TOL = 1e-9
DEDUP_TOL = 1e-6


def _compile(polys: Sequence[Poly], names: Sequence[str]):
    idx = [polys[0].table.index(n) for n in names]

    def value(x: np.ndarray) -> np.ndarray:
        out = np.zeros(len(polys), dtype=complex)
        for k, p in enumerate(polys):
            for m, c in p.terms.items():
                t = complex(c.re) + 1j * complex(c.im)
                for pos, i in enumerate(idx):
                    if m[i]:
                        t *= x[pos] ** m[i]
                out[k] = out[k] + t
        return out

    diffs = [[p.diff(n) for n in names] for p in polys]

    def jac(x: np.ndarray) -> np.ndarray:
        J = np.zeros((len(polys), len(names)), dtype=complex)
        for r, row in enumerate(diffs):
            for c, d in enumerate(row):
                s = 0j
                for m, coeff in d.terms.items():
                    t = complex(coeff.re) + 1j * complex(coeff.im)
                    for pos, i in enumerate(idx):
                        if m[i]:
                            t *= x[pos] ** m[i]
                    s += t
                J[r, c] = s
        return J

    return value, jac


@dataclass
class OracleResult:
    count: int
    max_residual: float
    roots: list
    failed_starts: int


def numeric_oracle(system: Sequence[Poly], names: Sequence[str],
                   box: float = 3.0, samples: int = 200, seed: int = 0,
                   iters: int = 60) -> OracleResult:
    """Approximate count of isolated roots of a square (or overdetermined)
    polynomial system by multistart damped Newton with deduplication."""
    value, jac = _compile(system, names)
    rng = np.random.default_rng(seed)
    nvars = len(names)
    roots: List[np.ndarray] = []
    max_res = 0.0
    failed = 0
    for _ in range(samples):
        x = (rng.uniform(-box, box, nvars) + 1j * rng.uniform(-box, box, nvars))
        ok = False
        for _ in range(iters):
            f = value(x)
            r = np.linalg.norm(f)
            if r < RESIDUAL_TOL:
                ok = True
                break
            J = jac(x)
            try:
                step = np.linalg.lstsq(J, -f, rcond=None)[0]
            except np.linalg.LinAlgError:
                break
            lam = 1.0
            improved = False
            for _ in range(30):
                xn = x + lam * step
                if np.linalg.norm(value(xn)) < r:
                    x = xn
                    improved = True
                    break
                lam /= 2
            if not improved:
                break
        if not ok:
            failed += 1
            continue
        res = float(np.linalg.norm(value(x)))
        max_res = max(max_res, res)
        if not any(np.linalg.norm(x - r0) < DEDUP_TOL * (1 + np.linalg.norm(r0))
                   for r0 in roots):
            roots.append(x)
    return OracleResult(len(roots), max_res, roots, failed)
