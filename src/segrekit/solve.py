"""Exact solutions of zero-dimensional systems by triangular back-substitution.

Only handles the shapes the toolkit actually produces: a lex Groebner basis
that becomes, after substituting already-solved variables, a chain of
univariate polynomials of degree at most 2 (or pure binomials x^k = c with
k a power of two).  Anything else yields None and callers fall back to
reporting the degree only.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from .gaussian import QI_ZERO, GaussianRational, qi_sqrt
from .ideal import Ideal
from .orders import lex
from .poly import Poly


def _univariate_roots(p: Poly, var_index: int) -> Optional[List[Tuple[GaussianRational, int]]]:
    """Roots (value, multiplicity) of a univariate polynomial over Q(i)."""
    coeffs: Dict[int, GaussianRational] = {}
    for m, c in p.terms.items():
        for i, e in enumerate(m):
            if e and i != var_index:
                return None
        coeffs[m[var_index]] = coeffs.get(m[var_index], QI_ZERO) + c
    deg = max(coeffs, default=0)
    if deg == 0:
        return None if coeffs else []
    a = coeffs[deg]
    others = {k for k in coeffs if k not in (0, deg)}
    if not others:
        # binomial a*x^deg + b
        b = coeffs.get(0, QI_ZERO)
        c0 = -b / a
        if c0.is_zero():
            return [(QI_ZERO, deg)]
        roots = [c0]
        k = deg
        while k > 1:
            if k % 2:
                return None
            nxt = []
            for r in roots:
                s = qi_sqrt(r)
                if s is None:
                    return None
                nxt.extend([s, -s])
            roots = nxt
            k //= 2
        return [(r, 1) for r in roots]
    if deg == 2:
        b = coeffs.get(1, QI_ZERO)
        c0 = coeffs.get(0, QI_ZERO)
        disc = b * b - 4 * a * c0
        s = qi_sqrt(disc)
        if s is None:
            return None
        if s.is_zero():
            return [(-b / (2 * a), 2)]
        return [((-b + s) / (2 * a), 1), ((-b - s) / (2 * a), 1)]
    return None


def solve_zero_dim(I: Ideal) -> Optional[List[Tuple[dict, int]]]:
    """All solutions of a zero-dimensional ideal as (point, multiplicity),
    with points as {var name: GaussianRational}; None if not triangular."""
    order = lex(len(I.table))
    gb = list(I.with_order(order).groebner())
    if any(g.is_constant() for g in gb):
        return []
    names = I.table.names

    def recurse(remaining: List[Poly], bound: dict) -> Optional[List[Tuple[dict, int]]]:
        subs = {n: Poly.const(I.table, v) for n, v in bound.items()}
        remaining = [g.substitute(subs) for g in remaining]
        live = []
        for g in remaining:
            if g.is_zero():
                continue
            if g.is_constant():
                return []  # inconsistent branch
            live.append(g)
        if not live:
            if len(bound) != len(names):
                return None  # free variable left: not zero-dimensional here
            return [(dict(bound), 1)]
        # find a generator that is now univariate
        for gi, g in enumerate(live):
            vs = g.variables()
            if len(vs) == 1:
                vi = next(iter(vs))
                roots = _univariate_roots(g, vi)
                if roots is None:
                    return None
                out = []
                rest = live[:gi] + live[gi + 1:]
                for val, mult in roots:
                    sub = recurse(rest, {**bound, names[vi]: val})
                    if sub is None:
                        return None
                    out.extend((pt, m * mult) for pt, m in sub)
                return out
        return None

    return recurse(gb, {})
