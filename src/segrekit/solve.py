"""Exact points of polynomial systems by triangular back-substitution.

One walk serves two callers: `solve_zero_dim` follows every root to list
the solutions of a zero-dimensional ideal, and the rational-point sampler
(`correspond.sample_variety_points`) follows one random root at a time.
Only the shapes the toolkit actually produces are solved: after
substituting already-solved variables, a chain of univariate polynomials of
degree at most 2 (or pure binomials x^k = c with k a power of two).  Anything
else yields None and callers fall back to reporting the degree only.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .gaussian import QI_ZERO, GaussianRational, qi_sqrt
from .ideal import Ideal, groebner_basis
from .poly import Poly, VarTable

Roots = List[Tuple[GaussianRational, int]]
Leaves = List[Tuple[dict, int]]


def _univariate_roots(p: Poly, var_index: int) -> Optional[Roots]:
    """Roots (value, multiplicity) of p over Q(i), a polynomial in the one
    variable var_index."""
    coeffs: Dict[int, GaussianRational] = {m[var_index]: c for m, c in p.terms.items()}
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


def _bind(terms: dict, vi: int, val: GaussianRational) -> dict:
    """The term map with variable vi bound to ``val``.  Zero coefficients
    are dropped."""
    out: dict = {}
    for m, c in terms.items():
        x = m[vi]
        if x:
            c = c * (val if x == 1 else val ** x)
            m = m[:vi] + (0,) + m[vi + 1:]
        out[m] = out[m] + c if m in out else c
    return {m: c for m, c in out.items() if not c.is_zero()}


def back_substitute(gens: Sequence[Poly], table: VarTable,
                    follow: Callable[[Roots], Roots],
                    stuck: Callable[[List[set]], Optional[Tuple[str, GaussianRational]]]
                    ) -> Optional[Leaves]:
    """Walk the system gens down to points, one variable at a time.

    Each live generator is held as its term map and the set of variables
    occurring in it.  Zeros are dropped, and a nonzero constant ends the
    branch with no point.  The first univariate generator gives its Q(i)
    roots, of which ``follow(roots)`` picks the (value, multiplicity) pairs
    to pursue; with no univariate generator, ``stuck(occurring)``, given
    each live generator's set of occurring variable indices, names a
    (variable, value) to bind, or None to give up.  A bound value rewrites
    only the generators its variable occurs in.  Returns the leaves as
    ({name: value}, multiplicity), where every generator vanishes (unbound
    variables are left out), or None when a root set is not in Q(i) or the
    walk gave up."""
    def walk(live: list, bound: dict) -> Optional[Leaves]:
        if not all(vs for _, vs in live):
            return []
        if not live:
            return [(bound, 1)]
        for gi, (terms, vs) in enumerate(live):
            if len(vs) == 1:
                (vi,) = vs
                roots = _univariate_roots(Poly._raw(table, terms), vi)
                if roots is None:
                    return None
                rest = live[:gi] + live[gi + 1:]
                steps = [(vi, val, mult) for val, mult in follow(roots)]
                break
        else:
            step = stuck([vs for _, vs in live])
            if step is None:
                return None
            rest = live
            steps = [(table.index(step[0]), step[1], 1)]
        out = []
        for vi, val, mult in steps:
            nxt = []
            for terms, vs in rest:
                if vi in vs:
                    terms = _bind(terms, vi, val)
                    vs = {i for m in terms for i, x in enumerate(m) if x}
                if terms:
                    nxt.append((terms, vs))
            sub = walk(nxt, {**bound, table.names[vi]: val})
            if sub is None:
                return None
            out.extend((pt, m * mult) for pt, m in sub)
        return out

    return walk([(g.terms, g.variables()) for g in gens if not g.is_zero()], {})


def solve_zero_dim(I: Ideal) -> Optional[Leaves]:
    """All solutions of a zero-dimensional ideal as (point, multiplicity),
    with points as {var name: GaussianRational}; None if not triangular.
    The lex basis is built from I's reduced basis, or is I's own."""
    gb = groebner_basis(I).with_order(I.table.lex).groebner()
    sols = back_substitute(gb, I.table, lambda roots: roots, lambda occurring: None)
    if sols is None or any(len(pt) != len(I.table) for pt, _ in sols):
        return None  # a root outside Q(i), or a variable left free
    return sols
