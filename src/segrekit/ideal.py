"""Groebner-basis engine: Buchberger, normal forms, elimination, dimension,
degree of zero-dimensional ideals, and parametric pseudo-reduction.

Buchberger runs with the sugar selection strategy and both classical
criteria (coprime leading terms, chain criterion).  Resource caps are
explicit and raise ResourceLimitError with partial statistics.
"""

from __future__ import annotations

import itertools
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, field
from heapq import heappop, heappush, heapify
from operator import add, le, neg, sub
from typing import Iterable, List, Optional, Sequence, Tuple

from .gaussian import QI_ONE
from .orders import MonomialOrder, block_elim, grevlex
from .poly import Poly, PolyError, VarTable


class ResourceLimitError(RuntimeError):
    def __init__(self, message: str, stats: dict):
        super().__init__(f"{message} ({stats})")
        self.stats = stats


@dataclass(frozen=True)
class Limits:
    """Resource caps for basis computations.  An instance never changes: a
    computation uses the ``Limits`` passed to it, or else the caps of the
    innermost ``limits_scope`` in force, which a front end sets for the
    length of one call."""
    max_degree: int = 80
    max_basis: int = 400


DEFAULT_LIMITS = Limits()
_SCOPED_LIMITS: ContextVar[Limits] = ContextVar("segrekit_limits",
                                                default=DEFAULT_LIMITS)


def current_limits() -> Limits:
    """The caps in force: those of the innermost scope, else the defaults."""
    return _SCOPED_LIMITS.get()


@contextmanager
def limits_scope(limits: Limits):
    """Put ``limits`` in force until the block exits, however it exits."""
    token = _SCOPED_LIMITS.set(limits)
    try:
        yield limits
    finally:
        _SCOPED_LIMITS.reset(token)


def _lm(p: Poly, order: MonomialOrder) -> tuple:
    return max(p.terms, key=order.key)


def _divides(a: tuple, b: tuple) -> bool:
    return all(map(le, a, b))


def _lcm(a: tuple, b: tuple) -> tuple:
    return tuple(map(max, a, b))


def _quot(a: tuple, b: tuple) -> tuple:
    return tuple(map(sub, a, b))


def _divisor(terms: dict, key, lm: Optional[tuple] = None) -> tuple:
    """(leading monomial, leading coefficient, tail) of a term map; ``lm``
    is the leading monomial when the caller already knows it."""
    if lm is None:
        lm = max(terms, key=key)
    return lm, terms[lm], [(m, c) for m, c in terms.items() if m != lm]


def _field_step(c, lc):
    return 1, c / lc


def _divide(terms: dict, divisors: Sequence[tuple], key, step):
    """The division algorithm: divide ``terms`` ({monomial: coefficient}) by
    ``divisors``, a list of (leading monomial, leading coefficient, tail).

    Each pass pops the largest monomial m of the work under ``key`` from a
    heap of the work's monomials (keys negated, so the largest comes out
    first).  A monomial is pushed when it enters the work; one that has
    cancelled since is skipped when it comes out.  When no
    leading monomial divides m it goes to the remainder; otherwise the first
    divisor whose leading monomial divides m cancels it.  ``step(c, lc)``
    returns (a, f) with a*c == f*lc, and the work becomes
    a*work - f*(m/lm)*divisor.  A field step has a == 1; any other a also
    scales the quotients and remainder gathered so far, so that
    A*p == sum(q_k*divisor_k) + r with A the product of the a's.

    Returns (quotients, remainder): one {shift: coefficient} map per
    divisor, and {monomial: coefficient} in descending order."""
    work = dict(terms)
    heap = [(tuple(map(neg, key(m))), m) for m in work]
    heapify(heap)
    quotients = [{} for _ in divisors]
    remainder = {}
    while work:
        m = heappop(heap)[1]
        c = work.pop(m, None)
        if c is None:
            continue
        for k, (lm, lc, tail) in enumerate(divisors):
            if _divides(lm, m):
                break
        else:
            remainder[m] = c
            continue
        a, f = step(c, lc)
        if a != 1:
            for part in (work, remainder, *quotients):
                for t in part:
                    part[t] = a * part[t]
        shift = _quot(m, lm)
        quotients[k][shift] = f
        for mg, cg in tail:
            t = tuple(map(add, mg, shift))
            s = work.get(t)
            if s is None:
                work[t] = -(f * cg)
                heappush(heap, (tuple(map(neg, key(t))), t))
                continue
            s = s - f * cg
            if s.is_zero():
                del work[t]
            else:
                work[t] = s
    return quotients, remainder


def reduce_poly(p: Poly, basis: Sequence[Poly], order: MonomialOrder,
                lms: Optional[Sequence[tuple]] = None) -> Poly:
    """Full remainder of p on division by basis (tail terms reduced too).
    ``lms``, when given, are the leading monomials of the (nonzero) basis."""
    if lms is None:
        divisors = [_divisor(g.terms, order.key) for g in basis if not g.is_zero()]
    else:
        divisors = [_divisor(g.terms, order.key, lm) for g, lm in zip(basis, lms)]
    return Poly(p.table, _divide(p.terms, divisors, order.key, _field_step)[1])


def _s_poly(f: Poly, g: Poly, order: MonomialOrder,
            lf: Optional[tuple] = None, lg: Optional[tuple] = None) -> Poly:
    """S-polynomial of f and g; ``lf``, ``lg`` are their leading monomials
    when the caller already knows them."""
    if lf is None:
        lf, lg = _lm(f, order), _lm(g, order)
    l = _lcm(lf, lg)
    a = f.scale_monomial(_quot(l, lf), QI_ONE / f.terms[lf])
    b = g.scale_monomial(_quot(l, lg), QI_ONE / g.terms[lg])
    return a - b


def buchberger(
    gens: Sequence[Poly], order: MonomialOrder, limits: Optional[Limits] = None
) -> List[Poly]:
    """Reduced Groebner basis of the given generators, under ``limits`` or,
    when none are given, the caps in force (``current_limits``)."""
    if limits is None:
        limits = current_limits()
    G = [g for g in gens if not g.is_zero()]
    if not G:
        return []
    table = G[0].table
    G = [g.monic(order) for g in G]
    lms = [_lm(g, order) for g in G]   # leading monomials, beside G
    sugar = [g.total_degree() for g in G]

    pairs = {}

    def pair_data(i, j):
        li, lj = lms[i], lms[j]
        l = _lcm(li, lj)
        s = max(sugar[i] + sum(_quot(l, li)), sugar[j] + sum(_quot(l, lj)))
        return (s, order.key(l), l)

    for i, j in itertools.combinations(range(len(G)), 2):
        pairs[(i, j)] = pair_data(i, j)

    reductions = 0
    while pairs:
        (i, j), (s, _, l) = min(pairs.items(), key=lambda kv: (kv[1][0], kv[1][1]))
        del pairs[(i, j)]
        li, lj = lms[i], lms[j]
        # first criterion: coprime leading monomials
        if tuple(map(add, li, lj)) == l:
            continue
        # chain criterion
        skip = False
        for k, lk in enumerate(lms):
            if k in (i, j):
                continue
            if (
                _divides(lk, l)
                and (min(i, k), max(i, k)) not in pairs
                and (min(j, k), max(j, k)) not in pairs
            ):
                skip = True
                break
        if skip:
            continue
        r = reduce_poly(_s_poly(G[i], G[j], order, li, lj), G, order, lms)
        reductions += 1
        if r.is_zero():
            continue
        if r.total_degree() > limits.max_degree:
            raise ResourceLimitError(
                "degree cap exceeded during basis computation",
                {"basis_size": len(G), "reductions": reductions,
                 "degree": r.total_degree(), "max_degree": limits.max_degree},
            )
        r = r.monic(order)
        t = len(G)
        G.append(r)
        lms.append(_lm(r, order))
        sugar.append(s if s > r.total_degree() else r.total_degree())
        if len(G) > limits.max_basis:
            raise ResourceLimitError(
                "basis size cap exceeded",
                {"basis_size": len(G), "reductions": reductions,
                 "max_basis": limits.max_basis},
            )
        for k in range(t):
            pairs[(k, t)] = pair_data(k, t)

    return _interreduce(G, order, lms)


def _interreduce(G: Sequence[Poly], order: MonomialOrder,
                 lms: Sequence[tuple]) -> List[Poly]:
    """Reduced basis from a Groebner basis G of nonzero, monic polynomials
    with leading monomials ``lms``."""
    # drop elements whose leading monomial is divisible by another's
    keep, keep_lms = [], []
    for i, (g, li) in enumerate(zip(G, lms)):
        if any(
            j != i and _divides(lj, li) and (lj != li or j < i)
            for j, lj in enumerate(lms)
        ):
            continue
        keep.append(g)
        keep_lms.append(li)
    # reduce tails; no other leading monomial divides lm(g), so lm(g) stays
    out = []
    for i, g in enumerate(keep):
        others = keep[:i] + keep[i + 1:]
        r = (reduce_poly(g, others, order, keep_lms[:i] + keep_lms[i + 1:])
             if others else g)
        out.append((order.key(keep_lms[i]), r.monic(order)))
    out.sort(key=lambda kr: kr[0])
    return [r for _, r in out]


@dataclass
class Ideal:
    """Finite generating set with an optional cached reduced Groebner basis.

    ``limits`` of None means the caps in force when the basis is computed."""

    generators: Tuple[Poly, ...]
    order: MonomialOrder
    table: VarTable
    limits: Optional[Limits] = None
    _gb: Optional[Tuple[Poly, ...]] = field(default=None, repr=False)

    @staticmethod
    def make(gens: Iterable[Poly], order: Optional[MonomialOrder] = None,
             table: Optional[VarTable] = None,
             limits: Optional[Limits] = None) -> "Ideal":
        gens = tuple(g for g in gens if not g.is_zero())
        if table is None:
            if not gens:
                raise PolyError("empty ideal needs an explicit table")
            table = gens[0].table
        order = order or grevlex(len(table))
        return Ideal(gens, order, table, limits)

    def groebner(self) -> Tuple[Poly, ...]:
        if self._gb is None:
            self._gb = tuple(buchberger(self.generators, self.order, self.limits))
        return self._gb

    def with_order(self, order: MonomialOrder) -> "Ideal":
        return Ideal(self.generators, order, self.table, self.limits)

    def is_trivial(self) -> bool:
        """True when 1 is in the ideal."""
        gb = self.groebner()
        return any(g.is_constant() and not g.is_zero() for g in gb)

    def __eq__(self, other):
        if not isinstance(other, Ideal):
            return NotImplemented
        if self.table != other.table:
            return False
        a = self.with_order(grevlex(len(self.table))).groebner()
        b = other.with_order(grevlex(len(self.table))).groebner()
        return a == b


def groebner_basis(I: Ideal) -> Ideal:
    """The ideal with its reduced basis as the generating set (cached)."""
    gb = I.groebner()
    return Ideal(gb, I.order, I.table, I.limits, _gb=gb)


def normal_form(p: Poly, I: Ideal) -> Poly:
    return reduce_poly(p, I.groebner(), I.order)


def member(p: Poly, I: Ideal) -> bool:
    return normal_form(p, I).is_zero()


def radical_member(p: Poly, I: Ideal, limits: Optional[Limits] = None) -> bool:
    """Rabinowitsch trick: 1 in I + <1 - t*p> in an extended ring."""
    if p.is_zero():
        return True
    aux = "_t"
    k = 0
    while aux in I.table.names:
        k += 1
        aux = f"_t{k}"
    ext = I.table.extend_params([aux])
    gens = [g.transport(ext) for g in I.generators]
    t = Poly.var(ext, aux)
    gens.append(Poly.const(ext, 1) - t * p.transport(ext))
    J = Ideal.make(gens, grevlex(len(ext)), ext, limits or I.limits)
    return J.is_trivial()


def eliminate(I: Ideal, keep_names: Sequence[str]) -> Ideal:
    """Generators of the elimination ideal, expressed over a table of `keep_names`."""
    keep_idx = {I.table.index(n) for n in keep_names}
    elim_idx = [i for i in range(len(I.table)) if i not in keep_idx]
    order = block_elim(len(I.table), elim_idx)
    gb = buchberger(I.generators, order, I.limits)
    sub = VarTable(
        tuple(I.table.names[i] for i in sorted(keep_idx)),
        tuple(I.table.kinds[i] for i in sorted(keep_idx)),
        tuple(None for _ in keep_idx),
    )
    kept = [g.transport(sub) for g in gb if g.variables() <= keep_idx]
    return Ideal.make(kept, grevlex(len(sub)), sub, I.limits)


def dimension(I: Ideal) -> int:
    """Krull dimension of the quotient ring, from the leading-term staircase.

    Returns -1 for the trivial ideal (empty variety).
    """
    if I.is_trivial():
        return -1
    gb = I.groebner()
    if not gb:
        return len(I.table)
    lms = [_lm(g, I.order) for g in gb]
    n = len(I.table)
    best = 0
    # maximal subset S of variables such that no leading monomial lives in k[S]
    for size in range(n, 0, -1):
        for S in itertools.combinations(range(n), size):
            sset = set(S)
            if all(any(e and i not in sset for i, e in enumerate(m)) for m in lms):
                return size
    return best


def standard_monomials(I: Ideal, cap: int = 100000) -> List[tuple]:
    """Monomials outside the leading-term ideal; requires dimension 0."""
    gb = I.groebner()
    lms = [_lm(g, I.order) for g in gb]
    n = len(I.table)
    seen = {(0,) * n}
    frontier = [(0,) * n]
    out = []
    while frontier:
        m = frontier.pop()
        if any(_divides(l, m) for l in lms):
            continue
        out.append(m)
        if len(out) > cap:
            raise ResourceLimitError(
                "standard monomial enumeration exceeded cap",
                {"count": len(out), "cap": cap},
            )
        for i in range(n):
            nxt = list(m)
            nxt[i] += 1
            nxt = tuple(nxt)
            if nxt not in seen:
                seen.add(nxt)
                frontier.append(nxt)
    return out


def degree_zero_dim(I: Ideal) -> int:
    """Vector-space dimension of the quotient; the solution count with multiplicity."""
    d = dimension(I)
    if d != 0:
        raise PolyError(f"degree requested on an ideal of dimension {d}")
    return len(standard_monomials(I))


def saturate(I: Ideal, e: Poly) -> Ideal:
    """Saturation I : e^infinity via the extended-ring elimination trick."""
    if e.is_zero() or e.is_constant():
        return I
    aux = "_s"
    k = 0
    while aux in I.table.names:
        k += 1
        aux = f"_s{k}"
    ext = I.table.extend_params([aux])
    gens = [g.transport(ext) for g in I.generators]
    t = Poly.var(ext, aux)
    gens.append(Poly.const(ext, 1) - t * e.transport(ext))
    J = Ideal.make(gens, grevlex(len(ext)), ext, I.limits)
    E = eliminate(J, I.table.names)
    out = [g.transport(I.table) for g in E.generators]
    return Ideal.make(out, I.order, I.table, I.limits)


def exact_div(p: Poly, d: Poly, order: Optional[MonomialOrder] = None):
    """Quotient p/d when the division is exact, else None."""
    if d.is_zero():
        return None
    order = order or grevlex(len(p.table))
    (quot,), rem = _divide(p.terms, [_divisor(d.terms, order.key)], order.key,
                           _field_step)
    return None if rem else Poly(p.table, quot)


# -- parametric pseudo-reduction -------------------------------------------------


def coefficients_in(p: Poly, main_indices: Sequence[int]) -> dict:
    """Split p as a sum over monomials in the main block with parameter
    polynomials as coefficients: {main exponent tuple -> Poly}."""
    main = set(main_indices)
    buckets = {}
    for m, c in p.terms.items():
        key = tuple(m[i] if i in main else 0 for i in range(len(m)))
        rest = tuple(0 if i in main else m[i] for i in range(len(m)))
        buckets.setdefault(key, {})[rest] = c
    return {k: Poly(p.table, v) for k, v in buckets.items()}


def parametric_normal_form(
    p: Poly, I: Ideal, param_names: Sequence[str]
) -> Tuple[Poly, List[Poly]]:
    """Pseudo-remainder of p modulo I's generators, treating `param_names`
    as coefficients.

    Returns (remainder, excluded): the reduction is valid wherever none of
    the `excluded` parameter polynomials vanish.
    """
    table = I.table
    params = {table.index(n) for n in param_names}
    main = [i for i in range(len(table)) if i not in params]
    key = grevlex(len(table)).key
    divisors = [_divisor(coefficients_in(g, main), key)
                for g in I.generators if not g.is_zero()]
    excluded: List[Poly] = []
    steps = 0

    def pseudo_step(c: Poly, lc: Poly):
        # a*c == f*lc with a = lc, f = c; lc joins the ledger on first use
        nonlocal steps
        steps += 1
        if steps >= 20000:
            raise ResourceLimitError("parametric reduction did not terminate",
                                     {"steps": steps})
        if not lc.is_constant() and all(lc != e for e in excluded):
            excluded.append(lc)
        return lc, c

    _, rem = _divide(coefficients_in(p, main), divisors, key, pseudo_step)
    work = Poly(table, {tuple(x + y for x, y in zip(m, r)): v
                        for m, c in rem.items() for r, v in c.terms.items()})
    # strip excluded-locus factors: off their zero sets the remainder's
    # vanishing is unchanged
    changed = True
    while changed and not work.is_zero():
        changed = False
        for e in excluded:
            q = exact_div(work, e)
            if q is not None:
                work = q
                changed = True
    return work, excluded
