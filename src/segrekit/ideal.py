"""Groebner-basis engine: Buchberger, normal forms, elimination, dimension,
degree of zero-dimensional ideals, and parametric pseudo-reduction.

Buchberger runs with the sugar selection strategy and the Gebauer-Moeller
pair update (the B, M and F criteria and coprime leading terms).  Before
any pair is formed, the leading variable x of each generator that is linear
with at most two terms (a*x + b*y, a*x + c, a*x) is bound and substituted
into the other generators; the bindings rejoin the basis at interreduction.
The two-term gate keeps the substitution a monomial map, so no term count
or degree grows; a dense linear generator (Katsura-n's) stays in the loop,
where substituting it would multiply out into larger generators.  Resource
caps are explicit and raise ResourceLimitError with partial statistics.

Inside the engine a polynomial is a map {packed monomial: coefficient},
each monomial one int of its order's ``MonomialCodec``; ``Poly`` keeps
exponent tuples, and terms are packed and unpacked where a ``Poly`` enters
or leaves the engine.
"""

from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar
from heapq import heappop, heappush, heapify
from operator import itemgetter, le
from typing import Iterable, List, NamedTuple, Optional, Sequence, Tuple

from .gaussian import QI_ONE, QI_ZERO
from .orders import MonomialOrder, ResourceLimitError
from .poly import Poly, PolyError, VarTable


class Limits(NamedTuple):
    """Resource caps for basis computations.  An instance never changes: a
    computation uses the caps of the innermost ``limits_scope`` in force,
    which a front end sets for the length of one call."""
    max_degree: int = 80
    max_basis: int = 400


DEFAULT_LIMITS = Limits()
# the most standard monomials a zero-dimensional ideal may have
STANDARD_CAP = 100000
# the most terms a product or power in a parsed expression may expand to
PARSE_TERM_CAP = 10000
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
    # the largest monomial packs to the smallest int
    return min(p.terms, key=order.codec.enc)


def _divides(a: tuple, b: tuple) -> bool:
    return all(map(le, a, b))


def _lcm(a: tuple, b: tuple) -> tuple:
    return tuple(map(max, a, b))


class _Packed:
    """A polynomial inside the engine: {packed monomial: coefficient}."""

    __slots__ = ("terms",)

    def __init__(self, terms: dict):
        self.terms = terms

    def is_zero(self) -> bool:
        return not self.terms


def _pack(terms: dict, codec) -> dict:
    enc = codec.enc
    return {enc(m): c for m, c in terms.items()}


def _unpack(table: VarTable, terms: dict, codec) -> Poly:
    dec = codec.dec
    return Poly._raw(table, {dec(m): c for m, c in terms.items()})


def _divisor(terms: dict, lm: Optional[int] = None) -> tuple:
    """(leading monomial, leading coefficient, tail) of packed terms; ``lm``
    is the leading monomial when the caller already knows it."""
    if lm is None:
        lm = min(terms)
    return lm, terms[lm], [(m, c) for m, c in terms.items() if m != lm]


def _monic(terms: dict) -> Tuple[dict, int]:
    """Packed terms divided by their leading coefficient (the same map when
    that is 1), and their leading monomial."""
    lm = min(terms)
    lc = terms[lm]
    if lc.is_one():
        return terms, lm
    inv = QI_ONE / lc
    return {m: v * inv for m, v in terms.items()}, lm


def _field_step(c, lc):
    return 1, (c if lc.is_one() else c / lc)


def _divide(terms: dict, divisors: Sequence[tuple], codec, step,
            quotients: Optional[List[dict]] = None) -> dict:
    """The division algorithm: divide packed ``terms`` by ``divisors``, a
    list of packed (leading monomial, leading coefficient, tail).

    Each pass pops the largest monomial m of the work from a heap of the
    work's packed monomials (the smallest int is the largest monomial).  A
    monomial is pushed when it enters the work; one that has cancelled
    since is skipped when it comes out.  When no leading monomial divides m
    it goes to the remainder; otherwise the first divisor whose leading
    monomial divides m cancels it.  ``step(c, lc)`` returns (a, f) with
    a*c == f*lc, and the work becomes a*work - f*(m/lm)*divisor, each tail
    term through one ``coefficient.submul(f, tail coefficient)``.  A field
    step has a == 1; any other a also scales the remainder (and quotients)
    gathered so far, so that A*p == sum(q_k*divisor_k) + r with A the
    product of the a's.

    Returns the remainder, {packed monomial: coefficient} in descending
    order.  When ``quotients`` is given, one empty map per divisor, the
    quotients are gathered in them as {packed monomial: coefficient}."""
    guard, one = codec.guard, codec.one
    work = dict(terms)
    heap = list(work)
    heapify(heap)
    remainder = {}
    while work:
        m = heappop(heap)
        c = work.pop(m, None)
        if c is None:
            continue
        for k, (lm, lc, tail) in enumerate(divisors):
            if not (m - lm) & guard:
                break
        else:
            remainder[m] = c
            continue
        a, f = step(c, lc)
        if a != 1:
            for part in (work, remainder, *(quotients or ())):
                for t in part:
                    part[t] = a * part[t]
        shift = m - lm
        if quotients is not None:
            quotients[k][shift + one] = f
        for mg, cg in tail:
            t = mg + shift
            s = work.get(t)
            if s is None:
                if t & guard:
                    raise codec.overflow(codec.dec(t))
                work[t] = -(f * cg)
                heappush(heap, t)
                continue
            s = s.submul(f, cg)
            if s.is_zero():
                del work[t]
            else:
                work[t] = s
    return remainder


def reduce_poly(p, basis: Sequence[Poly], order: MonomialOrder,
                divisors: Optional[Sequence[tuple]] = None):
    """Full remainder of p on division by basis (tail terms reduced too).

    ``buchberger`` passes packed polynomials and, as ``divisors``, the
    basis's packed (leading monomial, leading coefficient, tail) records,
    and gets a packed remainder back; ``basis`` itself is then not read.
    Given a ``Poly``, it returns a ``Poly``."""
    codec = order.codec
    if divisors is None:
        divisors = [_divisor(_pack(g.terms, codec)) for g in basis if not g.is_zero()]
    if isinstance(p, Poly):
        rem = _divide(_pack(p.terms, codec), divisors, codec, _field_step)
        return _unpack(p.table, rem, codec)
    return _Packed(_divide(p.terms, divisors, codec, _field_step))


def _s_poly(f, g, order: MonomialOrder, l: Optional[int] = None):
    """S-polynomial of f and g.  Given two ``Poly``s it returns a ``Poly``;
    ``buchberger`` passes the packed divisor records of two basis elements
    and their packed lcm ``l``, and gets packed terms back."""
    codec = order.codec
    if l is not None:
        return _Packed(_s_poly_terms(f, g, l, codec))
    table = f.table
    f, g = _divisor(_pack(f.terms, codec)), _divisor(_pack(g.terms, codec))
    l = codec.enc(_lcm(codec.dec(f[0]), codec.dec(g[0])))
    return _unpack(table, _s_poly_terms(f, g, l, codec), codec)


def _s_poly_terms(f: tuple, g: tuple, l: int, codec) -> dict:
    """(l/lm_f)*f/lc_f - (l/lm_g)*g/lc_g of packed divisor records, whose
    leading terms cancel and are left out; a leading coefficient 1 is not
    divided by."""
    (lf, cf, tf), (lg, cg, tg) = f, g
    shift = l - lf
    if cf.is_one():
        terms = {m + shift: c for m, c in tf}
    else:
        inv = QI_ONE / cf
        terms = {m + shift: c * inv for m, c in tf}
    shift = l - lg
    inv = None if cg.is_one() else QI_ONE / cg
    for m, c in tg:
        t = m + shift
        s = terms.get(t)
        if s is None:
            terms[t] = -c if inv is None else -(c * inv)
            continue
        s = s - c if inv is None else s.submul(c, inv)
        if s.is_zero():
            del terms[t]
        else:
            terms[t] = s
    # an exponent above the field's maximum shows in a guard bit
    guard = codec.guard
    for t in terms:
        if t & guard:
            raise codec.overflow(codec.dec(t))
    return terms


def _pair_sugar(lms: Sequence[tuple], sugar: Sequence[int], i: int, j: int,
                l: tuple) -> int:
    """Sugar of the pair (i, j) of basis elements; l = lcm(lm_i, lm_j)."""
    return max(sugar[i] - sum(lms[i]), sugar[j] - sum(lms[j])) + sum(l)


def _gm_update(lms: Sequence[tuple], sugar: Sequence[int], live: List[int],
               pairs: dict, t: int) -> List[tuple]:
    """The Gebauer-Moeller pair update for a new basis element t.

    ``lms`` and ``sugar`` are the leading monomials and sugars of the
    basis, t's included; ``live`` lists the elements (t not yet among them)
    whose leading monomial no later one's divides; ``pairs`` maps each pair
    (i, j), i < j, still to reduce to lcm(lm_i, lm_j).  Both are updated in
    place:
    - B: (i, j) is dropped when lm_t divides its lcm, neither (i, t) nor
      (j, t) has that same lcm, and neither has a larger sugar, so that
      both come out of the heap first, as in Buchberger's chain criterion
      (dropping a pair for later ones can lead the sugar order down a far
      longer path: on some random lex systems, hundreds of times longer);
    - of the pairs (i, t), i live, M drops one whose lcm the lcm of
      another properly divides, F keeps one pair per lcm, and an lcm that
      a pair with coprime leading monomials has is dropped altogether;
    - t joins ``live``, and elements whose leading monomial lm_t divides
      leave it.
    Returns the new pairs as (i, lcm)."""
    lt = lms[t]
    for (i, j), l in list(pairs.items()):
        if not _divides(lt, l):
            continue
        lit, ljt = _lcm(lms[i], lt), _lcm(lms[j], lt)
        if (lit != l and ljt != l
                and max(_pair_sugar(lms, sugar, i, t, lit),
                        _pair_sugar(lms, sugar, j, t, ljt))
                <= _pair_sugar(lms, sugar, i, j, l)):
            del pairs[(i, j)]
    first, coprime = {}, set()
    for i in live:
        li = lms[i]
        l = _lcm(li, lt)
        first.setdefault(l, i)
        if not any(map(min, li, lt)):
            coprime.add(l)
    new = []
    for l, i in first.items():
        if l in coprime or any(m != l and _divides(m, l) for m in first):
            continue
        pairs[(i, t)] = l
        new.append((i, l))
    live[:] = [i for i in live if not _divides(lt, lms[i])] + [t]
    return new


def _substitute(terms: dict, x: int, y: int, c, codec) -> dict:
    """Packed terms with the variable x := c*y, y a packed variable or the
    packed 1: a monomial map, so no term count or degree grows.  The same
    map when x does not occur."""
    guard = codec.guard
    if all((m - x) & guard for m in terms):
        return terms
    step = y - x   # m * y / x, packed, when x divides m
    out = {}
    for m, v in terms.items():
        if not (m - x) & guard:
            f = c
            m += step
            while not (m - x) & guard:
                f *= c
                m += step
            if m & guard:
                raise codec.overflow(codec.dec(m))
            v = v * f
        out[m] = out[m] + v if m in out else v
    return {m: v for m, v in out.items() if not v.is_zero()}


def _bind_linear(gens: List[dict], codec):
    """While one of ``gens`` (packed terms of nonzero polynomials) is linear
    with at most two terms, a*x + b*y, a*x + c or a*x, it leaves the list
    and its leading variable x := -(b/a)*y, -c/a or 0 is put into the
    others; those that become zero are dropped.

    Returns (rest, bound), bound {x: (y, c)} meaning x = c*y, y a variable
    smaller than x or the packed 1; no bound variable occurs in rest, but
    an earlier binding's y may be bound later.  Returns None when a nonzero
    constant shows up: the ideal is then the unit ideal."""
    linear, one = codec.is_linear, codec.one
    rest, bound = gens, {}
    while True:
        pick = next((k for k, t in enumerate(rest)
                     if len(t) <= 2 and all(map(linear, t))), None)
        if pick is None:
            return rest, bound
        t = rest[pick]
        x = min(t)
        if x == one:
            return None
        y, c = one, QI_ZERO
        for m, v in t.items():
            if m != x:
                y, c = m, -v / t[x]
        rest = [s for s in (_substitute(s, x, y, c, codec)
                            for s in rest[:pick] + rest[pick + 1:]) if s]
        bound[x] = (y, c)


def buchberger(gens: Sequence[Poly], order: MonomialOrder) -> List[Poly]:
    """Reduced Groebner basis of the given generators, under the caps in
    force (``current_limits``).

    The variables of two-term linear generators are bound first
    (``_bind_linear``) and the loop runs on the generators left.  Their
    basis involves no bound variable, so the leading monomial x of each
    binding x - c*y is prime to every other and the bindings join the basis
    as they are; interreduction puts their right-hand sides into normal
    form.

    Pairs are kept by the Gebauer-Moeller update (``_gm_update``) and taken
    in order of (sugar, lcm of the leading monomials)."""
    limits = current_limits()
    codec = order.codec
    gens = [g for g in gens if not g.is_zero()]
    if not gens:
        return []
    table = gens[0].table
    bound = _bind_linear([_pack(g.terms, codec) for g in gens], codec)
    if bound is None:
        return [Poly.const(table, 1)]
    rest, bound = bound
    # the packed basis, and beside it each element's leading monomial (as
    # an exponent tuple), packed divisor record and sugar
    G, lms, divs, sugar = [], [], [], []
    live = []   # the elements new pairs are made with (see _gm_update)
    pairs = {}  # pairs still to reduce -> lcm
    heap = []   # (sugar, -(packed lcm), i, j) of each pair made; pairs
                # deleted since are skipped when they come out

    def add(terms: dict, s: int):
        """Append the packed terms, made monic, of sugar s to G and update
        the pairs."""
        t = len(G)
        terms, lt = _monic(terms)
        G.append(_Packed(terms))
        lms.append(codec.dec(lt))
        divs.append(_divisor(terms, lt))
        sugar.append(s)
        for i, l in _gm_update(lms, sugar, live, pairs, t):
            heappush(heap, (_pair_sugar(lms, sugar, i, t, l), -codec.enc(l), i, t))

    for t in rest:
        add(t, max(map(sum, map(codec.dec, t))))
    reductions = 0
    while heap:
        s, l, i, j = heappop(heap)
        if pairs.pop((i, j), None) is None:
            continue
        r = reduce_poly(_s_poly(divs[i], divs[j], order, -l), G, order, divs)
        reductions += 1
        if r.is_zero():
            continue
        degree = max(map(sum, map(codec.dec, r.terms)))
        if degree > limits.max_degree:
            raise ResourceLimitError(
                "degree cap exceeded during basis computation",
                {"basis_size": len(G), "reductions": reductions,
                 "degree": degree, "max_degree": limits.max_degree},
            )
        add(r.terms, max(s, degree))
        if len(G) > limits.max_basis:
            raise ResourceLimitError(
                "basis size cap exceeded",
                {"basis_size": len(G), "reductions": reductions,
                 "max_basis": limits.max_basis},
            )

    basis, basis_divs = [G[i] for i in live], [divs[i] for i in live]
    for x, (y, c) in bound.items():
        terms = {x: QI_ONE, y: -c} if not c.is_zero() else {x: QI_ONE}
        basis.append(_Packed(terms))
        basis_divs.append(_divisor(terms, x))
    reduced = _interreduce(basis, order, basis_divs)
    return [_unpack(table, g.terms, codec) for g in reduced]


def _interreduce(G: Sequence[_Packed], order: MonomialOrder,
                 divs: Sequence[tuple]) -> List[_Packed]:
    """Reduced basis from a Groebner basis G of nonzero, monic, packed
    polynomials with divisor records ``divs``."""
    guard = order.codec.guard
    # drop elements whose leading monomial is divisible by another's
    keep, keep_divs = [], []
    for i, (g, d) in enumerate(zip(G, divs)):
        li = d[0]
        if any(
            j != i and not (li - dj[0]) & guard and (dj[0] != li or j < i)
            for j, dj in enumerate(divs)
        ):
            continue
        keep.append(g)
        keep_divs.append(d)
    # reduce tails; no other leading monomial divides lm(g), so lm(g) and
    # its coefficient 1 stay
    out = []
    for i, g in enumerate(keep):
        others = keep[:i] + keep[i + 1:]
        r = (reduce_poly(g, others, order, keep_divs[:i] + keep_divs[i + 1:])
             if others else g)
        out.append((keep_divs[i][0], r))
    # ascending in the order: the largest packed leading monomial first
    out.sort(key=itemgetter(0), reverse=True)
    return [r for _, r in out]


class Ideal:
    """Finite generating set with an optional cached reduced Groebner basis,
    computed under the caps in force when it is first asked for, and the
    staircase read from it."""

    __slots__ = ("generators", "order", "table", "_gb", "_stairs")

    def __init__(self, generators: Tuple[Poly, ...], order: MonomialOrder,
                 table: VarTable, _gb: Optional[Tuple[Poly, ...]] = None):
        self.generators = generators
        self.order = order
        self.table = table
        self._gb = _gb
        self._stairs = None

    @staticmethod
    def make(gens: Iterable[Poly], order: Optional[MonomialOrder] = None,
             table: Optional[VarTable] = None) -> "Ideal":
        gens = tuple(g for g in gens if not g.is_zero())
        if table is None:
            if not gens:
                raise PolyError("empty ideal needs an explicit table")
            table = gens[0].table
        return Ideal(gens, order or table.grevlex, table)

    def groebner(self) -> Tuple[Poly, ...]:
        if self._gb is None:
            self._gb = tuple(buchberger(self.generators, self.order))
        return self._gb

    def staircase(self) -> List[tuple]:
        """The minimal leading monomials: those of the reduced basis, which
        ``dimension`` and ``degree_zero_dim`` read."""
        if self._stairs is None:
            self._stairs = [_lm(g, self.order) for g in self.groebner()]
        return self._stairs

    def with_order(self, order: MonomialOrder) -> "Ideal":
        """The ideal under ``order``: itself, cached basis and all, when
        that is its own order."""
        if order == self.order:
            return self
        return Ideal(self.generators, order, self.table)

    def is_trivial(self) -> bool:
        """True when 1 is in the ideal."""
        gb = self.groebner()
        return any(g.is_constant() and not g.is_zero() for g in gb)

    def __eq__(self, other):
        if not isinstance(other, Ideal):
            return NotImplemented
        if self.table != other.table:
            return False
        order = self.table.grevlex
        return self.with_order(order).groebner() == other.with_order(order).groebner()


def groebner_basis(I: Ideal) -> Ideal:
    """The ideal with its reduced basis as the generating set (cached)."""
    gb = I.groebner()
    return Ideal(gb, I.order, I.table, _gb=gb)


def _require_table(p: Poly, I: Ideal) -> None:
    if p.table != I.table:
        raise PolyError("polynomial and ideal over different variable tables")


def normal_form(p: Poly, I: Ideal) -> Poly:
    _require_table(p, I)
    return reduce_poly(p, I.groebner(), I.order)


def member(p: Poly, I: Ideal) -> bool:
    return normal_form(p, I).is_zero()


def _rabinowitsch(I: Ideal, p: Poly, stem: str) -> Ideal:
    """I + <1 - t*p>, 1 - t*p first, over the table of I extended by a
    fresh variable t, named ``stem`` or ``stem`` with the first number that
    makes it fresh; p is over I's table."""
    _require_table(p, I)
    ext = I.table.extend_params([I.table.fresh(stem)])
    # t is the last variable: each exponent gains one trailing entry
    rab = {(0,) * len(ext): QI_ONE}
    rab.update((m + (1,), -c) for m, c in p.terms.items())
    gens = [Poly._raw(ext, rab)]
    gens += [Poly._raw(ext, {m + (0,): c for m, c in g.terms.items()}) for g in I.generators]
    return Ideal.make(gens, table=ext)


def radical_member(p: Poly, I: Ideal) -> bool:
    """Rabinowitsch trick: 1 in I + <1 - t*p> in an extended ring."""
    return p.is_zero() or _rabinowitsch(I, p, "_t").is_trivial()


def eliminate(I: Ideal, keep: VarTable) -> Ideal:
    """The elimination ideal onto ``keep``, the caller's table of some of
    I's variables in any order: the elements of a basis under a block order
    eliminating the other variables that involve none of them, written
    over ``keep``."""
    pos = [I.table.index(n) for n in keep.names]
    elim_idx = tuple(i for i in range(len(I.table)) if i not in pos)
    gb = buchberger(I.generators, I.table.block_elim(elim_idx))
    kept = [g.terms for g in gb if not any(m[i] for m in g.terms for i in elim_idx)]
    # a kept element's exponents, read at the kept variables' positions
    return Ideal.make([Poly._raw(keep, {tuple([m[i] for i in pos]): c for m, c in t.items()})
                       for t in kept], table=keep)


def _min_cover(supports: List[frozenset], bound: int) -> int:
    """Fewest variables meeting every support (none empty), or ``bound``
    when no cover has fewer: branch on the variables of a smallest support
    not met yet."""
    if not supports:
        return 0
    if bound <= 1:
        return bound
    best = bound
    for v in min(supports, key=len):
        best = min(best, 1 + _min_cover([s for s in supports if v not in s], best - 1))
    return best


def stairs_dimension(stairs: Sequence[tuple], n: int) -> int:
    """Krull dimension of the quotient of the ring in n variables by an ideal
    whose leading monomials ``stairs`` generate: n minus the fewest variables
    that meet the support of every one.

    Returns -1 when 1 is among them (the trivial ideal, an empty variety)."""
    supports = {frozenset(i for i, e in enumerate(m) if e) for m in stairs}
    if frozenset() in supports:
        return -1
    return n - _min_cover(list(supports), n)


def dimension(I: Ideal) -> int:
    """Krull dimension of the quotient ring, from the staircase
    (``stairs_dimension``); -1 for the trivial ideal."""
    return stairs_dimension(I.staircase(), len(I.table))


def _count_below(stairs: List[tuple], n: int, seen: dict) -> int:
    """The number of monomials in the first n variables that no element of
    ``stairs`` divides, counted slice by slice in the last variable; every
    variable must have a pure power in ``stairs``."""
    if n == 0:
        return 1
    key = (n, frozenset(stairs))
    if key not in seen:
        top = min(s[-1] for s in stairs if not any(s[:-1]))
        cuts = sorted({s[-1] for s in stairs if s[-1] < top} | {0}) + [top]
        seen[key] = sum(
            (hi - lo) * _count_below([s[:-1] for s in stairs if s[-1] <= lo], n - 1, seen)
            for lo, hi in zip(cuts, cuts[1:]))
    return seen[key]


def standard_monomials(I: Ideal) -> List[tuple]:
    """Monomials outside the leading-term ideal; requires dimension 0.  More
    than STANDARD_CAP of them raise ResourceLimitError."""
    lms = I.staircase()
    n = len(I.table)
    seen = {(0,) * n}
    frontier = [(0,) * n]
    out = []
    while frontier:
        m = frontier.pop()
        if any(_divides(l, m) for l in lms):
            continue
        out.append(m)
        if len(out) > STANDARD_CAP:
            raise ResourceLimitError(
                "standard monomial enumeration exceeded cap",
                {"count": len(out), "cap": STANDARD_CAP},
            )
        for i in range(n):
            nxt = list(m)
            nxt[i] += 1
            nxt = tuple(nxt)
            if nxt not in seen:
                seen.add(nxt)
                frontier.append(nxt)
    return out


def has_pure_powers(monomials: Iterable[tuple], n: int) -> bool:
    """True when ``monomials`` hold a pure power of each of the n variables:
    as leading monomials of an ideal's elements, a proof that the ideal is
    zero-dimensional or the unit ideal (Cox, Little & O'Shea, ch. 5 sec. 3)."""
    return len({i for m in monomials for i, e in enumerate(m) if e and sum(m) == e}) == n


def stairs_degree(stairs: Sequence[tuple], n: int) -> int:
    """Vector-space dimension of the quotient of the ring in n variables by
    an ideal whose leading monomials ``stairs`` generate, the solution count
    with multiplicity: the standard monomials, counted without listing them.
    A count above STANDARD_CAP raises ResourceLimitError."""
    if not has_pure_powers(stairs, n):
        raise PolyError(f"degree requested on an ideal of dimension "
                        f"{stairs_dimension(stairs, n)}")
    count = _count_below(stairs, n, {})
    if count > STANDARD_CAP:
        raise ResourceLimitError("standard monomial count exceeded cap",
                                 {"count": count, "cap": STANDARD_CAP})
    return count


def degree_zero_dim(I: Ideal) -> int:
    """Vector-space dimension of the quotient, from the staircase
    (``stairs_degree``)."""
    return stairs_degree(I.staircase(), len(I.table))


def stairs_finiteness(stairs: Sequence[tuple], n: int) -> Tuple[bool, Optional[int]]:
    """(True, degree) when the ideal whose leading monomials ``stairs``
    generate is zero-dimensional, else (False, None)."""
    if stairs_dimension(stairs, n) != 0:
        return False, None
    return True, stairs_degree(stairs, n)


def saturate(I: Ideal, e: Poly) -> Ideal:
    """Saturation I : e^infinity via the extended-ring elimination trick."""
    if e.is_zero() or e.is_constant():
        return I
    return eliminate(_rabinowitsch(I, e, "_s"), I.table).with_order(I.order)


def exact_div(p: Poly, d: Poly):
    """Quotient p/d when the division is exact, else None; p and d lie over
    one table."""
    p._check(d)
    if d.is_zero():
        return None
    codec = p.table.grevlex.codec
    quot = {}
    rem = _divide(_pack(p.terms, codec), [_divisor(_pack(d.terms, codec))], codec,
                  _field_step, [quot])
    return None if rem else _unpack(p.table, quot, codec)


# -- parametric pseudo-reduction -------------------------------------------------


def coefficients_in(p: Poly, n: int, onto: VarTable) -> dict:
    """Split p as a sum over monomials in its first n variables, the main
    block, with polynomials over ``onto`` (the rest of p's table, in order)
    as coefficients: {main exponent padded with zeros -> Poly over onto}."""
    pad = (0,) * (len(p.table) - n)
    buckets = {}
    for m, c in p.terms.items():
        buckets.setdefault(m[:n] + pad, {})[m[n:]] = c
    # each term lands in one bucket, so the maps need no cleaning
    return {k: Poly._raw(onto, v) for k, v in buckets.items()}


def parametric_normal_form(p: Poly, I: Ideal, ptable: VarTable) -> Tuple[dict, List[Poly]]:
    """Pseudo-remainder of p modulo I's generators, treating the variables
    of ``ptable``, the last variables of I's table, as coefficients.

    Returns (coefficients, excluded), both over ``ptable``: the remainder as
    {monomial of I's table in the main block: coefficient}, ascending in the
    table's grevlex order, and the parameter polynomials in order of first
    use.  The reduction is valid wherever none of ``excluded`` vanish."""
    _require_table(p, I)
    table = I.table
    n = len(table) - len(ptable)
    if table.names[n:] != ptable.names:
        raise PolyError(f"parameters {ptable.names} are not the last of {table.names}")
    codec = table.grevlex.codec
    divisors = [_divisor(_pack(coefficients_in(g, n, ptable), codec))
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

    rem = _divide(_pack(coefficients_in(p, n, ptable), codec), divisors, codec, pseudo_step)
    # strip excluded-locus factors: off their zero sets the remainder's
    # vanishing is unchanged.  They involve parameters only, so one divides
    # the remainder exactly when it divides every coefficient.
    changed = True
    while changed and rem:
        changed = False
        for e in excluded:
            quot = []
            for c in rem.values():
                if (q := exact_div(c, e)) is None:
                    break
                quot.append(q)
            else:
                rem, changed = dict(zip(rem, quot)), True
    # the remainder comes in descending order
    return {codec.dec(m): rem[m] for m in reversed(rem)}, excluded
