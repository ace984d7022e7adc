"""Segre varieties, inversion sets, essential finiteness, Segre sets and the
minimality criterion."""

from __future__ import annotations

from itertools import combinations
from typing import List, NamedTuple, Optional, Sequence, Tuple

from .ideal import (Ideal, coefficients_in, dimension, eliminate,
                    parametric_normal_form, stairs_finiteness)
from .gaussian import PointPowers
from .manifold import (CRManifold, ManifoldError, polar_gens, require_real,
                       vanish)
from .orders import InconclusiveError
from .poly import WB, ZB, Poly, PolyError, VarTable

SYMBOLIC = "symbolic"


def _segre_gens(M: CRManifold, w, table: VarTable) -> Tuple[Poly, ...]:
    """rho(z, w-bar) over `table`: ~z renamed to the wb_* block when w is
    symbolic, else bound to conj(w) for the checked point w."""
    return polar_gens(M, table, M.block(WB) if w == SYMBOLIC else [v.conjugate() for v in w])


def _block_basis(gens: Sequence[Poly], table: VarTable, block: Sequence[str]) -> Tuple[Poly, ...]:
    """The reduced basis of ``gens`` over ``table`` in the block order with
    the variables ``block`` first."""
    blk = tuple(table.index(n) for n in block)
    return Ideal.make(gens, table.block_elim(blk), table).groebner()


def _symbolic_segre_basis(M: CRManifold) -> Tuple[Poly, ...]:
    """The reduced basis of the symbolic Q_w over (z, wb) in the block order
    with the z-variables first.  It depends on M alone, and M keeps it."""
    def make() -> Tuple[Poly, ...]:
        table = M.ring(M.zvar_names + M.block(WB))
        return _block_basis(_segre_gens(M, SYMBOLIC, table), table, M.zvar_names)

    return M._keep(("segre basis",), make)


def _segre_basis(M: CRManifold, w, table: VarTable) -> Tuple[Poly, ...]:
    """The divisors for a reduction on Q_w over `table`: the one generator
    rho(z, w-bar) in codimension 1; from two generators on, their reduced
    basis in the block order with the z-variables first, since only a
    Groebner basis leaves normal forms as remainders.  At the symbolic
    point that basis is ``_symbolic_segre_basis``, laid out onto `table`."""
    if M.d < 2:
        return _segre_gens(M, w, table)
    if w == SYMBOLIC:
        return tuple(g.substitute({}, table) for g in _symbolic_segre_basis(M))
    return _block_basis(_segre_gens(M, w, table), table, M.zvar_names)


class SegreVariety(NamedTuple):
    """Q_w: the z-variety cut out by the defining polynomials with the
    conjugate slot frozen at w-bar (or at the wb_* block ``param_names``)."""

    ideal: Ideal
    param_names: tuple


def segre_variety(M: CRManifold, w=SYMBOLIC) -> SegreVariety:
    require_real(M)
    if w != SYMBOLIC:
        w = M.point(w)
    params = M.block(WB) if w == SYMBOLIC else ()
    table = M.ring(M.zvar_names + params)
    ideal = Ideal.make(_segre_gens(M, w, table), table=table)
    return SegreVariety(ideal, params)


def in_segre_variety(M: CRManifold, z, w) -> bool:
    """Exact test z in Q_w by evaluating every defining polynomial."""
    return vanish(M.rho, M.point_bindings(z, w))


def symmetry_holds(M: CRManifold, points) -> bool:
    """z in Q_w  <=>  w in Q_z for every pair of the points (must always
    hold for real defining data).

    Each point is checked and prepared once, as a z-half and a conjugate
    half; the test z in Q_w reads the table joining z's z-half with w's
    conjugate half."""
    halves = [(M.half(p), M.half(p, conj=True)) for p in map(M.point, points)]

    def inside(a, b) -> bool:
        return vanish(M.rho, PointPowers.join(a[0], b[1]))

    return all(inside(a, b) == inside(b, a) for a, b in combinations(halves, 2))


def check_symmetry(M: CRManifold, z, w) -> bool:
    """z in Q_w  <=>  w in Q_z (must always hold for real defining data)."""
    return symmetry_holds(M, (z, w))


class GraphFormError(ValueError):
    pass


def _det(A: List[List[Poly]]) -> Poly:
    n = len(A)
    if n == 1:
        return A[0][0]
    table = A[0][0].table
    out = Poly.zero(table)
    for j in range(n):
        minor = [row[:j] + row[j + 1:] for row in A[1:]]
        term = A[0][j] * _det(minor)
        out = out + term if j % 2 == 0 else out - term
    return out


def graph_form(Q: SegreVariety, zeta_names: Sequence[str]):
    """Solve the generators for the zeta block: zeta = h(xi, w-bar), as
    rational functions (num, den).  Requires the generators to be jointly
    linear in the zeta block with invertible coefficient matrix."""
    table = Q.ideal.table
    zeta_idx = [table.index(n) for n in zeta_names]
    gens = list(Q.ideal.generators)
    if len(gens) != len(zeta_names):
        raise GraphFormError(
            f"need exactly {len(gens)} zeta variables for {len(gens)} generators")
    for g in gens:
        if g.degree_in(zeta_idx) > 1:
            raise GraphFormError("generators are not linear in the zeta block")
    A = []
    b = []
    zero_sub = dict.fromkeys(zeta_names, 0)
    for g in gens:
        A.append([g.diff(n) for n in zeta_names])
        b.append(g.substitute(zero_sub))
    det = _det(A)
    if det.is_zero():
        raise GraphFormError("singular zeta-block Jacobian; try another split")
    h = {}
    n = len(gens)
    for k in range(n):
        # Cramer: det * h_k = -det(A with column k replaced by b)
        Ak = [[b[i] if j == k else A[i][j] for j in range(n)] for i in range(n)]
        h[zeta_names[k]] = (-_det(Ak), det)
    # identity check: A*num + det*b = 0
    for i, g in enumerate(gens):
        s = Poly.zero(table)
        for k in range(n):
            s = s + A[i][k] * h[zeta_names[k]][0]
        s = s + det * b[i]
        if not s.is_zero():
            raise GraphFormError("graph solution failed the identity check")
    return h


class InversionSet(NamedTuple):
    """Ideal (in conjugated coordinates zb_*) of {z : Q_w subset Q_z},
    with the genericity ledger from the parametric reduction."""

    ideal: Ideal
    excluded: tuple

    def finiteness(self) -> Tuple[bool, Optional[int]]:
        """(True, degree R) when the inversion set is zero-dimensional."""
        return stairs_finiteness(self.ideal.staircase(), len(self.ideal.table))


def containment_ideal(M: CRManifold, w, targets: Sequence[Poly], ptable: VarTable):
    """Conditions on the parameters under which every target vanishes on Q_w.

    ``ptable`` is the caller's parameter table: the target block, with the
    wb_* block when w is symbolic.  The targets lie over the containment
    ring, one table of M's z-variables followed by ``ptable``'s names; a
    target laid out any other way is refused.  Each is pseudo-reduced
    against Q_w's ``_segre_basis``, which writes its z-coefficients onto
    ``ptable``.  Returns (generators, excluded) over ``ptable``: the
    nonzero coefficients, target by target and ascending in Q_w's order of
    their z-monomials, and the excluded-locus ledger.  M must be real."""
    ring = M.zvar_names + ptable.names
    if any(p.table.names != ring for p in targets):
        raise PolyError(f"targets must lie over {ring}")
    table = targets[0].table
    if w != SYMBOLIC:
        w = M.point(w)
    Qw = Ideal.make(_segre_basis(M, w, table), table=table)

    gens: List[Poly] = []
    excluded: List[Poly] = []
    for p in targets:
        coeffs, exc = parametric_normal_form(p, Qw, ptable)
        gens.extend(coeffs.values())
        excluded += [e for e in exc if e not in excluded]
    return gens, tuple(excluded)


def _inversion_containment(M: CRManifold, w, ptable: VarTable):
    """``containment_ideal`` of the targets rho(z, zb) on Q_w, over ``ptable``."""
    ttable = M.ring(M.zvar_names, ptable.names)
    return containment_ideal(M, w, polar_gens(M, ttable, M.block(ZB)), ptable)


def symbolic_inversion(M: CRManifold) -> Tuple[tuple, tuple]:
    """M's symbolic inversion containment: the generators and the ledger
    that ``containment_ideal`` gives for the targets rho(z, zb) on the
    symbolic Q_w, over (zb_*, wb_*).  It depends on M alone, and M keeps
    it.  M must be real."""
    def make() -> Tuple[tuple, tuple]:
        gens, excluded = _inversion_containment(M, SYMBOLIC, M.ring(M.block(ZB) + M.block(WB)))
        return tuple(gens), excluded

    return M._keep(("inversion",), make)


def inversion_set(M: CRManifold, w=SYMBOLIC) -> InversionSet:
    """I_w as an ideal in the conjugate coordinates zb of z.

    The containment Q_w subset Q_z with targets rho(z, zb): the identity-map
    case of a correspondence graph.  At the symbolic point the ideal lives
    over zb with the wb_* block after it as parameters, and is read from
    ``symbolic_inversion``.  At a point, Q_w's divisors involve z alone, so
    every leading coefficient of the reduction is a number and the ledger
    ``excluded`` is always empty."""
    require_real(M)
    zb = M.block(ZB)
    if w == SYMBOLIC:
        ptable = M.ring(zb + M.block(WB))
        gens, excluded = symbolic_inversion(M)
    else:
        ptable = M.ring(zb)
        gens, excluded = _inversion_containment(M, w, ptable)
    return InversionSet(Ideal.make(gens, table=ptable), excluded)


def _leads(basis: Sequence[Poly], n: int, onto: VarTable) -> List[Tuple[tuple, Poly]]:
    """Per element of ``basis``, split by ``coefficients_in`` into monomials
    in its table's first n variables with coefficients over ``onto``: the
    largest of those monomials in grevlex, as the first n exponents, and
    its coefficient."""
    out = []
    for g in basis:
        parts = coefficients_in(g, n, onto)
        lead = min(parts, key=g.table.grevlex.codec.enc)
        out.append((lead[:n], parts[lead]))
    return out


def _specialization(M: CRManifold) -> Tuple[tuple, tuple]:
    """M's kept data for point questions: (stairs, locus).

    G is the reduced basis of ``symbolic_inversion(M)`` in the block order
    with the zb-block first.  ``stairs`` holds the zb-parts of G's leading
    monomials; ``locus`` the non-constant polynomials over the wb-block
    whose vanishing at w-bar voids the specialisation: the ledger, the
    leading coefficients of G in wb and, in codimension 2 and more, those of
    ``_symbolic_segre_basis``.  Off the locus, G at w-bar is a
    Groebner basis of I_w with the same leading zb-monomials (Kalkbrener
    1997; Gianni 1987), so ``stairs`` is the staircase of I_w there."""
    def make() -> Tuple[tuple, tuple]:
        gens, excluded = symbolic_inversion(M)
        zb, wb = M.block(ZB), M.block(WB)
        onto = M.ring(wb)
        leads = _leads(_block_basis(gens, M.ring(zb + wb), zb), M.n, onto)
        locus = [e.substitute({}, onto) for e in excluded] + [c for _, c in leads]
        if M.d > 1:
            locus += [c for _, c in _leads(_symbolic_segre_basis(M), M.n, onto)]
        return (tuple(m for m, _ in leads),
                tuple(dict.fromkeys(c for c in locus if not c.is_constant())))

    return M._keep(("specialization",), make)


def essential_finiteness(M: CRManifold, w) -> Tuple[bool, Optional[int]]:
    """(True, degree R) when the inversion set at w is zero-dimensional.

    Where no polynomial of M's kept ``_specialization`` locus vanishes at
    w-bar, the answer is read off the kept staircase, with no basis made
    for w.  A point on the locus takes the point path,
    ``inversion_set(M, w).finiteness()``.  The points with z1 = 0 on a power
    hypersurface are such points: its ledger holds wb_z1."""
    require_real(M)
    w = M.point(w)
    stairs, locus = _specialization(M)
    at = PointPowers(enumerate(x.conjugate() for x in w))
    if any(e.eval(at).is_zero() for e in locus):
        return inversion_set(M, w).finiteness()
    return stairs_finiteness(stairs, M.n)


def segre_map_locally_injective(M: CRManifold, q) -> bool:
    """Algebraic proxy: Q_z = Q_q forces z = q, i.e. inversion degree 1."""
    finite, deg = essential_finiteness(M, q)
    return finite and deg == 1


class SegreSetChain(NamedTuple):
    ideals: tuple   # ideal of the Zariski closure of Q^j, over the z-table
    dims: tuple


def segre_sets(M: CRManifold, p, j_max: int) -> SegreSetChain:
    """Iterated Segre sets Q^j_p as elimination ideals, with dimensions,
    up to the first of full dimension or a repeat, at most j_max steps."""
    p = M.point(p)
    if not M.contains(p):
        raise ManifoldError("base point does not lie on the manifold")
    Q1 = segre_variety(M, p).ideal
    ztab = Q1.table
    ideals = [Q1]
    dims = [dimension(Q1)]
    while len(ideals) < j_max and dims[-1] < M.n:
        # the previous Segre set conjugated into the ~z slots of M's own
        # table, joined with rho(z, ~z)
        gens = [g.substitute({}, M.table).conjugate() for g in ideals[-1].generators]
        nxt = eliminate(Ideal.make(gens + list(M.rho), table=M.table), ztab)
        ideals.append(nxt)
        dims.append(dimension(nxt))
        if nxt == ideals[-2]:
            break
    return SegreSetChain(tuple(ideals), tuple(dims))


def minimality(M: CRManifold, p, j_max: Optional[int] = None) -> Tuple[bool, int]:
    """(True, j0) when the Segre sets reach full dimension at step j0;
    (False, j) when the chain stabilizes below dimension n.  The chain
    stops at the first of the two, so its last step decides."""
    if j_max is None:
        j_max = M.n + 2
    elif j_max < 1:
        raise ValueError(f"j_max must be at least 1, got {j_max}")
    chain = segre_sets(M, p, j_max)
    j = len(chain.dims)
    if chain.dims[-1] == M.n:
        return True, j
    if j > 1 and chain.ideals[-1] == chain.ideals[-2]:
        return False, j - 1
    raise InconclusiveError(
        f"Segre set chain did not stabilize within j_max={j_max} steps")
