"""Holomorphic correspondences as graph ideals in the conjugated parameter
blocks (wb for the source, wpb for the target): construction from a map,
invariance verification, fibers and branch counting, splitting, composition."""

from __future__ import annotations

import random
from math import prod
from typing import Callable, List, NamedTuple, Optional, Sequence, Tuple

from .gaussian import QI, GaussianRational, PointPowers
from .ideal import Ideal, degree_zero_dim, dimension, eliminate, has_pure_powers, saturate
from .manifold import CRManifold, ManifoldError, check_point, require_real
from .orders import InconclusiveError, InputError
from .parsing import parse_map_text, parse_poly
from .poly import MB, WB, WPB, ZB, Z_VAR, Poly, VarTable
from .segre import (SYMBOLIC, containment_ideal, segre_map_locally_injective,
                    segre_variety, symbolic_inversion)
from .solve import back_substitute, solve_zero_dim


class CorrespondenceError(InputError):
    pass


class ExcludedLocusError(CorrespondenceError):
    pass


class SamplingError(InconclusiveError):
    pass


class AlgebraicMap(NamedTuple):
    """Rational map between charts: components as (numerator, denominator)
    pairs over the table they were parsed on, the source's z-variables."""

    table: VarTable
    components: tuple  # of (Poly, Poly)

    @staticmethod
    def from_text(text: str, source: CRManifold) -> "AlgebraicMap":
        spec = parse_map_text(text)
        if spec.table.names != source.zvar_names:
            raise CorrespondenceError(
                f"map variables {spec.table.names} do not match source {source.zvar_names}")
        one = Poly.const(spec.table, 1)
        return AlgebraicMap(spec.table, tuple(
            (num, one if den is None else den) for num, den in spec.components))

    @staticmethod
    def identity(M: CRManifold) -> "AlgebraicMap":
        table = M.ring(M.zvar_names)
        one = Poly.const(table, 1)
        return AlgebraicMap(table, tuple((Poly.var(table, n), one) for n in M.zvar_names))

    def _point(self, p: Sequence) -> PointPowers:
        """p checked as a point of the source chart, bound to the z-variables:
        the one table every numerator and denominator is evaluated at."""
        zs = self.table.indices(Z_VAR)
        return PointPowers(list(zip(zs, check_point(p, len(zs)))))

    def image(self, p: Sequence[GaussianRational]) -> Optional[Tuple[GaussianRational, ...]]:
        """f(p), or None when p lies on a pole: some denominator vanishes."""
        pt = self._point(p)
        out = []
        for num, den in self.components:
            d = den.eval(pt)
            if d.is_zero():
                return None
            v = num.eval(pt)
            out.append(v if d.is_one() else v / d)
        return tuple(out)

    def apply(self, p: Sequence[GaussianRational]) -> Tuple[GaussianRational, ...]:
        out = self.image(p)
        if out is None:
            raise ZeroDivisionError("point lies on a denominator zero set")
        return out


def _require_fit(M: CRManifold, Mp: CRManifold, f: AlgebraicMap) -> None:
    """Both manifolds real, and one component of f per coordinate of Mp."""
    require_real(M, Mp)
    if len(f.components) != Mp.n:
        raise CorrespondenceError(f"map has {len(f.components)} components "
                                  f"but the target has dimension {Mp.n}")


# -- rational point sampling -----------------------------------------------------


def sample_variety_points(gens: Sequence[Poly], table: VarTable, rng: random.Random,
                          count: int,
                          keep: Callable[[tuple], bool] = lambda pt: True) -> List[tuple]:
    """Rational points on V(gens) by back-substitution through one random
    root at a time, binding a random variable to a random value where no
    generator is univariate, and drawing the variables left free last, in
    at most 400 attempts.  ``keep`` is asked about each drawn point not yet
    kept, in the order drawn, and the points it accepts are kept in that
    order; a point it refuses is passed over, and its attempt counts."""
    def draw() -> GaussianRational:
        return QI(rng.randint(-6, 6), rng.randint(-2, 2))

    def bind_one(occurring: List[set]):
        value = draw()  # before the variable: sampled points depend on the draw order
        return table.names[rng.choice(sorted(set().union(*occurring)))], value

    points = []
    tried = 0
    while len(points) < count and tried < 400:
        tried += 1
        leaves = back_substitute(gens, table, lambda roots: [rng.choice(roots)], bind_one)
        if not leaves:
            continue
        bound = leaves[0][0]
        pt = tuple(bound[n] if n in bound else draw() for n in table.names)
        if pt not in points and keep(pt):
            points.append(pt)
    if len(points) < count:
        raise SamplingError(
            f"found {len(points)}/{count} rational points after {tried} attempts "
            f"(randomized back-substitution on {[str(g) for g in gens]})")
    return points


class InvarianceReport(NamedTuple):
    checked: int
    passed: int
    failures: list

    @property
    def ok(self) -> bool:
        return self.checked > 0 and self.passed == self.checked


def verify_invariance(M: CRManifold, Mp: CRManifold, f: AlgebraicMap,
                      base_points: Sequence[tuple], per_point: int = 10,
                      seed: int = 0) -> InvarianceReport:
    """Exact check of f(Q_p) subset Q'_{f(p)} on sampled rational points.

    base_points must lie on M and off the poles of f; both manifolds must
    be real and f must fit Mp (checked once per call).  Non-invariant maps
    (including maps whose images leave M') are counted failures, not
    exceptions.  A sample of Q_p on a pole of f says nothing about the
    inclusion, and another is drawn."""
    _require_fit(M, Mp, f)
    rng = random.Random(seed)
    checked = passed = 0
    failures = []
    images = []  # f(z) of each sample kept for the current base point

    def keep(z: tuple) -> bool:
        image = f.image(z)
        if image is not None:
            images.append(image)
        return image is not None

    for p in base_points:
        if not M.contains(p):
            raise ManifoldError(f"base point {p} is not on the source manifold")
        fp = f.image(p)
        if fp is None:
            raise CorrespondenceError(
                f"base point ({', '.join(map(str, M.point(p)))}) lies on a pole of the map")
        # rho'(f(z), conj(f(p))): the conjugate half is prepared once per p
        fp_half = Mp.half(fp, conj=True)
        Q = segre_variety(M, p).ideal
        images.clear()
        zs = sample_variety_points(Q.generators, Q.table, rng, per_point, keep=keep)
        for z, fz in zip(zs, images):
            at = PointPowers.join(Mp.half(fz), fp_half)
            vals = [r.eval(at) for r in Mp.rho]
            checked += len(vals)
            good = sum(1 for v in vals if v.is_zero())
            passed += good
            if good != len(vals):
                failures.append({"p": tuple(str(x) for x in p),
                                 "z": tuple(str(x) for x in z)})
    return InvarianceReport(checked, passed, failures)


# -- the correspondence graph ------------------------------------------------------


class Correspondence(NamedTuple):
    """Graph ideal in (wb-block, wpb-block): conjugated source and target
    parameters.  A pair (w, w') lies on the correspondence when
    (conj(w), conj(w')) satisfies the graph ideal."""

    graph: Ideal
    source: CRManifold
    target: CRManifold
    excluded: tuple = ()

    @property
    def wb_names(self) -> tuple:
        return self.source.block(WB)

    @property
    def wpb_names(self) -> tuple:
        return self.target.block(WPB)


def _param_table(M: CRManifold, Mp: CRManifold) -> VarTable:
    """The graph's table: wb_* from M's names, then wpb_* from Mp's."""
    return M.ring(M.block(WB) + Mp.block(WPB))


def graph_targets(M: CRManifold, Mp: CRManifold, f: AlgebraicMap,
                  ptable: VarTable) -> List[Poly]:
    """rho'(f(z), wpb) for each defining polynomial of Mp, denominators
    cleared (each component's to the degree of rho' in its variable), over
    the containment ring: M's z-variables followed by ``ptable``'s names,
    which hold the wpb_* block.

    A term multiplies only those of its factors num_k^a, den_k^(deg_k - a)
    and wpb_k^b that are not 1."""
    ttable = M.ring(M.zvar_names, ptable.names)
    one = Poly.const(ttable, 1)
    bases = [(num.substitute({}, ttable), den.substitute({}, ttable), Poly.var(ttable, w))
             for (num, den), w in zip(f.components, Mp.block(WPB))]
    targets: List[Poly] = []
    for rp in Mp.rho:
        slots = [(rp.table.index(n), rp.table.index("~" + n)) for n in Mp.zvar_names]
        degs = [rp.degree_in([i]) for i, _ in slots]
        acc = Poly.zero(ttable)
        for mono, c in rp.terms.items():
            piece = one
            for (i, j), deg, factors in zip(slots, degs, bases):
                for p, e in zip(factors, (mono[i], deg - mono[i], mono[j])):
                    if e and p != one:
                        piece = p ** e if piece is one else piece * p ** e
            acc = acc + (piece if c.is_one() else piece * c)
        targets.append(acc)
    return targets


def build_correspondence(M: CRManifold, Mp: CRManifold, f: AlgebraicMap) -> Correspondence:
    """Graph ideal of A = {(w, w'): f(Q_w) subset Q'_{w'}}: the containment
    ideal of the ``graph_targets`` on the symbolic Segre variety of M.  Both
    manifolds must be real, and f must fit Mp.

    The identity map of M onto itself has rho(z, wpb) for its targets: M's
    symbolic inversion containment with zb_* renamed to wpb_*, which M
    keeps, and which is read here."""
    _require_fit(M, Mp, f)
    ptable = _param_table(M, Mp)
    if Mp == M and f == AlgebraicMap.identity(M):
        rename = dict(zip(M.block(ZB), M.block(WPB)))
        kept, excluded = symbolic_inversion(M)
        gens = [g.substitute(rename, ptable) for g in kept]
        excluded = tuple(e.substitute(rename, ptable) for e in excluded)
    else:
        gens, excluded = containment_ideal(M, SYMBOLIC, graph_targets(M, Mp, f, ptable), ptable)
    if not gens:
        raise CorrespondenceError("empty graph ideal: the data are inconsistent")
    graph = Ideal.make(gens, table=ptable)
    # strip components supported on the excluded locus: saturating by the
    # product of the ledger equals saturating by each entry in turn
    if excluded:
        graph = saturate(graph, prod(excluded[1:], start=excluded[0]))
    if not graph.generators:
        raise CorrespondenceError("graph ideal collapsed under saturation")
    return Correspondence(graph, M, Mp, excluded)


def relation_correspondence(M: CRManifold, Mp: CRManifold,
                            relation_sources: Sequence[str]) -> Correspondence:
    """Correspondence from explicit graph relations in (wb_*, wpb_*), for
    multivalued maps that are not single holomorphic maps (e.g. w'^s = w^r)."""
    ptable = _param_table(M, Mp)
    gens = [parse_poly(src, ptable) for src in relation_sources]
    graph = Ideal.make(gens, table=ptable)
    return Correspondence(graph, M, Mp)


def power_correspondence(M: CRManifold, Mp: CRManifold, r: int, s: int) -> Correspondence:
    """Graph of F(z) = z^(r/s) componentwise: wpb_k^s = wb_k^r, the k-th
    coordinate of M to the k-th of Mp."""
    if M.n != Mp.n:
        raise CorrespondenceError(
            f"a power correspondence needs equal dimensions, got {M.n} and {Mp.n}")
    ptable = _param_table(M, Mp)
    gens = [Poly.var(ptable, b) ** s - Poly.var(ptable, a) ** r
            for a, b in zip(M.block(WB), Mp.block(WPB))]
    return Correspondence(Ideal.make(gens, table=ptable), M, Mp)


class FiberResult(NamedTuple):
    degree: int
    solutions: Optional[list]  # [(target point, multiplicity)] or None


def fiber(C: Correspondence, w, reverse: bool = False) -> FiberResult:
    """Specialize the graph at a source point w (or a target point, when
    reverse) and count/solve the zero-dimensional fiber."""
    fixed_names = C.wpb_names if reverse else C.wb_names
    free_names = C.wb_names if reverse else C.wpb_names
    w = (C.target if reverse else C.source).point(w)
    binding = {n: x.conjugate() for n, x in zip(fixed_names, w)}
    ftable = (C.source if reverse else C.target).ring(free_names)
    ledger = [(e, e.substitute(binding, ftable)) for e in C.excluded]
    for e, at_w in ledger:
        if at_w.is_zero():
            raise ExcludedLocusError(f"point lies on the excluded locus {e}")
    gens = [g.substitute(binding, ftable) for g in C.graph.generators]
    gens = [g for g in gens if not g.is_zero()]
    if not gens:
        raise CorrespondenceError("fiber is the whole space (empty specialized ideal)")
    # one basis: dimension, the ledger check, degree and solutions all read
    # it.  It is a lex basis when the generators' lex leading monomials
    # certify a finite fiber; any other fiber is decided on a grevlex basis,
    # at a fraction of the cost, since its lex basis can be far larger
    finite = has_pure_powers((max(g.terms) for g in gens), len(ftable))
    I = Ideal.make(gens, ftable.lex if finite else None, ftable)
    d = dimension(I)
    if d < 0:
        raise CorrespondenceError("fiber is empty (the specialized ideal is the unit ideal)")
    # Nullstellensatz: some fiber point lies on V(e) unless 1 is in I + <e(w)>,
    # as it is when e(w) is a nonzero constant
    for e, at_w in ledger:
        if at_w.is_constant():
            continue
        if not Ideal.make(I.groebner() + (at_w,), table=ftable).is_trivial():
            raise ExcludedLocusError(f"a fiber point lies on the excluded locus {e}")
    if d > 0:
        raise CorrespondenceError(f"fiber has positive dimension {d}")
    deg = degree_zero_dim(I)
    sols = solve_zero_dim(I)
    out = None
    if sols is not None:
        out = []
        for pt, mult in sols:
            # solutions are conjugated coordinates; conjugate back
            coords = tuple(pt[n].conjugate() for n in free_names)
            out.append((coords, mult))
    return FiberResult(deg, out)


def splits_at(C: Correspondence, q) -> bool:
    """Splitting criterion: every fiber solution is simple and the target
    Segre map is injective there (target inversion degree 1).  Undecided,
    and ``InconclusiveError``, when the solutions are not all in Q(i)."""
    fr = fiber(C, q)
    if fr.solutions is None:
        raise InconclusiveError("fiber solutions are not all in Q(i); cannot decide")
    return (all(mult == 1 for _, mult in fr.solutions)
            and all(segre_map_locally_injective(C.target, wp) for wp, _ in fr.solutions))


def compose(C1: Correspondence, C2: Correspondence) -> Correspondence:
    """One algebraic continuation step: join over the middle block and
    eliminate it."""
    if C1.target.rho != C2.source.rho:
        raise CorrespondenceError("inner manifolds of the composition differ")
    ptable = _param_table(C1.source, C2.target)
    mid = C1.target.block(MB)
    joint = C1.target.ring(C1.wb_names + mid + C2.wpb_names)
    g1 = [g.substitute(dict(zip(C1.wpb_names, mid)), joint) for g in C1.graph.generators]
    g2 = [g.substitute(dict(zip(C2.wb_names, mid)), joint) for g in C2.graph.generators]
    graph = eliminate(Ideal.make(g1 + g2, table=joint), ptable)
    # ledgers involving the eliminated middle block cannot be expressed in
    # the composed ring and are dropped; the rest carry over
    exc = tuple(e.substitute({}, ptable)
                for C, outer in ((C1, C1.wb_names), (C2, C2.wpb_names)) for e in C.excluded
                if {C.graph.table.names[i] for i in e.variables()} <= set(outer))
    return Correspondence(graph, C1.source, C2.target, exc)
