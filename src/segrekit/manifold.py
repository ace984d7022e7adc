"""Real-algebraic CR submanifolds: reality/genericity checks, the polar
(complexification), projectivization, and exact Levi-form signatures."""

from __future__ import annotations

import re
from fractions import Fraction
from typing import List, NamedTuple, Optional, Sequence, Tuple

from .gaussian import PARSE_DIGIT_CAP, QI, QI_ZERO, GaussianRational, PointPowers
from .linalg import hermitian_signature, nullspace, rank
from .orders import InputError
from .parsing import parse_manifold_text
from .poly import CONJ_VAR, Z_VAR, Poly, VarTable

Point = Tuple[GaussianRational, ...]


class ManifoldError(InputError):
    pass


class _ManifoldFields(NamedTuple):
    table: VarTable
    rho: tuple          # d polynomials
    chart: object       # "affine" or homogeneous chart index
    real: bool          # every defining polynomial equals its conjugate


class CRManifold(_ManifoldFields):
    """Generic real-algebraic CR submanifold of C^n (or a projective chart),
    cut out by d real defining polynomials in (z, ~z).

    Built from (table, rho, chart); the reality verdict is made then, once,
    and recorded in ``real``.  What depends on M alone is made on first
    use and kept in a store on the instance, outside the tuple, so that
    equality, hashing and pickling ignore it: the blocks of names
    (``block``), the tables made from them (``ring``) and rho renamed into
    a block (``polar_gens``).  Every instance starts with an empty store,
    ``_replace``'s included, so a relayout is always of the instance's own
    rho."""

    def __new__(cls, table: VarTable, rho: tuple, chart: object = "affine"):
        self = super().__new__(cls, table, rho, chart, all(r.is_real() for r in rho))
        self._kept = {}
        return self

    @classmethod
    def _make(cls, fields) -> "CRManifold":
        # ``_replace`` builds through here, so the verdict is made anew
        table, rho, chart, _ = fields
        return cls(table, rho, chart)

    def __reduce__(self):
        return type(self), tuple(self[:3])

    @property
    def n(self) -> int:
        return len(self.table.zvars())

    @property
    def d(self) -> int:
        return len(self.rho)

    @property
    def m(self) -> int:
        return self.n - self.d

    @property
    def zvar_names(self) -> tuple:
        return self.table.zvars()

    def _keep(self, key: tuple, make):
        """``make()``, made the first time ``key`` is asked for and kept."""
        value = self._kept.get(key)
        if value is None:
            value = self._kept[key] = make()
        return value

    def block(self, prefix: str) -> tuple:
        """The z-variables' names behind ``prefix``, one of ``poly.BLOCKS``."""
        return self._keep(("block", prefix),
                          lambda: tuple(prefix + name for name in self.table.zvars()))

    def ring(self, names: tuple, params: tuple = ()) -> VarTable:
        """``VarTable.make(names, params, conjugates=False)``, kept per
        (names, params): the rings laid out from M's names, and from those
        of M and the other manifold of a correspondence."""
        return self._keep(("ring", names, params),
                          lambda: VarTable.make(names, params, conjugates=False))

    @staticmethod
    def from_text(text: str) -> "CRManifold":
        return CRManifold(*parse_manifold_text(text))

    def point(self, p: Sequence) -> Point:
        """p as a point of C^n, one Gaussian rational per z-variable; every
        function that takes a point checks it here."""
        return check_point(p, self.n)

    def half(self, p: Point, conj: bool = False) -> PointPowers:
        """The checked point p prepared as half of a table over M's
        variables: p bound to the z-variables or, with conj, conj(p) bound to
        the conjugate variables, over p's own denominator.  ``PointPowers.join``
        of a z-half and a conjugate half is a whole table."""
        zs = self.table.indices(Z_VAR)
        if conj:
            pairs = self.table.pairs
            return PointPowers([(pairs[j], x.conjugate()) for j, x in zip(zs, p)])
        return PointPowers(zip(zs, p))

    def point_bindings(self, z: Point, w: Optional[Point] = None) -> PointPowers:
        """The z-half of z joined with the conjugate half of w, where w
        defaults to z: one table that every polynomial over M's variables
        evaluated there shares."""
        z = self.point(z)
        w = z if w is None else self.point(w)
        return PointPowers.join(self.half(z), self.half(w, conj=True))

    def contains(self, p: Point) -> bool:
        return vanish(self.rho, self.point_bindings(p))


def check_point(p: Sequence, n: int) -> Point:
    """p as a point of C^n, one Gaussian rational per coordinate."""
    if len(p) != n:
        raise ManifoldError(f"point has {len(p)} coordinates, expected {n}")
    return tuple(GaussianRational.from_value(x) for x in p)


def vanish(polys: Sequence[Poly], table: PointPowers) -> bool:
    """True when every polynomial is zero at the prepared point."""
    return all(r.eval(table).is_zero() for r in polys)


def require_real(*manifolds: CRManifold) -> None:
    """Refuse non-real defining data, which has no Segre geometry."""
    if not all(M.real for M in manifolds):
        raise ManifoldError("defining polynomials are not real")


def _jets(M: CRManifold, p: Point, levi: bool = False) -> list:
    """Per defining polynomial, its ``Poly.jet`` at p: the value, the
    gradient in (z, ~z), and with levi the mixed Hessian d^2/(dz_j d~z_k)."""
    names = M.zvar_names
    conj = tuple("~" + name for name in names)
    b = M.point_bindings(p)
    if levi:
        return [r.jet(b, names, conj) for r in M.rho]
    return [r.jet(b, names + conj) for r in M.rho]


def _generic_rank(M: CRManifold, jets: list) -> int:
    """Rank of the antiholomorphic gradients, once p is checked to lie on M."""
    if not all(value.is_zero() for value, _, _ in jets):
        raise ManifoldError("point does not lie on the manifold")
    return rank([grad[M.n:] for _, grad, _ in jets])


def genericity_rank(M: CRManifold, p: Point) -> int:
    """Rank of the d x n matrix of antiholomorphic gradients at p in M."""
    return _generic_rank(M, _jets(M, p))


def polar_gens(M: CRManifold, table: VarTable, conj: Sequence) -> Tuple[Poly, ...]:
    """The defining polynomials laid out over `table` by ``Poly.substitute``,
    with each ~z given its entry of `conj`: a name entry renames ~z, a
    number entry binds it (the z-variables keep their names).  A renaming
    depends on M alone, and M keeps it per (table, names)."""
    def make() -> Tuple[Poly, ...]:
        bindings = {"~" + name: c for name, c in zip(M.zvar_names, conj)}
        return tuple(r.substitute(bindings, table) for r in M.rho)

    conj = tuple(conj)
    if all(isinstance(c, str) for c in conj):
        return M._keep(("polar", table, conj), make)
    return make()


def homogenize(M: CRManifold, hom_var: Optional[str] = None) -> CRManifold:
    """Bihomogenize each defining polynomial with a new chart variable:
    ``hom_var``, which must not be one of M's, or by default z0 (z01, z02,
    ... when M has a z0)."""
    if M.chart != "affine":
        raise ManifoldError("manifold is already projective")
    if hom_var is None:
        hom_var = M.table.fresh("z0")
    elif hom_var in M.table.names:
        raise ManifoldError(f"chart variable {hom_var!r} is already a variable of the manifold")
    table = VarTable.make([hom_var] + list(M.zvar_names))
    zi = table.indices(Z_VAR)
    ci = table.indices(CONJ_VAR)
    h0 = table.index(hom_var)
    c0 = table.index("~" + hom_var)
    rho = []
    for r in M.rho:
        # laid out over the new table, where the chart variable's slots are 0
        r = r.substitute({}, table)
        dz, dc = r.degree_in(zi), r.degree_in(ci)
        terms = {}
        for m, c in r.terms.items():
            new = list(m)
            new[h0] = dz - sum(m[i] for i in zi)
            new[c0] = dc - sum(m[i] for i in ci)
            terms[tuple(new)] = c
        rho.append(Poly(table, terms))
    return CRManifold(table, tuple(rho), chart=0)


def dehomogenize(M: CRManifold, chart_index: int) -> CRManifold:
    """Restrict to the affine chart where the given homogeneous coordinate is 1."""
    names = M.zvar_names
    if not 0 <= chart_index < len(names):
        raise ManifoldError(f"chart index {chart_index} out of range")
    keep = [nm for k, nm in enumerate(names) if k != chart_index]
    table = VarTable.make(keep)
    drop = names[chart_index]
    rho = tuple(r.substitute({drop: 1, "~" + drop: 1}, table) for r in M.rho)
    return CRManifold(table, rho, chart="affine")


class LeviReport(NamedTuple):
    conormal: tuple
    signature: Tuple[int, int, int]  # (positives, negatives, zeros)

    @property
    def mixed(self) -> bool:
        return self.signature[0] >= 1 and self.signature[1] >= 1


def _tangent_basis(M: CRManifold, jets: list) -> List[List[GaussianRational]]:
    """Basis of the holomorphic tangent space H_pM: the kernel of the
    holomorphic gradients in ``jets``."""
    return nullspace([grad[:M.n] for _, grad, _ in jets], M.n)


def _dot(xs: Sequence[GaussianRational], ys: Sequence[GaussianRational]) -> GaussianRational:
    """sum_k xs[k] * ys[k], skipping the products with a zero factor."""
    s = QI_ZERO
    for x, y in zip(xs, ys):
        if not (x.is_zero() or y.is_zero()):
            s = s + x * y
    return s


def levi_signature(M: CRManifold, p: Point, c: Sequence) -> LeviReport:
    """Exact signature of the Levi form at p in the conormal direction c.

    The form is sum_j c_j * Hess(rho_j) restricted to H_pM, diagonalized by
    Hermitian congruence over Q(i).  The entries of c are rationals or
    their strings, and M must be real: otherwise the form is not Hermitian."""
    require_real(M)
    entries = []
    for k, x in enumerate(c, start=1):
        # a digit run past the cap is refused before Fraction reads it: its
        # integer parse has the interpreter's own limit on some versions
        if isinstance(x, str) and re.search(rf"\d{{{PARSE_DIGIT_CAP + 1}}}", x):
            raise ManifoldError(f"bad conormal entry {k}: number literal longer than "
                                f"{PARSE_DIGIT_CAP} digits")
        try:
            entries.append(Fraction(x))
        except (TypeError, ValueError, ZeroDivisionError, OverflowError):
            raise ManifoldError(f"conormal entry {k} is not a rational") from None
    c = entries
    if len(c) != M.d:
        raise ManifoldError(f"conormal needs {M.d} coefficients")
    if all(x == 0 for x in c):
        raise ManifoldError("conormal must be nonzero")
    jets = _jets(M, p, levi=True)
    if _generic_rank(M, jets) != M.d:
        raise ManifoldError("manifold is not generic at the point")
    n = M.n
    H = [[QI_ZERO] * n for _ in range(n)]
    for coef, (_, _, hess) in zip(c, jets):
        if coef == 0:
            continue
        w = QI(coef)
        for j, row in enumerate(hess):
            for k, h in enumerate(row):
                if not h.is_zero():
                    H[j][k] = H[j][k] + w * h
    V = _tangent_basis(M, jets)
    if len(V) != M.m:
        raise ManifoldError("degenerate holomorphic tangent space at the point")
    # restrict: B = V^H (H V), with H V formed first
    HV = [[_dot(row, v) for row in H] for v in V]
    B = [[_dot([x.conjugate() for x in u], hv) for hv in HV] for u in V]
    sig = hermitian_signature(B)
    return LeviReport(tuple(c), sig)


def pseudoconcavity_probe(M: CRManifold, points: Sequence[Point]) -> List[LeviReport]:
    """The Levi reports at sampled points and the conormals +1 and -1, which
    are all of them up to scaling, as M must be a hypersurface (d = 1); the
    manifold looks pseudoconcave when every one is ``mixed``.  A probe over
    finitely many samples, not a proof."""
    if M.d != 1:
        raise ManifoldError(f"the pseudoconcavity probe needs codimension 1, got {M.d}")
    return [levi_signature(M, p, c) for p in points for c in ((1,), (-1,))]
