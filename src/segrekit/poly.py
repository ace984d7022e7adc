"""Sparse multivariate polynomials over Q(i) with conjugate-variable bookkeeping.

Variables live in a VarTable.  A variable is either a z-variable (optionally
paired with a conjugate partner, printed `~name`), a conjugate variable, or a
parameter.  Conjugation of a polynomial conjugates every coefficient and swaps
each z-exponent with the exponent of its paired conjugate variable.
"""

from __future__ import annotations

from operator import add
from typing import Iterable, Mapping, Optional, Sequence

from .gaussian import (QI, QI_ONE, QI_ZERO, GaussianRational, PointPowers, format_coeff,
                       is_fraction)
from .orders import MonomialOrder, block_elim, grevlex, lex

Z_VAR = "z"
CONJ_VAR = "conj"
PARAM_VAR = "param"

# the prefixes of the variable blocks the toolkit builds from a manifold's
# z-variables: Segre parameters, correspondence targets, inversion sets and
# the middle block of a composition; a `vars` line may not use them
WB, WPB, ZB, MB = BLOCKS = ("wb_", "wpb_", "zb_", "mb_")


def is_scalar(x) -> bool:
    """Whether x combines with a Poly as a constant: an int, a Fraction or a
    GaussianRational."""
    return isinstance(x, (int, GaussianRational)) or is_fraction(x)


class PolyError(ValueError):
    pass


class VarTable:
    """Ordered variable set with kinds and conjugate pairing, and the
    monomial orders on it (codecs and all) that ideals and reductions over
    the table share: each is made on first use and kept with the table, as
    is the table ``extend_params`` makes."""

    __slots__ = ("names", "kinds", "pairs", "_index", "_zvars", "_grevlex", "_lex",
                 "_blocks", "_extended")

    def __init__(self, names: tuple, kinds: tuple, pairs: tuple):
        index = {name: i for i, name in enumerate(names)}
        if len(index) != len(names):
            raise PolyError("variable names must be unique")
        for i, j in enumerate(pairs):
            if j is not None and pairs[j] != i:
                raise PolyError("conjugate pairing must be an involution")
        self.names = names
        self.kinds = kinds
        self.pairs = pairs  # index of conjugate partner, or None
        self._index = index
        self._zvars = tuple(n for n, k in zip(names, kinds) if k == Z_VAR)
        self._grevlex = self._lex = None
        self._blocks = {}     # eliminated indices -> block order
        self._extended = {}   # extra parameter names -> table

    def __eq__(self, other):
        if self is other:
            return True
        if not isinstance(other, VarTable):
            return NotImplemented
        return (self.names, self.kinds, self.pairs) == (other.names, other.kinds, other.pairs)

    def __hash__(self):
        return hash((self.names, self.kinds, self.pairs))

    def __repr__(self):
        return f"VarTable(names={self.names!r}, kinds={self.kinds!r}, pairs={self.pairs!r})"

    @staticmethod
    def make(zvars: Sequence[str], params: Sequence[str] = (), conjugates: bool = True) -> "VarTable":
        """Table with z-variables (plus `~`-partners when requested) and parameters."""
        names = list(zvars)
        kinds = [Z_VAR] * len(zvars)
        pairs: list = [None] * len(zvars)
        if conjugates:
            for i, v in enumerate(zvars):
                names.append("~" + v)
                kinds.append(CONJ_VAR)
                pairs[i] = len(zvars) + i
                pairs.append(i)
        for p in params:
            names.append(p)
            kinds.append(PARAM_VAR)
            pairs.append(None)
        return VarTable(tuple(names), tuple(kinds), tuple(pairs))

    def __len__(self):
        return len(self.names)

    def index(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise PolyError(f"unknown variable {name!r}") from None

    def indices(self, kind: str) -> tuple:
        return tuple(i for i, k in enumerate(self.kinds) if k == kind)

    def zvars(self) -> tuple:
        return self._zvars

    @property
    def grevlex(self) -> MonomialOrder:
        """The grevlex order on the table's variables."""
        if self._grevlex is None:
            self._grevlex = grevlex(len(self.names))
        return self._grevlex

    @property
    def lex(self) -> MonomialOrder:
        """The lex order on the table's variables."""
        if self._lex is None:
            self._lex = lex(len(self.names))
        return self._lex

    def block_elim(self, elim: tuple) -> MonomialOrder:
        """The block order eliminating the variables at the indices ``elim``,
        ascending: one order per index set."""
        order = self._blocks.get(elim)
        if order is None:
            order = self._blocks[elim] = block_elim(len(self.names), elim)
        return order

    def fresh(self, stem: str) -> str:
        """``stem``, or ``stem`` with the first number that makes it a name
        the table does not have."""
        name, k = stem, 0
        while name in self._index:
            k += 1
            name = f"{stem}{k}"
        return name

    def extend_params(self, extra: Sequence[str]) -> "VarTable":
        """The table with the parameters ``extra`` appended: one table per
        tuple of names."""
        extra = tuple(extra)
        table = self._extended.get(extra)
        if table is None:
            table = self._extended[extra] = VarTable(
                self.names + extra,
                self.kinds + (PARAM_VAR,) * len(extra),
                self.pairs + (None,) * len(extra),
            )
        return table


class Poly:
    """Immutable sparse polynomial: map exponent tuple -> GaussianRational."""

    __slots__ = ("table", "terms")

    def __init__(self, table: VarTable, terms: Optional[Mapping] = None):
        self.table = table
        clean = {}
        if terms:
            for m, c in terms.items():
                c = GaussianRational.from_value(c)
                if not c.is_zero():
                    clean[tuple(m)] = c
        self.terms = clean

    @staticmethod
    def _raw(table: VarTable, terms: dict) -> "Poly":
        """A Poly on a term map the engine built itself: exponent tuples to
        nonzero GaussianRationals.  The map is taken as is, neither checked
        nor copied; every other caller goes through ``Poly(table, terms)``."""
        p = object.__new__(Poly)
        p.table = table
        p.terms = terms
        return p

    # -- constructors ----------------------------------------------------

    @staticmethod
    def zero(table: VarTable) -> "Poly":
        return Poly(table)

    @staticmethod
    def const(table: VarTable, c) -> "Poly":
        return Poly(table, {(0,) * len(table): GaussianRational.from_value(c)})

    @staticmethod
    def var(table: VarTable, name: str) -> "Poly":
        i = table.index(name)
        m = [0] * len(table)
        m[i] = 1
        return Poly(table, {tuple(m): QI_ONE})

    # -- basic queries -----------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return not any(map(any, self.terms))

    def constant_value(self) -> GaussianRational:
        if self.is_zero():
            return QI_ZERO
        if not self.is_constant():
            raise PolyError("not a constant polynomial")
        return next(iter(self.terms.values()))

    def total_degree(self) -> int:
        return max((sum(m) for m in self.terms), default=0)

    def degree_in(self, indices: Iterable[int]) -> int:
        idx = tuple(indices)
        return max((sum(m[i] for i in idx) for m in self.terms), default=0)

    def variables(self) -> set:
        """Indices of variables occurring with nonzero exponent."""
        out = set()
        for m in self.terms:
            for i, e in enumerate(m):
                if e:
                    out.add(i)
        return out

    # -- arithmetic ----------------------------------------------------------

    def _check(self, other: "Poly"):
        if self.table != other.table:
            raise PolyError("polynomials over different variable tables")

    def __add__(self, other):
        if is_scalar(other):
            other = Poly.const(self.table, other)
        elif not isinstance(other, Poly):
            return NotImplemented
        self._check(other)
        terms = dict(self.terms)
        for m, c in other.terms.items():
            s = terms.get(m, QI_ZERO) + c
            if s.is_zero():
                terms.pop(m, None)
            else:
                terms[m] = s
        return Poly._raw(self.table, terms)

    __radd__ = __add__

    def __neg__(self):
        return Poly._raw(self.table, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        if is_scalar(other):
            other = Poly.const(self.table, other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if is_scalar(other):
            c = GaussianRational.from_value(other)
            return Poly(self.table, {m: v * c for m, v in self.terms.items()})
        if not isinstance(other, Poly):
            return NotImplemented
        self._check(other)
        terms = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = tuple(map(add, m1, m2))
                s = terms.get(m, QI_ZERO) + c1 * c2
                if s.is_zero():
                    terms.pop(m, None)
                else:
                    terms[m] = s
        return Poly._raw(self.table, terms)

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if k < 0:
            raise PolyError("negative polynomial power")
        out = None
        base = self
        while k:
            if k & 1:
                out = base if out is None else out * base
            base = base * base if k > 1 else base
            k >>= 1
        return Poly.const(self.table, 1) if out is None else out

    def submul(self, f: "Poly", g: "Poly") -> "Poly":
        """self - f*g; the multiply-subtract of the division kernel, which
        GaussianRational also provides."""
        return self - f * g

    def __eq__(self, other):
        if not isinstance(other, Poly):
            return NotImplemented
        return self.table == other.table and self.terms == other.terms

    def __hash__(self):
        return hash((self.table, frozenset(self.terms.items())))

    # -- conjugation -----------------------------------------------------------

    def conjugate(self) -> "Poly":
        """Conjugate coefficients and swap paired z/conjugate exponents.  The
        swap is an involution, so no two terms meet."""
        table = self.table
        pairs = table.pairs
        for i, (kind, j) in enumerate(zip(table.kinds, pairs)):
            if j is None and kind in (Z_VAR, CONJ_VAR) and any(m[i] for m in self.terms):
                raise PolyError(f"variable {table.names[i]!r} has no conjugate partner")
        swap = [i if j is None else j for i, j in enumerate(pairs)]
        return Poly._raw(table, {tuple([m[j] for j in swap]): c.conjugate()
                                 for m, c in self.terms.items()})

    def is_real(self) -> bool:
        """True when the polynomial equals its conjugate."""
        return self.conjugate() == self

    # -- substitution and evaluation ------------------------------------------

    def substitute(self, bindings: Mapping[str, object],
                   table: Optional[VarTable] = None) -> "Poly":
        """Exact simultaneous substitution; unbound variables stay themselves.

        A number value folds into each term's coefficient; a polynomial value,
        which must lie over the result's table, multiplies the term; a name
        (a ``str``) renames the variable.  The result is over ``table`` when
        given, else over this table, each variable not bound to a value laid
        out under its name or new name there in the same pass; variables
        renamed into one slot multiply.  It is the one routine that moves a
        polynomial to another table."""
        src = self.table
        table = src if table is None else table
        numbers, polys = [], []
        target = list(src.names)  # each variable's name in the result
        for name, val in bindings.items():
            i = src.index(name)
            if isinstance(val, str):
                target[i] = val
            elif is_scalar(val):
                numbers.append((i, val))
            elif val.table != table:
                raise PolyError("binding polynomial over incompatible table")
            else:
                polys.append((i, val))
        bound = {i for i, _ in numbers} | {i for i, _ in polys}
        # (slot here, slot in the result, name there) of each variable not
        # bound to a value; a name the result's table lacks is an error once
        # its variable occurs
        keep = [(i, table._index.get(name), name)
                for i, name in enumerate(target) if i not in bound]
        point = PointPowers(numbers)
        size = len(table)
        terms: dict = {}
        for m, c in self.terms.items():
            residual = [0] * size
            for i, j, name in keep:
                if m[i]:
                    if j is None:
                        raise PolyError(f"unknown variable {name!r}")
                    residual[j] += m[i]
            if numbers:
                c = point.total(((c, 1, m),), strict=False)
            factor = None
            for i, q in polys:
                if m[i]:
                    factor = q ** m[i] if factor is None else factor * q ** m[i]
            if factor is None:
                parts = ((tuple(residual), c),)
            else:
                parts = ((tuple(map(add, residual, fm)), c * fc) for fm, fc in factor.terms.items())
            for key, v in parts:
                terms[key] = terms[key] + v if key in terms else v
        return Poly._raw(table, {m: c for m, c in terms.items() if not c.is_zero()})

    def _prepared(self, point) -> PointPowers:
        """point as a table of values: a name -> value mapping is prepared
        here; a PointPowers, whose slots are this table's indices, is already."""
        if isinstance(point, PointPowers):
            return point
        index = self.table.index
        return PointPowers([(index(name), v) for name, v in point.items()])

    def _total(self, point: PointPowers, items) -> GaussianRational:
        try:
            return point.total(items)
        except KeyError as exc:
            raise PolyError(f"unbound variable {self.table.names[exc.args[0]]!r}") from None

    def eval(self, point: Mapping[str, GaussianRational]) -> GaussianRational:
        """Exact value; every occurring variable must be bound.  The point is
        a name -> value mapping, or the PointPowers that many polynomials
        evaluated at one point share."""
        return self._total(self._prepared(point), ((c, 1, m) for m, c in self.terms.items()))

    def jet(self, point: Mapping[str, GaussianRational], names: Sequence[str],
            mixed: Sequence[str] = ()) -> tuple:
        """(value, gradient, mixed Hessian) at point (as for ``eval``), every
        occurring variable bound: the first partials in names + mixed, and
        the second partials d^2/(d names_j d mixed_k) as rows j, columns k.

        One pass over the terms lists each value's (coefficient, factor,
        exponents) contributions; each value is then summed and normalized
        once, with no derivative polynomial built."""
        index = self.table.index
        first = [index(n) for n in (*names, *mixed)]
        second = [index(n) for n in mixed]
        value = []
        grad = [[] for _ in first]
        hess = [[[] for _ in second] for _ in names]
        rows = len(names)
        for m, c in self.terms.items():
            value.append((c, 1, m))
            for j, a in enumerate(first):
                ea = m[a]
                if not ea:
                    continue
                low = list(m)
                low[a] -= 1
                grad[j].append((c, ea, low))
                if j < rows:
                    for k, b in enumerate(second):
                        eb = low[b]
                        if eb:
                            low2 = low.copy()
                            low2[b] -= 1
                            hess[j][k].append((c, ea * eb, low2))
        pt = self._prepared(point)

        def total(items):
            return self._total(pt, items) if items else QI_ZERO

        return total(value), [total(g) for g in grad], [[total(h) for h in row] for row in hess]

    def diff(self, name: str) -> "Poly":
        i = self.table.index(name)
        terms = {}
        for m, c in self.terms.items():
            if m[i]:
                new = list(m)
                new[i] -= 1
                key = tuple(new)
                terms[key] = terms.get(key, QI_ZERO) + c * m[i]
        return Poly(self.table, terms)

    # -- printing ----------------------------------------------------------------

    def __str__(self):
        if self.is_zero():
            return "0"
        parts = []
        for m in sorted(self.terms, key=self.table.grevlex.key, reverse=True):
            c = self.terms[m]
            mono = "*".join(
                self.table.names[i] + (f"^{e}" if e > 1 else "")
                for i, e in enumerate(m)
                if e
            )
            if not mono:
                piece = format_coeff(c)
            elif c.is_one():
                piece = mono
            elif c == QI(-1):
                piece = "-" + mono
            else:
                cs = format_coeff(c)
                if ("+" in cs[1:]) or ("-" in cs[1:]):
                    cs = "(" + cs + ")"
                piece = cs + "*" + mono
            if parts and not piece.startswith("-"):
                parts.append("+" + piece)
            else:
                parts.append(piece)
        return "".join(parts)

    def __repr__(self):
        return f"Poly({self})"
