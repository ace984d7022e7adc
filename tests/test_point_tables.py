"""One prepared table per point: many polynomials, both orders of a Segre
pair, and every component of a map read the same ``PointPowers``.

The references evaluate term by term in GaussianRational arithmetic."""

import pytest
from hypothesis import given, settings, strategies as st

from segrekit.catalog import load_catalog
from segrekit.correspond import AlgebraicMap
from segrekit.gaussian import QI_ZERO, GaussianRational as QI, PointPowers
from segrekit.manifold import vanish
from segrekit.poly import Poly, VarTable
from segrekit.segre import check_symmetry, in_segre_variety, symmetry_holds

TABLE = VarTable.make(["z1", "z2"], params=["t"])

fracs = st.fractions(min_value=-9, max_value=9, max_denominator=12)
qis = st.builds(QI, fracs, fracs)


def polys(table, slots=None, max_exp=4):
    """Polynomials over table with exponents on the given slots (all by default)."""
    slots = range(len(table)) if slots is None else slots

    def make(terms):
        out = {}
        for exps, c in terms:
            m = [0] * len(table)
            for j, e in zip(slots, exps):
                m[j] = e
            out[tuple(m)] = c
        return Poly(table, out)

    mono = st.lists(st.integers(0, max_exp), min_size=len(slots), max_size=len(slots))
    return st.lists(st.tuples(mono, qis), max_size=5).map(make)


def eval_reference(p, values):
    """p at the point that binds slot j to values[j], term by term."""
    total = QI_ZERO
    for m, c in p.terms.items():
        v = c
        for j, e in enumerate(m):
            if e:
                v = v * values[j] ** e
        total = total + v
    return total


@settings(max_examples=40, deadline=None)
@given(st.lists(polys(TABLE), min_size=1, max_size=4),
       st.lists(qis, min_size=len(TABLE), max_size=len(TABLE)))
def test_one_shared_table_equals_eval_on_each_polynomial(ps, values):
    names = TABLE.names
    point = dict(zip(names, values))
    shared = PointPowers(list(enumerate(values)))
    # the same table twice over: its kept powers give the same values
    for _ in range(2):
        for p in ps:
            want = eval_reference(p, values)
            assert p.eval(shared) == want == p.eval(point)


@settings(max_examples=40, deadline=None)
@given(polys(TABLE), st.lists(qis, min_size=len(TABLE), max_size=len(TABLE)),
       st.integers(1, len(TABLE) - 1))
def test_joined_halves_equal_one_table(p, values, cut):
    """Halves over their own denominators, joined, read as one table."""
    slots = list(enumerate(values))
    low, high = PointPowers(slots[:cut]), PointPowers(slots[cut:])
    want = eval_reference(p, values)
    assert p.eval(PointPowers.join(low, high)) == want
    assert p.eval(PointPowers.join(high, low)) == want
    assert p.eval(PointPowers(slots)) == want


MANIFOLDS = {name: e.manifold for name, e in sorted(load_catalog().items()) if e.manifold}


def points(n):
    return st.tuples(*[qis] * n)


NON_REAL = MANIFOLDS["sphere_C2"]._replace(
    rho=(Poly(MANIFOLDS["sphere_C2"].table,
              {(1, 0, 0, 0): QI(1), (0, 1, 1, 0): QI(1), (0, 0, 0, 0): QI(-1)}),))
CASES = {**MANIFOLDS, "non_real": NON_REAL}


def inside_reference(M, z, w):
    """z in Q_w, term by term."""
    values = [None] * len(M.table)
    for k, n in enumerate(M.zvar_names):
        values[M.table.index(n)] = z[k]
        values[M.table.index("~" + n)] = w[k].conjugate()
    return all(eval_reference(r, values).is_zero() for r in M.rho)


@pytest.mark.parametrize("name", sorted(CASES))
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_pair_tables_agree_with_in_segre_variety(name, data):
    M = CASES[name]
    z, w = data.draw(points(M.n)), data.draw(points(M.n))
    zh, zc = M.half(z), M.half(z, conj=True)
    wh, wc = M.half(w), M.half(w, conj=True)
    assert (vanish(M.rho, PointPowers.join(zh, wc)) == in_segre_variety(M, z, w)
            == inside_reference(M, z, w))
    assert (vanish(M.rho, PointPowers.join(wh, zc)) == in_segre_variety(M, w, z)
            == inside_reference(M, w, z))
    assert check_symmetry(M, z, w) == (inside_reference(M, z, w) == inside_reference(M, w, z))


def test_symmetry_fails_on_non_real_data():
    """rho = z1 + z2*~z1 - 1 is not real: (1, 0) is in Q_0, but 0 is not
    in Q_(1, 0)."""
    z, w = (QI(1), QI(0)), (QI(0), QI(0))
    assert in_segre_variety(NON_REAL, z, w) and not in_segre_variety(NON_REAL, w, z)
    assert not check_symmetry(NON_REAL, z, w)
    assert not symmetry_holds(NON_REAL, [w, z])


@pytest.mark.parametrize("name", sorted(CASES))
@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_symmetry_of_many_points_is_every_pair(name, data):
    M = CASES[name]
    on = ([(QI(1), QI(0)), (QI(0), QI(1)), (QI(0), QI(0))] if M.n == 2
          else [(QI(1), QI(0), QI(0))])
    pts = on + data.draw(st.lists(points(M.n), max_size=4))
    want = all(inside_reference(M, z, w) == inside_reference(M, w, z) for z in pts for w in pts)
    assert symmetry_holds(M, pts) == want
    assert all(check_symmetry(M, z, w) for z in pts for w in pts) == want


SOURCE = VarTable.make(["z1", "z2"])
ZSLOTS = [SOURCE.index("z1"), SOURCE.index("z2")]


@settings(max_examples=40, deadline=None)
@given(st.lists(st.tuples(polys(SOURCE, ZSLOTS, 3), polys(SOURCE, ZSLOTS, 3)),
                min_size=1, max_size=3),
       points(2))
def test_apply_agrees_with_numerator_over_denominator(components, p):
    f = AlgebraicMap(SOURCE, tuple(components))
    values = [p[0], p[1], None, None]
    dens = [eval_reference(den, values) for _, den in components]
    if any(d.is_zero() for d in dens):
        assert f.image(p) is None
        with pytest.raises(ZeroDivisionError):
            f.apply(p)
        return
    assert f.image(p) is not None
    want = tuple(eval_reference(num, values) / d for (num, _), d in zip(components, dens))
    assert f.apply(p) == want


@settings(max_examples=40, deadline=None)
@given(polys(SOURCE, ZSLOTS, 3), polys(SOURCE, ZSLOTS, 3), points(2))
def test_apply_raises_on_a_pole(num, other, p):
    """den = (z1 - p1) * other + (z2 - p2) vanishes at p, whatever other is."""
    z1, z2 = Poly.var(SOURCE, "z1"), Poly.var(SOURCE, "z2")
    den = (z1 - p[0]) * other + (z2 - p[1])
    f = AlgebraicMap(SOURCE, ((num, Poly.const(SOURCE, 1)), (num, den)))
    assert f.image(p) is None
    with pytest.raises(ZeroDivisionError, match="denominator zero set"):
        f.apply(p)
    # at q = (p1, p2 + 1) the denominator is 1
    q = (p[0], p[1] + 1)
    assert f.apply(q) == (num.eval({"z1": q[0], "z2": q[1]}),) * 2
