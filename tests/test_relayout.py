"""One relayout routine: ``Poly.substitute`` with name bindings checked by
evaluation, the containment ideal refusing targets over another layout, and
``homogenize`` checked by bidegree and by setting its chart variable to 1.

The test names keep their earlier wording, so that the suite's ids stay
stable."""

import random
from fractions import Fraction

import pytest

from segrekit.catalog import load_catalog
from segrekit.correspond import AlgebraicMap, _param_table, graph_targets
from segrekit.gaussian import GaussianRational as QI
from segrekit.manifold import CRManifold, dehomogenize, homogenize, polar_gens
from segrekit.poly import CONJ_VAR, WB, Z_VAR, ZB, ZETA, Poly, PolyError, VarTable
from segrekit.segre import SYMBOLIC, containment_ideal

CATALOG = load_catalog()
SOURCE = VarTable.make(["z1", "z2", "z3"], params=["t1", "t2"])


def _random_poly(rng, table, nterms=8):
    terms = {}
    for _ in range(rng.randint(0, nterms)):
        m = tuple(rng.choice([0, 0, 1, 2, 3]) for _ in table.names)
        terms[m] = QI(Fraction(rng.randint(-5, 5), rng.randint(1, 4)), rng.randint(-3, 3))
    return Poly(table, terms)


def random_value(rng):
    return QI(Fraction(rng.randint(-9, 9), rng.randint(1, 5)), rng.randint(-7, 7))


def assert_substitutes(p, bindings, got, table, rng, rounds=3):
    """``got`` is p with ``bindings`` substituted, laid out over ``table``.

    It lies over ``table`` and stores no zero coefficient.  At random values
    of the table's variables it takes p's value at the point where each of
    p's variables takes the value its binding gives: a name's value, a
    number, a polynomial's value, or, unbound, its own name's value.  A
    variable named outside ``table`` is left out of that point, so p.eval
    refuses it if it occurs."""
    assert got.table == table
    assert not any(c.is_zero() for c in got.terms.values())
    for _ in range(rounds):
        at = {n: random_value(rng) for n in table.names}
        point = {}
        for n in p.table.names:
            val = bindings.get(n, n)
            if isinstance(val, str):
                if val not in at:
                    continue
                val = at[val]
            elif isinstance(val, Poly):
                val = val.eval(at)
            point[n] = QI.from_value(val)
        assert got.eval(at) == p.eval(point)


# -- substitute with names, checked by evaluation -------------------------------------


@pytest.mark.parametrize("seed", range(100))
def test_relayout_onto_a_wider_table(seed):
    rng = random.Random(seed)
    p = _random_poly(rng, SOURCE)
    names = list(SOURCE.names)
    rng.shuffle(names)
    extra = ["s1", "s2"][:rng.randint(0, 2)]
    target = VarTable.make(names + extra, conjugates=False)
    assert_substitutes(p, {}, p.substitute({}, target), target, rng)


@pytest.mark.parametrize("seed", range(100))
def test_conjugate_block_renames(seed):
    """~z renamed to a parameter block, as the polar, the Segre variety at
    the symbolic point and the inversion set ask for."""
    rng = random.Random(seed)
    zvars = SOURCE.zvars()
    p = _random_poly(rng, SOURCE)
    prefix = rng.choice([WB, ZB, ZETA])
    block = tuple(prefix + n for n in zvars)
    target = VarTable.make(zvars + block, params=["t1", "t2"], conjugates=False)
    name_map = {"~" + n: b for n, b in zip(zvars, block)}
    assert_substitutes(p, name_map, p.substitute(name_map, target), target, rng)


@pytest.mark.parametrize("seed", range(100))
def test_non_injective_renames(seed):
    """Variables renamed into one slot multiply; terms that meet there add,
    and a sum that cancels is dropped."""
    rng = random.Random(seed)
    p = _random_poly(rng, SOURCE)
    target = VarTable.make(["w", "v"], conjugates=False)
    name_map = {n: rng.choice(["w", "v"]) for n in SOURCE.names}
    assert_substitutes(p, name_map, p.substitute(name_map, target), target, rng)
    # q(z1) - q(z2) vanishes once z1 and z2 are both renamed to w
    one = VarTable.make(["z1", "z2"], conjugates=False)
    q = Poly(one, {(e, 0): QI(rng.randint(1, 5), rng.randint(-2, 2))
                   for e in rng.sample(range(6), 3)})
    diff = q - Poly(one, {(0, e): c for (e, _), c in q.terms.items()})
    w = VarTable.make(["w"], conjugates=False)
    moved = diff.substitute({"z1": "w", "z2": "w"}, w)
    assert moved.is_zero() and moved.terms == {} and moved.table == w


@pytest.mark.parametrize("seed", range(100))
def test_mixed_number_and_name_bindings(seed):
    rng = random.Random(seed)
    p = _random_poly(rng, SOURCE)
    names = list(SOURCE.names)
    rng.shuffle(names)
    cut = rng.randint(0, len(names))
    values = [QI(rng.randint(-3, 3), rng.randint(-2, 2)), rng.randint(-3, 3),
              Fraction(rng.randint(-3, 3), rng.randint(1, 3))]
    numbers = {n: rng.choice(values) for n in names[:cut]}
    name_map = {n: "r_" + n for n in names[cut:] if rng.random() < 0.5}
    rest = [name_map.get(n, n) for n in names[cut:]]
    rng.shuffle(rest)
    target = VarTable.make(rest, conjugates=False)
    bindings = {**numbers, **name_map}
    assert_substitutes(p, bindings, p.substitute(bindings, target), target, rng)
    # the same variables bound to polynomials over the result's table
    bindings = {**{n: _random_poly(rng, target, nterms=2) for n in numbers}, **name_map}
    assert_substitutes(p, bindings, p.substitute(bindings, target), target, rng)


@pytest.mark.parametrize("seed", range(30))
def test_a_missing_target_name_is_refused_once_its_variable_occurs(seed):
    rng = random.Random(seed)
    # z1^7 occurs: no random term has an exponent above 3
    p = _random_poly(rng, SOURCE) + Poly.var(SOURCE, "z1") ** 7 * Poly.var(SOURCE, "t1")
    target = VarTable.make(["w1", "z2", "z3", "~z1", "~z2", "~z3", "t1", "t2"],
                           conjugates=False)
    with pytest.raises(PolyError, match=r"^unknown variable 'x1'$"):
        p.substitute({"z1": "x1"}, target)
    # a variable that does not occur may be renamed to anything
    q = p.substitute({"z1": 2})
    assert_substitutes(q, {"z1": "x1"}, q.substitute({"z1": "x1"}, target), target, rng)


# -- the containment ring ------------------------------------------------------------


D2 = CRManifold.from_text("vars z1 z2 z3\n"
                          "rho: z1*~z1 + z2*~z2 + z3*~z3 - 1\n"
                          "rho: z1*~z2 + z2*~z1 - z3*~z3\n")
SPHERE = CATALOG["sphere_C2"].manifold


@pytest.mark.parametrize("M", [SPHERE, D2], ids=["sphere_C2", "D2"])
def test_containment_refuses_targets_over_another_layout(M):
    """Graph targets over (z, wpb), the layout they had before they were
    built over the containment ring, are refused, not laid out again."""
    ptable, wpb = _param_table(M, M), M.block("wpb_")
    f = AlgebraicMap.identity(M)
    targets = graph_targets(M, M, f, ptable)
    assert containment_ideal(M, SYMBOLIC, targets, ptable)[0]
    narrow = VarTable.make(M.zvar_names, params=wpb, conjugates=False)
    with pytest.raises(PolyError, match="targets must lie over"):
        containment_ideal(M, SYMBOLIC, [t.substitute({}, narrow) for t in targets], ptable)
    # the right names in another order, and one target over another table
    names = list(M.zvar_names + ptable.names)
    shuffled = VarTable.make(names[::-1], conjugates=False)
    with pytest.raises(PolyError, match="targets must lie over"):
        containment_ideal(M, SYMBOLIC, [t.substitute({}, shuffled) for t in targets], ptable)
    with pytest.raises(PolyError, match="targets must lie over"):
        containment_ideal(M, SYMBOLIC, targets[:1] + [targets[0].substitute({}, narrow)],
                          ptable)
    # an inversion set's targets with the blocks of its parameter table swapped
    zb, wb = M.block(ZB), M.block(WB)
    swapped = VarTable.make(M.zvar_names, params=wb + zb, conjugates=False)
    with pytest.raises(PolyError, match="targets must lie over"):
        containment_ideal(M, SYMBOLIC, polar_gens(M, swapped, zb),
                          VarTable.make(zb + wb, conjugates=False))


# -- homogenize: bidegrees, and the chart variable set to 1 ----------------------------


def _catalog_manifolds():
    seen = {}
    for name, e in sorted(CATALOG.items()):
        for label, M in ((name, e.manifold), (name + "/source", e.source),
                         (name + "/target", e.target)):
            if M is not None and M.rho not in seen:
                seen[M.rho] = (label, M)
    # Im z2 = |z1|^2, whose terms differ in their z- and conjugate degrees
    heisenberg = CRManifold.from_text("vars z1 z2\nrho: i*z2 - i*~z2 - 2*z1*~z1\n")
    return list(seen.values()) + [("D2", D2), ("heisenberg", heisenberg)]


MANIFOLDS = _catalog_manifolds()


def _degree(p, kind):
    """The largest degree of a term of p in the variables of one kind."""
    idx = p.table.indices(kind)
    return max(sum(m[i] for i in idx) for m in p.terms)


@pytest.mark.parametrize("label, M", MANIFOLDS, ids=[m[0] for m in MANIFOLDS])
def test_homogenize_is_bihomogeneous_and_dehomogenizes_back(label, M):
    """Each homogenized polynomial is bihomogeneous, of the bidegree of the
    one it came from, and the chart z0 = 1 gives rho back."""
    for hom_var in (None, "h"):
        H = homogenize(M, hom_var)
        assert H.table == VarTable.make([hom_var or M.table.fresh("z0")] + list(M.zvar_names))
        assert H.chart == 0 and len(H.rho) == len(M.rho)
        for r, h in zip(M.rho, H.rho):
            want = (_degree(r, Z_VAR), _degree(r, CONJ_VAR))
            for m in h.terms:
                assert (sum(m[i] for i in H.table.indices(Z_VAR)),
                        sum(m[i] for i in H.table.indices(CONJ_VAR))) == want
        assert dehomogenize(H, 0) == M
