"""The point paths checked against the mathematics.

Back-substitution leaves lie on their system, and where the walk follows
every root without binding a drawn value, no leaf means the unit ideal and
the multiplicities sum to the degree.  The sampler's points lie on their
Segre variety, and a short golden pins its random draws.  Each fiber
solution lies on the graph and off its ledger, and the multiplicities sum
to the stated degree.  One-pass specialization takes the values of
evaluation, and the Rabinowitsch ideal evaluates to its definition.

The test names keep their earlier wording, so that the suite's ids stay
stable."""

import random
import time
from fractions import Fraction

import pytest

from segrekit import solve
from segrekit.catalog import SAMPLERS, load_catalog, load_manifold, sample_points
from segrekit.correspond import (AlgebraicMap, CorrespondenceError,
                                 ExcludedLocusError, build_correspondence, compose, fiber,
                                 power_correspondence, relation_correspondence,
                                 sample_variety_points)
from segrekit.gaussian import GaussianRational as QI
from segrekit.ideal import Ideal, _rabinowitsch, degree_zero_dim, eliminate, saturate
from segrekit.manifold import CRManifold
from segrekit.orders import lex
from segrekit.parsing import parse_poly
from segrekit.poly import Poly, PolyError, VarTable
from segrekit.segre import segre_variety
from segrekit.solve import back_substitute

from test_relayout import assert_substitutes, random_value


# -- back-substitution ------------------------------------------------------------------


def _draw(rng):
    return QI(rng.randint(-6, 6), rng.randint(-2, 2))


def check_walk(gens, table, seed, follow_all):
    """back_substitute on gens from one seed, with the sampler's drawing
    rules.  The walk never gives up here, so it gives None exactly when a
    root set falls outside Q(i); following one root, at most one leaf.
    Every generator vanishes at each leaf, in the variables it leaves free
    too.  Following every root with no drawn value bound, the leaves are
    V(gens): none means the unit ideal (Nullstellensatz), and when every
    leaf is a point, the multiplicities sum to the degree."""
    rng = random.Random(seed)
    drawn, outside = [], []
    follow = (lambda roots: roots) if follow_all else (lambda roots: [rng.choice(roots)])
    real_roots = solve._univariate_roots

    def stuck(occurring):
        value = _draw(rng)
        drawn.append(value)
        return table.names[rng.choice(sorted(set().union(*occurring)))], value

    def roots(p, vi):
        out = real_roots(p, vi)
        outside.append(out is None)
        return out

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(solve, "_univariate_roots", roots)
        leaves = back_substitute(gens, table, follow, stuck)
    assert (leaves is None) == any(outside)
    if leaves is None:
        return
    assert follow_all or len(leaves) <= 1
    for pt, mult in leaves:
        assert mult >= 1
        assert all(g.substitute(pt).is_zero() for g in gens)
    if follow_all and not drawn:
        I = Ideal.make([g for g in gens if not g.is_zero()], table=table)
        if not leaves:
            assert I.is_trivial()
        elif all(len(pt) == len(table) for pt, _ in leaves):
            assert len({tuple(pt.items()) for pt, _ in leaves}) == len(leaves)
            assert sum(m for _, m in leaves) == degree_zero_dim(I)


XYZ = VarTable.make(["x", "y", "z"], conjugates=False)


def _random_system(rng):
    """Two or three generators in x, y, z: products of linear factors with
    Q(i) roots, binomials whose roots may leave Q(i), and dense tails."""
    x, y, z = (Poly.var(XYZ, n) for n in XYZ.names)

    def c():
        return QI(Fraction(rng.randint(-4, 4), rng.randint(1, 3)), rng.randint(-2, 2))

    pick = rng.randrange(4)
    if pick == 0:
        gens = [(z - c()) * (z - c()), y ** 2 - z * c() - c(), x - y * c() - z]
    elif pick == 1:
        gens = [z ** rng.choice([2, 4]) - c(), (y - c()) * (y - z), x * y - c()]
    elif pick == 2:
        gens = [x * y + z * c() - c(), y * z - x * c()]  # nothing univariate
    else:
        gens = [(x - c()) * (y - c()), z ** 2 - c(), z * c() + x * y]
    if rng.random() < 0.3:
        gens.append(Poly.const(XYZ, 0))
    rng.shuffle(gens)
    return gens


@pytest.mark.parametrize("seed", range(60))
@pytest.mark.parametrize("follow_all", [True, False], ids=["every-root", "one-root"])
def test_walk_matches_the_poly_walk_on_random_systems(seed, follow_all):
    check_walk(_random_system(random.Random(seed)), XYZ, 1000 + seed, follow_all)


def _hq_text(p, q):
    names = [f"z{k}" for k in range(1, p + q + 1)]
    terms = " ".join(("+ " if k < p else "- ") + f"{n}*~{n}" for k, n in enumerate(names))
    return f"vars {' '.join(names)}\nrho: 1 {terms}\n"


D2 = CRManifold.from_text("vars z1 z2 z3\n"
                          "rho: z1*~z1 + z2*~z2 + z3*~z3 - 1\n"
                          "rho: z1*~z2 + z2*~z1 - z3*~z3\n")


def _segre_systems():
    """Q_p on every sampled catalog manifold, hyperquadrics of C^3 and C^4
    and the codimension-2 example, at points of their own."""
    for name in sorted(SAMPLERS):
        M = load_manifold(name + ".mfd")
        for k, p in enumerate(sample_points(name, 3, seed=11)):
            yield f"{name}-{k}", M, p
    for p_, q_ in [(2, 1), (1, 2), (3, 1)]:
        M = CRManifold.from_text(_hq_text(p_, q_))
        n = p_ + q_
        yield f"H({p_},{q_})", M, tuple([QI(1)] + [QI(0)] * (n - 1))
    yield "D2", D2, (QI(Fraction(2, 3)), QI(Fraction(1, 3)), QI(Fraction(2, 3)))


SEGRE_SYSTEMS = list(_segre_systems())


# sample_variety_points(Q_p, Random(5), 4) as printed, and the next 32 random
# bits: the draws and the order they are made in
SAMPLER_GOLDEN = {
    "H(3,1)": ([("-1", "5", "6+2*i", "-6+i"), ("-1", "4-2*i", "-4-2*i", "-1+i"),
                ("-1", "2*i", "-5+2*i", "-3-2*i"), ("-1", "0", "-4+i", "-4-2*i")],
               596001514),
    "D2": ([("2*i", "1-2*i", "1-i"), ("3-2*i", "-2+2*i", "-1/2+i"),
            ("4+2*i", "-3-2*i", "-1-i"), ("3+i", "-2-i", "-1/2-1/2*i")],
           4236239819),
}


@pytest.mark.parametrize("label, M, p", SEGRE_SYSTEMS, ids=[s[0] for s in SEGRE_SYSTEMS])
def test_sampler_matches_the_poly_walk_on_segre_varieties(label, M, p):
    Q = segre_variety(M, p).ideal
    for seed in range(8):
        check_walk(Q.generators, Q.table, seed, False)
    # whole sampler runs: distinct points of Q_p
    rng = random.Random(5)
    got = sample_variety_points(Q.generators, Q.table, rng, 4)
    assert len(set(got)) == 4
    for pt in got:
        at = dict(zip(Q.table.names, pt))
        assert all(g.eval(at).is_zero() for g in Q.generators)
    if label in SAMPLER_GOLDEN:
        assert ([tuple(map(str, pt)) for pt in got], rng.getrandbits(32)) \
            == SAMPLER_GOLDEN[label]


# -- fibers --------------------------------------------------------------------------------


def _vars(n):
    return "vars " + " ".join(f"z{k}" for k in range(1, n + 1)) + "\n"


def _power(n, r):
    def abs2(k):
        return f"z{k}^{r}*~z{k}^{r}" if r > 1 else f"z{k}*~z{k}"
    return _vars(n) + "rho: 1" + "".join(f" + {abs2(k)}" for k in range(1, n)) + f" - {abs2(n)}\n"


def _power_graph(n, r_from, r_to):
    src = CRManifold.from_text(_power(n, r_from))
    k = r_from // r_to
    f = AlgebraicMap.from_text(
        _vars(n) + "".join(f"component: z{j}^{k}\n" for j in range(1, n + 1)), src)
    return build_correspondence(src, CRManifold.from_text(_power(n, r_to)), f)


def check_fiber(C, w, expect, reverse=False):
    """fiber(C, w, reverse) against ``expect``: the error class it must
    raise, or its degree.  The solutions are distinct, each w' satisfies
    the graph at (conj w, conj w') and no ledger entry vanishes there, and
    their multiplicities sum to the degree.  Returns the result."""
    if isinstance(expect, type):
        with pytest.raises(CorrespondenceError) as exc:
            fiber(C, w, reverse)
        assert type(exc.value) is expect
        return None
    res = fiber(C, w, reverse)
    assert res.degree == expect
    if res.solutions is not None:
        assert sum(m for _, m in res.solutions) == res.degree
        assert len({wp for wp, _ in res.solutions}) == len(res.solutions)
        fixed, free = (C.wpb_names, C.wb_names) if reverse else (C.wb_names, C.wpb_names)
        for wp, _ in res.solutions:
            at = {n: x.conjugate() for n, x in zip(fixed + free, tuple(w) + wp)}
            assert all(g.eval(at).is_zero() for g in C.graph.generators)
            assert not any(e.eval(at).is_zero() for e in C.excluded)
    return res


def _points(n, rng, count):
    """Generic points, and points with zero coordinates (on excluded loci)."""
    pts = [tuple(QI(rng.randint(1, 4), rng.randint(-2, 2)) for _ in range(n))
           for _ in range(count)]
    pts.append(tuple(QI(0) if k == 0 else QI(1) for k in range(n)))
    pts.append((QI(0),) * n)
    return pts


def _catalog_correspondences():
    for entry in sorted(load_catalog().values(), key=lambda e: e.name):
        if entry.kind == "relation":
            yield entry.name, power_correspondence(entry.source, entry.target,
                                                   entry.relation["r"], entry.relation["s"])
        elif entry.kind == "correspondence":
            yield entry.name, build_correspondence(entry.source, entry.target, entry.map)


CATALOG_GRAPHS = list(_catalog_correspondences())
# (forward, reverse) degree of each catalog graph off its ledger: w'^2 = w,
# and the square map, whose ledger wb_z1^2 holds the points with a first
# coordinate 0, and so every fiber over one
CATALOG_DEGREES = {"power_r1_s2_n2": (4, 1), "power_r2_s1_n2": (1, 4)}


@pytest.mark.parametrize("name, C", CATALOG_GRAPHS, ids=[n for n, _ in CATALOG_GRAPHS])
def test_catalog_fibers_have_their_degree_off_the_ledger(name, C):
    rng = random.Random(name)
    for reverse in (False, True):
        M = C.target if reverse else C.source
        for w in [(QI(1), QI(4))] + _points(M.n, rng, 4):
            on_ledger = C.excluded and w[0].is_zero()
            check_fiber(C, w, ExcludedLocusError if on_ledger else CATALOG_DEGREES[name][reverse],
                        reverse)


def check_power_fibers(C, n, r, points):
    """C, the graph of z -> z^r on C^n, at each point g and back at g^r.
    Off the ledger, which holds the points with a first coordinate 0, the
    fibers have degree 1 forward, at g^r, and r^n back, with g among them
    when they are solved."""
    for g in points:
        fg = tuple(x ** r for x in g)
        if g[0].is_zero():
            check_fiber(C, g, ExcludedLocusError)
            check_fiber(C, fg, ExcludedLocusError, reverse=True)
        else:
            assert check_fiber(C, g, 1).solutions == [(fg, 1)]
            back = check_fiber(C, fg, r ** n, reverse=True).solutions
            assert back is None or (g, 1) in back


@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("r", [1, 2, 3, 4, 5])
def test_power_map_fibers_match_the_two_basis_fiber(n, r):
    check_power_fibers(_power_graph(n, r, 1), n, r, _points(n, random.Random(10 * n + r), 2))


@pytest.mark.parametrize("n, r1, r2", [(2, 1, 2), (2, 2, 2), (3, 2, 1), (2, 1, 4), (3, 1, 3)])
def test_composed_fibers_are_those_of_the_composite_power_map(n, r1, r2):
    """The composite of z -> z^r1 and z -> z^r2, as its power map."""
    C = compose(_power_graph(n, r1 * r2, r2), _power_graph(n, r2, 1))
    check_power_fibers(C, n, r1 * r2, _points(n, random.Random(n * r1 * r2), 2))


def test_positive_dimensional_fiber_still_raises():
    sphere = load_manifold("sphere_C2.mfd")
    C = relation_correspondence(sphere, sphere, ["wpb_z1 - wb_z1"])
    w = (QI(1), QI(2))
    with pytest.raises(CorrespondenceError, match="positive dimension 1"):
        fiber(C, w)


# fewer generators than variables: a fiber of positive dimension, whose lex
# basis is far larger than its grevlex one (the first pair took over 20 s
# under lex, against 3 ms under grevlex)
UNDERDETERMINED = [
    ("hyperquadric_k1_n3.mfd",
     ["wpb_z2*wpb_z3^2*wb_z1 + 3*wpb_z1^3*wpb_z2^2*wpb_z3^3*wb_z3 - wpb_z1*wpb_z2^2*wpb_z3^3",
      "2*wpb_z2^3*wpb_z3*wb_z2 - 2*wpb_z1*wpb_z3^3*wb_z3 + wpb_z1^3*wpb_z2*wpb_z3^3*wb_z1"
      " - wpb_z1^2*wpb_z2^2*wb_z1"]),
    ("hyperquadric_k1_n3.mfd",
     ["3*wpb_z1*wpb_z2^2*wpb_z3*wb_z1 - 3*wpb_z1^3*wpb_z2*wpb_z3^2"
      " + 2*wpb_z1^2*wpb_z2^3*wpb_z3^3*wb_z3",
      "wpb_z1^2*wpb_z3 + 2*wpb_z2^3*wpb_z3^3*wb_z3 - 3*wpb_z1*wpb_z3^3*wb_z1"
      " + 2*wpb_z1*wpb_z2*wpb_z3*wb_z2"]),
    ("hyperquadric_k1_n3.mfd", ["wpb_z1^2*wpb_z2^2 - wb_z1*wpb_z3^3 + 1"]),
    ("sphere_C2.mfd", ["(wpb_z1^2 - wb_z1*wpb_z2)^3 - wb_z2"]),
]


@pytest.mark.parametrize("ledger", [False, True])
@pytest.mark.parametrize("name, relations", UNDERDETERMINED)
def test_underdetermined_fibers_build_no_lex_basis(monkeypatch, name, relations, ledger):
    """The error class stated below, nonlinear relations and a nonconstant
    ledger entry included, from grevlex bases only."""
    import segrekit.ideal as ideal_module

    M = load_manifold(name)
    C = relation_correspondence(M, M, relations)
    if ledger:
        C = C._replace(excluded=(parse_poly("wpb_z1*wb_z2 - wpb_z2 + 2", C.graph.table),))
    w = (QI(1), QI(2), QI(-1, 1))[:M.n]
    want = ExcludedLocusError if ledger else CorrespondenceError
    orders = []
    engine = ideal_module.buchberger

    def recorded(gens, order):
        orders.append(order)
        return engine(gens, order)

    monkeypatch.setattr(ideal_module, "buchberger", recorded)
    with pytest.raises(CorrespondenceError) as exc:
        fiber(C, w)
    assert type(exc.value) is want
    n = len(C.wpb_names)
    assert orders and lex(n) not in orders


def test_enough_generators_without_pure_powers_build_no_lex_basis(monkeypatch):
    """Three generators in three variables, the third a combination of the
    first UNDERDETERMINED pair: their lex leading monomials hold no pure
    power of each variable, so the fiber is decided on its grevlex basis
    (its lex basis did not finish in 20 s)."""
    import segrekit.ideal as ideal_module

    name, (r1, r2) = UNDERDETERMINED[0]
    M = load_manifold(name)
    C = relation_correspondence(M, M, [r1, r2, f"wpb_z3*({r1}) + {r2}"])
    engine = ideal_module.buchberger

    def grevlex_only(gens, order):
        assert order != lex(order.nvars), "a lex basis was built"
        return engine(gens, order)

    monkeypatch.setattr(ideal_module, "buchberger", grevlex_only)
    start = time.perf_counter()
    with pytest.raises(CorrespondenceError, match="positive dimension 1"):
        fiber(C, (QI(1), QI(2), QI(-1, 1)))
    assert time.perf_counter() - start < 1.0


def test_a_positive_dimensional_fiber_with_enough_generators_still_raises():
    """As many generators as variables, but no pure power of wpb_z2 among
    their leading monomials: the grevlex basis shows the dimension."""
    sphere = load_manifold("sphere_C2.mfd")
    C = relation_correspondence(sphere, sphere,
                                ["wpb_z1 - wb_z1", "wpb_z1^2 - wb_z1^2"])
    w = (QI(1), QI(2))
    with pytest.raises(CorrespondenceError, match="positive dimension 1"):
        fiber(C, w)


# -- one-pass specialization -----------------------------------------------------------------


SOURCE = VarTable.make(["z1", "z2", "z3"], params=["t1", "t2"])


def _random_poly(rng, table):
    terms = {}
    for _ in range(rng.randint(0, 8)):
        m = tuple(rng.choice([0, 0, 1, 2, 3]) for _ in table.names)
        terms[m] = QI(Fraction(rng.randint(-5, 5), rng.randint(1, 4)), rng.randint(-3, 3))
    return Poly(table, terms)


@pytest.mark.parametrize("seed", range(200))
def test_one_pass_specialization_equals_substitute_then_transport(seed):
    rng = random.Random(seed)
    p = _random_poly(rng, SOURCE)
    names = list(SOURCE.names)
    rng.shuffle(names)
    cut = rng.randint(0, len(names))
    values = [QI(rng.randint(-3, 3), rng.randint(-2, 2)), rng.randint(-3, 3),
              Fraction(rng.randint(-3, 3), rng.randint(1, 3))]
    bindings = {n: rng.choice(values) for n in names[:cut]}
    rest = names[cut:]
    rng.shuffle(rest)
    extra = ["s"] if rng.random() < 0.5 else []
    target = VarTable.make(rest + extra, conjugates=False)
    assert_substitutes(p, bindings, p.substitute(bindings, target), target, rng)


def test_one_pass_specialization_refuses_a_variable_the_table_lacks():
    p = Poly.var(SOURCE, "z1") * Poly.var(SOURCE, "t1")
    target = VarTable.make(["z1"], conjugates=False)
    with pytest.raises(PolyError, match="unknown variable 't1'"):
        p.substitute({"z2": 1}, target)
    with pytest.raises(PolyError, match="unknown variable 't1'"):
        p.substitute({"z2": 1}).substitute({}, target)
    assert p.substitute({"t1": 2}, target) == Poly.var(target, "z1") * 2


# -- the Rabinowitsch ideal -------------------------------------------------------------------


@pytest.mark.parametrize("seed", range(30))
def test_rabinowitsch_in_place_matches_the_transported_ideal(seed):
    """I + <1 - t*p> over I's table extended by t: 1 - t*p first, then I's
    generators in their order, each taking its value at random points; and
    saturating I by p eliminates t from that ideal."""
    rng = random.Random(seed)
    gens = [_random_poly(rng, XYZ) for _ in range(rng.randint(1, 3))]
    gens = [g for g in gens if not g.is_zero()] or [Poly.var(XYZ, "x")]
    I = Ideal.make(gens, table=XYZ)
    p = _random_poly(rng, XYZ)
    if p.is_zero():
        p = Poly.var(XYZ, "y")
    got = _rabinowitsch(I, p, "_s")
    ext = XYZ.extend_params(["_s"])
    assert got.table == ext and len(got.generators) == len(I.generators) + 1
    for _ in range(3):
        at = {n: random_value(rng) for n in ext.names}
        xyz = {n: at[n] for n in XYZ.names}
        assert got.generators[0].eval(at) == 1 - at["_s"] * p.eval(xyz)
        assert [g.eval(at) for g in got.generators[1:]] == [g.eval(xyz) for g in I.generators]
    # a saturation keeps its basis
    if max(g.total_degree() for g in gens) <= 4:
        t = Poly.var(ext, "_s")
        rab = [1 - t * p.substitute({}, ext)] + [g.substitute({}, ext) for g in gens]
        assert saturate(I, p) == eliminate(Ideal.make(rab, table=ext), XYZ).with_order(I.order)


def test_rabinowitsch_needs_the_ideal_table():
    I = Ideal.make([Poly.var(XYZ, "x")], table=XYZ)
    other = VarTable.make(["x", "y", "z"], params=["t"], conjugates=False)
    with pytest.raises(PolyError):
        _rabinowitsch(I, Poly.var(other, "x"), "_s")
