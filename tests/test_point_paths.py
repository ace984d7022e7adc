"""The point paths against the designs they replace, kept here as references:
the walk that rebuilt each live ``Poly`` per bound value, the fiber that
read a grevlex basis beside the lex one, substitute-then-transport, and the
Rabinowitsch ideal laid out by the old ``Poly.transport`` (the copy in
``reference_layout``).

Each reference must agree exactly with the code: the same leaves in the
same order, the same multiplicities and random draws, the same fiber
degrees, solutions and error classes, the same polynomials term for term."""

import random
import time
from fractions import Fraction

import pytest

from segrekit.catalog import SAMPLERS, load_catalog, load_manifold, sample_points
from segrekit.correspond import (AlgebraicMap, CorrespondenceError,
                                 ExcludedLocusError, build_correspondence, compose, fiber,
                                 power_correspondence, relation_correspondence,
                                 sample_variety_points)
from segrekit.gaussian import GaussianRational as QI
from segrekit.ideal import (Ideal, _rabinowitsch, degree_zero_dim, dimension,
                            eliminate, saturate)
from segrekit.manifold import CRManifold
from segrekit.orders import lex
from segrekit.parsing import parse_poly
from segrekit.poly import Poly, PolyError, VarTable
from segrekit.segre import segre_variety
from segrekit.solve import _univariate_roots, back_substitute

from reference_layout import transport


# -- references -----------------------------------------------------------------------


def poly_walk(gens, table, follow, stuck, bound=None):
    """Back-substitution that substitutes each bound value into every live
    ``Poly`` it occurs in and recomputes their variables; ``stuck`` gets the
    live polynomials."""
    bound = bound or {}
    live = []
    for g in gens:
        if g.is_zero():
            continue
        if g.is_constant():
            return []
        live.append(g)
    if not live:
        return [(bound, 1)]
    occurs = [g.variables() for g in live]
    for gi, (g, vs) in enumerate(zip(live, occurs)):
        if len(vs) == 1:
            (vi,) = vs
            roots = _univariate_roots(g, vi)
            if roots is None:
                return None
            rest = list(zip(live[:gi] + live[gi + 1:], occurs[:gi] + occurs[gi + 1:]))
            steps = [(table.names[vi], val, mult) for val, mult in follow(roots)]
            break
    else:
        step = stuck(live)
        if step is None:
            return None
        rest = list(zip(live, occurs))
        steps = [(*step, 1)]
    out = []
    for name, val, mult in steps:
        vi = table.index(name)
        sub = poly_walk([h.substitute({name: val}) if vi in vs else h for h, vs in rest],
                        table, follow, stuck, {**bound, name: val})
        if sub is None:
            return None
        out.extend((pt, m * mult) for pt, m in sub)
    return out


def walk_solve(I):
    gb = I.with_order(lex(len(I.table))).groebner()
    sols = poly_walk(gb, I.table, lambda roots: roots, lambda live: None)
    if sols is None or any(len(pt) != len(I.table) for pt, _ in sols):
        return None
    return sols


def two_basis_fiber(C, w, reverse=False):
    """The fiber from a grevlex ideal of substituted, then transported,
    generators; its solutions from a second, lex basis."""
    fixed_names = C.wpb_names if reverse else C.wb_names
    free_names = C.wb_names if reverse else C.wpb_names
    w = (C.target if reverse else C.source).point(w)
    binding = {n: x.conjugate() for n, x in zip(fixed_names, w)}
    ftable = VarTable.make(list(free_names), conjugates=False)
    ledger = [(e, transport(e.substitute(binding), ftable)) for e in C.excluded]
    for e, at_w in ledger:
        if at_w.is_zero():
            raise ExcludedLocusError(f"point lies on the excluded locus {e}")
    gens = [g.substitute(binding) for g in C.graph.generators]
    gens = [transport(g, ftable) for g in gens if not g.is_zero()]
    if not gens:
        raise CorrespondenceError("fiber is the whole space (empty specialized ideal)")
    I = Ideal.make(gens, table=ftable)
    d = dimension(I)
    if d < 0:
        raise CorrespondenceError("fiber is empty (the specialized ideal is the unit ideal)")
    for e, at_w in ledger:
        if at_w.is_constant():
            continue
        if not Ideal.make(I.groebner() + (at_w,), table=ftable).is_trivial():
            raise ExcludedLocusError(f"a fiber point lies on the excluded locus {e}")
    if d > 0:
        raise CorrespondenceError(f"fiber has positive dimension {d}")
    deg = degree_zero_dim(I)
    sols = walk_solve(I)
    out = None
    if sols is not None:
        out = [(tuple(pt[n].conjugate() for n in free_names), mult) for pt, mult in sols]
    return deg, out


def transported_rabinowitsch(I, p, stem):
    aux = I.table.fresh(stem)
    ext = I.table.extend_params([aux])
    gens = [transport(g, ext) for g in I.generators]
    gens.append(Poly.const(ext, 1) - Poly.var(ext, aux) * transport(p, ext))
    return Ideal.make(gens, table=ext)


# -- back-substitution ------------------------------------------------------------------


def _draw(rng):
    return QI(rng.randint(-6, 6), rng.randint(-2, 2))


def _walk_pair(gens, table, seed, follow_all):
    """Both walks on gens from one seed, with the sampler's drawing rules:
    (leaves, rng state) of each."""
    out = []
    for new in (True, False):
        rng = random.Random(seed)
        follow = (lambda roots: roots) if follow_all else (lambda roots: [rng.choice(roots)])
        if new:
            def stuck(occurring):
                value = _draw(rng)
                return table.names[rng.choice(sorted(set().union(*occurring)))], value
            leaves = back_substitute(gens, table, follow, stuck)
        else:
            def stuck(live):
                value = _draw(rng)
                return table.names[rng.choice(sorted(set().union(
                    *(g.variables() for g in live))))], value
            leaves = poly_walk(gens, table, follow, stuck)
        out.append((leaves, rng.getstate()))
    return out


def _leaves(leaves):
    return None if leaves is None else [(list(pt.items()), m) for pt, m in leaves]


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
    gens = _random_system(random.Random(seed))
    (new, new_state), (old, old_state) = _walk_pair(gens, XYZ, 1000 + seed, follow_all)
    assert _leaves(new) == _leaves(old)
    assert new_state == old_state


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


@pytest.mark.parametrize("label, M, p", SEGRE_SYSTEMS, ids=[s[0] for s in SEGRE_SYSTEMS])
def test_sampler_matches_the_poly_walk_on_segre_varieties(label, M, p):
    Q = segre_variety(M, p).ideal
    for seed in range(8):
        (new, new_state), (old, old_state) = _walk_pair(Q.generators, Q.table, seed, False)
        assert _leaves(new) == _leaves(old)
        assert new_state == old_state
    # whole sampler runs: the same points, and the same draws consumed
    rng_new, rng_old = random.Random(5), random.Random(5)
    got = sample_variety_points(Q.generators, Q.table, rng_new, 4)
    want = []
    while len(want) < 4:
        leaves = poly_walk(
            Q.generators, Q.table, lambda roots: [rng_old.choice(roots)],
            lambda live: (lambda v: (Q.table.names[rng_old.choice(sorted(set().union(
                *(g.variables() for g in live))))], v))(_draw(rng_old)))
        if not leaves:
            continue
        bound = leaves[0][0]
        pt = tuple(bound[n] if n in bound else _draw(rng_old) for n in Q.table.names)
        if pt not in want:
            want.append(pt)
    assert got == want
    assert rng_new.getstate() == rng_old.getstate()


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


def _outcome(run):
    """(degree, solutions) of a fiber, or the class of its error."""
    try:
        return run()
    except (CorrespondenceError, PolyError) as exc:
        return type(exc)


def assert_same_fiber(C, w, reverse=False):
    want = _outcome(lambda: two_basis_fiber(C, w, reverse))
    got = _outcome(lambda: tuple(fiber(C, w, reverse)))
    assert got == want
    return got


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


@pytest.mark.parametrize("name, C", CATALOG_GRAPHS, ids=[n for n, _ in CATALOG_GRAPHS])
def test_catalog_fibers_match_the_two_basis_fiber(name, C):
    rng = random.Random(name)
    for reverse in (False, True):
        M = C.target if reverse else C.source
        for w in [(QI(1), QI(4))] + _points(M.n, rng, 4):
            assert_same_fiber(C, w, reverse)


@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("r", [1, 2, 3, 4, 5])
def test_power_map_fibers_match_the_two_basis_fiber(n, r):
    C = _power_graph(n, r, 1)
    rng = random.Random(10 * n + r)
    outcomes = []
    for g in _points(n, rng, 2):
        fg = tuple(x ** r for x in g)
        outcomes.append(assert_same_fiber(C, g))
        outcomes.append(assert_same_fiber(C, fg, reverse=True))
    # at a generic point the fibers have degree 1 forward and r^n back
    assert outcomes[0][0] == 1 and outcomes[1][0] == r ** n


@pytest.mark.parametrize("n, r1, r2", [(2, 1, 2), (2, 2, 2), (3, 2, 1), (2, 1, 4), (3, 1, 3)])
def test_composed_fibers_match_the_two_basis_fiber(n, r1, r2):
    C = compose(_power_graph(n, r1 * r2, r2), _power_graph(n, r2, 1))
    rng = random.Random(n * r1 * r2)
    for g in _points(n, rng, 2):
        assert_same_fiber(C, g)
        assert_same_fiber(C, tuple(x ** (r1 * r2) for x in g), reverse=True)


def test_positive_dimensional_fiber_still_raises():
    sphere = load_manifold("sphere_C2.mfd")
    C = relation_correspondence(sphere, sphere, ["wpb_z1 - wb_z1"])
    w = (QI(1), QI(2))
    assert _outcome(lambda: two_basis_fiber(C, w)) is CorrespondenceError
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
    """The same error class as the two-basis fiber, nonlinear relations and a
    nonconstant ledger entry included, from grevlex bases only."""
    import segrekit.ideal as ideal_module

    M = load_manifold(name)
    C = relation_correspondence(M, M, relations)
    if ledger:
        C = C._replace(excluded=(parse_poly("wpb_z1*wb_z2 - wpb_z2 + 2", C.graph.table),))
    w = (QI(1), QI(2), QI(-1, 1))[:M.n]
    want = _outcome(lambda: two_basis_fiber(C, w))
    assert want is (ExcludedLocusError if ledger else CorrespondenceError)
    orders = []
    engine = ideal_module.buchberger

    def recorded(gens, order):
        orders.append(order)
        return engine(gens, order)

    monkeypatch.setattr(ideal_module, "buchberger", recorded)
    assert _outcome(lambda: tuple(fiber(C, w))) is want
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
    assert _outcome(lambda: two_basis_fiber(C, w)) is CorrespondenceError
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
    got = p.substitute(bindings, target)
    want = transport(p.substitute(bindings), target)
    assert got == want
    assert list(got.terms.items()) == list(want.terms.items())


def test_one_pass_specialization_refuses_a_variable_the_table_lacks():
    p = Poly.var(SOURCE, "z1") * Poly.var(SOURCE, "t1")
    target = VarTable.make(["z1"], conjugates=False)
    with pytest.raises(PolyError, match="unknown variable 't1'"):
        p.substitute({"z2": 1}, target)
    with pytest.raises(PolyError, match="unknown variable 't1'"):
        transport(p.substitute({"z2": 1}), target)
    assert p.substitute({"t1": 2}, target) == Poly.var(target, "z1") * 2


# -- the Rabinowitsch ideal -------------------------------------------------------------------


@pytest.mark.parametrize("seed", range(30))
def test_rabinowitsch_in_place_matches_the_transported_ideal(seed):
    rng = random.Random(seed)
    gens = [_random_poly(rng, XYZ) for _ in range(rng.randint(1, 3))]
    gens = [g for g in gens if not g.is_zero()] or [Poly.var(XYZ, "x")]
    I = Ideal.make(gens, table=XYZ)
    p = _random_poly(rng, XYZ)
    if p.is_zero():
        p = Poly.var(XYZ, "y")
    got = _rabinowitsch(I, p, "_s")
    want = transported_rabinowitsch(I, p, "_s")
    assert got.table == want.table
    # the Rabinowitsch polynomial comes first; the rest keep their order
    assert got.generators == (want.generators[-1],) + want.generators[:-1]
    # a saturation keeps its basis
    if max(g.total_degree() for g in gens) <= 4:
        assert saturate(I, p) == eliminate(want, XYZ).with_order(I.order)


def test_rabinowitsch_needs_the_ideal_table():
    I = Ideal.make([Poly.var(XYZ, "x")], table=XYZ)
    other = VarTable.make(["x", "y", "z"], params=["t"], conjugates=False)
    with pytest.raises(PolyError):
        _rabinowitsch(I, Poly.var(other, "x"), "_s")
