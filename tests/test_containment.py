"""The containment ideal and parametric pseudo-division against the code
they replaced.

The reference below is the earlier per-target path, kept here: pseudo-divide
over the working table, put the remainder back together as one polynomial
and strip ledger factors from it whole, then split it again by z-monomial,
sort the coefficients in Q_w's order and transport every coefficient and
every ledger entry onto the caller's parameter table."""

import random
from fractions import Fraction

import pytest

from segrekit.catalog import SAMPLERS, load_catalog, load_manifold, sample_points
from segrekit.correspond import AlgebraicMap, _param_table, graph_targets
from segrekit.gaussian import GaussianRational as QI
from segrekit.ideal import (Ideal, ResourceLimitError, _divide, _divisor, _pack,
                            exact_div, parametric_normal_form)
from segrekit.manifold import CRManifold, polar_gens
from segrekit.poly import WB, ZB, Poly, PolyError, VarTable
from segrekit.segre import SYMBOLIC, _segre_gens, containment_ideal

from reference_layout import transport

CATALOG = load_catalog()


def coefficients_reference(p, main_indices):
    main = set(main_indices)
    mask = [i in main for i in range(len(p.table))]
    buckets = {}
    for m, c in p.terms.items():
        key = tuple([e if k else 0 for e, k in zip(m, mask)])
        rest = tuple([0 if k else e for e, k in zip(m, mask)])
        buckets.setdefault(key, {})[rest] = c
    return {k: Poly(p.table, v) for k, v in buckets.items()}


def pnf_reference(p, I, param_names):
    table = I.table
    params = {table.index(n) for n in param_names}
    main = [i for i in range(len(table)) if i not in params]
    codec = table.grevlex.codec
    divisors = [_divisor(_pack(coefficients_reference(g, main), codec))
                for g in I.generators if not g.is_zero()]
    excluded = []
    steps = 0

    def pseudo_step(c, lc):
        nonlocal steps
        steps += 1
        if steps >= 20000:
            raise ResourceLimitError("parametric reduction did not terminate",
                                     {"steps": steps})
        if not lc.is_constant() and all(lc != e for e in excluded):
            excluded.append(lc)
        return lc, c

    rem = _divide(_pack(coefficients_reference(p, main), codec), divisors, codec,
                  pseudo_step)
    work = Poly(table, {tuple(x + y for x, y in zip(codec.dec(m), r)): v
                        for m, c in rem.items() for r, v in c.terms.items()})
    changed = True
    while changed and not work.is_zero():
        changed = False
        for e in excluded:
            q = exact_div(work, e)
            if q is not None:
                work = q
                changed = True
    return work, excluded


def containment_reference(M, w, targets, ptable):
    zvars = M.zvar_names
    params = ptable.names
    table = targets[0].table
    if table.names != zvars + params:
        table = VarTable.make(zvars, params=params, conjugates=False)
        targets = [transport(p, table) for p in targets]
    if w != SYMBOLIC:
        w = M.point(w)
    Qw = Ideal.make(_segre_gens(M, w, table), table=table)
    gens, excluded = [], []
    z_idx = [table.index(n) for n in zvars]
    for p in targets:
        rem, exc = pnf_reference(p, Qw, params)
        for e in exc:
            if all(e != x for x in excluded):
                excluded.append(e)
        coeffs = coefficients_reference(rem, z_idx)
        gens.extend(coeffs[m] for m in sorted(coeffs, key=Qw.order.key))
    return ([transport(g, ptable) for g in gens if not g.is_zero()],
            tuple(transport(e, ptable) for e in excluded))


def assert_same_containment(M, w, targets, ptable):
    gens, excluded = containment_ideal(M, w, targets, ptable)
    ref_gens, ref_excluded = containment_reference(M, w, targets, ptable)
    assert gens == ref_gens and excluded == ref_excluded
    assert all(g.table is ptable for g in gens)
    assert all(e.table is ptable for e in excluded)
    return gens, excluded


def assert_same_inversion(M, w):
    """The containment that ``inversion_set`` asks for at w."""
    zb = M.block(ZB)
    params = zb + M.block(WB) if w == SYMBOLIC else zb
    ptable = VarTable.make(params, conjugates=False)
    ttable = VarTable.make(M.zvar_names, params=params, conjugates=False)
    return assert_same_containment(M, w, polar_gens(M, ttable, zb), ptable)


def assert_same_graph(M, Mp, f):
    """The containment that ``build_correspondence`` asks for, before the
    graph is saturated."""
    ptable = _param_table(M, Mp)
    return assert_same_containment(M, SYMBOLIC, graph_targets(M, Mp, f, ptable), ptable)


@pytest.mark.parametrize("name", sorted(SAMPLERS))
def test_catalog_inversion_sets(name):
    M = load_manifold(name + ".mfd")
    for w in sample_points(name, 3, seed=5) + [SYMBOLIC]:
        assert_same_inversion(M, w)


@pytest.mark.parametrize("name", sorted(CATALOG))
def test_catalog_graphs(name):
    entry = CATALOG[name]
    if entry.kind == "manifold":
        M = entry.manifold
        pairs = [(M, M, f) for f in entry.maps.values()]
        pairs.append((M, M, AlgebraicMap.identity(M)))
    elif entry.kind == "correspondence":
        pairs = [(entry.source, entry.target, entry.map)]
    else:
        pairs = [(entry.source, entry.source, AlgebraicMap.identity(entry.source))]
    for M, Mp, f in pairs:
        gens, _ = assert_same_graph(M, Mp, f)
        assert gens


def _vars(n):
    return "vars " + " ".join(f"z{k}" for k in range(1, n + 1)) + "\n"


def _abs2(k, r=1):
    return f"z{k}^{r}*~z{k}^{r}"


def power_manifold(n, r):
    pos = "".join(f" + {_abs2(k, r)}" for k in range(1, n))
    return CRManifold.from_text(_vars(n) + f"rho: 1{pos} - {_abs2(n, r)}\n")


def hyperquadric(p, q):
    terms = [_abs2(k) for k in range(1, p + 1)]
    terms += [f"-{_abs2(k)}" for k in range(p + 1, p + q + 1)]
    return CRManifold.from_text(_vars(p + q) + "rho: " + " + ".join(terms) + " - 1\n")


def generic_point(rng, n):
    return tuple(QI(rng.randint(1, 4), rng.randint(-2, 2)) for _ in range(n))


@pytest.mark.parametrize("n", [2, 3, 4])
def test_power_hypersurfaces(n):
    """P(n, r) at a point and at the symbolic point, and the graph of the
    power map z -> z^r onto P(n, 1)."""
    rng = random.Random(n)
    P1 = power_manifold(n, 1)
    for r in range(1, 6):
        M = power_manifold(n, r)
        gens, _ = assert_same_inversion(M, generic_point(rng, n))
        assert gens
        assert_same_inversion(M, SYMBOLIC)
        f = AlgebraicMap.from_text(
            _vars(n) + "".join(f"component: z{k}^{r}\n" for k in range(1, n + 1)), M)
        assert_same_graph(M, P1, f)
        assert_same_graph(P1, M, AlgebraicMap.identity(P1))


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_hyperquadrics(n):
    rng = random.Random(10 + n)
    for p in range(1, n):
        H = hyperquadric(p, n - p)
        assert_same_inversion(H, generic_point(rng, n))
        assert_same_inversion(H, SYMBOLIC)
        assert_same_graph(H, H, AlgebraicMap.identity(H))


D2 = CRManifold.from_text("vars z1 z2 z3\n"
                          "rho: z1*~z1 + z2*~z2 + z3*~z3 - 1\n"
                          "rho: z1*~z2 + z2*~z1 - z3*~z3\n")


def test_two_generators():
    """D2: Q_w has two generators, so the second divisor is reached."""
    rng = random.Random(2)
    for w in [(QI(Fraction(1, 2)), QI(Fraction(1, 2)), QI(Fraction(1, 2))),
              generic_point(rng, 3), SYMBOLIC]:
        assert_same_inversion(D2, w)
    assert_same_graph(D2, D2, AlgebraicMap.identity(D2))
    _, excluded = assert_same_inversion(D2, SYMBOLIC)
    assert excluded


def random_parametric_system(rng):
    """Up to three generators in x, y with leading coefficients that are
    non-constant, non-monic polynomials in a, b, and a target."""
    table = VarTable.make(["x", "y"], params=["a", "b"], conjugates=False)

    def coeff():
        return QI(Fraction(rng.choice([-3, -2, 2, 3, 5]), rng.randint(1, 3)),
                  Fraction(rng.randint(-1, 1)))

    def poly(nterms, degree):
        terms = {}
        for _ in range(nterms):
            terms[(rng.randint(0, degree), rng.randint(0, degree),
                   rng.randint(0, 2), rng.randint(0, 2))] = coeff()
        return Poly(table, terms)

    gens = []
    for _ in range(rng.randint(1, 3)):
        lead = (rng.randint(1, 3), rng.randint(0, 2))
        # the parameter part of the leading term is a*(something) + b + 2
        lc = Poly(table, {(0, 0, 1, rng.randint(0, 1)): coeff(), (0, 0, 0, 1): coeff(),
                          (0, 0, 0, 0): coeff()})
        mono = Poly(table, {lead + (0, 0): QI(1)})
        tail = Poly(table, {m: c for m, c in poly(3, 2).terms.items()
                            if sum(m[:2]) < sum(lead)})
        gens.append(lc * mono + tail)
    return table, Ideal.make(gens, table=table), poly(5, 3)


def test_random_parametric_systems():
    rng = random.Random(17)
    ptable = VarTable.make(["a", "b"], conjugates=False)
    ledgers = 0
    for _ in range(40):
        table, I, p = random_parametric_system(rng)
        coeffs, excluded = parametric_normal_form(p, I, ptable)
        rem, ref_excluded = pnf_reference(p, I, ["a", "b"])
        assert excluded == [transport(e, ptable) for e in ref_excluded]
        assert all(c.table is ptable and not c.is_zero() for c in coeffs.values())
        keys = list(coeffs)
        assert keys == sorted(keys, key=I.order.key)
        assert all(m[2:] == (0, 0) for m in keys)
        rebuilt = Poly(table, {m[:2] + r: v for m, c in coeffs.items()
                               for r, v in c.terms.items()})
        assert rebuilt == rem
        ledgers += bool(excluded)
    assert ledgers > 20


@pytest.mark.parametrize("params", [["a"], ["b", "a"], ["y", "b"], ["x", "y", "a", "b", "c"]])
def test_parameters_must_be_the_tail_of_the_table(params):
    table = VarTable.make(["x", "y"], params=["a", "b"], conjugates=False)
    I = Ideal.make([Poly.var(table, "x")], table=table)
    with pytest.raises(PolyError, match=r"\('x', 'y', 'a', 'b'\)"):
        parametric_normal_form(Poly.var(table, "y"), I,
                               VarTable.make(params, conjugates=False))


def test_parametric_normal_form_refuses_a_target_over_another_table():
    """p = u over (u, v, a) is not read as x over (x, y, a)."""
    table = VarTable.make(["x", "y"], params=["a"], conjugates=False)
    other = VarTable.make(["u", "v"], params=["a"], conjugates=False)
    I = Ideal.make([Poly.var(table, "x") - Poly.var(table, "a")], table=table)
    with pytest.raises(PolyError, match="different variable tables"):
        parametric_normal_form(Poly.var(other, "u"), I, VarTable.make(["a"], conjugates=False))
