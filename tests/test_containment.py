"""The containment ideal and parametric pseudo-division, checked against
field arithmetic at random parameter values.

Off the ledger, a pseudo-remainder specialized at parameter values t is a
nonzero multiple of the target specialized at t, modulo the divisors
specialized at t, and no leading monomial of those divisors divides any of
its terms.  Where the divisors are a Groebner basis at t, the remainder is
therefore a nonzero multiple of the field normal form: the containment ideal
vanishes at t exactly where the target vanishes on Q_w.

The test names keep their earlier wording, so that the suite's ids stay
stable."""

import random
from fractions import Fraction

import pytest

from segrekit import segre
from segrekit.catalog import SAMPLERS, load_catalog, load_manifold, sample_points
from segrekit.correspond import AlgebraicMap, _param_table, graph_targets
from segrekit.gaussian import GaussianRational as QI
from segrekit.ideal import Ideal, member, normal_form, parametric_normal_form
from segrekit.manifold import CRManifold, polar_gens
from segrekit.poly import WB, ZB, Poly, PolyError, VarTable
from segrekit.segre import SYMBOLIC, containment_ideal

from test_relayout import random_value

CATALOG = load_catalog()


class NotANormalForm(AssertionError):
    """A remainder that is not a multiple of the field normal form: its
    divisors are no Groebner basis where they were specialized."""


def _leading_coefficient(g, n, ptable):
    """g's coefficient over ``ptable`` at its largest monomial in the first
    n variables of its table, under the table's grevlex order."""
    pad = (0,) * (len(g.table) - n)
    lead = max((m[:n] for m in g.terms), key=lambda k: g.table.grevlex.key(k + pad))
    return Poly(ptable, {m[n:]: c for m, c in g.terms.items() if m[:n] == lead})


def check_remainder(p, I, ptable, coeffs, excluded, rng, normal=True, rounds=2):
    """(coeffs, excluded), the result of parametric_normal_form(p, I,
    ptable), against field arithmetic.

    The keys are monomials in I's main variables, ascending in I's order,
    each with a nonzero coefficient over ``ptable``.  The ledger holds
    distinct nonconstant leading coefficients of I's generators, and none
    of them divides every coefficient.  At ``rounds`` random parameter
    values t where no leading coefficient vanishes, the remainder r(t) has
    no term that a leading monomial of I's generators divides, and its
    normal form modulo them is a nonzero multiple of p(t)'s.  With
    ``normal``, r(t) must be that normal form itself, else NotANormalForm is
    raised."""
    table = I.table
    n = len(table) - len(ptable)
    keys = list(coeffs)
    assert keys == sorted(keys, key=I.order.key)
    assert all(not any(k[n:]) for k in keys)
    assert all(c.table is ptable and not c.is_zero() for c in coeffs.values())
    lcs = [_leading_coefficient(g, n, ptable) for g in I.generators if not g.is_zero()]
    assert len(set(excluded)) == len(excluded)
    assert all(not e.is_constant() and e in lcs for e in excluded)
    if coeffs:
        assert not any(all(member(c, Ideal.make([e], table=ptable)) for c in coeffs.values())
                       for e in excluded)
    ztable = VarTable.make(table.names[:n], conjugates=False)
    for _ in range(rounds):
        t = {name: random_value(rng) for name in ptable.names}
        while any(lc.eval(t).is_zero() for lc in lcs):
            t = {name: random_value(rng) for name in ptable.names}
        J = Ideal.make([g.substitute(t, ztable) for g in I.generators if not g.is_zero()],
                       table=ztable)
        r_t = Poly(ztable, {k[:n]: c.eval(t) for k, c in coeffs.items()})
        lms = [max(g.terms, key=ztable.grevlex.key) for g in J.generators]
        assert not any(all(map(int.__ge__, m, lm)) for m in r_t.terms for lm in lms)
        nf_p, nf_r = normal_form(p.substitute(t, ztable), J), normal_form(r_t, J)
        assert nf_p.is_zero() == nf_r.is_zero()
        if not nf_p.is_zero():
            m = next(iter(nf_p.terms))
            assert nf_r == nf_p * (nf_r.terms.get(m, QI(0)) / nf_p.terms[m])
        if normal and r_t != nf_r:
            raise NotANormalForm(f"the remainder of {p} is no normal form at {t}")


def check_containment(M, w, targets, ptable, normal=True):
    """containment_ideal(M, w, targets, ptable) is the coefficients of each
    target's pseudo-remainder modulo Q_w, target by target, and the ledger
    gathered in order of first use, all over ``ptable``; each remainder
    passes ``check_remainder``."""
    calls = []
    real = segre.parametric_normal_form

    def spy(p, I, pt):
        out = real(p, I, pt)
        calls.append((p, I, out))
        return out

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(segre, "parametric_normal_form", spy)
        gens, excluded = containment_ideal(M, w, targets, ptable)
    assert [p for p, _, _ in calls] == list(targets)
    assert all(I.table.names == M.zvar_names + ptable.names for _, I, _ in calls)
    rng = random.Random(str((M.rho, w)))
    ledger = []
    for p, I, (coeffs, exc) in calls:
        check_remainder(p, I, ptable, coeffs, exc, rng, normal)
        ledger += [e for e in exc if e not in ledger]
    assert gens == [c for _, _, (coeffs, _) in calls for c in coeffs.values()]
    assert excluded == tuple(ledger)
    assert all(g.table is ptable for g in gens)
    assert all(e.table is ptable for e in excluded)
    return gens, excluded


def check_inversion(M, w, normal=True):
    """The containment that ``inversion_set`` asks for at w."""
    zb = M.block(ZB)
    params = zb + M.block(WB) if w == SYMBOLIC else zb
    ptable = VarTable.make(params, conjugates=False)
    ttable = VarTable.make(M.zvar_names, params=params, conjugates=False)
    return check_containment(M, w, polar_gens(M, ttable, zb), ptable, normal)


def check_graph(M, Mp, f, normal=True):
    """The containment that ``build_correspondence`` asks for, before the
    graph is saturated."""
    ptable = _param_table(M, Mp)
    return check_containment(M, SYMBOLIC, graph_targets(M, Mp, f, ptable), ptable, normal)


@pytest.mark.parametrize("name", sorted(SAMPLERS))
def test_catalog_inversion_sets(name):
    M = load_manifold(name + ".mfd")
    for w in sample_points(name, 3, seed=5) + [SYMBOLIC]:
        check_inversion(M, w)


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
        gens, _ = check_graph(M, Mp, f)
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
        gens, _ = check_inversion(M, generic_point(rng, n))
        assert gens
        check_inversion(M, SYMBOLIC)
        f = AlgebraicMap.from_text(
            _vars(n) + "".join(f"component: z{k}^{r}\n" for k in range(1, n + 1)), M)
        check_graph(M, P1, f)
        check_graph(P1, M, AlgebraicMap.identity(P1))


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_hyperquadrics(n):
    rng = random.Random(10 + n)
    for p in range(1, n):
        H = hyperquadric(p, n - p)
        check_inversion(H, generic_point(rng, n))
        check_inversion(H, SYMBOLIC)
        check_graph(H, H, AlgebraicMap.identity(H))


D2 = CRManifold.from_text("vars z1 z2 z3\n"
                          "rho: z1*~z1 + z2*~z2 + z3*~z3 - 1\n"
                          "rho: z1*~z2 + z2*~z1 - z3*~z3\n")


D2_POINTS = [(QI(Fraction(1, 2)), QI(Fraction(1, 2)), QI(Fraction(1, 2))),
             generic_point(random.Random(2), 3), SYMBOLIC]


def test_two_generators():
    """D2: Q_w has two generators, so the second divisor is reached.  Every
    check but the normal form holds."""
    for w in D2_POINTS:
        check_inversion(D2, w, normal=False)
    check_graph(D2, D2, AlgebraicMap.identity(D2), normal=False)
    _, excluded = check_inversion(D2, SYMBOLIC, normal=False)
    assert excluded


@pytest.mark.xfail(raises=NotANormalForm, strict=True,
                   reason="ROADMAP item 1: codimension 2 reduces against the generators "
                          "of Q_w, not a block basis; today D2's remainders are no normal "
                          "forms")
def test_two_generators_reduce_to_normal_forms():
    for w in D2_POINTS:
        check_inversion(D2, w)
    check_graph(D2, D2, AlgebraicMap.identity(D2))


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
    """Up to three divisors, which need not be a Groebner basis anywhere."""
    rng = random.Random(17)
    ptable = VarTable.make(["a", "b"], conjugates=False)
    ledgers = 0
    for _ in range(40):
        table, I, p = random_parametric_system(rng)
        coeffs, excluded = parametric_normal_form(p, I, ptable)
        check_remainder(p, I, ptable, coeffs, excluded, rng, normal=False)
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
