"""Graph targets, the reality test and the fiber shortcuts against the code
they replaced.

The references below are the earlier implementations, kept here: the graph
targets one term of rho' at a time with every power taken afresh, and
``is_real`` as a comparison with the whole conjugate polynomial."""

import random
from fractions import Fraction

import pytest

from segrekit.catalog import load_catalog
from segrekit.correspond import (AlgebraicMap, ExcludedLocusError, _param_table,
                                 build_correspondence, fiber, graph_targets)
from segrekit.gaussian import GaussianRational as QI
from segrekit.manifold import CRManifold
from segrekit.poly import CONJ_VAR, PARAM_VAR, Z_VAR, Poly, PolyError, VarTable

from reference_layout import transport

CATALOG = load_catalog()


def targets_reference(M, Mp, f):
    wpb = tuple("wpb_" + n for n in Mp.zvar_names)
    ttable = VarTable.make(list(M.zvar_names), params=list(wpb), conjugates=False)
    nums = [transport(num, ttable) for num, _ in f.components]
    dens = [transport(den, ttable) for _, den in f.components]
    targets = []
    for rp in Mp.rho:
        degs = [rp.degree_in([rp.table.index(n)]) for n in Mp.zvar_names]
        acc = Poly.zero(ttable)
        for mono, c in rp.terms.items():
            piece = Poly.const(ttable, c)
            for k, n in enumerate(Mp.zvar_names):
                a = mono[rp.table.index(n)]
                b = mono[rp.table.index("~" + n)]
                piece = piece * nums[k] ** a * dens[k] ** (degs[k] - a)
                if b:
                    piece = piece * Poly.var(ttable, wpb[k]) ** b
            acc = acc + piece
        targets.append(acc)
    return targets


def _vars(n):
    return "vars " + " ".join(f"z{k}" for k in range(1, n + 1)) + "\n"


def power_manifold(n, r):
    names = [f"z{k}" for k in range(1, n + 1)]
    rho = "".join(f" + {z}^{r}*~{z}^{r}" for z in names[:-1])
    return CRManifold.from_text(_vars(n) + f"rho: 1{rho} - {names[-1]}^{r}*~{names[-1]}^{r}\n")


def map_on(M, components):
    return AlgebraicMap.from_text(_vars(M.n) + "".join(f"component: {c}\n" for c in components), M)


def target_cases():
    cases = []
    for n in (2, 3):
        for r in (1, 2, 3):
            src, dst = power_manifold(n, r), power_manifold(n, 1)
            cases.append((f"power_n{n}_r{r}", src, dst,
                          map_on(src, [f"z{k}^{r}" for k in range(1, n + 1)])))
    for name, e in sorted(CATALOG.items()):
        if e.kind == "manifold":
            M = e.manifold
            cases.append((name + "/identity", M, M, AlgebraicMap.identity(M)))
            cases.extend((f"{name}/{label}", M, M, f) for label, f in sorted(e.maps.items()))
        elif e.map is not None:
            cases.append((name, e.source, e.target, e.map))
    # denominators other than 1, and a target of degree 2 in one variable
    sphere = CATALOG["sphere_C2"].manifold
    H3 = CATALOG["hyperquadric_k1_n3"].manifold
    cases.append(("sphere/rational", sphere, sphere,
                  map_on(sphere, ["z1 / (2 - z2)", "(z2^2 + i) / (1 + z1*z2)"])))
    cases.append(("sphere->P(2,2)/rational", sphere, power_manifold(2, 2),
                  map_on(sphere, ["z1*z2 / (3 + z1)", "z2 - 1"])))
    cases.append(("H3/rational", H3, H3,
                  map_on(H3, ["z1 / (1 + z3)", "z2", "z3^2 / (1 + z3)"])))
    # constant components: a factor equal to 1 is skipped, any other kept,
    # and -1 to an even power is 1
    cases.append(("sphere/constant", sphere, sphere, map_on(sphere, ["3/5", "z2"])))
    cases.append(("sphere/one", sphere, sphere, map_on(sphere, ["1", "z1*z2"])))
    cases.append(("H3/constants", H3, H3, map_on(H3, ["-1", "2*i", "z3 / (1 - z1)"])))
    return cases


@pytest.mark.parametrize("label,M,Mp,f", target_cases(), ids=[c[0] for c in target_cases()])
def test_graph_targets_equal_the_per_term_loop(label, M, Mp, f):
    """The targets come laid out over the containment ring: M's z-variables,
    then the graph's (wb, wpb) parameter table."""
    ptable = _param_table(M, Mp)
    ring = VarTable.make(M.zvar_names, params=ptable.names, conjugates=False)
    got = graph_targets(M, Mp, f, ptable)
    assert all(t.table == ring for t in got)
    assert got == [transport(t, ring) for t in targets_reference(M, Mp, f)]


TABLE = VarTable.make(["z1", "z2"], params=["t"])


def rand_qi(rng):
    return QI(Fraction(rng.randint(-5, 5), rng.randint(1, 3)),
              Fraction(rng.randint(-5, 5), rng.randint(1, 3)))


def rand_poly(rng, table=TABLE, nterms=5):
    terms = {}
    for _ in range(rng.randint(0, nterms)):
        terms[tuple(rng.randint(0, 2) for _ in range(len(table)))] = rand_qi(rng)
    return Poly(table, terms)


@pytest.mark.parametrize("seed", range(60))
def test_is_real_equals_the_conjugate_comparison(seed):
    rng = random.Random(seed)
    p = rand_poly(rng)
    real = p + p.conjugate()
    cases = [p, real, p * p.conjugate(), Poly.zero(TABLE)]
    if real.terms:
        # one coefficient nudged off its partner's conjugate
        cases.append(real + Poly(TABLE, {next(iter(real.terms)): QI(0, 1)}))
        assert not cases[-1].is_real()
    for q in cases:
        assert q.is_real() == (q.conjugate() == q)
    assert real.is_real()


def test_a_variable_without_partner_still_raises():
    table = VarTable(("z1", "z2", "~z1", "t"), (Z_VAR, Z_VAR, CONJ_VAR, PARAM_VAR),
                     (2, None, 0, None))
    z1, z2, cz1 = (Poly.var(table, n) for n in ("z1", "z2", "~z1"))
    assert (z1 * cz1 + Poly.var(table, "t")).is_real()
    # raises even where a term before it already shows the polynomial is not real
    for p in (z2, Poly.const(table, QI(0, 1)) * z1 + z2, z2 * cz1 - z1):
        with pytest.raises(PolyError, match="no conjugate partner"):
            p.conjugate()
        with pytest.raises(PolyError, match="no conjugate partner"):
            p.is_real()


def square_correspondence():
    e = CATALOG["power_r2_s1_n2"]
    return build_correspondence(e.source, e.target, e.map)


def solutions(res):
    return res.degree, sorted((tuple(map(str, p)), m) for p, m in res.solutions)


@pytest.mark.parametrize("a,b", [(1, 0), (1, 1), (1, 4), (4, 0), (4, 1), (4, 4)])
def test_square_map_fibers_are_unchanged(a, b):
    """Forward fibers of z -> z^2 from P(2, 2) to H(1, 1) are one point;
    reverse fibers are the four square roots, double where a coordinate
    is 0 (outputs of the earlier code)."""
    C = square_correspondence()
    fwd = fiber(C, (QI(a), QI(b)))
    assert solutions(fwd) == (1, [((str(a * a), str(b * b)), 1)])
    rev = fiber(C, (QI(a), QI(b)), reverse=True)
    ra, rb = {1: 1, 4: 2}[a], {0: 0, 1: 1, 4: 2}[b]
    roots = sorted({(str(s * ra), str(t * rb)) for s in (1, -1) for t in (1, -1)})
    assert solutions(rev) == (4, [(p, 1 if rb else 2) for p in roots])


@pytest.mark.parametrize("b", [0, 1, 4])
def test_square_map_fibers_over_the_excluded_locus_raise(b):
    C = square_correspondence()
    with pytest.raises(ExcludedLocusError, match="point lies on the excluded locus wb_z1"):
        fiber(C, (QI(0), QI(b)))
    with pytest.raises(ExcludedLocusError, match="a fiber point lies on the excluded locus"):
        fiber(C, (QI(0), QI(b)), reverse=True)
