"""One relayout routine: ``Poly.substitute`` with name bindings against the
old ``Poly.transport`` (kept in ``reference_layout``), the containment ideal
refusing targets over another layout, and ``homogenize`` against its old
per-term loop, kept here as a reference."""

import random
from fractions import Fraction

import pytest

from segrekit.catalog import load_catalog
from segrekit.correspond import AlgebraicMap, _param_table, graph_targets
from segrekit.gaussian import GaussianRational as QI
from segrekit.manifold import CRManifold, homogenize, polar_gens
from segrekit.poly import CONJ_VAR, WB, Z_VAR, ZB, ZETA, Poly, PolyError, VarTable
from segrekit.segre import SYMBOLIC, containment_ideal

from reference_layout import transport

CATALOG = load_catalog()
SOURCE = VarTable.make(["z1", "z2", "z3"], params=["t1", "t2"])


def _random_poly(rng, table, nterms=8):
    terms = {}
    for _ in range(rng.randint(0, nterms)):
        m = tuple(rng.choice([0, 0, 1, 2, 3]) for _ in table.names)
        terms[m] = QI(Fraction(rng.randint(-5, 5), rng.randint(1, 4)), rng.randint(-3, 3))
    return Poly(table, terms)


def _same(got, want):
    """Equal, term for term and in the same order."""
    assert got == want
    assert list(got.terms.items()) == list(want.terms.items())


# -- substitute with names against the reference transport ----------------------------


@pytest.mark.parametrize("seed", range(100))
def test_relayout_onto_a_wider_table(seed):
    rng = random.Random(seed)
    p = _random_poly(rng, SOURCE)
    names = list(SOURCE.names)
    rng.shuffle(names)
    extra = ["s1", "s2"][:rng.randint(0, 2)]
    target = VarTable.make(names + extra, conjugates=False)
    _same(p.substitute({}, target), transport(p, target))


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
    _same(p.substitute(name_map, target), transport(p, target, name_map))


@pytest.mark.parametrize("seed", range(100))
def test_non_injective_renames(seed):
    """Variables renamed into one slot multiply; terms that meet there add,
    and a sum that cancels is dropped."""
    rng = random.Random(seed)
    p = _random_poly(rng, SOURCE)
    target = VarTable.make(["w", "v"], conjugates=False)
    name_map = {n: rng.choice(["w", "v"]) for n in SOURCE.names}
    _same(p.substitute(name_map, target), transport(p, target, name_map))
    # q(z1) - q(z2) vanishes once z1 and z2 are both renamed to w
    one = VarTable.make(["z1", "z2"], conjugates=False)
    q = Poly(one, {(e, 0): QI(rng.randint(1, 5), rng.randint(-2, 2))
                   for e in rng.sample(range(6), 3)})
    diff = q - Poly(one, {(0, e): c for (e, _), c in q.terms.items()})
    w = VarTable.make(["w"], conjugates=False)
    moved = diff.substitute({"z1": "w", "z2": "w"}, w)
    assert moved.is_zero() and moved.terms == {}
    assert moved == transport(diff, w, {"z1": "w", "z2": "w"})


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
    got = p.substitute({**numbers, **name_map}, target)
    _same(got, transport(p.substitute(numbers), target, name_map))


@pytest.mark.parametrize("seed", range(30))
def test_a_missing_target_name_is_refused_once_its_variable_occurs(seed):
    rng = random.Random(seed)
    # z1^7 occurs: no random term has an exponent above 3
    p = _random_poly(rng, SOURCE) + Poly.var(SOURCE, "z1") ** 7 * Poly.var(SOURCE, "t1")
    target = VarTable.make(["w1", "z2", "z3", "~z1", "~z2", "~z3", "t1", "t2"],
                           conjugates=False)
    with pytest.raises(PolyError, match="unknown variable 'x1'") as got:
        p.substitute({"z1": "x1"}, target)
    with pytest.raises(PolyError) as want:
        transport(p, target, {"z1": "x1"})
    assert str(got.value) == str(want.value)
    # a variable that does not occur may be renamed to anything
    q = p.substitute({"z1": 2})
    _same(q.substitute({"z1": "x1"}, target), transport(q, target, {"z1": "x1"}))


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
        containment_ideal(M, SYMBOLIC, [transport(t, narrow) for t in targets], ptable)
    # the right names in another order, and one target over another table
    names = list(M.zvar_names + ptable.names)
    shuffled = VarTable.make(names[::-1], conjugates=False)
    with pytest.raises(PolyError, match="targets must lie over"):
        containment_ideal(M, SYMBOLIC, [transport(t, shuffled) for t in targets], ptable)
    with pytest.raises(PolyError, match="targets must lie over"):
        containment_ideal(M, SYMBOLIC, targets[:1] + [transport(targets[0], narrow)], ptable)
    # an inversion set's targets with the blocks of its parameter table swapped
    zb, wb = M.block(ZB), M.block(WB)
    swapped = VarTable.make(M.zvar_names, params=wb + zb, conjugates=False)
    with pytest.raises(PolyError, match="targets must lie over"):
        containment_ideal(M, SYMBOLIC, polar_gens(M, swapped, zb),
                          VarTable.make(zb + wb, conjugates=False))


# -- homogenize against its per-term loop ---------------------------------------------


def _bidegrees(p):
    zi = p.table.indices(Z_VAR)
    ci = p.table.indices(CONJ_VAR)
    dz = max((sum(m[i] for i in zi) for m in p.terms), default=0)
    dc = max((sum(m[i] for i in ci) for m in p.terms), default=0)
    return dz, dc


def homogenize_reference(M, hom_var):
    new_vars = [hom_var] + list(M.zvar_names)
    table = VarTable.make(new_vars)
    rho = []
    for r in M.rho:
        dz, dc = _bidegrees(r)
        zi = r.table.indices(Z_VAR)
        ci = r.table.indices(CONJ_VAR)
        h0 = table.index(hom_var)
        c0 = table.index("~" + hom_var)
        terms = {}
        for m, c in r.terms.items():
            new = [0] * len(table)
            for i, e in enumerate(m):
                if e:
                    new[table.index(r.table.names[i])] = e
            new[h0] = dz - sum(m[i] for i in zi)
            new[c0] = dc - sum(m[i] for i in ci)
            terms[tuple(new)] = c
        rho.append(Poly(table, terms))
    return table, tuple(rho)


def _catalog_manifolds():
    seen = {}
    for name, e in sorted(CATALOG.items()):
        for label, M in ((name, e.manifold), (name + "/source", e.source),
                         (name + "/target", e.target)):
            if M is not None and M.rho not in seen:
                seen[M.rho] = (label, M)
    return list(seen.values()) + [("D2", D2)]


MANIFOLDS = _catalog_manifolds()


@pytest.mark.parametrize("label, M", MANIFOLDS, ids=[m[0] for m in MANIFOLDS])
def test_homogenize_equals_the_per_term_loop(label, M):
    for hom_var in (None, "h"):
        H = homogenize(M, hom_var)
        table, rho = homogenize_reference(M, hom_var or M.table.fresh("z0"))
        assert H.table == table and H.chart == 0
        assert len(H.rho) == len(rho)
        for got, want in zip(H.rho, rho):
            _same(got, want)
