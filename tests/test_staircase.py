"""Dimension and degree from the staircase, against the code they replaced.

The references below are the earlier implementations, kept here: the
dimension as the largest set of variables that no leading monomial lives in,
found by trying every subset, and the degree as the number of standard
monomials, listed one by one."""

import itertools
import random
import time
from fractions import Fraction

import pytest

from segrekit import correspond
from segrekit.catalog import load_catalog, sample_points
from segrekit.correspond import (AlgebraicMap, build_correspondence, fiber,
                                 power_correspondence)
from segrekit.gaussian import GaussianRational as QI
from segrekit.ideal import (Ideal, ResourceLimitError, _divides, _lm,
                            degree_zero_dim, dimension)
from segrekit.manifold import CRManifold
from segrekit.poly import Poly, PolyError, VarTable
from segrekit.segre import inversion_set

from reference_layout import transport

CATALOG = load_catalog()


def dimension_reference(I):
    if I.is_trivial():
        return -1
    lms = [_lm(g, I.order) for g in I.groebner()]
    n = len(I.table)
    for size in range(n, 0, -1):
        for S in itertools.combinations(range(n), size):
            sset = set(S)
            if all(any(e and i not in sset for i, e in enumerate(m)) for m in lms):
                return size
    return 0


def degree_reference(I, cap=100000):
    """len(standard_monomials(I)) as it was: a walk up from 1."""
    assert dimension_reference(I) == 0
    lms = [_lm(g, I.order) for g in I.groebner()]
    n = len(I.table)
    seen = {(0,) * n}
    frontier = [(0,) * n]
    count = 0
    while frontier:
        m = frontier.pop()
        if any(_divides(l, m) for l in lms):
            continue
        count += 1
        assert count <= cap
        for i in range(n):
            nxt = m[:i] + (m[i] + 1,) + m[i + 1:]
            if nxt not in seen:
                seen.add(nxt)
                frontier.append(nxt)
    return count


def check_against_reference(I):
    d = dimension_reference(I)
    assert dimension(I) == d
    if d == 0:
        assert degree_zero_dim(I) == degree_reference(I)
    else:
        with pytest.raises(PolyError, match=f"dimension {d}"):
            degree_zero_dim(I)


def table_of(n):
    return VarTable.make([f"x{k}" for k in range(1, n + 1)], conjugates=False)


def rand_exps(rng, n, top):
    return tuple(rng.randint(0, top) if rng.random() < 0.6 else 0 for _ in range(n))


def rand_monomial(rng, n, top):
    """Exponents of a random monomial other than 1."""
    while True:
        m = rand_exps(rng, n, top)
        if any(m):
            return m


@pytest.mark.parametrize("seed", range(40))
def test_random_monomial_ideals(seed):
    """Monomial ideals, some with every pure power (dimension 0), some
    without."""
    rng = random.Random(seed)
    n = rng.randint(1, 5)
    table = table_of(n)
    gens = [Poly(table, {rand_monomial(rng, n, 4): 1}) for _ in range(rng.randint(0, 6))]
    if rng.random() < 0.6:
        for i in range(n):
            m = [0] * n
            m[i] = rng.randint(1, 6)
            gens.append(Poly(table, {tuple(m): 1}))
    check_against_reference(Ideal.make(gens, table=table))


@pytest.mark.parametrize("seed", range(25))
def test_random_ideals(seed):
    """Small random systems over Q(i): points, curves and the unit ideal."""
    rng = random.Random(1000 + seed)
    n = rng.randint(2, 3)
    table = table_of(n)
    gens = []
    for _ in range(rng.randint(1, n + 1)):
        terms = {rand_exps(rng, n, 2): QI(rng.randint(-3, 3), rng.randint(-1, 1))
                 for _ in range(rng.randint(1, 3))}
        gens.append(Poly(table, terms))
    I = Ideal.make(gens, table=table)
    check_against_reference(I)


def test_zero_and_unit_ideals():
    table = table_of(4)
    zero = Ideal.make([], table=table)
    assert dimension(zero) == dimension_reference(zero) == 4
    with pytest.raises(PolyError, match="dimension 4"):
        degree_zero_dim(zero)
    unit = Ideal.make([Poly.const(table, 3)], table=table)
    assert dimension(unit) == dimension_reference(unit) == -1
    with pytest.raises(PolyError, match="dimension -1"):
        degree_zero_dim(unit)


@pytest.mark.parametrize("name", sorted(n for n, e in CATALOG.items() if e.kind == "manifold"))
def test_catalog_inversion_sets(name):
    M = CATALOG[name].manifold
    for p in sample_points(name, 3, 3):
        check_against_reference(inversion_set(M, p).ideal)


def fiber_ideal(C, w, reverse=False):
    """The specialized ideal that ``fiber`` reads its degree from."""
    fixed, free = (C.wpb_names, C.wb_names) if reverse else (C.wb_names, C.wpb_names)
    binding = {n: QI.from_value(x).conjugate() for n, x in zip(fixed, w)}
    ftable = VarTable.make(list(free), conjugates=False)
    gens = [transport(g.substitute(binding), ftable) for g in C.graph.generators]
    return Ideal.make([g for g in gens if not g.is_zero()], table=ftable)


def catalog_correspondences():
    out = []
    for name, e in sorted(CATALOG.items()):
        if e.kind == "manifold":
            out.append((name + "/identity",
                        build_correspondence(e.manifold, e.manifold,
                                             AlgebraicMap.identity(e.manifold))))
        elif e.kind == "relation":
            out.append((name, power_correspondence(e.source, e.target,
                                                   e.relation["r"], e.relation["s"])))
        else:
            out.append((name, build_correspondence(e.source, e.target, e.map)))
    return out


@pytest.mark.parametrize("label,C", catalog_correspondences(),
                         ids=[label for label, _ in catalog_correspondences()])
def test_catalog_fibers(label, C):
    rng = random.Random(label)
    for _ in range(4):
        for reverse in (False, True):
            n = len(C.wpb_names if reverse else C.wb_names)
            w = tuple(QI(rng.randint(-3, 3), rng.randint(-2, 2)) for _ in range(n))
            check_against_reference(fiber_ideal(C, w, reverse))


def power_text(n, r):
    """1 + |z_1|^(2r) + ... + |z_(n-1)|^(2r) = |z_n|^(2r)."""
    names = [f"z{k}" for k in range(1, n + 1)]
    rho = " + ".join(f"{z}^{r}*~{z}^{r}" for z in names[:-1])
    return f"vars {' '.join(names)}\nrho: 1 + {rho} - {names[-1]}^{r}*~{names[-1]}^{r}\n"


@pytest.mark.parametrize("n,r", [(2, 3), (3, 2), (3, 3), (4, 2), (2, 5)])
def test_power_family_inversion_sets_and_fibers(n, r):
    """Degrees r^n, up to 81 here: P(n, r) at a point of the z_n-axis, and
    the reverse fibers of z -> z^r into P(n, 1)."""
    M = CRManifold.from_text(power_text(n, r))
    p = (QI(0),) * (n - 1) + (QI(Fraction(3, 5), Fraction(4, 5)),)
    inv = inversion_set(M, p).ideal
    check_against_reference(inv)
    assert degree_zero_dim(inv) == r ** n
    f = AlgebraicMap.from_text(
        f"vars {' '.join(M.zvar_names)}\n" + "".join(f"component: {z}^{r}\n" for z in M.zvar_names), M)
    C = build_correspondence(M, CRManifold.from_text(power_text(n, 1)), f)
    rng = random.Random(n * 10 + r)
    w = tuple(QI(rng.randint(1, 3), rng.randint(-2, 2)) for _ in range(n))
    I = fiber_ideal(C, f.apply(w), reverse=True)
    check_against_reference(I)
    assert degree_zero_dim(I) == r ** n


def test_sixteen_squares():
    table = table_of(16)
    I = Ideal.make([Poly.var(table, n) ** 2 for n in table.names], table=table)
    start = time.perf_counter()
    assert dimension(I) == 0
    assert degree_zero_dim(I) == 2 ** 16
    assert time.perf_counter() - start < 1.0


def test_a_degree_above_the_cap_raises():
    table = table_of(2)
    I = Ideal.make([Poly.var(table, "x1") ** 400, Poly.var(table, "x2") ** 400], table=table)
    assert dimension(I) == 0
    with pytest.raises(ResourceLimitError, match="exceeded cap") as err:
        degree_zero_dim(I)
    assert err.value.stats == {"count": 160000, "cap": 100000}


def test_a_huge_fiber_never_reaches_the_solver(monkeypatch):
    """w'^400 = w on each coordinate: 160000 fiber points."""
    def solver(I):
        raise AssertionError("solve_zero_dim reached")

    monkeypatch.setattr(correspond, "solve_zero_dim", solver)
    e = CATALOG["power_r1_s2_n2"]
    C = power_correspondence(e.source, e.target, 1, 400)
    with pytest.raises(ResourceLimitError):
        fiber(C, (QI(1), QI(4)))
