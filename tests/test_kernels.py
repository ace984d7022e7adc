"""Exact point kernels against the term-by-term code they replaced.

Each reference below is the earlier implementation, kept here: evaluation
and number substitution one GaussianRational operation at a time, partial
derivatives as ``diff`` polynomials, the Levi form from those, and the
Fraction-based square root in Q(i)."""

import math
import random
from fractions import Fraction

import pytest

from segrekit.catalog import load_catalog, sample_points
from segrekit.gaussian import QI_ZERO, GaussianRational as QI, qi_sqrt
from segrekit.linalg import hermitian_signature, nullspace, rank
from segrekit.manifold import (CRManifold, _jets, _tangent_basis,
                               genericity_rank, levi_signature)
from segrekit.poly import Poly, PolyError, VarTable

TABLE = VarTable.make(["z1", "z2", "z3"], params=["t"])


def rand_qi(rng, den=12):
    return QI(Fraction(rng.randint(-9, 9), rng.randint(1, den)),
              Fraction(rng.randint(-9, 9), rng.randint(1, den)))


def rand_poly(rng, table=TABLE, nterms=6, max_exp=4):
    terms = {}
    for _ in range(rng.randint(0, nterms)):
        m = tuple(rng.randint(0, max_exp) if rng.random() < 0.5 else 0
                  for _ in range(len(table)))
        terms[m] = rand_qi(rng, den=5)
    return Poly(table, terms)


def rand_point(rng, names):
    # ints, Fractions and Gaussian rationals, as callers pass them
    kinds = [lambda: rng.randint(-5, 5),
             lambda: Fraction(rng.randint(-9, 9), rng.randint(1, 30)),
             lambda: rand_qi(rng)]
    return {n: rng.choice(kinds)() for n in names}


# -- references ---------------------------------------------------------------


def eval_reference(p, point):
    values = [None] * len(p.table)
    for name, v in point.items():
        values[p.table.index(name)] = QI.from_value(v)
    total = QI_ZERO
    for m, c in p.terms.items():
        v = c
        for i, e in enumerate(m):
            if e:
                if values[i] is None:
                    raise PolyError(f"unbound variable {p.table.names[i]!r}")
                v = v * values[i] ** e
        total = total + v
    return total


def substitute_reference(p, numbers):
    terms = {}
    for m, c in p.terms.items():
        residual = list(m)
        for name, v in numbers.items():
            i = p.table.index(name)
            if m[i]:
                residual[i] = 0
                c = c * QI.from_value(v) ** m[i]
        key = tuple(residual)
        terms[key] = terms.get(key, QI_ZERO) + c
    return Poly(p.table, terms)


def qi_sqrt_reference(c):
    def frac_sqrt(f):
        if f < 0:
            return None
        rn, rd = math.isqrt(f.numerator), math.isqrt(f.denominator)
        if rn * rn != f.numerator or rd * rd != f.denominator:
            return None
        return Fraction(rn, rd)

    if c.is_zero():
        return QI_ZERO
    if c.im == 0:
        r = frac_sqrt(c.re)
        if r is not None:
            return QI(r)
        r = frac_sqrt(-c.re)
        return None if r is None else QI(0, r)
    mod = frac_sqrt(c.re**2 + c.im**2)
    if mod is None:
        return None
    x = frac_sqrt((c.re + mod) / 2)
    if x is None or x == 0:
        return None
    root = QI(x, c.im / (2 * x))
    return root if root * root == c else None


def levi_matrix_reference(M, p, c):
    """sum_r c_r * (d^2 rho_r / dz_j d~z_k) at p, from diff polynomials."""
    b = M.point_bindings(p)
    names = M.zvar_names
    H = [[QI_ZERO] * M.n for _ in names]
    for coef, r in zip(c, M.rho):
        if coef == 0:
            continue
        for j, nj in enumerate(names):
            dj = r.diff(nj)
            for k, nk in enumerate(names):
                H[j][k] = H[j][k] + QI(coef) * dj.diff("~" + nk).eval(b)
    return H


def levi_signature_reference(M, p, c):
    b = M.point_bindings(p)
    names = M.zvar_names
    H = levi_matrix_reference(M, p, c)
    V = nullspace([[r.diff(n).eval(b) for n in names] for r in M.rho], M.n)
    B = [[QI_ZERO] * len(V) for _ in V]
    for a in range(len(V)):
        for bb in range(len(V)):
            s = QI_ZERO
            for j in range(M.n):
                for k in range(M.n):
                    s = s + V[a][j].conjugate() * H[j][k] * V[bb][k]
            B[a][bb] = s
    return hermitian_signature(B)


# -- evaluation and substitution ------------------------------------------------


@pytest.mark.parametrize("seed", range(40))
def test_eval_equals_term_by_term_evaluation(seed):
    rng = random.Random(seed)
    for _ in range(10):
        p = rand_poly(rng)
        point = rand_point(rng, TABLE.names)
        got = p.eval(point)
        assert got == eval_reference(p, point)
        assert type(got) is QI
        # canonical triple: equal values have equal fields
        assert math.gcd(got._a, got._b, got._d) == 1 and got._d > 0


@pytest.mark.parametrize("seed", range(40))
def test_substitute_equals_term_by_term_folding(seed):
    rng = random.Random(seed)
    for _ in range(10):
        p = rand_poly(rng)
        names = rng.sample(TABLE.names, rng.randint(1, len(TABLE)))
        numbers = rand_point(rng, names)
        assert p.substitute(numbers) == substitute_reference(p, numbers)


def test_substitute_mixes_numbers_and_polynomials():
    rng = random.Random(7)
    z2 = Poly.var(TABLE, "z2")
    for _ in range(20):
        p = rand_poly(rng)
        v = rand_qi(rng)
        q = z2 * z2 + 1
        got = p.substitute({"z1": v, "t": q})
        want = substitute_reference(p, {"z1": v}).substitute({"t": q})
        assert got == want


def test_eval_at_a_high_power():
    p = Poly(TABLE, {(0, 0, 0, 0, 0, 0, 40): QI(1)})
    v = QI(Fraction(2, 3), Fraction(-1, 5))
    assert p.eval({"t": v}) == v ** 40


def test_eval_keeps_its_errors():
    p = Poly(TABLE, {(1, 0, 0, 0, 0, 0, 0): QI(1), (0, 2, 0, 0, 0, 0, 0): QI(3)})
    with pytest.raises(PolyError, match="unbound variable 'z2'"):
        p.eval({"z1": 1})
    with pytest.raises(PolyError, match="unknown variable 'w'"):
        p.eval({"z1": 1, "z2": 2, "w": 3})
    with pytest.raises(PolyError, match="unknown variable 'w'"):
        p.substitute({"w": 3})
    assert Poly.zero(TABLE).eval({}) == 0
    assert Poly.const(TABLE, Fraction(1, 2)).eval({}) == QI(Fraction(1, 2))


# -- first and mixed second partials ------------------------------------------------

D2 = CRManifold.from_text("vars z1 z2 z3\n"
                          "rho: z1*~z1 + z2*~z2 + z3*~z3 - 1\n"
                          "rho: z1*~z2 + z2*~z1 - z3*~z3\n")


def phase(t):
    return QI((1 - t * t) / (1 + t * t), 2 * t / (1 + t * t))


def d2_points(rng, count):
    """Points of D2: (phi*a, phi*(1 - a), psi*c) with a = 2/(k^2+2), c = k*a."""
    pts = []
    for _ in range(count):
        k = Fraction(rng.randint(1, 7), rng.randint(1, 4))
        a = 2 / (k * k + 2)
        phi = phase(Fraction(rng.randint(-9, 9), rng.randint(1, 6)))
        psi = phase(Fraction(rng.randint(-9, 9), rng.randint(1, 6)))
        pts.append((phi * QI(a), phi * QI(1 - a), psi * QI(k * a)))
    return pts


CATALOG = load_catalog()
MANIFOLDS = {name: e.manifold for name, e in sorted(CATALOG.items()) if e.manifold}
MANIFOLDS["D2"] = D2


def points_on(name, M, count, seed):
    if name == "D2":
        pts = d2_points(random.Random(seed), count)
    else:
        pts = sample_points(name, count, seed)
    assert all(M.contains(p) for p in pts)
    return pts


@pytest.mark.parametrize("name", sorted(MANIFOLDS))
def test_jet_equals_diff_then_eval(name):
    M = MANIFOLDS[name]
    rng = random.Random(name)
    z = M.zvar_names
    conj = tuple("~" + n for n in z)
    # points on M, and arbitrary points, where rho need not vanish
    pts = points_on(name, M, 3, 1) + [tuple(rand_qi(rng) for _ in z) for _ in range(3)]
    for p in pts:
        b = M.point_bindings(p)
        for r in M.rho:
            value, grad, hess = r.jet(b, z, conj)
            assert value == r.eval(b)
            assert grad == [r.diff(a).eval(b) for a in z + conj]
            assert hess == [[r.diff(a).diff(c).eval(b) for c in conj] for a in z]
            value, grad, hess = r.jet(b, z + conj)
            assert grad == [r.diff(a).eval(b) for a in z + conj]
            assert hess == [[] for _ in z + conj]


def test_jet_handles_repeated_and_pure_second_partials():
    rng = random.Random(3)
    for _ in range(30):
        p = rand_poly(rng)
        b = rand_point(rng, TABLE.names)
        names = rng.sample(TABLE.names, 3)
        mixed = rng.sample(TABLE.names, 3)   # may repeat a name of names
        _, grad, hess = p.jet(b, names, mixed)
        assert grad == [p.diff(a).eval(b) for a in names + mixed]
        assert hess == [[p.diff(a).diff(c).eval(b) for c in mixed] for a in names]


@pytest.mark.parametrize("name", sorted(MANIFOLDS))
def test_gradient_data_equal_the_diff_based_code(name):
    M = MANIFOLDS[name]
    for p in points_on(name, M, 3, 2):
        b = M.point_bindings(p)
        conj_grads = [[r.diff("~" + n).eval(b) for n in M.zvar_names] for r in M.rho]
        hol_grads = [[r.diff(n).eval(b) for n in M.zvar_names] for r in M.rho]
        assert genericity_rank(M, p) == rank(conj_grads)
        assert _tangent_basis(M, _jets(M, p)) == nullspace(hol_grads, M.n)


@pytest.mark.parametrize("name", sorted(MANIFOLDS))
def test_levi_signature_equals_the_diff_based_code(name):
    M = MANIFOLDS[name]
    grid = [(1, 0), (0, 1), (1, 1)] if M.d == 2 else [(1,), (-1,), (Fraction(2, 3),)]
    for p in points_on(name, M, 4, 3):
        for c in grid:
            assert levi_signature(M, p, c).signature == levi_signature_reference(M, p, c)


def test_d2_levi_matrices_equal_the_diff_based_code():
    for p in d2_points(random.Random(11), 5):
        jets = _jets(D2, p, levi=True)
        for c in [(1, 0), (0, 1), (1, 1)]:
            H = levi_matrix_reference(D2, p, c)
            got = [[sum((QI(w) * hess[j][k] for w, (_, _, hess) in zip(c, jets)), QI_ZERO)
                    for k in range(3)] for j in range(3)]
            assert got == H


# -- square roots in Q(i) ---------------------------------------------------------


@pytest.mark.parametrize("seed", range(20))
def test_qi_sqrt_equals_the_fraction_formula(seed):
    rng = random.Random(seed)
    for _ in range(50):
        r = rand_qi(rng, den=40)
        for c in (r * r, -(r * r), QI(r.re * r.re), QI(-r.im * r.im), r * r * 3, r):
            got = qi_sqrt(c)
            assert got == qi_sqrt_reference(c)
            if got is not None:
                assert got * got == c
                assert got.re > 0 or (got.re == 0 and got.im >= 0)


def test_qi_sqrt_is_none_on_non_squares():
    rng = random.Random(1)
    for _ in range(200):
        r = rand_qi(rng, den=40)
        if r.is_zero():
            continue
        for k in (3, 7, -3, QI(0, 3), QI(1, 2)):   # 3, 7 prime in Z[i]; 1 + 2i prime
            assert qi_sqrt(r * r * k) is None
