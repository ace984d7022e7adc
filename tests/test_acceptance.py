"""Acceptance criteria for the toolkit, one test per criterion.

Each test states its runtime budget and tolerance.  All arithmetic is
exact unless a criterion explicitly involves the numeric oracle, whose
1e-9 residual tolerance applies to the numeric side only."""

import random
import time
from fractions import Fraction

from segrekit.catalog import load_manifold, sample_points
from segrekit.correspond import (AlgebraicMap, build_correspondence, fiber,
                                 power_correspondence, splits_at,
                                 verify_invariance)
from segrekit.gaussian import GaussianRational as QI
from segrekit.ideal import (Ideal, degree_zero_dim, dimension, eliminate,
                            reduce_poly)
from segrekit.ideal import _s_poly
from segrekit.manifold import levi_signature, pseudoconcavity_probe
from segrekit.orders import grevlex
from segrekit.parsing import parse_poly
from segrekit.poly import VarTable
from segrekit.segre import (SYMBOLIC, check_symmetry, essential_finiteness,
                            in_segre_variety, minimality, segre_variety)

from oracle import numeric_oracle

SPHERE = load_manifold("sphere_C2.mfd")
HQ3 = load_manifold("hyperquadric_k1_n3.mfd")
HQ2 = load_manifold("hyperquadric_k1_n2.mfd")
POWER = load_manifold("power_r2_n2.mfd")
TUBE = load_manifold("tube_C2.mfd")

SQUARE_MAP = AlgebraicMap.from_text("""
vars z1 z2
component: z1^2
component: z2^2
""", POWER)

ROTATION = AlgebraicMap.from_text("""
vars z1 z2
component: (3/5)*z1 + (4/5)*z2
component: (-4/5)*z1 + (3/5)*z2
""", SPHERE)


def pt(*vals):
    return tuple(QI.from_value(v) for v in vals)


def generic_points(n, count, seed, nonzero=True):
    """Rational sample points for 'almost all w' statements; they need not
    lie on any manifold."""
    rng = random.Random(seed)
    pts = []
    while len(pts) < count:
        p = tuple(QI(Fraction(rng.randint(1, 9), rng.randint(1, 3)),
                     Fraction(rng.randint(0, 3), 1)) for _ in range(n))
        if nonzero and any(x.is_zero() for x in p):
            continue
        if p not in pts:
            pts.append(p)
    return pts


def test_criterion_1_power_example_valency():
    """Generic forward fiber 1 and reverse fiber 4 = r^n for r=2, s=1;
    forward fiber 4 = s^n for r=1, s=2.  Exact; budget 60 s."""
    start = time.monotonic()
    C = build_correspondence(POWER, HQ2, SQUARE_MAP)
    for w in generic_points(2, 3, seed=10):
        assert fiber(C, w).degree == 1
    for wp in [pt(1, 4), pt(4, 9), pt(Fraction(1, 4), 1)]:
        assert fiber(C, wp, reverse=True).degree == 4
    C2 = power_correspondence(HQ2, POWER, 1, 2)
    for w in generic_points(2, 3, seed=11):
        assert fiber(C2, w).degree == 4
    assert time.monotonic() - start < 60


def test_criterion_2_segre_symmetry_and_reality():
    """200 rational point-pairs per catalog manifold satisfy
    z in Q_w iff w in Q_z and z in Q_z iff z in M; exact, budget 10 s."""
    start = time.monotonic()
    cases = [("sphere_C2", SPHERE), ("hyperquadric_k1_n3", HQ3),
             ("hyperquadric_k1_n2", HQ2), ("power_r2_n2", POWER),
             ("tube_C2", TUBE)]
    for name, M in cases:
        on = sample_points(name, 15, seed=20)
        off = generic_points(M.n, 10, seed=21)
        pairs = [(z, w) for z in on for w in on[:10]][:150]
        pairs += [(z, w) for z in on[:5] for w in off][:50]
        assert len(pairs) >= 200
        for z, w in pairs:
            assert check_symmetry(M, z, w)
        for z in on:
            assert in_segre_variety(M, z, z)
        for w in off:
            assert in_segre_variety(M, w, w) == M.contains(w)
    assert time.monotonic() - start < 10


def test_criterion_3_essential_finiteness_degrees():
    """Inversion degree 1 for the sphere and 4 for the power example,
    constant across 10 generic samples each; exact, budget 120 s."""
    start = time.monotonic()
    for w in generic_points(2, 10, seed=30):
        assert essential_finiteness(SPHERE, w) == (True, 1)
    for w in generic_points(2, 10, seed=31):
        assert essential_finiteness(POWER, w) == (True, 4)
    assert time.monotonic() - start < 120


def test_criterion_4_minimality_via_segre_sets():
    """Sphere and hyperquadric reach full dimension at j0 = 2; the tube
    stabilizes below n; exact elimination, budget 120 s."""
    start = time.monotonic()
    assert minimality(SPHERE, pt(1, 0)) == (True, 2)
    assert minimality(SPHERE, sample_points("sphere_C2", 1, seed=40)[0]) == (True, 2)
    assert minimality(HQ3, pt(1, 0, 0)) == (True, 2)
    assert minimality(HQ2, sample_points("hyperquadric_k1_n2", 1, seed=41)[0]) == (True, 2)
    mini, j = minimality(TUBE, sample_points("tube_C2", 1, seed=42)[0])
    assert not mini and j < TUBE.n
    assert time.monotonic() - start < 120


def test_criterion_5_levi_signatures():
    """Sphere signature (1,0,0); the k=1 hyperquadric in C^3 has mixed
    signature at 20 (point, conormal) pairs; exact congruence
    diagonalization, budget 10 s."""
    start = time.monotonic()
    for p in sample_points("sphere_C2", 5, seed=50):
        assert levi_signature(SPHERE, p, (1,)).signature == (1, 0, 0)
    pts = sample_points("hyperquadric_k1_n3", 10, seed=51)
    probes = pseudoconcavity_probe(HQ3, pts)
    assert len(probes) == 20
    assert all(r.mixed for r in probes)
    assert time.monotonic() - start < 10


def test_criterion_6_invariance_of_segre_varieties():
    """Unitary sphere automorphism and the power map: at least 500 exact
    membership evaluations, all passing; budget 10 s."""
    start = time.monotonic()
    total = 0
    rep = verify_invariance(SPHERE, SPHERE, ROTATION,
                            sample_points("sphere_C2", 30, seed=60),
                            per_point=10, seed=60)
    assert rep.ok
    total += rep.checked
    rep = verify_invariance(POWER, HQ2, SQUARE_MAP,
                            sample_points("power_r2_n2", 20, seed=61),
                            per_point=10, seed=61)
    assert rep.ok
    total += rep.checked
    assert total >= 500
    assert time.monotonic() - start < 10


def test_criterion_7_engine_soundness():
    """S-polynomials of every reduced basis reduce to zero; eliminants
    vanish on 100 sampled projection points; exact and numeric solution
    counts agree (1e-9 residual on the numeric side only).  Budget 120 s."""
    start = time.monotonic()
    # bases used across the suite: symbolic Segre ideals, a graph ideal,
    # and a specialized fiber ideal
    ideals = [segre_variety(M, SYMBOLIC).ideal
              for M in (SPHERE, HQ3, POWER, TUBE)]
    C = build_correspondence(POWER, HQ2, SQUARE_MAP)
    ideals.append(C.graph)
    table = VarTable.make(["x", "y"], conjugates=False)
    fib = Ideal.make([parse_poly("x^2 - 1", table),
                      parse_poly("y^2 - 4", table)],
                     grevlex(2), table)
    ideals.append(fib)
    for I in ideals:
        gb = I.groebner()
        for a in range(len(gb)):
            for b in range(a + 1, len(gb)):
                assert reduce_poly(_s_poly(gb[a], gb[b], I.order),
                                   gb, I.order).is_zero()
    # elimination soundness on a parametrized curve
    ptable = VarTable.make(["t", "x", "y"], conjugates=False)
    curve = Ideal.make([parse_poly("x - t^2", ptable),
                        parse_poly("y - t^3", ptable)],
                       grevlex(3), ptable)
    E = eliminate(curve, VarTable.make(["x", "y"], conjugates=False))
    rng = random.Random(70)
    for _ in range(100):
        t = QI(Fraction(rng.randint(-9, 9), rng.randint(1, 5)),
               Fraction(rng.randint(-9, 9), rng.randint(1, 5)))
        binding = {"x": t ** 2, "y": t ** 3}
        assert all(g.eval(binding).is_zero() for g in E.generators)
    # exact vs numeric counts on the specialized fiber system
    assert dimension(fib) == 0
    exact = degree_zero_dim(fib)
    res = numeric_oracle(fib.generators, ["x", "y"], seed=70)
    assert res.count == exact == 4
    assert res.max_residual < 1e-9
    # and on the reverse fiber of the power correspondence at (1, 4)
    rev = fiber(C, pt(1, 4), reverse=True)
    ftable = VarTable.make(["a", "b"], conjugates=False)
    sys_ = [parse_poly("a^2 - 1", ftable), parse_poly("b^2 - 4", ftable)]
    res = numeric_oracle(sys_, ["a", "b"], seed=71)
    assert rev.degree == res.count == 4
    assert res.max_residual < 1e-9
    assert time.monotonic() - start < 120


def test_criterion_8_splitting_criterion():
    """splits_at holds at 10 generic points of the r=2, s=1 correspondence
    (Levi-nondegenerate target) and fails at a branch point of the s=2
    correspondence.  Budget 60 s."""
    start = time.monotonic()
    C = build_correspondence(POWER, HQ2, SQUARE_MAP)
    for w in generic_points(2, 10, seed=80):
        assert splits_at(C, w)
    C2 = power_correspondence(HQ2, POWER, 1, 2)
    # over (0, 1) the square root of the first coordinate branches:
    # the fiber acquires a multiplicity-2 solution
    assert not splits_at(C2, pt(0, 1))
    assert time.monotonic() - start < 60
