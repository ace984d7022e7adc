"""Algebraic maps, invariance, correspondence graphs, fibers, splitting."""

import random
from fractions import Fraction

import pytest

from segrekit.catalog import load_manifold, sample_points
from segrekit.correspond import (AlgebraicMap, CorrespondenceError,
                                 ExcludedLocusError, _param_table, build_correspondence,
                                 compose, fiber, graph_targets, power_correspondence,
                                 relation_correspondence,
                                 sample_variety_points, splits_at,
                                 verify_invariance)
from segrekit.gaussian import GaussianRational as QI
from segrekit.ideal import Ideal, saturate
from segrekit.manifold import (CRManifold, ManifoldError, genericity_rank,
                               levi_signature)
from segrekit.segre import (SYMBOLIC, containment_ideal, essential_finiteness,
                            inversion_set, minimality,
                            segre_map_locally_injective, segre_variety)

SPHERE = load_manifold("sphere_C2.mfd")
POWER = load_manifold("power_r2_n2.mfd")
HQ2 = load_manifold("hyperquadric_k1_n2.mfd")

SQUARE_SRC = """
vars z1 z2
component: z1^2
component: z2^2
"""

ROT_SRC = """
vars z1 z2
component: 3/5*z1 + 4/5*z2
component: -4/5*z1 + 3/5*z2
"""


def pt(*vals):
    return tuple(QI.from_value(v) for v in vals)


def test_map_apply_and_jacobian():
    f = AlgebraicMap.from_text(SQUARE_SRC, POWER)
    assert f.apply(pt(2, 3)) == pt(4, 9)


def _sphere_identity():
    return build_correspondence(SPHERE, SPHERE, AlgebraicMap.identity(SPHERE))


# each public function that takes a point, called at a point p of C^2 on the sphere
POINT_TAKERS = {
    "segre_variety": lambda p: segre_variety(SPHERE, p),
    "inversion_set": lambda p: inversion_set(SPHERE, p),
    "essential_finiteness": lambda p: essential_finiteness(SPHERE, p),
    "segre_map_locally_injective": lambda p: segre_map_locally_injective(SPHERE, p),
    "minimality": lambda p: minimality(SPHERE, p),
    "levi_signature": lambda p: levi_signature(SPHERE, p, (1,)),
    "genericity_rank": lambda p: genericity_rank(SPHERE, p),
    "apply": lambda p: AlgebraicMap.identity(SPHERE).apply(p),
    "fiber": lambda p: fiber(_sphere_identity(), p),
    "reverse_fiber": lambda p: fiber(_sphere_identity(), p, reverse=True),
}


@pytest.mark.parametrize("p", [pt(1, 0, 99), pt(1)], ids=["too-long", "too-short"])
@pytest.mark.parametrize("name", sorted(POINT_TAKERS))
def test_points_of_the_wrong_length_raise_everywhere(name, p):
    """No coordinate is dropped and none is missed: (1, 0) is a point of the
    sphere, and a point of another length is rejected before any work."""
    POINT_TAKERS[name](pt(1, 0))
    with pytest.raises(ManifoldError, match=f"point has {len(p)} coordinates, expected 2"):
        POINT_TAKERS[name](p)


def test_invariance_rotation():
    f = AlgebraicMap.from_text(ROT_SRC, SPHERE)
    pts = sample_points("sphere_C2", 5, seed=1)
    rep = verify_invariance(SPHERE, SPHERE, f, pts, per_point=8, seed=1)
    assert rep.ok and rep.checked >= 40


def test_invariance_detects_non_cr_map():
    bad = AlgebraicMap.from_text("""
    vars z1 z2
    component: z1 + z2
    component: z1 - z2
    """, SPHERE)
    pts = sample_points("sphere_C2", 3, seed=2)
    rep = verify_invariance(SPHERE, SPHERE, bad, pts, per_point=8, seed=2)
    assert not rep.ok and rep.failures


POLE_MAP = "vars z1 z2\ncomponent: z1/z2\ncomponent: 1\n"


def test_invariance_skips_samples_on_a_pole():
    """(3/5, 4/5) is on the sphere and f = (z1/z2, 1) is defined there, but
    seed 15 samples a point of Q_p with z2 = 0; it is passed over and
    another is drawn, where it used to raise ZeroDivisionError."""
    f = AlgebraicMap.from_text(POLE_MAP, SPHERE)
    p = pt(Fraction(3, 5), Fraction(4, 5))
    rep = verify_invariance(SPHERE, SPHERE, f, [p], per_point=5, seed=15)
    assert rep.checked == 5 and not rep.ok
    assert len(rep.failures) == 5
    assert all(fail["z"][1] != "0" for fail in rep.failures)


def test_invariance_without_poles_keeps_its_draws():
    f = AlgebraicMap.from_text(POLE_MAP, SPHERE)
    p = pt(Fraction(3, 5), Fraction(4, 5))
    rep = verify_invariance(SPHERE, SPHERE, f, [p], per_point=5, seed=14)
    assert (rep.checked, rep.passed) == (5, 0)
    assert [x["z"] for x in rep.failures] == [
        ("-5+2*i", "5-3/2*i"), ("-5", "5"), ("-11/3-4/3*i", "4+i"),
        ("13/3+4/3*i", "-2-i"), ("-19/3", "6")]


def test_invariance_refuses_a_base_point_on_a_pole():
    """(1, 0) is on the sphere and on the pole z2 = 0 of f = (z1/z2, 1): the
    base point is refused by name, as one off the manifold is."""
    f = AlgebraicMap.from_text(POLE_MAP, SPHERE)
    with pytest.raises(CorrespondenceError, match=r"base point \(1, 0\) lies on a pole"):
        verify_invariance(SPHERE, SPHERE, f, [(1, 0)], per_point=2, seed=0)
    with pytest.raises(CorrespondenceError, match=r"\(3/5, 4/5\*i\)"):
        verify_invariance(SPHERE, SPHERE, AlgebraicMap.from_text(
            "vars z1 z2\ncomponent: z1\ncomponent: 1/(5*z2 - 4*i)\n", SPHERE),
            [pt(Fraction(3, 5), QI(0, Fraction(4, 5)))], per_point=2, seed=0)


def test_invariance_checks_reality_once_per_manifold(monkeypatch):
    """Reality is decided when a manifold is built, one ``Poly.is_real``
    call per defining polynomial, and read afterwards: ``verify_invariance``
    makes no call."""
    from segrekit.manifold import dehomogenize, homogenize
    from segrekit.poly import Poly

    calls = []
    real = Poly.is_real

    def counted(self):
        calls.append(self)
        return real(self)

    monkeypatch.setattr(Poly, "is_real", counted)
    M = CRManifold.from_text("vars z1 z2 z3\nrho: z1*~z1 + z2*~z2 - 1\nrho: z3 + ~z3\n")
    assert M.d == 2 and len(calls) == M.d
    P = homogenize(M)
    assert len(calls) == 2 * M.d
    dehomogenize(P, 0)
    assert len(calls) == 3 * M.d
    calls.clear()
    f = AlgebraicMap.from_text(ROT_SRC, SPHERE)
    rep = verify_invariance(SPHERE, SPHERE, f, sample_points("sphere_C2", 3, seed=4),
                            per_point=2, seed=4)
    assert rep.ok
    assert calls == []


def test_power_graph_generators():
    f = AlgebraicMap.from_text(SQUARE_SRC, POWER)
    C = build_correspondence(POWER, HQ2, f)
    gens = sorted(str(g) for g in C.graph.generators)
    assert gens == ["wb_z1^2-wpb_z1", "wb_z2^2-wpb_z2"]


def test_forward_and_reverse_fibers():
    f = AlgebraicMap.from_text(SQUARE_SRC, POWER)
    C = build_correspondence(POWER, HQ2, f)
    fwd = fiber(C, pt(1, 1))
    assert fwd.degree == 1
    rev = fiber(C, pt(1, 4), reverse=True)
    assert rev.degree == 4
    pts = sorted((str(z[0]), str(z[1])) for z, m in rev.solutions)
    assert pts == sorted([("1", "2"), ("-1", "2"), ("1", "-2"), ("-1", "-2")])
    assert all(m == 1 for _, m in rev.solutions)


def test_excluded_locus_raises():
    f = AlgebraicMap.from_text(SQUARE_SRC, POWER)
    C = build_correspondence(POWER, HQ2, f)
    with pytest.raises(ExcludedLocusError):
        fiber(C, pt(0, 1))


def test_reverse_fiber_meeting_the_excluded_locus_raises():
    """The ledger wb_z1^2 lives in the free block of a reverse fiber: over
    (0, 4) every fiber point has wb_z1 = 0."""
    f = AlgebraicMap.from_text(SQUARE_SRC, POWER)
    C = build_correspondence(POWER, HQ2, f)
    assert [str(e) for e in C.excluded] == ["wb_z1^2"]
    with pytest.raises(ExcludedLocusError):
        fiber(C, pt(0, 4), reverse=True)


def test_segre_sampler_draws_are_pinned():
    Q = segre_variety(SPHERE, pt(Fraction(3, 5), QI(0, Fraction(4, 5)))).ideal
    pts = sample_variety_points(Q.generators, Q.table, random.Random(7), 3)
    assert [tuple(map(str, z)) for z in pts] == [
        ("3-4/3*i", "-1-i"), ("-5+2*i", "3/2+5*i"), ("3-2*i", "-3/2-i")]


def test_relation_correspondence_valency():
    C = power_correspondence(HQ2, POWER, 1, 2)
    res = fiber(C, pt(1, 4))
    assert res.degree == 4


def test_empty_fiber_is_reported_as_empty():
    """wpb_z1 * wb_z1 = 1 has no solution over wb_z1 = 0: the fiber is
    empty, not of positive dimension."""
    C = relation_correspondence(SPHERE, SPHERE,
                                ["wpb_z1*wb_z1 - 1", "wpb_z2 - wb_z2"])
    with pytest.raises(CorrespondenceError, match="empty"):
        fiber(C, pt(0, 1))
    assert fiber(C, pt(1, 1)).degree == 1


def test_splits_true_and_false():
    f = AlgebraicMap.from_text(SQUARE_SRC, POWER)
    C = build_correspondence(POWER, HQ2, f)
    assert splits_at(C, pt(1, 1))
    C2 = power_correspondence(HQ2, POWER, 1, 2)
    # w = (0, 1): the square root branches, the fiber has a double point
    assert not splits_at(C2, pt(0, 1))
    # w = (4, 9): four simple points (+-2, +-3), but the target's Segre map
    # has inversion degree 4 there, so it is not injective
    assert not splits_at(C2, pt(4, 9))


def test_compose_rotations():
    rot = AlgebraicMap.from_text(ROT_SRC, SPHERE)
    C = build_correspondence(SPHERE, SPHERE, rot)
    CC = compose(C, C)
    # rot o rot = rotation by the doubled angle: (-7/25, 24/25; -24/25, -7/25)
    rot2 = AlgebraicMap.from_text("""
    vars z1 z2
    component: -7/25*z1 + 24/25*z2
    component: -24/25*z1 - 7/25*z2
    """, SPHERE)
    D = build_correspondence(SPHERE, SPHERE, rot2)
    assert CC.graph == D.graph


def test_compose_with_identity():
    f = AlgebraicMap.from_text(SQUARE_SRC, POWER)
    C = build_correspondence(POWER, HQ2, f)
    idp = build_correspondence(POWER, POWER, AlgebraicMap.identity(POWER))
    left = compose(idp, C)
    assert left.graph == C.graph


def test_compose_rejects_mismatched_middle():
    f = AlgebraicMap.from_text(SQUARE_SRC, POWER)
    C = build_correspondence(POWER, HQ2, f)
    with pytest.raises(CorrespondenceError):
        compose(C, C)


def test_fiber_points_satisfy_graph():
    """Every computed fiber solution, paired with the input, must satisfy
    the graph ideal exactly."""
    f = AlgebraicMap.from_text(SQUARE_SRC, POWER)
    C = build_correspondence(POWER, HQ2, f)
    w = pt(2, 3)
    res = fiber(C, w)
    for wp, _ in res.solutions:
        binding = {}
        for n, v in zip(C.wb_names, w):
            binding[n] = v.conjugate()
        for n, v in zip(C.wpb_names, wp):
            binding[n] = v.conjugate()
        for g in C.graph.generators:
            assert g.eval(binding).is_zero()


# generic points: no zero coordinate, so off the identity graph's excluded locus
INVARIANT_CASES = [
    ("sphere_C2.mfd", (QI(1, 1), QI(2, -1)), 1),
    ("hyperquadric_k1_n3.mfd", (QI(1, 1), QI(2, -1), QI(-1, 3)), 1),
    ("power_r2_n2.mfd", (QI(1, 1), QI(2, -1)), 4),
]


@pytest.mark.parametrize("fname,w,degree", INVARIANT_CASES,
                         ids=[c[0] for c in INVARIANT_CASES])
def test_inversion_set_and_identity_correspondence_agree(fname, w, degree):
    """w-bar is in V(I_w); w lies in its own identity-correspondence fiber,
    whose degree is the essential-finiteness degree."""
    M = load_manifold(fname)
    inv = inversion_set(M, w)
    binding = dict(zip(inv.ideal.table.names, (x.conjugate() for x in w)))
    assert all(g.eval(binding).is_zero() for g in inv.ideal.generators)
    C = build_correspondence(M, M, AlgebraicMap.identity(M))
    res = fiber(C, w)
    assert w in [p for p, _ in res.solutions]
    assert essential_finiteness(M, w) == (True, degree)
    assert res.degree == degree


def test_correspondences_refuse_non_real_data():
    non_real = CRManifold.from_text("vars z1 z2\nrho: i*z1*~z1 + z2*~z2 - 1\n")
    for source, target in [(non_real, SPHERE), (SPHERE, non_real)]:
        f = AlgebraicMap.identity(source)
        with pytest.raises(ManifoldError, match="defining polynomials are not real"):
            build_correspondence(source, target, f)
        with pytest.raises(ManifoldError, match="defining polynomials are not real"):
            verify_invariance(source, target, f, [(QI(1), QI(0))], per_point=2)


def test_power_correspondence_between_differently_named_manifolds():
    """wb_* comes from the source's names and wpb_* from the target's:
    z = (z1, z2) to w = (w1, w2) with w_k = z_k^2."""
    target = CRManifold.from_text("vars w1 w2\nrho: 1 + w1*~w1 - w2*~w2\n")
    C = power_correspondence(POWER, target, 2, 1)
    assert C.wb_names == ("wb_z1", "wb_z2") and C.wpb_names == ("wpb_w1", "wpb_w2")
    assert sorted(str(g) for g in C.graph.generators) == ["-wb_z1^2+wpb_w1", "-wb_z2^2+wpb_w2"]
    forward = fiber(C, pt(2, 3))
    assert forward.degree == 1 and forward.solutions == [(pt(4, 9), 1)]
    assert fiber(C, pt(4, 9), reverse=True).degree == 4


def test_power_correspondence_refuses_unequal_dimensions():
    HQ3 = load_manifold("hyperquadric_k1_n3.mfd")
    for source, target in [(HQ3, POWER), (POWER, HQ3)]:
        with pytest.raises(CorrespondenceError, match="equal dimensions"):
            power_correspondence(source, target, 2, 1)


def test_fiber_of_positive_dimension_raises():
    """wpb_z1 = wb_z1 leaves wpb_z2 free over every source point."""
    C = relation_correspondence(SPHERE, SPHERE, ["wpb_z1 - wb_z1"])
    with pytest.raises(CorrespondenceError, match="fiber has positive dimension 1"):
        fiber(C, pt(1, 2))


THREE_ONTO_SPHERE = "vars z1 z2\ncomponent: z1\ncomponent: z2\ncomponent: z1*z2\n"


@pytest.mark.parametrize("target, text, count, dim", [
    ("hyperquadric_k1_n3.mfd", None, 2, 3),
    ("sphere_C2.mfd", THREE_ONTO_SPHERE, 3, 2),
], ids=["two-onto-C3", "three-onto-C2"])
def test_a_map_that_does_not_fit_its_target_is_refused(target, text, count, dim):
    """One component per target coordinate, checked before any graph is
    built or any point is sampled."""
    Mp = load_manifold(target)
    f = AlgebraicMap.identity(SPHERE) if text is None else AlgebraicMap.from_text(text, SPHERE)
    message = f"map has {count} components but the target has dimension {dim}"
    with pytest.raises(CorrespondenceError, match=message):
        build_correspondence(SPHERE, Mp, f)
    with pytest.raises(CorrespondenceError, match=message):
        verify_invariance(SPHERE, Mp, f, sample_points("sphere_C2", 1, seed=3), per_point=2)


# D2 = {|z|^2 = 1, z1*~z2 + z2*~z1 = |z3|^2} in C^3, at a point of it: the
# containment ideal pseudo-reduces against a block basis of the two
# generators of Q_w, since reducing by the generators is exact only in
# codimension 1
D2 = CRManifold.from_text("vars z1 z2 z3\n"
                          "rho: z1*~z1 + z2*~z2 + z3*~z3 - 1\n"
                          "rho: z1*~z2 + z2*~z1 - z3*~z3\n")
D2_POINT = pt(Fraction(2, 3), Fraction(1, 3), Fraction(2, 3))


def test_d2_is_essentially_finite_of_degree_one():
    assert D2.contains(D2_POINT)
    assert essential_finiteness(D2, D2_POINT) == (True, 1)


def test_d2_identity_fiber_contains_its_point():
    C = build_correspondence(D2, D2, AlgebraicMap.identity(D2))
    res = fiber(C, D2_POINT)
    assert res.degree == 1
    assert res.solutions is None or (D2_POINT, 1) in res.solutions


# Q_w's generators lead with different z-variables here, so the graph's
# ledger has one entry per generator
@pytest.mark.parametrize("text, entries", [
    ("vars z1 z2 z3\nrho: z1*~z1 + z2*~z2 + z3*~z3 - 1\nrho: z2*~z3 + z3*~z2\n", 2),
    ("vars z1 z2 z3\nrho: z1*~z1 - z3*~z3 - 1\nrho: z2*~z2 + z3*~z3 - 2\n", 2),
    ("vars z1 z2 z3 z4\nrho: z1*~z1 - z4*~z4 - 1\nrho: z2*~z2 + z4*~z4 - 2\n"
     "rho: z3*~z3 - z4*~z4 - 3\n", 3),
], ids=["sphere-and-cone", "two-quadrics", "three-quadrics"])
def test_saturating_by_the_ledger_product_equals_saturating_entry_by_entry(text, entries):
    M = CRManifold.from_text(text)
    C = build_correspondence(M, M, AlgebraicMap.identity(M))
    assert len(C.excluded) == entries
    ptable = _param_table(M, M)
    gens, excluded = containment_ideal(M, SYMBOLIC, graph_targets(M, M, AlgebraicMap.identity(M),
                                                                  ptable), ptable)
    assert excluded == C.excluded
    want = Ideal.make(gens, table=ptable)
    for e in excluded:
        want = saturate(want, e)
    assert C.graph.generators == want.generators
