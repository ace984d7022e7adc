"""Segre varieties, inversion sets, Segre sets, minimality."""

import random
from fractions import Fraction

import pytest

from segrekit.gaussian import GaussianRational as QI
from segrekit import ideal
from segrekit.catalog import sample_points
from segrekit.ideal import dimension, member
from segrekit.manifold import CRManifold, ManifoldError
from segrekit.segre import (SYMBOLIC, check_symmetry, essential_finiteness,
                            graph_form, in_segre_variety, inversion_set,
                            minimality, segre_map_locally_injective,
                            segre_sets, segre_variety)
from segrekit.solve import solve_zero_dim

SPHERE = CRManifold.from_text("""
vars z1 z2
rho: z1*~z1 + z2*~z2 - 1
""")

POWER = CRManifold.from_text("""
vars z1 z2
rho: 1 + z1^2*~z1^2 - z2^2*~z2^2
""")

TUBE = CRManifold.from_text("""
vars z1 z2
rho: z1*~z1 - 1
""")

HYPERQUADRIC3 = CRManifold.from_text("""
vars z1 z2 z3
rho: z1*~z1 + z2*~z2 - z3*~z3 - 1
""")


def pt(*vals):
    return tuple(QI.from_value(v) for v in vals)


def test_sphere_segre_at_pole():
    Q = segre_variety(SPHERE, pt(1, 0))
    gens = [str(g) for g in Q.ideal.generators]
    assert gens == ["z1-1"]


def test_symbolic_segre_is_bilinear():
    Q = segre_variety(SPHERE, SYMBOLIC)
    (g,) = Q.ideal.generators
    assert g.total_degree() == 2
    assert set(Q.param_names) == {"wb_z1", "wb_z2"}


def test_membership_and_symmetry_sampled():
    pts = sample_points("sphere_C2", 20, seed=5)
    for z in pts:
        # z in Q_z iff z in M, and that holds for on-manifold samples
        assert in_segre_variety(SPHERE, z, z)
    for z in pts[:10]:
        for w in pts[10:]:
            assert check_symmetry(SPHERE, z, w)


def test_points_of_the_wrong_length_raise():
    """A third coordinate is not dropped: (1, 0) lies in Q_(1, 0), but
    (1, 0, 99) is no point of C^2."""
    assert in_segre_variety(SPHERE, pt(1, 0), pt(1, 0))
    with pytest.raises(ManifoldError):
        in_segre_variety(SPHERE, pt(1, 0, 99), pt(1, 0, 5))
    with pytest.raises(ManifoldError):
        in_segre_variety(SPHERE, pt(1, 0), pt(1,))


def test_graph_form_sphere():
    Q = segre_variety(SPHERE, SYMBOLIC)
    sols = graph_form(Q, ["z2"])
    num, den = sols["z2"]
    assert str(den) == "wb_z2"
    assert str(num) in ("-wb_z1*z1+1", "1-wb_z1*z1", "-z1*wb_z1+1")


def solutions_in_z(inv):
    """The exact solutions of a zero-dimensional inversion set, conjugated
    back from the zb_* block to z; None when they are not triangular."""
    sols = solve_zero_dim(inv.ideal)
    if sols is None:
        return None
    names = inv.ideal.table.names
    return [(tuple(pt[n].conjugate() for n in names), mult) for pt, mult in sols]


def test_inversion_set_sphere_is_point():
    inv = inversion_set(SPHERE, pt(1, 0))
    assert dimension(inv.ideal) == 0
    sols = solutions_in_z(inv)
    assert sols is not None
    [(z, mult)] = sols
    assert z == pt(1, 0) and mult == 1


def test_essential_finiteness_degrees():
    assert essential_finiteness(SPHERE, pt(1, 0)) == (True, 1)
    fin, deg = essential_finiteness(POWER, pt(1, 1))
    assert fin and deg == 4
    fin, _ = essential_finiteness(TUBE, pt(1, 0))
    assert not fin


def test_power_inversion_solutions_are_sign_flips():
    inv = inversion_set(POWER, pt(1, 1))
    sols = solutions_in_z(inv)
    got = sorted((str(z[0]), str(z[1])) for z, _ in sols)
    assert got == sorted([("1", "1"), ("-1", "1"), ("1", "-1"), ("-1", "-1")])


def test_locally_injective():
    assert segre_map_locally_injective(SPHERE, pt(1, 0))
    assert not segre_map_locally_injective(POWER, pt(1, 1))


def test_segre_set_chain_dimensions():
    chain = segre_sets(SPHERE, pt(1, 0), j_max=4)
    assert chain.dims[0] == 1
    assert 2 in chain.dims


def test_minimality():
    assert minimality(SPHERE, pt(1, 0)) == (True, 2)
    assert minimality(HYPERQUADRIC3, pt(1, 0, 0)) == (True, 2)
    mini, j = minimality(TUBE, pt(1, 0))
    assert not mini
    # rho(z, 0) vanishes identically, so Q_0 is all of C^2 at the first step
    assert minimality(CRManifold.from_text("vars z1 z2\nrho: z1*~z1\n"), pt(0, 0)) == (True, 1)


def test_minimality_rejects_a_chain_bound_below_one():
    assert minimality(SPHERE, pt(1, 0), j_max=None) == (True, 2)
    assert minimality(SPHERE, pt(1, 0), j_max=2) == (True, 2)
    for j_max in (0, -3):
        with pytest.raises(ValueError, match="j_max"):
            minimality(SPHERE, pt(1, 0), j_max=j_max)


def test_segre_sets_grow():
    """Q^1 is contained in the closure of Q^2 (ideal containment reversed)."""
    chain = segre_sets(SPHERE, pt(1, 0), j_max=3)
    I1, I2 = chain.ideals[0], chain.ideals[1]
    for g in I2.generators:
        assert member(g, I1)


def test_off_manifold_base_point_rejected():
    with pytest.raises(Exception):
        segre_sets(SPHERE, pt(2, 0), j_max=3)


def test_symbolic_inversion_set_pinned():
    """The symbolic I_w lives over (zb_*, wb_*), zb first."""
    inv = inversion_set(POWER)
    assert inv.ideal.table.names == ("zb_z1", "zb_z2", "wb_z1", "wb_z2")
    assert [str(g) for g in inv.ideal.generators] == [
        "-zb_z1^2+wb_z1^2", "-zb_z2^2*wb_z1^2+zb_z1^2*wb_z2^2"]
    assert [str(e) for e in inv.excluded] == ["wb_z1^2"]


def test_essential_finiteness_reads_the_inversion_set():
    w = pt(QI(1, 1), QI(2, -1))
    assert inversion_set(POWER, w).finiteness() == essential_finiteness(POWER, w) == (True, 4)
    assert inversion_set(TUBE, pt(1, 0)).finiteness() == (False, None)


def test_minimality_reuses_the_cached_segre_set_bases(monkeypatch):
    """Comparing Segre sets reads the bases that their dimensions built:
    the tube's chain stops at j = 1 after three basis computations (Q^1,
    the elimination for Q^2, and Q^2 itself)."""
    calls = []
    real = ideal.buchberger

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(ideal, "buchberger", counted)
    p = sample_points("tube_C2", 1, 0)[0]
    assert minimality(TUBE, p) == (False, 1)
    assert len(calls) == 3


NON_REAL = CRManifold.from_text("vars z1 z2\nrho: i*z1*~z1 + z2*~z2 - 1\n")


@pytest.mark.parametrize("compute", [
    lambda: segre_variety(NON_REAL, pt(1, 0)),
    lambda: segre_variety(NON_REAL, SYMBOLIC),
    lambda: inversion_set(NON_REAL, pt(0, 1)),
    lambda: inversion_set(NON_REAL, SYMBOLIC),
    lambda: essential_finiteness(NON_REAL, pt(0, 1)),
    lambda: segre_map_locally_injective(NON_REAL, pt(0, 1)),
    lambda: minimality(NON_REAL, pt(0, 1)),
], ids=["segre", "segre-symbolic", "inversion", "inversion-symbolic", "essfin",
        "injective", "minimality"])
def test_every_segre_computation_refuses_non_real_data(compute):
    # essential_finiteness used to report (True, 1) here
    with pytest.raises(ManifoldError, match="defining polynomials are not real"):
        compute()


def test_graph_form_of_two_generators():
    """The symbolic Segre variety of D2 (|z|^2 = 1, z1*~z2 + z2*~z1 = |z3|^2)
    solved for (z1, z2) by Cramer's rule: at random rational (z3, wb), the
    solution satisfies both generators."""
    D2 = CRManifold.from_text("vars z1 z2 z3\n"
                              "rho: z1*~z1 + z2*~z2 + z3*~z3 - 1\n"
                              "rho: z1*~z2 + z2*~z1 - z3*~z3\n")
    Q = segre_variety(D2, SYMBOLIC)
    h = graph_form(Q, ["z1", "z2"])
    rng = random.Random(5)
    checked = 0
    while checked < 20:
        point = {n: QI(Fraction(rng.randint(-9, 9), rng.randint(1, 4)), rng.randint(-3, 3))
                 for n in ("z3", "wb_z1", "wb_z2", "wb_z3")}
        dens = {k: den.eval(point) for k, (_, den) in h.items()}
        if any(d.is_zero() for d in dens.values()):
            continue
        point.update({k: num.eval(point) / dens[k] for k, (num, _) in h.items()})
        assert all(g.eval(point).is_zero() for g in Q.ideal.generators)
        checked += 1
