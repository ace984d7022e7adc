"""Manifold layer: reality, genericity, chart changes, Levi data."""

import random
from fractions import Fraction

import pytest

from segrekit.catalog import load_manifold, sample_points
from segrekit.gaussian import GaussianRational as QI
from segrekit.manifold import (CRManifold, ManifoldError, dehomogenize,
                               genericity_rank, homogenize, levi_signature,
                               pseudoconcavity_probe)

from test_containment import hyperquadric
from test_specialization import hyperquadric_points

SPHERE = CRManifold.from_text("""
vars z1 z2
rho: z1*~z1 + z2*~z2 - 1
""")

HYPERQUADRIC3 = CRManifold.from_text("""
vars z1 z2 z3
rho: z1*~z1 + z2*~z2 - z3*~z3 - 1
""")

POWER = CRManifold.from_text("""
vars z1 z2
rho: 1 + z1^2*~z1^2 - z2^2*~z2^2
""")


def pt(*vals):
    return tuple(QI.from_value(v) for v in vals)


def test_type_counts():
    assert SPHERE.n == 2 and SPHERE.d == 1 and SPHERE.m == 1
    assert HYPERQUADRIC3.n == 3 and HYPERQUADRIC3.m == 2


def test_reality():
    assert SPHERE.real
    bad = CRManifold.from_text("vars z1\nrho: z1 - 1\n")
    assert not bad.real


def test_contains():
    assert SPHERE.contains(pt(1, 0))
    assert SPHERE.contains(pt(Fraction(3, 5), Fraction(4, 5)))
    assert not SPHERE.contains(pt(1, 1))


def test_genericity():
    assert genericity_rank(SPHERE, pt(1, 0)) == 1
    with pytest.raises(ManifoldError):
        genericity_rank(SPHERE, pt(0, 2))  # not on the manifold


def test_homogenize_dehomogenize_roundtrip():
    H = homogenize(POWER)
    assert "z0" in H.table.names
    back = dehomogenize(H, 0)
    assert [str(r) for r in back.rho] == [str(r) for r in POWER.rho]


def test_homogenized_is_real():
    assert homogenize(POWER).real


def test_homogenize_picks_a_fresh_chart_variable():
    """z0 is a legal variable name; the chart variable then becomes z01."""
    M = CRManifold.from_text("vars z0 z1\nrho: z0*~z0 + z1*~z1 - 1\n")
    H = homogenize(M)
    assert H.zvar_names == ("z01", "z0", "z1")
    assert H.real
    assert [str(r) for r in dehomogenize(H, 0).rho] == [str(r) for r in M.rho]


@pytest.mark.parametrize("name", ["z1", "z2"])
def test_homogenize_refuses_a_chart_variable_it_has(name):
    with pytest.raises(ManifoldError, match=f"chart variable '{name}'"):
        homogenize(POWER, name)


def test_levi_refuses_non_real_data():
    """i|z1|^2 + |z2|^2 = 1 gives the form [[i]] at (0, 1), which is not
    Hermitian."""
    M = CRManifold.from_text("vars z1 z2\nrho: i*z1*~z1 + z2*~z2 - 1\n")
    with pytest.raises(ManifoldError, match="defining polynomials are not real"):
        levi_signature(M, pt(0, 1), (1,))


def test_levi_sphere_definite():
    rep = levi_signature(SPHERE, pt(1, 0), (1,))
    assert rep.signature == (1, 0, 0)
    assert not rep.mixed


def test_levi_opposite_conormal_flips():
    rep = levi_signature(SPHERE, pt(1, 0), (-1,))
    assert rep.signature == (0, 1, 0)


def test_levi_hyperquadric_mixed():
    rep = levi_signature(HYPERQUADRIC3, pt(1, 0, 0), (1,))
    assert rep.signature == (1, 1, 0)
    assert rep.mixed


def test_levi_rejects_zero_conormal():
    with pytest.raises(ManifoldError):
        levi_signature(SPHERE, pt(1, 0), (0,))


@pytest.mark.parametrize("c", [(Fraction(-1, 3),), (QI(-5, 0),), (QI(Fraction(-7, 2)),)],
                         ids=["fraction", "gaussian-integer", "gaussian-rational"])
def test_levi_takes_real_numbers_of_each_kind(c):
    rep = levi_signature(SPHERE, pt(1, 0), c)
    assert rep.signature == (0, 1, 0)
    assert rep.conormal == c


def test_levi_refuses_a_non_real_conormal_entry():
    with pytest.raises(ManifoldError, match="conormal entry 1 is not real"):
        levi_signature(SPHERE, pt(1, 0), (QI(1, 1),))


def test_pseudoconcavity_probe():
    probes = pseudoconcavity_probe(HYPERQUADRIC3, [pt(1, 0, 0)])
    assert len(probes) == 2
    assert all(r.mixed for r in probes)
    probes = pseudoconcavity_probe(SPHERE, [pt(1, 0)])
    assert not any(r.mixed for r in probes)


def _probe_cases():
    """(label, manifold, points): three catalog hypersurfaces, and H(p, q)
    (|z_1|^2 + ... + |z_p|^2 - ... - |z_n|^2 = 1) for every p in C^3-C^5."""
    cases = [(name, load_manifold(name + ".mfd"), sample_points(name, 3, seed=5))
             for name in ("sphere_C2", "hyperquadric_k1_n3", "hyperquadric_k1_n2")]
    for n in (3, 4, 5):
        for p in range(1, n + 1):
            rng = random.Random(10 * n + p)
            draw = hyperquadric_points(p, n - p)
            cases.append((f"H({p},{n - p})", hyperquadric(p, n - p), [draw(rng) for _ in range(3)]))
    return cases


@pytest.mark.parametrize("label, M, points", _probe_cases(), ids=[c[0] for c in _probe_cases()])
def test_the_probe_reports_the_levi_form_at_both_conormals(label, M, points):
    """The probe computes the form at +1 only; its report at -1 (positives
    and negatives swapped) is the one levi_signature gives there."""
    assert pseudoconcavity_probe(M, points) == [
        levi_signature(M, p, c) for p in points for c in ((1,), (-1,))]
