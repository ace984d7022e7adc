"""Back-substitution: exact Q(i) roots of the univariate polynomials it
meets, and bound values entering at their powers."""

import random
from fractions import Fraction

import pytest

from segrekit.correspond import sample_variety_points
from segrekit.gaussian import GaussianRational as QI
from segrekit.parsing import parse_poly
from segrekit.poly import VarTable
from segrekit.solve import _univariate_roots, back_substitute

X = VarTable.make(["x"], conjugates=False)


@pytest.mark.parametrize("src, roots", [
    ("x^2 + x - 2", [(QI(1), 1), (QI(-2), 1)]),
    ("4*x^2 + 4*i*x - 1", [(QI(0, Fraction(-1, 2)), 2)]),
    ("x^2 + x + 1", None),
], ids=["two-roots", "double-root", "no-root-in-Q(i)"])
def test_general_quadratic(src, roots):
    assert _univariate_roots(parse_poly(src, X), 0) == roots


# -- binding a value at an exponent above 1 ---------------------------------------

Z = VarTable.make(["z1", "z2"], conjugates=False)


@pytest.mark.parametrize("src, value, points", [
    ("z1^2 + z2^2 - 5", QI(2), [(2, 1), (2, -1)]),
    ("z1^2 + z2^2 - 5", QI(1), [(1, 2), (1, -2)]),
    ("z1^3*z2 - 8 + z1^2", QI(2), [(2, Fraction(1, 2))]),
    ("z1^2*z2 - z2", QI(0, 1), [(QI(0, 1), 0)]),
], ids=["square-2", "square-1", "cube", "square-of-i"])
def test_a_bound_value_enters_at_its_power(src, value, points):
    """With no univariate generator, z1 is bound to ``value``, which meets
    z1 at exponent 2 or 3; every point found lies on V."""
    gens = [parse_poly(src, Z)]
    leaves = back_substitute(gens, Z, lambda roots: roots, lambda occurring: ("z1", value))
    got = sorted((str(pt["z1"]), str(pt["z2"])) for pt, mult in leaves)
    assert got == sorted((str(QI.from_value(a)), str(QI.from_value(b))) for a, b in points)
    for pt, mult in leaves:
        assert mult == 1 and gens[0].eval(pt).is_zero()


def test_sampled_points_lie_on_a_circle():
    """The sampler binds one coordinate of V(z1^2 + z2^2 - 5) to a random
    value, which enters squared; every point it keeps lies on V."""
    circle = parse_poly("z1^2 + z2^2 - 5", Z)
    points = sample_variety_points([circle], Z, random.Random(3), 4)
    assert len(points) == 4
    assert all(circle.eval(dict(zip(Z.names, p))).is_zero() for p in points)
