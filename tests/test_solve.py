"""Exact Q(i) roots of the univariate polynomials back-substitution meets."""

from fractions import Fraction

import pytest

from segrekit.gaussian import GaussianRational as QI
from segrekit.parsing import parse_poly
from segrekit.poly import VarTable
from segrekit.solve import _univariate_roots

X = VarTable.make(["x"], conjugates=False)


@pytest.mark.parametrize("src, roots", [
    ("x^2 + x - 2", [(QI(1), 1), (QI(-2), 1)]),
    ("4*x^2 + 4*i*x - 1", [(QI(0, Fraction(-1, 2)), 2)]),
    ("x^2 + x + 1", None),
], ids=["two-roots", "double-root", "no-root-in-Q(i)"])
def test_general_quadratic(src, roots):
    assert _univariate_roots(parse_poly(src, X), 0) == roots
