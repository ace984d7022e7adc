"""Sparse polynomial arithmetic over the Gaussian rationals."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from segrekit.gaussian import GaussianRational as QI, QI_ONE, QI_ZERO
from segrekit.parsing import parse_poly
from segrekit.poly import Poly, VarTable

TABLE = VarTable.make(["z1", "z2"])

fracs = st.fractions(min_value=-9, max_value=9, max_denominator=4)
qis = st.builds(QI, fracs, fracs)


@st.composite
def polys(draw):
    nterms = draw(st.integers(min_value=0, max_value=5))
    terms = {}
    for _ in range(nterms):
        mono = tuple(draw(st.integers(min_value=0, max_value=3))
                     for _ in range(len(TABLE)))
        c = draw(qis)
        if not c.is_zero():
            terms[mono] = c
    return Poly(TABLE, terms)


def test_constructors():
    z1 = Poly.var(TABLE, "z1")
    one = Poly.const(TABLE, QI_ONE)
    assert (z1 + one) - z1 == one
    assert Poly.zero(TABLE).is_zero()


@settings(max_examples=200)
@given(polys(), polys(), polys())
def test_ring_axioms(p, q, r):
    assert p + q == q + p
    assert p * q == q * p
    assert (p + q) * r == p * r + q * r
    assert p + Poly.zero(TABLE) == p
    assert p * Poly.const(TABLE, QI_ONE) == p


@settings(max_examples=200)
@given(polys())
def test_conjugation_involution(p):
    assert p.conjugate().conjugate() == p


@settings(max_examples=200)
@given(polys())
def test_conjugation_is_ring_hom(p):
    q = parse_poly("z1*~z2 + 3", TABLE)
    assert (p * q).conjugate() == p.conjugate() * q.conjugate()
    assert (p + q).conjugate() == p.conjugate() + q.conjugate()


@settings(max_examples=300)
@given(polys(), qis, qis, qis, qis)
def test_dual_evaluator_against_product(p, a, b, ca, cb):
    """eval is a ring homomorphism: evaluating a product equals the product
    of evaluations, with conjugate slots bound independently."""
    q = parse_poly("z1^2 - ~z1*z2 + 1/2", TABLE)
    binding = {"z1": a, "z2": b, "~z1": ca, "~z2": cb}
    assert (p * q).eval(binding) == p.eval(binding) * q.eval(binding)
    assert (p + q).eval(binding) == p.eval(binding) + q.eval(binding)


@settings(max_examples=300)
@given(polys())
def test_parse_print_roundtrip(p):
    text = str(p)
    assert parse_poly(text, TABLE) == p


def test_is_real():
    assert parse_poly("z1*~z1 - 1", TABLE).is_real()
    assert not parse_poly("z1 - 1", TABLE).is_real()
    assert parse_poly("i*z1*~z2 - i*z2*~z1", TABLE).is_real()


def test_diff_product_rule():
    p = parse_poly("z1^2*z2", TABLE)
    q = parse_poly("z1 + z2^3", TABLE)
    lhs = (p * q).diff("z1")
    rhs = p.diff("z1") * q + p * q.diff("z1")
    assert lhs == rhs


def test_substitute():
    p = parse_poly("z1^2 + z2", TABLE)
    s = p.substitute({"z1": parse_poly("z2 - 1", TABLE)})
    assert s == parse_poly("z2^2 - 2*z2 + 1 + z2", TABLE)


@settings(max_examples=100)
@given(polys(), polys(), qis, qis)
def test_mixed_substitution_equals_one_binding_at_a_time(p, q, a, b):
    """Numbers fold into coefficients and a polynomial multiplies, in one
    simultaneous pass."""
    once = p.substitute({"z1": a, "~z2": q, "~z1": b})
    stepwise = p.substitute({"z1": a}).substitute({"~z1": b}).substitute({"~z2": q})
    assert once == stepwise


@settings(max_examples=100)
@given(polys(), qis, qis, qis, qis)
def test_binding_every_variable_to_a_number_is_eval(p, a, b, ca, cb):
    binding = {"z1": a, "z2": b, "~z1": ca, "~z2": cb}
    assert p.substitute(binding) == Poly.const(TABLE, p.eval(binding))


def test_substitute_renames():
    other = VarTable.make(["w1", "w2"], conjugates=False)
    p = parse_poly("z1*z2 + 2", TABLE).substitute(
        {"~z1": Poly.const(TABLE, QI_ZERO)})
    moved = p.substitute({"z1": "w1", "z2": "w2"}, other)
    assert str(moved) == "w1*w2+2"


def test_degree_in():
    p = parse_poly("z1^3*z2 + z2^2", TABLE)
    assert p.degree_in([TABLE.index("z1")]) == 3
    assert p.total_degree() == 4


def test_fraction_scalars_act_as_constants():
    z1 = Poly.var(TABLE, "z1")
    half = Fraction(1, 2)
    assert z1 * half == z1 * QI(half)
    assert half * z1 == z1 * QI(half)
    assert z1 + half == z1 + Poly.const(TABLE, QI(half))
    assert half + z1 == z1 + half
    assert z1 - half == z1 + Fraction(-1, 2)
    assert half - z1 == -z1 + half


@pytest.mark.parametrize("other", [0.5, 1j, "1", None])
def test_other_operands_raise_type_error(other):
    z1 = Poly.var(TABLE, "z1")
    for op in (lambda: z1 + other, lambda: other + z1, lambda: z1 - other,
               lambda: other - z1, lambda: z1 * other, lambda: other * z1):
        with pytest.raises(TypeError):
            op()
