"""Gaussian rational arithmetic."""

import math
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from segrekit.gaussian import (PARSE_DIGIT_CAP, GaussianRational as QI, QI_ONE, QI_ZERO,
                               format_coeff, qi_sqrt)
from segrekit.orders import ResourceLimitError

fracs = st.fractions(min_value=-50, max_value=50, max_denominator=20)
qis = st.builds(QI, fracs, fracs)


def test_basic_identities():
    assert QI(0, 1) * QI(0, 1) == -QI_ONE
    assert QI(Fraction(1), Fraction(1)).conjugate() == QI(Fraction(1), Fraction(-1))


@given(qis, qis, qis)
def test_ring_axioms(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


@given(qis)
def test_conjugation_involution(a):
    assert a.conjugate().conjugate() == a
    assert (a * a.conjugate()).im == 0


@given(qis)
def test_division_inverse(a):
    if not a.is_zero():
        assert a / a == QI_ONE
        assert a * (QI_ONE / a) == QI_ONE


def test_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        QI_ONE / QI_ZERO


@given(qis, st.integers(min_value=0, max_value=6))
def test_pow_matches_repeated_product(a, k):
    acc = QI_ONE
    for _ in range(k):
        acc = acc * a
    assert a ** k == acc


def test_qi_sqrt_of_rationals():
    assert qi_sqrt(QI(Fraction(9, 4))) == QI(Fraction(3, 2))
    assert qi_sqrt(QI(Fraction(-9, 4))) == QI(0, Fraction(3, 2))
    assert qi_sqrt(QI(Fraction(2))) is None
    assert qi_sqrt(QI(Fraction(2, 9))) is None
    assert qi_sqrt(QI(0)) == 0


def test_qi_sqrt_exact_cases():
    # sqrt(-1) = i, sqrt(2i) = 1 + i, sqrt(-4) = 2i
    assert qi_sqrt(QI(Fraction(-1))) in (QI(0, 1), QI(0, -1))
    r = qi_sqrt(QI(Fraction(0), Fraction(2)))
    assert r is not None and r * r == QI(Fraction(0), Fraction(2))
    r = qi_sqrt(QI(Fraction(-4)))
    assert r is not None and r * r == QI(Fraction(-4))
    assert qi_sqrt(QI(Fraction(2))) is None


@given(qis)
def test_qi_sqrt_roundtrip(a):
    sq = a * a
    r = qi_sqrt(sq)
    assert r is not None
    assert r * r == sq


def test_format_coeff():
    assert format_coeff(QI(Fraction(3, 2))) == "3/2"
    assert format_coeff(QI(0, 1)) == "i"
    assert "i" in format_coeff(QI(Fraction(1), Fraction(2)))


NINES = 10 ** PARSE_DIGIT_CAP - 1  # the largest integer that prints


@pytest.mark.parametrize("x", [QI(NINES), QI(Fraction(-1, NINES)), QI(1, -NINES)],
                         ids=["integer", "denominator", "imaginary"])
def test_numbers_up_to_the_digit_cap_print(x):
    assert len(format_coeff(x)) >= PARSE_DIGIT_CAP


@pytest.mark.parametrize("x, digits", [
    (QI(NINES + 1), 4301),
    (QI(Fraction(1, 2 ** 20000)), 6021),
    (QI(1, -3 ** 10000), 4772),
], ids=["integer", "denominator", "imaginary"])
def test_a_number_over_the_digit_cap_is_refused_when_printed(x, digits):
    """On every interpreter, also where ``str`` has no limit of its own."""
    with pytest.raises(ResourceLimitError) as info:
        format_coeff(x)
    assert info.value.stats == {"digits_bound": digits, "cap": PARSE_DIGIT_CAP}


# -- the integer-triple representation against a model of Fraction pairs ------

def _fields(x):
    return (x._a, x._b, x._d)


def _model(x):
    return (x.re, x.im)


def _model_mul(p, q):
    return (p[0] * q[0] - p[1] * q[1], p[0] * q[1] + p[1] * q[0])


def _model_str(re, im):
    """The printed syntax, spelled out on the pair (re, im)."""
    def frac(f):
        return str(f.numerator) if f.denominator == 1 else f"{f.numerator}/{f.denominator}"

    if im == 0:
        return frac(re)
    part = "i" if im == 1 else "-i" if im == -1 else f"{frac(im)}*i"
    if re == 0:
        return part
    return f"{frac(re)}{'+' if im > 0 else ''}{part}"


def _assert_canonical(x):
    a, b, d = _fields(x)
    assert d > 0 and math.gcd(a, b, d) == 1
    # the same value built from its parts has the same fields
    assert _fields(QI(x.re, x.im)) == (a, b, d)


@settings(max_examples=300)
@given(qis, qis, st.integers(min_value=-4, max_value=4))
def test_operations_match_the_fraction_pair_model(x, y, k):
    px, py = _model(x), _model(y)
    cases = [
        (x + y, (px[0] + py[0], px[1] + py[1])),
        (x - y, (px[0] - py[0], px[1] - py[1])),
        (x * y, _model_mul(px, py)),
        (-x, (-px[0], -px[1])),
        (x.conjugate(), (px[0], -px[1])),
    ]
    if not y.is_zero():
        n = py[0] * py[0] + py[1] * py[1]
        cases.append((x / y, ((px[0] * py[0] + px[1] * py[1]) / n,
                              (px[1] * py[0] - px[0] * py[1]) / n)))
    if k >= 0 or not x.is_zero():
        acc = (Fraction(1), Fraction(0))
        for _ in range(abs(k)):
            acc = _model_mul(acc, px)
        if k < 0:
            n = acc[0] * acc[0] + acc[1] * acc[1]
            acc = (acc[0] / n, -acc[1] / n)
        cases.append((x ** k, acc))
    for got, want in cases:
        assert isinstance(got.re, Fraction) and isinstance(got.im, Fraction)
        assert _model(got) == want
        _assert_canonical(got)


@given(qis)
def test_canonical_fields_hash_and_text(x):
    _assert_canonical(x)
    if x.im != 0:
        assert hash(x) == hash((x.re, x.im))
    assert format_coeff(x) == _model_str(x.re, x.im)
    assert str(x) == format_coeff(x)
    # scaling numerator and denominator alike leaves the fields alone
    assert _fields(x * QI(3, 0) / QI(3, 0)) == _fields(x)
    assert _fields(x + QI(Fraction(1, 6)) - QI(Fraction(1, 6))) == _fields(x)


@given(st.one_of(st.builds(QI, fracs), qis))
def test_a_real_value_hashes_as_its_real_part(x):
    """A real x equals x.re, so the two hash alike and find each other's
    dict entries."""
    if x.im == 0:
        assert x == x.re and hash(x) == hash(x.re)
        assert {x.re: "x"}.get(x) == "x" and {x: "x"}.get(x.re) == "x"


def test_real_values_find_int_and_fraction_keys():
    assert {3: "x"}.get(QI(3)) == "x"
    assert {Fraction(1, 2): "x"}.get(QI(Fraction(1, 2))) == "x"
    assert {QI(3): "x"}.get(3) == "x"
    assert len({QI(3), 3, Fraction(3), QI(3, 0)}) == 1
    assert {3: "x"}.get(QI(3, 1)) is None


@given(fracs, st.integers(min_value=-50, max_value=50))
def test_equality_with_int_and_fraction(f, n):
    assert QI(f) == f and f == QI(f)
    assert QI(n) == n and n == QI(n)
    assert QI(f) == QI(f.numerator, 0) / QI(f.denominator)
    assert QI(f, 1) != f and QI(n, 1) != n
    if f.denominator != 1:
        assert QI(f) != f.numerator


def test_zero_division_in_every_form():
    with pytest.raises(ZeroDivisionError):
        QI(Fraction(1, 3), 2) / QI_ZERO
    with pytest.raises(ZeroDivisionError):
        QI(1, 1) / 0
    with pytest.raises(ZeroDivisionError):
        1 / QI_ZERO
    with pytest.raises(ZeroDivisionError):
        QI_ZERO ** -1


@settings(max_examples=300)
@given(qis, qis, qis)
def test_submul_matches_the_fraction_pair_model(s, f, g):
    """s.submul(f, g) is s - f*g, field for field."""
    got = s.submul(f, g)
    fg = _model_mul(_model(f), _model(g))
    assert _model(got) == (s.re - fg[0], s.im - fg[1])
    assert _fields(got) == _fields(s - f * g)
    _assert_canonical(got)


@pytest.mark.parametrize("s, f, g", [
    # the result is zero
    (QI(Fraction(-1, 2), Fraction(2, 3)), QI(Fraction(1, 2), 1), QI(Fraction(1, 3), Fraction(2, 3))),
    (QI_ZERO, QI_ZERO, QI(7, -2)),
    # unequal denominators, and a product that is not in lowest terms
    (QI(Fraction(1, 3)), QI(Fraction(1, 2)), QI(0, Fraction(1, 5))),
    (QI(Fraction(1, 4), Fraction(3, 4)), QI(Fraction(2, 3), Fraction(2, 3)), QI(Fraction(3, 2))),
    # equal denominators that cancel
    (QI(Fraction(1, 6), Fraction(5, 6)), QI(Fraction(1, 2)), QI(Fraction(1, 3), Fraction(1, 3))),
    # integers
    (QI(3, 4), QI(2, -1), QI(1, 1)),
])
def test_submul_edge_cases(s, f, g):
    got = s.submul(f, g)
    fg = _model_mul(_model(f), _model(g))
    assert _model(got) == (s.re - fg[0], s.im - fg[1])
    _assert_canonical(got)
    assert got.is_zero() == (s == f * g)


# -- printing and hashing read the triple: a Fraction oracle over wide triples ---

P = sys.hash_info.modulus
BIG = 10 ** PARSE_DIGIT_CAP  # the first integer of 4301 digits


def _parts(a, b, d):
    """(re, im) of (a + b*i)/d as Fractions: the oracle's reading."""
    return Fraction(a, d), Fraction(b, d)


def _oracle_str(re, im):
    """The printed syntax built on the Fraction parts, refusing a part whose
    numerator or denominator has more than PARSE_DIGIT_CAP digits."""
    if any(max(abs(f.numerator), f.denominator) >= BIG for f in (re, im)):
        return None
    return _model_str(re, im)


ints = st.one_of(st.integers(-10 ** 6, 10 ** 6),
                 st.integers(-BIG + 1, BIG - 1),
                 st.integers(BIG // 10, BIG - 1).map(lambda n: n * (-1) ** (n % 2)),
                 st.integers(BIG, 10 * BIG - 1))
dens = st.one_of(st.integers(1, 10 ** 6), st.integers(1, BIG - 1),
                 st.integers(BIG // 10, BIG - 1), st.integers(1, 10 ** 6).map(lambda k: k * P))


@settings(max_examples=400, deadline=None)
@given(ints, st.one_of(st.just(0), ints), dens)
def test_printing_hashing_and_equality_agree_with_fractions(a, b, d):
    q = QI.from_ints(a, b, d)
    re, im = _parts(a, b, d)
    assert (q.re, q.im) == (re, im)
    want = _oracle_str(re, im)
    if want is None:
        with pytest.raises(ResourceLimitError) as info:
            str(q)
        assert info.value.stats["digits_bound"] == PARSE_DIGIT_CAP + 1
    else:
        assert str(q) == format_coeff(q) == want
    assert hash(q) == (hash(re) if b == 0 else hash((re, im)))
    assert (q == re) == (re == q) == (b == 0)
    if b == 0 and re.denominator == 1:
        assert q == re.numerator and hash(q) == hash(re.numerator)


@pytest.mark.parametrize("x", [QI(BIG), QI(-BIG, 1), QI.from_ints(1, BIG, 3), QI.from_ints(1, 0, BIG),
                               QI.from_ints(2 * BIG + 1, 0, 2 * BIG), QI(10 * BIG - 1)],
                         ids=["integer", "negative", "imaginary", "denominator", "fraction",
                              "largest"])
def test_exactly_4301_digits_are_refused_when_printed(x):
    """Also 10^4301 - 1, whose float log10 rounds up to 4301."""
    with pytest.raises(ResourceLimitError) as info:
        str(x)
    assert info.value.stats == {"digits_bound": PARSE_DIGIT_CAP + 1, "cap": PARSE_DIGIT_CAP}


def test_hashes_at_the_edges_of_the_numeric_hash_rule():
    """A denominator that the modulus P divides, and a part whose hash would
    be -1, which Python reserves."""
    for a, b, d in [(1, 0, P), (P, 0, 2 * P), (3, 5, P), (P, 1, P), (-7, P, 3 * P),
                    (-(P + 2), 0, 2), (3, -(P + 2), 2)]:
        q = QI.from_ints(a, b, d)
        re, im = _parts(a, b, d)
        assert hash(q) == (hash(re) if b == 0 else hash((re, im)))
