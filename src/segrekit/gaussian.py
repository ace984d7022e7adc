"""Exact arithmetic over the Gaussian rationals Q(i)."""

from __future__ import annotations

import math
from fractions import Fraction
from math import gcd


def _make(a: int, b: int, d: int) -> "GaussianRational":
    """(a + b*i)/d with d > 0, brought to lowest terms."""
    if d != 1:
        g = gcd(a, b, d)
        if g != 1:
            a //= g
            b //= g
            d //= g
    out = object.__new__(GaussianRational)
    out._a = a
    out._b = b
    out._d = d
    return out


def _triple(a: int, b: int, d: int) -> "GaussianRational":
    """(a + b*i)/d from a triple that is already canonical."""
    out = object.__new__(GaussianRational)
    out._a = a
    out._b = b
    out._d = d
    return out


class GaussianRational:
    """A number (a + b*i)/d with integers a, b, d.

    The triple is canonical: d > 0 and gcd(a, b, d) == 1, so equal values
    have equal fields.  Values are immutable; all arithmetic is exact.
    ``re`` and ``im`` give the parts as ``Fraction``s.
    """

    __slots__ = ("_a", "_b", "_d")

    def __init__(self, re=0, im=0):
        if type(re) is int and type(im) is int:
            self._a, self._b, self._d = re, im, 1
            return
        re, im = Fraction(re), Fraction(im)
        dr, di = re.denominator, im.denominator
        d = dr * di // gcd(dr, di)
        # with re and im in lowest terms, gcd(a, b, lcm) is already 1
        self._a = re.numerator * (d // dr)
        self._b = im.numerator * (d // di)
        self._d = d

    @property
    def re(self) -> Fraction:
        return Fraction(self._a, self._d)

    @property
    def im(self) -> Fraction:
        return Fraction(self._b, self._d)

    # -- constructors -------------------------------------------------

    @staticmethod
    def from_value(v) -> "GaussianRational":
        if isinstance(v, GaussianRational):
            return v
        return GaussianRational(v)

    # -- predicates ----------------------------------------------------

    def is_zero(self) -> bool:
        return self._a == 0 and self._b == 0

    def is_real(self) -> bool:
        return self._b == 0

    def is_one(self) -> bool:
        return self._a == 1 and self._b == 0 and self._d == 1

    # -- arithmetic ----------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, GaussianRational):
            other = GaussianRational(other)
        d1, d2 = self._d, other._d
        if d1 == d2:
            return _make(self._a + other._a, self._b + other._b, d1)
        g = gcd(d1, d2)
        s, t = d1 // g, d2 // g
        return _make(self._a * t + other._a * s, self._b * t + other._b * s, s * d2)

    __radd__ = __add__

    def __sub__(self, other):
        if not isinstance(other, GaussianRational):
            other = GaussianRational(other)
        d1, d2 = self._d, other._d
        if d1 == d2:
            return _make(self._a - other._a, self._b - other._b, d1)
        g = gcd(d1, d2)
        s, t = d1 // g, d2 // g
        return _make(self._a * t - other._a * s, self._b * t - other._b * s, s * d2)

    def __rsub__(self, other):
        return GaussianRational.from_value(other) - self

    def __mul__(self, other):
        if not isinstance(other, GaussianRational):
            other = GaussianRational(other)
        a1, b1, a2, b2 = self._a, self._b, other._a, other._b
        return _make(a1 * a2 - b1 * b2, a1 * b2 + b1 * a2, self._d * other._d)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if not isinstance(other, GaussianRational):
            other = GaussianRational(other)
        a1, b1, a2, b2 = self._a, self._b, other._a, other._b
        n = a2 * a2 + b2 * b2
        if n == 0:
            raise ZeroDivisionError("division by zero in Q(i)")
        d2 = other._d
        # (a1 + b1 i)/d1 * d2 (a2 - b2 i) / n
        return _make((a1 * a2 + b1 * b2) * d2, (b1 * a2 - a1 * b2) * d2, self._d * n)

    def __rtruediv__(self, other):
        return GaussianRational.from_value(other) / self

    def submul(self, f: "GaussianRational", g: "GaussianRational") -> "GaussianRational":
        """self - f*g, brought to lowest terms once (the division step's
        multiply-subtract)."""
        fa, fb, ga, gb = f._a, f._b, g._a, g._b
        pa, pb, pd = fa * ga - fb * gb, fa * gb + fb * ga, f._d * g._d
        d = self._d
        if d == pd:
            return _make(self._a - pa, self._b - pb, d)
        h = gcd(d, pd)
        s, t = d // h, pd // h
        return _make(self._a * t - pa * s, self._b * t - pb * s, s * pd)

    def __neg__(self):
        return _triple(-self._a, -self._b, self._d)

    def __pow__(self, k: int):
        if k < 0:
            return GaussianRational(1) / self ** (-k)
        out = GaussianRational(1)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def conjugate(self) -> "GaussianRational":
        return _triple(self._a, -self._b, self._d)

    def norm(self) -> Fraction:
        """|c|^2 as an exact rational."""
        return Fraction(self._a * self._a + self._b * self._b, self._d * self._d)

    # -- comparison/hash -------------------------------------------------

    def __eq__(self, other):
        if isinstance(other, GaussianRational):
            return self._a == other._a and self._b == other._b and self._d == other._d
        if isinstance(other, int):
            return self._b == 0 and self._d == 1 and self._a == other
        if isinstance(other, Fraction):
            return (self._b == 0 and self._d == other.denominator
                    and self._a == other.numerator)
        return NotImplemented

    def __hash__(self):
        # a real value equals its int or Fraction, so it hashes as one
        if self._d == 1:
            # hash(Fraction(n)) == hash(n)
            return hash(self._a) if self._b == 0 else hash((self._a, self._b))
        return hash(self.re) if self._b == 0 else hash((self.re, self.im))

    # -- printing ----------------------------------------------------------

    def __str__(self):
        return format_coeff(self)

    def __repr__(self):
        return f"GaussianRational({self.re!r}, {self.im!r})"


QI = GaussianRational
QI_ZERO = QI(0)
QI_ONE = QI(1)
QI_I = QI(0, 1)


def _frac_str(f: Fraction) -> str:
    return str(f.numerator) if f.denominator == 1 else f"{f.numerator}/{f.denominator}"


def format_coeff(c: GaussianRational) -> str:
    """Render as `a`, `a/b`, `a+b*i`, `b*i` or `i` (the printed syntax)."""
    if c.im == 0:
        return _frac_str(c.re)
    if c.im == 1:
        im = "i"
    elif c.im == -1:
        im = "-i"
    else:
        im = f"{_frac_str(c.im)}*i"
    if c.re == 0:
        return im
    sign = "+" if c.im > 0 else ""
    return f"{_frac_str(c.re)}{sign}{im}"


def frac_sqrt(f: Fraction):
    """Exact square root of a non-negative rational, or None."""
    if f < 0:
        return None
    rn = math.isqrt(f.numerator)
    rd = math.isqrt(f.denominator)
    if rn * rn != f.numerator or rd * rd != f.denominator:
        return None
    return Fraction(rn, rd)


def qi_sqrt(c: GaussianRational):
    """A square root of c within Q(i), or None when no such root exists."""
    if c.is_zero():
        return QI_ZERO
    if c.im == 0:
        r = frac_sqrt(c.re)
        if r is not None:
            return QI(r)
        r = frac_sqrt(-c.re)
        if r is not None:
            return QI(0, r)
        return None
    # (x + y i)^2 = c:  x^2 - y^2 = re, 2 x y = im, x^2 + y^2 = |c|
    mod = frac_sqrt(c.norm())
    if mod is None:
        return None
    x2 = (c.re + mod) / 2
    x = frac_sqrt(x2)
    if x is None or x == 0:
        return None
    y = c.im / (2 * x)
    root = QI(x, y)
    return root if root * root == c else None
