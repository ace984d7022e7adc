"""Exact arithmetic over the Gaussian rationals Q(i)."""

from __future__ import annotations

import math
import sys
from math import gcd, lcm
from typing import TYPE_CHECKING

from .orders import ResourceLimitError

if TYPE_CHECKING:
    from fractions import Fraction

# the most digits of an integer parsed or printed: Python 3.11's print limit
PARSE_DIGIT_CAP = 4300
_DIGIT_LIMIT = 10 ** PARSE_DIGIT_CAP  # made once: 10^4300 takes tens of microseconds


def is_fraction(x) -> bool:
    """Whether x is a ``Fraction``, asked without importing ``fractions``:
    no Fraction exists before that module is loaded."""
    fractions = sys.modules.get("fractions")
    return fractions is not None and isinstance(x, fractions.Fraction)


def _ratio_hash(n: int, d: int) -> int:
    """The numeric hash of n/d for d > 0, as the Python reference defines it
    ("Hashing of numeric types"): n * d^-1 modulo the prime P, the same for
    n/d in any terms as long as P does not divide d.  It may be -1, which
    ``hash`` turns into -2 as it does for Fraction."""
    P = sys.hash_info.modulus
    if d % P == 0:
        g = gcd(n, d)
        n, d = n // g, d // g
    h = sys.hash_info.inf if d % P == 0 else abs(n) * pow(d, -1, P) % P
    return h if n >= 0 else -h


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
    ``re`` and ``im`` give the parts as ``Fraction``s, made when asked for:
    printing, hashing and comparing read the triple.
    """

    __slots__ = ("_a", "_b", "_d")

    def __init__(self, re=0, im=0):
        if type(re) is int and type(im) is int:
            self._a, self._b, self._d = re, im, 1
            return
        from fractions import Fraction

        re, im = Fraction(re), Fraction(im)
        dr, di = re.denominator, im.denominator
        d = dr * di // gcd(dr, di)
        # with re and im in lowest terms, gcd(a, b, lcm) is already 1
        self._a = re.numerator * (d // dr)
        self._b = im.numerator * (d // di)
        self._d = d

    @property
    def re(self) -> Fraction:
        from fractions import Fraction

        return Fraction(self._a, self._d)

    @property
    def im(self) -> Fraction:
        from fractions import Fraction

        return Fraction(self._b, self._d)

    # -- constructors -------------------------------------------------

    @staticmethod
    def from_value(v) -> "GaussianRational":
        if isinstance(v, GaussianRational):
            return v
        return GaussianRational(v)

    @staticmethod
    def from_ints(a: int, b: int, d: int) -> "GaussianRational":
        """(a + b*i)/d for integers a, b and d != 0, in lowest terms."""
        if d < 0:
            a, b, d = -a, -b, -d
        elif d == 0:
            raise ZeroDivisionError("zero denominator in Q(i)")
        return _make(a, b, d)

    # -- predicates ----------------------------------------------------

    def is_zero(self) -> bool:
        return self._a == 0 and self._b == 0

    def is_real(self) -> bool:
        return self._b == 0

    def is_one(self) -> bool:
        return self._a == 1 and self._b == 0 and self._d == 1

    def re_positive(self) -> bool:
        return self._a > 0

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
        return _make(*_power(self._a, self._b, self._d, k))

    def conjugate(self) -> "GaussianRational":
        return _triple(self._a, -self._b, self._d)

    # -- comparison/hash -------------------------------------------------

    def __eq__(self, other):
        if isinstance(other, GaussianRational):
            return self._a == other._a and self._b == other._b and self._d == other._d
        if isinstance(other, int):
            return self._b == 0 and self._d == 1 and self._a == other
        if is_fraction(other):
            return (self._b == 0 and self._d == other.denominator
                    and self._a == other.numerator)
        return NotImplemented

    def __hash__(self):
        # as the int or Fraction that a real value equals, else as the pair
        # (re, im): hash(Fraction(n)) == hash(n), and a part whose numeric
        # hash is h has the hash of h
        if self._d == 1:
            return hash(self._a) if self._b == 0 else hash((self._a, self._b))
        re = _ratio_hash(self._a, self._d)
        return re if self._b == 0 else hash((re, _ratio_hash(self._b, self._d)))

    # -- printing ----------------------------------------------------------

    def __str__(self):
        return format_coeff(self)

    def __repr__(self):
        return f"GaussianRational({self.re!r}, {self.im!r})"


QI = GaussianRational
QI_ZERO = QI(0)
QI_ONE = QI(1)


def heights(coeffs) -> tuple:
    """(N, D) for a collection of coefficients (a_c + b_c*i)/d_c: D their
    least common denominator, N the sum of (|a_c| + |b_c|)*D/d_c.  No
    integer of theirs is larger than max(N, D); as the coefficients of
    polynomials p and q, N(pq) <= N(p)N(q) and D(pq) <= D(p)D(q)."""
    den = lcm(*(c._d for c in coeffs))
    return sum((abs(c._a) + abs(c._b)) * (den // c._d) for c in coeffs), den


def check_digits(n: int) -> None:
    """Refuse a natural number n of more than PARSE_DIGIT_CAP digits, on
    every interpreter, not only where ``str`` has that limit."""
    if n >= _DIGIT_LIMIT:
        digits = math.floor(math.log10(n)) + 1
        if n < 10 ** (digits - 1):  # float log10 rounds 10^k - 1 up to k
            digits -= 1
        raise ResourceLimitError("number too long to print",
                                 {"digits_bound": digits, "cap": PARSE_DIGIT_CAP})


def _ratio_str(n: int, d: int) -> str:
    """n/d in lowest terms, as `n` or `n/d`, for d > 0."""
    if d != 1:
        g = gcd(n, d)
        if g != 1:
            n, d = n // g, d // g
    if abs(n) >= _DIGIT_LIMIT or d >= _DIGIT_LIMIT:  # the cheap test first
        check_digits(max(abs(n), d))
    return str(n) if d == 1 else f"{n}/{d}"


def format_coeff(c: GaussianRational) -> str:
    """Render as `a`, `a/b`, `a+b*i`, `b*i` or `i` (the printed syntax),
    read off the triple (a + b*i)/d: the imaginary part b/d is 1 exactly
    when b == d."""
    a, b, d = c._a, c._b, c._d
    if b == 0:
        return _ratio_str(a, d)
    if b == d:
        im = "i"
    elif b == -d:
        im = "-i"
    else:
        im = f"{_ratio_str(b, d)}*i"
    if a == 0:
        return im
    sign = "+" if b > 0 else ""
    return f"{_ratio_str(a, d)}{sign}{im}"


class PointPowers:
    """Exact values at a point, in integers: the table that every polynomial
    evaluated at the point reads.

    The point binds values to slots j.  A table made from (j, v_j) pairs
    holds the v_j as Gaussian integers a_j + b_j*i over one common
    denominator D; ``join`` puts prepared tables side by side, each slot
    keeping its own denominator.  The powers of each a_j + b_j*i and of its
    D are computed once, when first needed, and kept for every later sum
    over the table and over every table joined from it.  A sum of monomial
    values is gathered as one Gaussian integer over one denominator and
    brought to lowest terms once."""

    __slots__ = ("_bound",)

    def __init__(self, slots):
        """slots: (j, v_j) pairs, each v_j a GaussianRational, int or Fraction."""
        values = [(j, v if isinstance(v, GaussianRational) else GaussianRational(v))
                  for j, v in slots]
        den = 1
        for _, v in values:
            if den % v._d:
                den = lcm(den, v._d)
        # (slot, a_j, b_j, D, powers) for each bound slot, where powers maps
        # an exponent x > 1 to ((a_j + b_j*i)^x, D^x)
        self._bound = [(j, v._a * (den // v._d), v._b * (den // v._d), den, {})
                       for j, v in values]

    @staticmethod
    def join(*tables: "PointPowers") -> "PointPowers":
        """One table binding the slots of all the tables, which must be
        disjoint; it shares their powers."""
        out = object.__new__(PointPowers)
        out._bound = [slot for t in tables for slot in t._bound]
        return out

    def total(self, items, strict: bool = True) -> GaussianRational:
        """The sum of k * c * prod_j v_j^m_j over the (c, k, m) in items,
        for coefficients c, integers k and exponent vectors m.

        With strict, an exponent on an unbound slot j raises KeyError(j);
        otherwise unbound slots are left out of the product."""
        sa, sb, sd = 0, 0, 1
        bound = self._bound
        for c, k, m in items:
            a, b, d, e = c._a * k, c._b * k, c._d, 0
            for j, u, v, den, powers in bound:
                x = m[j]
                if x:
                    if x > 1:
                        p = powers.get(x)
                        if p is None:
                            p = powers[x] = _power(u, v, den, x)
                        u, v, den = p
                    a, b = a * u - b * v, a * v + b * u
                    d *= den
                    e += x
            if strict and e != sum(m):
                slots = {slot[0] for slot in bound}
                raise KeyError(next(j for j, x in enumerate(m) if x and j not in slots))
            # add (a + b*i)/d to the running sum (sa + sb*i)/sd
            if d == sd:
                sa += a
                sb += b
            else:
                g = gcd(sd, d)
                s, t = sd // g, d // g
                sa, sb, sd = sa * t + a * s, sb * t + b * s, s * d
        return _make(sa, sb, sd)


def _power(a: int, b: int, den: int, x: int) -> tuple:
    """((a + b*i)^x as a pair, den^x) for x >= 0, by repeated squaring."""
    u, v, k = 1, 0, x
    while True:
        if k & 1:
            u, v = u * a - v * b, u * b + v * a
        k >>= 1
        if not k:
            return u, v, den ** x
        a, b = a * a - b * b, 2 * a * b


def qi_sqrt(c: GaussianRational):
    """A square root of c within Q(i), or None when no such root exists.

    The root has positive real part, or is +i*sqrt(-c) when c is a
    negative real.  With c = (a + b*i)/d, a root (x + y*i)/d needs
    (x + y*i)^2 = (a + b*i)*d in the Gaussian integers, so x^2 + y^2 is the
    integer square root of the norm of (a + b*i)*d."""
    if c._a == 0 and c._b == 0:
        return QI_ZERO
    d = c._d
    a, b = c._a * d, c._b * d
    s = math.isqrt(a * a + b * b)
    if s * s != a * a + b * b:
        return None
    # x^2 = (s + a)/2 and y^2 = (s - a)/2, with x*y of the sign of b
    x2, y2 = (s + a) >> 1, (s - a) >> 1
    x, y = math.isqrt(x2), math.isqrt(y2)
    if x * x != x2 or y * y != y2 or x2 + y2 != s:
        return None
    return _make(x, y if b >= 0 else -y, d)
