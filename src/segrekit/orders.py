"""Monomial orders: grevlex, lex, and elimination block orders.

An order is described once, as a list of linear forms in the exponents.
``MonomialOrder.key`` evaluates them into a flat tuple of ints, with
key(a) > key(b) exactly when monomial a is larger; ``MonomialCodec`` packs
them, with the exponents themselves, into one int per monomial for the
Groebner engine.
"""

from __future__ import annotations

from operator import mul
from typing import Optional

# width of a packed exponent field, its guard bit included
EXP_BITS = 16


# the three kinds of refusal, each deciding the exit code of those derived from it
class InputError(ValueError):
    """Input that is malformed or does not fit: a file, a point, an option."""


class ResourceLimitError(RuntimeError):
    """A computation outgrew a cap: a basis limit, a step limit, the width
    of a packed exponent field, or the digits of a printed number."""

    def __init__(self, message: str, stats: dict):
        super().__init__(f"{message} ({stats})")
        self.stats = stats


class InconclusiveError(RuntimeError):
    """A randomized or bounded method stopped without an answer."""


def _grevlex_forms(idx):
    # the entries of a grevlex key on the variables idx, as linear forms
    # [(variable, +1 or -1), ...]
    return [[(i, 1) for i in idx]] + [[(i, -1)] for i in reversed(idx)]


class MonomialCodec:
    """Monomials of one order packed into single ints (Bachmann and
    Schoenemann, ISSAC 1998).

    From the top down, the packed int holds one field per key entry, each
    negated and offset so that it is never negative, then one field per
    exponent, each ``EXP_BITS`` wide with a guard bit on top.  Key entries
    that are minus one exponent (the tie-breaks of grevlex) need no field of
    their own: the exponent fields come first in that order.  So:

    - integer ``<`` is the monomial order reversed: the smallest int is the
      largest monomial;
    - packing is linear up to the constant ``one`` (the packed 1), so
      m * (a / b) packs as ``m + (a - b)`` when b divides a;
    - b divides a exactly when ``not (a - b) & guard``.

    An exponent may be at most ``max_exp``.  A product with an exponent of
    up to twice that still fits its field, with the guard bit set, and
    every key field is wide enough for it, so ``p & guard`` detects an
    overflow before any field carries into the next."""

    __slots__ = ("max_exp", "guard", "one", "_unit", "_exp_shift")

    def __init__(self, nvars: int, forms):
        forms = [f for f in forms if f]
        lead = []   # variables whose exponent field doubles as a key field
        while forms and len(forms[-1]) == 1 and forms[-1][0][1] == -1:
            lead.insert(0, forms.pop()[0][0])
        # exponent fields from the top down
        exp_order = lead + [i for i in range(nvars) if i not in lead]
        top = 1 << (EXP_BITS - 1)   # the guard bit of a field
        field = 2 * top - 1          # the largest value a field holds
        self.max_exp = top - 1
        shift = 0
        exp_shift = [0] * nvars
        for i in reversed(exp_order):
            exp_shift[i] = shift
            shift += EXP_BITS
        self.guard = sum(top << s for s in exp_shift)
        # per variable, the packed change when its exponent grows by one
        unit = [1 << s for s in exp_shift]
        self.one = 0
        for form in reversed(forms):
            plus = sum(c > 0 for _, c in form)
            self.one += plus * field << shift
            for i, c in form:
                unit[i] -= c << shift
            shift += (len(form) * field).bit_length()
        self._unit = unit
        self._exp_shift = exp_shift

    def is_linear(self, m: int) -> bool:
        """True when the packed monomial m is 1 or a variable."""
        return m == self.one or m - self.one in self._unit

    def enc(self, exps) -> int:
        """The packed form of an exponent tuple."""
        if max(exps, default=0) > self.max_exp:
            raise self.overflow(exps)
        return self.one + sum(map(mul, exps, self._unit))

    def dec(self, m: int) -> tuple:
        """The exponent tuple of a packed monomial."""
        mask = (1 << EXP_BITS) - 1
        return tuple([(m >> s) & mask for s in self._exp_shift])

    def overflow(self, exps) -> ResourceLimitError:
        """The error for a monomial with an exponent above ``max_exp``."""
        return ResourceLimitError(
            "exponent too large for a packed monomial",
            {"exponent": max(exps), "max_exponent": self.max_exp})


class MonomialOrder:
    """An order on the exponent tuples of ``nvars`` variables.  Equality and
    hashing see (kind, nvars, block) alone."""

    __slots__ = ("kind", "nvars", "block", "_forms", "_codec")

    def __init__(self, kind: str, nvars: int, block: Optional[tuple] = None):
        self.kind = kind      # "grevlex" | "lex" | "block"
        self.nvars = nvars
        self.block = block    # eliminated variable indices, for "block"
        # ``key``'s forms and the codec are made on first use: a table keeps
        # its orders, and most of them only ever pack
        self._forms = self._codec = None

    def _linear_forms(self) -> list:
        """The key entries as linear forms, the one description of the
        order: ``key`` evaluates them, the codec packs them."""
        n = self.nvars
        if self.kind == "grevlex":
            return _grevlex_forms(range(n))
        if self.kind == "lex":
            return [[(i, 1)] for i in range(n)]
        blk = set(self.block)
        return (_grevlex_forms([i for i in range(n) if i in blk])
                + _grevlex_forms([i for i in range(n) if i not in blk]))

    def _ident(self) -> tuple:
        return (self.kind, self.nvars, self.block)

    def __eq__(self, other):
        if not isinstance(other, MonomialOrder):
            return NotImplemented
        return self._ident() == other._ident()

    def __hash__(self):
        return hash(self._ident())

    def __repr__(self):
        return f"MonomialOrder(kind={self.kind!r}, nvars={self.nvars!r}, block={self.block!r})"

    def key(self, exps) -> tuple:
        """The values of the order's linear forms at ``exps``: a flat tuple
        of ints, larger exactly when the monomial is."""
        if self._forms is None:
            self._forms = self._linear_forms()
        return tuple([sum([exps[i] * c for i, c in form]) for form in self._forms])

    @property
    def codec(self) -> MonomialCodec:
        """Packs this order's monomials for the Groebner engine."""
        if self._codec is None:
            self._codec = MonomialCodec(self.nvars, self._linear_forms())
        return self._codec


def grevlex(nvars: int) -> MonomialOrder:
    return MonomialOrder("grevlex", nvars)


def lex(nvars: int) -> MonomialOrder:
    return MonomialOrder("lex", nvars)


def block_elim(nvars: int, elim_indices) -> MonomialOrder:
    return MonomialOrder("block", nvars, tuple(sorted(elim_indices)))
