"""Monomial orders: the compiled keys against the textbook formulas, and
the packed monomials of each order's codec."""

import itertools
import random

import pytest

from segrekit.orders import (MonomialOrder, ResourceLimitError, block_elim,
                             grevlex, lex)


def grevlex_formula(exps):
    return (sum(exps), tuple(-e for e in reversed(exps)))


def formula(order, exps):
    """The key of `exps` under `order`, written out from the definitions."""
    if order.kind == "grevlex":
        return grevlex_formula(exps)
    if order.kind == "lex":
        return tuple(exps)
    blk = set(order.block)
    outer = tuple(e for i, e in enumerate(exps) if i in blk)
    inner = tuple(e for i, e in enumerate(exps) if i not in blk)
    return (grevlex_formula(outer), grevlex_formula(inner))


def _cmp(a, b):
    return (a > b) - (a < b)


def _name(order):
    """A test id for ``order``: its kind, with the eliminated block."""
    if order.kind == "block":
        return f"block(elim={sorted(order.block)})"
    return order.kind


ORDERS = [grevlex(1), grevlex(4), lex(1), lex(4),
          block_elim(4, [0]), block_elim(5, [0, 1]), block_elim(5, [3, 1]),
          block_elim(6, [0, 2, 5]), block_elim(3, [])]


@pytest.mark.parametrize("order", ORDERS, ids=lambda o: f"{_name(o)}-{o.nvars}")
def test_compiled_keys_order_pairs_as_the_formulas(order):
    rng = random.Random(f"orders/{order}")
    n = order.nvars
    exps = [tuple(rng.randint(0, 3) for _ in range(n)) for _ in range(60)]
    exps += [tuple(rng.choice([0, 0, 1, 7]) for _ in range(n)) for _ in range(20)]
    for a, b in itertools.product(exps, repeat=2):
        assert _cmp(order.key(a), order.key(b)) == _cmp(formula(order, a), formula(order, b))
    # sorting by either key gives the same list
    assert sorted(exps, key=order.key) == sorted(exps, key=lambda e: formula(order, e))


def test_distinct_monomials_have_distinct_keys():
    for order in ORDERS:
        n = order.nvars
        monos = list(itertools.product(range(3), repeat=n))
        assert len({order.key(m) for m in monos}) == len(monos)


def test_equality_and_hash_depend_on_kind_nvars_block():
    assert grevlex(3) == MonomialOrder("grevlex", 3)
    assert hash(grevlex(3)) == hash(MonomialOrder("grevlex", 3))
    assert block_elim(4, [2, 0]) == block_elim(4, [0, 2])
    assert hash(block_elim(4, [2, 0])) == hash(MonomialOrder("block", 4, (0, 2)))
    assert len({grevlex(3), grevlex(3), lex(3), grevlex(4), block_elim(3, [0])}) == 4
    assert grevlex(3) != lex(3) and block_elim(4, [0]) != block_elim(4, [1])
    assert repr(grevlex(2)) == "MonomialOrder(kind='grevlex', nvars=2, block=None)"


# -- packed monomials ------------------------------------------------------------

def _exponents(order, count=40):
    rng = random.Random(f"codec/{order}")
    n, top = order.nvars, order.codec.max_exp
    exps = [tuple(rng.randint(0, 4) for _ in range(n)) for _ in range(count)]
    exps += [tuple(rng.choice([0, 1, top - 1, top]) for _ in range(n)) for _ in range(count // 2)]
    return exps


@pytest.mark.parametrize("order", ORDERS, ids=lambda o: f"{_name(o)}-{o.nvars}")
def test_packed_monomials_follow_the_order(order):
    """Packed ints order pairs as the keys do, reversed; they decode to the
    exponents they were made from."""
    enc, dec = order.codec.enc, order.codec.dec
    exps = _exponents(order)
    if order.nvars <= 4:
        # every corner, so that each field meets its extremes together with
        # those of the fields next to it
        exps += list(itertools.product([0, 1, order.codec.max_exp], repeat=order.nvars))
    for a, b in itertools.product(exps, repeat=2):
        assert _cmp(enc(b), enc(a)) == _cmp(order.key(a), order.key(b))
    assert all(dec(enc(e)) == e for e in exps)
    # the largest monomial is the smallest int
    assert min(exps, key=enc) == max(exps, key=order.key)


@pytest.mark.parametrize("order", ORDERS, ids=lambda o: f"{_name(o)}-{o.nvars}")
def test_packed_products_and_divisibility(order):
    """m*(a/b) packs as m + (a - b), and b divides a exactly when
    (a - b) has no guard bit set; a product too large for the fields sets
    one."""
    codec = order.codec
    enc, guard, top = codec.enc, codec.guard, codec.max_exp
    exps = _exponents(order, 24)
    for a, b, m in itertools.product(exps, repeat=3):
        divides = all(x <= y for x, y in zip(b, a))
        assert (not (enc(a) - enc(b)) & guard) == divides
        if not divides:
            continue
        t = enc(m) + (enc(a) - enc(b))
        product = tuple(z + x - y for z, x, y in zip(m, a, b))
        if max(product, default=0) <= top:
            assert t == enc(product) and not t & guard
        else:
            assert t & guard


@pytest.mark.parametrize("order", [grevlex(3), lex(2), block_elim(4, [3, 1])],
                         ids=_name)
def test_exponents_too_large_for_the_fields_raise(order):
    top = order.codec.max_exp
    assert order.codec.dec(order.codec.enc((top,) * order.nvars)) == (top,) * order.nvars
    with pytest.raises(ResourceLimitError):
        order.codec.enc((0,) * (order.nvars - 1) + (top + 1,))
