"""Monomial orders: the compiled keys against the textbook formulas."""

import itertools
import random

import pytest

from segrekit.orders import MonomialOrder, block_elim, grevlex, lex


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


ORDERS = [grevlex(1), grevlex(4), lex(1), lex(4),
          block_elim(4, [0]), block_elim(5, [0, 1]), block_elim(5, [3, 1]),
          block_elim(6, [0, 2, 5]), block_elim(3, [])]


@pytest.mark.parametrize("order", ORDERS, ids=lambda o: f"{o.describe()}-{o.nvars}")
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
