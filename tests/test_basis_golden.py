"""Reduced bases pinned text for text against tests/basis_golden.json.

A faster engine must return the same reduced basis, element by element and
in the same order.  To write the golden file afresh from the current code:

    PYTHONPATH=src python tests/test_basis_golden.py > tests/basis_golden.json
"""

import json
import os
import random

import pytest

from segrekit.gaussian import GaussianRational as QI
from segrekit.ideal import buchberger
from segrekit.orders import block_elim, grevlex, lex
from segrekit.parsing import parse_poly
from segrekit.poly import Poly, VarTable

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "basis_golden.json")


def _table(names):
    return VarTable.make(list(names), conjugates=False)


def cyclic4():
    table = _table(["x1", "x2", "x3", "x4"])
    x = [Poly.var(table, n) for n in table.names]
    gens = []
    for k in range(1, 4):
        g = Poly.zero(table)
        for i in range(4):
            term = Poly.const(table, 1)
            for j in range(k):
                term = term * x[(i + j) % 4]
            g = g + term
        gens.append(g)
    gens.append(x[0] * x[1] * x[2] * x[3] - 1)
    return table, gens


def katsura3():
    n = 3
    table = _table([f"u{i}" for i in range(n + 1)])
    u = [Poly.var(table, name) for name in table.names]

    def var(l):
        return u[abs(l)] if abs(l) <= n else None

    gens = []
    for m in range(n):
        g = -u[m]
        for l in range(-n, n + 1):
            a, b = var(l), var(m - l)
            if a is not None and b is not None:
                g = g + a * b
        gens.append(g)
    lin = u[0] - 1
    for l in range(1, n + 1):
        lin = lin + u[l] * 2
    gens.append(lin)
    return table, gens


def twisted(system, seed):
    """The system after the seeded change x_i -> x_i + sum_{j>i} a_ij x_j,
    with small Gaussian integers a_ij."""
    table, gens = system()
    rng = random.Random(seed)
    xs = [Poly.var(table, name) for name in table.names]
    images = {}
    for i, name in enumerate(table.names):
        acc = xs[i]
        for x in xs[i + 1:]:
            acc = acc + x * QI(rng.randint(-2, 2), rng.randint(-1, 1))
        images[name] = acc
    return table, [g.substitute(images) for g in gens]


def twisted_cubic():
    table = _table(["t", "x", "y", "z"])
    gens = [parse_poly(s, table) for s in ("x - t", "y - t^2", "z - t^3")]
    return table, gens


def lex_system():
    table = _table(["x", "y", "z"])
    gens = [parse_poly(s, table) for s in
            ("x^2 + y^2 + z^2 - 1", "x*y - i*z", "x - y + (1/2+i)*z")]
    return table, gens


def cases():
    """name -> (table, generators, order)."""
    out = {}
    for name, build in [("cyclic-4", cyclic4), ("katsura-3", katsura3),
                        ("twisted-cyclic-4", lambda: twisted(cyclic4, 11)),
                        ("twisted-katsura-3", lambda: twisted(katsura3, 12))]:
        table, gens = build()
        out[name] = (table, gens, grevlex(len(table)))
    table, gens = twisted_cubic()
    out["twisted-cubic-block"] = (table, gens, block_elim(len(table), [0]))
    table, gens = lex_system()
    out["lex-qi"] = (table, gens, lex(len(table)))
    return out


def text_in_order(g, order):
    """g printed term by term, in descending ``order``: each term as the
    one-term polynomial prints it, joined as a polynomial prints."""
    pieces = [str(Poly(g.table, {m: g.terms[m]}))
              for m in sorted(g.terms, key=order.key, reverse=True)]
    return pieces[0] + "".join(p if p.startswith("-") else "+" + p for p in pieces[1:])


def basis_texts():
    return {name: [text_in_order(g, order) for g in buchberger(gens, order)]
            for name, (table, gens, order) in cases().items()}


def _load_golden():
    with open(GOLDEN_PATH) as fh:
        return json.load(fh)


GOLDEN = _load_golden() if __name__ != "__main__" else {}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_basis_matches_golden(name):
    table, gens, order = cases()[name]
    assert [text_in_order(g, order) for g in buchberger(gens, order)] == GOLDEN[name]


def test_golden_covers_every_case():
    assert sorted(GOLDEN) == sorted(cases())


if __name__ == "__main__":
    print(json.dumps(basis_texts(), indent=1, sort_keys=True))
