"""Standard polynomial systems for the groebner workload, built from
segrekit's own Poly type: cyclic-n, Katsura-n and seeded Q(i) linear changes
of coordinates of them."""

from __future__ import annotations

import random


def _table(sk, names):
    return sk.VarTable.make(list(names), conjugates=False)


def _mono(n, idx):
    m = [0] * n
    for i in idx:
        m[i] += 1
    return tuple(m)


def cyclic(sk, n):
    """Cyclic-n: the elementary cyclic sums of x1..xn, and x1*...*xn - 1."""
    table = _table(sk, [f"x{i + 1}" for i in range(n)])
    gens = []
    for k in range(1, n):
        terms = {}
        for i in range(n):
            m = _mono(n, [(i + j) % n for j in range(k)])
            terms[m] = terms.get(m, 0) + 1
        gens.append(sk.Poly(table, terms))
    gens.append(sk.Poly(table, {(1,) * n: 1, (0,) * n: -1}))
    return table, gens


def katsura(sk, n):
    """Katsura-n in u0..un; it has 2^n solutions counted with multiplicity."""
    nv = n + 1
    table = _table(sk, [f"u{i}" for i in range(nv)])

    def idx(m):
        m = abs(m)
        return m if m <= n else None

    gens = []
    for m in range(n):
        terms = {}
        for l in range(-n, n + 1):
            a, b = idx(l), idx(m - l)
            if a is None or b is None:
                continue
            mono = _mono(nv, [a, b])
            terms[mono] = terms.get(mono, 0) + 1
        lin = _mono(nv, [m])
        terms[lin] = terms.get(lin, 0) - 1
        gens.append(sk.Poly(table, terms))
    lin = {_mono(nv, [0]): 1, (0,) * nv: -1}
    for l in range(1, n + 1):
        lin[_mono(nv, [l])] = 2
    gens.append(sk.Poly(table, lin))
    return table, gens


def twist(sk, table, gens, rng: random.Random):
    """Apply x -> L*U*x with L, U unit triangular over small Gaussian
    integers: an invertible linear change that keeps the solution count and
    the dimension, but makes the coefficients of the basis grow."""
    n = len(table)
    qi = sk.GaussianRational

    def small():
        return qi(rng.randint(-2, 2), rng.randint(-1, 1))

    L = [[qi(1) if i == j else (small() if j < i else qi(0)) for j in range(n)]
         for i in range(n)]
    U = [[qi(1) if i == j else (small() if j > i else qi(0)) for j in range(n)]
         for i in range(n)]
    A = [[sum((L[i][k] * U[k][j] for k in range(n)), qi(0)) for j in range(n)]
         for i in range(n)]
    xs = [sk.Poly.var(table, name) for name in table.names]
    images = {}
    for i, name in enumerate(table.names):
        acc = sk.Poly.zero(table)
        for j in range(n):
            if not A[i][j].is_zero():
                acc = acc + xs[j] * A[i][j]
        images[name] = acc
    return [g.substitute(images) for g in gens]
