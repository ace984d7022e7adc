"""Monomial orders: grevlex, lex, and elimination block orders.

An order exposes `key(exponents) -> sortable`, with key(a) > key(b) exactly
when monomial a is larger.  Keys are flat tuples of ints, so that the
negated key ``tuple(map(neg, key(m)))`` sorts the other way round.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import neg
from typing import Optional


def _grevlex_key(exps):
    # total degree, then the reversed exponents negated
    return (sum(exps), *map(neg, reversed(exps)))


def _block_key(outer, inner):
    """grevlex on the eliminated variables, ties broken by grevlex on the rest."""
    rev_outer, rev_inner = outer[::-1], inner[::-1]

    def key(exps):
        return (sum([exps[i] for i in outer]), *[-exps[i] for i in rev_outer],
                sum([exps[i] for i in inner]), *[-exps[i] for i in rev_inner])

    return key


@dataclass(frozen=True)
class MonomialOrder:
    kind: str                      # "grevlex" | "lex" | "block"
    nvars: int
    block: Optional[tuple] = None  # eliminated variable indices, for "block"

    def __post_init__(self):
        # the key function is built once here; it is not a field, so
        # equality and hashing still see (kind, nvars, block) alone
        if self.kind == "grevlex":
            compiled = _grevlex_key
        elif self.kind == "lex":
            compiled = tuple
        else:
            blk = set(self.block)
            compiled = _block_key([i for i in range(self.nvars) if i in blk],
                                  [i for i in range(self.nvars) if i not in blk])
        object.__setattr__(self, "_compiled", compiled)

    def key(self, exps):
        return self._compiled(exps)

    def describe(self) -> str:
        if self.kind == "block":
            return f"block(elim={sorted(self.block)})"
        return self.kind


def grevlex(nvars: int) -> MonomialOrder:
    return MonomialOrder("grevlex", nvars)


def lex(nvars: int) -> MonomialOrder:
    return MonomialOrder("lex", nvars)


def block_elim(nvars: int, elim_indices) -> MonomialOrder:
    return MonomialOrder("block", nvars, tuple(sorted(elim_indices)))
