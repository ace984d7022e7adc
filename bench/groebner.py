"""groebner workload: reduced grevlex bases of standard systems.

Every cycle computes the same 50 bases: Katsura-5, cyclic-5, 6 x Katsura-4,
6 x Katsura-3, 6 x cyclic-4, and 15 each of Katsura-3 and cyclic-4 after a
fresh seeded Q(i) change of coordinates.  The mix is fixed so that, whatever
the number of cycles, the latency median lands among the small systems and
the 90th percentile in the middle of the six Katsura-4 runs of a cycle (the
top tenth is Katsura-5, cyclic-5 and three Katsura-4), where it rests on
many samples of one system; the few large bases take most of the time."""

from __future__ import annotations

import random

import systems
from common import Op, basis_text, check_reduced_basis, expect, staircase

K3, K4, K5, C4, C5 = ("katsura", 3), ("katsura", 4), ("katsura", 5), ("cyclic", 4), ("cyclic", 5)
# (system, twisted?); the large ones are spread over the cycle so that their
# samples fall at different moments of the run
_BLOCK = [(K4, False), (K3, False), (K3, True), (C4, True), (C4, False), (K3, True), (C4, True)]
ORDER = (2 * _BLOCK + [(K5, False), (K3, True), (C4, True), (K3, True)]
         + 2 * _BLOCK + [(C5, False), (C4, True), (K3, True), (C4, True)] + 2 * _BLOCK)

# zero-dimensional solution counts (with multiplicity), or None for the
# positive-dimensional cyclic-4
EXPECTED_DEGREE = {K3: 8, K4: 16, K5: 32, C5: 70, C4: None}


class State:
    def __init__(self, sk, seed):
        self.sk = sk
        self.seed = seed
        self.plain = {spec: getattr(systems, spec[0])(sk, spec[1]) for spec, _ in ORDER}
        self.first_text = {}


def prepare(sk, seed, workdir):
    return State(sk, seed)


def _basis(sk, table, gens):
    return tuple(sk.groebner_basis(sk.Ideal.make(gens, sk.grevlex(len(table)), table)).generators)


def _op(state, spec, table, gens, label):
    sk = state.sk

    def check(basis, deep):
        text = basis_text(basis)
        first = state.first_text.setdefault(label, text)
        expect(text == first, f"{label}: basis differs from an earlier run")
        if first is not text and not deep:
            return text
        check_reduced_basis(basis, gens)
        zero_dim, degree = staircase(basis, len(table))
        want = EXPECTED_DEGREE[spec]
        if want is None:
            expect(not zero_dim, f"{label}: expected a positive-dimensional ideal")
            expect(len(basis) > 1, f"{label}: unexpected unit ideal")
        else:
            expect(zero_dim and degree == want, f"{label}: degree {degree}, expected {want}")
        return text

    return Op(kind=label.split("#")[0], shared=label, call=lambda: _basis(sk, table, gens), check=check)


def cycle(state, index):
    rng = random.Random(f"groebner/{state.seed}/{index}")
    ops = []
    for k, (spec, twisted) in enumerate(ORDER):
        table, gens = state.plain[spec]
        label = f"{spec[0]}-{spec[1]}"
        if twisted:
            gens = systems.twist(state.sk, table, gens, rng)
            label = f"twisted-{label}#{index}.{k}"
        ops.append(_op(state, spec, table, gens, label))
    return ops


def warmup(state):
    for spec in [K3, C4]:
        table, gens = state.plain[spec]
        _basis(state.sk, table, gens)

