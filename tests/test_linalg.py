"""Exact linear algebra over Q(i): rank and kernel share one row reduction;
signatures come from Hermitian congruence."""

import random
from fractions import Fraction

import pytest

from segrekit.gaussian import GaussianRational as QI
from segrekit.linalg import hermitian_signature, nullspace, rank


def mat(rows):
    return [[QI.from_value(x) for x in row] for row in rows]


def test_rank_and_nullspace_agree():
    A = mat([[1, 2, 0, 1], [2, 4, 0, 2], [0, 0, QI(0, 1), 1]])
    assert rank(A) == 2
    K = nullspace(A, 4)
    assert len(K) == 4 - rank(A)
    for v in K:
        assert all(sum((a * x for a, x in zip(row, v)), QI(0)).is_zero() for row in A)


def test_empty_and_zero_matrices():
    assert rank([]) == 0
    assert rank(mat([[0, 0], [0, 0]])) == 0
    assert len(nullspace([], 3)) == 3
    assert rank(mat([[1, 0], [0, 1], [1, 1]])) == 2


def test_signature_is_a_congruence_invariant():
    """Sylvester: P^H D P has the sign counts of D for every invertible P."""
    rng = random.Random(11)

    def entry():
        if rng.random() < 0.3:
            return QI(0)
        return QI(Fraction(rng.randint(-4, 4), rng.randint(1, 3)), rng.randint(-3, 3))

    for _ in range(60):
        n = rng.randint(1, 5)
        P = [[entry() for _ in range(n)] for _ in range(n)]
        if rank(P) < n:
            continue
        D = [rng.choice([-3, -1, 0, 0, Fraction(1, 2), 2]) for _ in range(n)]
        H = [[sum((P[k][a].conjugate() * D[k] * P[k][b] for k in range(n)), QI(0))
              for b in range(n)] for a in range(n)]
        want = (sum(d > 0 for d in D), sum(d < 0 for d in D), sum(d == 0 for d in D))
        assert hermitian_signature(H) == want


@pytest.mark.parametrize("H", [[[0, QI(0, 1)], [QI(0, -1), 0]], [[0, 1], [1, 0]]])
def test_zero_diagonal_signature(H):
    assert hermitian_signature(mat(H)) == (1, 1, 0)


@pytest.mark.parametrize("n", [0, 1, 3])
def test_zero_matrix_signature(n):
    assert hermitian_signature(mat([[0] * n for _ in range(n)])) == (0, 0, n)
