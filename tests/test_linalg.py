"""Exact linear algebra over Q(i): rank and kernel share one row reduction."""

from segrekit.gaussian import GaussianRational as QI
from segrekit.linalg import nullspace, rank


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
