"""Exact dense linear algebra over Q(i) and over Q (for signatures)."""

from __future__ import annotations

from fractions import Fraction
from typing import List, Sequence, Tuple

from .gaussian import QI_ONE, QI_ZERO, GaussianRational

Matrix = List[List[GaussianRational]]


def _row_reduce(A: Sequence[Sequence[GaussianRational]], ncols: int) -> Tuple[Matrix, List[int]]:
    """Reduced row echelon form of A over its first `ncols` columns: the
    rows (pivot rows first) and the pivot columns."""
    M = [[GaussianRational.from_value(x) for x in row] for row in A]
    rows = len(M)
    pivots: List[int] = []
    for c in range(ncols):
        r = len(pivots)
        if r == rows:
            break
        piv = next((i for i in range(r, rows) if not M[i][c].is_zero()), None)
        if piv is None:
            continue
        M[r], M[piv] = M[piv], M[r]
        inv = QI_ONE / M[r][c]
        M[r] = [x * inv for x in M[r]]
        for i in range(rows):
            if i != r and not M[i][c].is_zero():
                f = M[i][c]
                M[i] = [a - f * b for a, b in zip(M[i], M[r])]
        pivots.append(c)
    return M, pivots


def rank(A: Sequence[Sequence[GaussianRational]]) -> int:
    return len(_row_reduce(A, len(A[0]) if A else 0)[1])


def nullspace(A: Sequence[Sequence[GaussianRational]], ncols: int) -> List[List[GaussianRational]]:
    """Basis of the right kernel of A (rows may be empty)."""
    M, pivots = _row_reduce(A, ncols)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        v = [QI_ZERO] * ncols
        v[fc] = QI_ONE
        for i, pc in enumerate(pivots):
            v[pc] = -M[i][fc]
        basis.append(v)
    return basis


def real_symmetric_signature(S: Sequence[Sequence[Fraction]]) -> Tuple[int, int, int]:
    """Signature (positives, negatives, zeros) of a rational symmetric matrix
    by congruence diagonalization (symmetric Gaussian elimination)."""
    M = [[Fraction(x) for x in row] for row in S]
    n = len(M)
    pos = neg = zero = 0
    for k in range(n):
        if M[k][k] == 0:
            swap = next((j for j in range(k + 1, n) if M[j][j] != 0), None)
            if swap is not None:
                # congruent swap of rows/columns k <-> swap
                M[k], M[swap] = M[swap], M[k]
                for row in M:
                    row[k], row[swap] = row[swap], row[k]
            else:
                off = next(
                    ((i, j) for i in range(k, n) for j in range(i + 1, n) if M[i][j] != 0),
                    None,
                )
                if off is None:
                    zero += n - k
                    break
                i, j = off
                # row/col addition makes a nonzero diagonal entry at i
                M[i] = [a + b for a, b in zip(M[i], M[j])]
                for row in M:
                    row[i] = row[i] + row[j]
                if i != k:
                    M[k], M[i] = M[i], M[k]
                    for row in M:
                        row[k], row[i] = row[i], row[k]
        piv = M[k][k]
        if piv == 0:
            zero += 1
            continue
        if piv > 0:
            pos += 1
        else:
            neg += 1
        for i in range(k + 1, n):
            if M[i][k] != 0:
                f = M[i][k] / piv
                M[i] = [a - f * b for a, b in zip(M[i], M[k])]
                for row in M:
                    row[i] = row[i] - f * row[k]
    return pos, neg, zero


def hermitian_signature(H: Sequence[Sequence[GaussianRational]]) -> Tuple[int, int, int]:
    """Signature of a Hermitian matrix over Q(i), via its realification.

    The 2n x 2n real symmetric matrix [[Re H, -Im H], [Im H, Re H]] has twice
    the Hermitian signature.
    """
    n = len(H)
    S = [[Fraction(0)] * (2 * n) for _ in range(2 * n)]
    for a in range(n):
        for b in range(n):
            h = GaussianRational.from_value(H[a][b])
            S[a][b] = h.re
            S[a][n + b] = -h.im
            S[n + a][b] = h.im
            S[n + a][n + b] = h.re
    pos, neg, zero = real_symmetric_signature(S)
    assert pos % 2 == 0 and neg % 2 == 0 and zero % 2 == 0
    return pos // 2, neg // 2, zero // 2
