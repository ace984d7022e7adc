"""Exact dense linear algebra over Q(i): row reduction, and Hermitian
congruence for signatures."""

from __future__ import annotations

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


def hermitian_signature(H: Sequence[Sequence[GaussianRational]]) -> Tuple[int, int, int]:
    """Signature (positives, negatives, zeros) of a Hermitian matrix over Q(i).

    Hermitian congruence A -> P^H A P keeps the signature (Sylvester's law
    of inertia) and the diagonal real.  Each step moves a nonzero diagonal
    entry to the pivot and passes on the Schur complement of the pivot.  When
    the whole remaining diagonal is zero and A[p][j] is not, row p += c*row j
    and column p += conj(c)*column j with c = conj(A[j][p]) make the pivot
    2|A[j][p]|^2.
    """
    A = [[GaussianRational.from_value(x) for x in row] for row in H]
    n = len(A)
    pos = neg = 0
    for k in range(n):
        p = next((i for i in range(k, n) if not A[i][i].is_zero()), None)
        if p is None:
            p, j = next(((i, j) for i in range(k, n) for j in range(i + 1, n)
                         if not A[i][j].is_zero()), (None, None))
            if p is None:
                break
            c = A[j][p].conjugate()
            A[p] = [a + c * b for a, b in zip(A[p], A[j])]
            for row in A:
                row[p] = row[p] + c.conjugate() * row[j]
        A[k], A[p] = A[p], A[k]
        for row in A:
            row[k], row[p] = row[p], row[k]
        piv = A[k][k]
        if piv.re_positive():
            pos += 1
        else:
            neg += 1
        inv = QI_ONE / piv
        for r in range(k + 1, n):
            f = A[r][k] * inv
            if not f.is_zero():
                for s in range(k + 1, n):
                    A[r][s] = A[r][s] - f * A[k][s]
    return pos, neg, n - pos - neg
