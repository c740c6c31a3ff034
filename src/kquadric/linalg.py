"""Exact integer linear algebra helpers: rank, determinant, lattice spanning.

Everything here works on plain Python integers, so there is no overflow and no
floating point anywhere.  Matrices are given as sequences of equal-length rows.
"""
from __future__ import annotations

from itertools import combinations
from math import gcd


def integer_rank(rows) -> int:
    """Rank over the rationals of an integer matrix, by fraction-free elimination."""
    mat = [list(row) for row in rows]
    if not mat:
        return 0
    n_cols = len(mat[0])
    rank = 0
    for col in range(n_cols):
        pivot = next((r for r in range(rank, len(mat)) if mat[r][col]), None)
        if pivot is None:
            continue
        mat[rank], mat[pivot] = mat[pivot], mat[rank]
        pivot_val = mat[rank][col]
        for r in range(rank + 1, len(mat)):
            if mat[r][col]:
                factor = mat[r][col]
                mat[r] = [pivot_val * x - factor * y for x, y in zip(mat[r], mat[rank])]
        rank += 1
        if rank == len(mat):
            break
    return rank


def det(rows) -> int:
    """Determinant of a square integer matrix (Bareiss fraction-free algorithm)."""
    mat = [list(row) for row in rows]
    n = len(mat)
    if n == 0:
        return 1
    sign = 1
    prev = 1
    for k in range(n - 1):
        if mat[k][k] == 0:
            pivot = next((i for i in range(k + 1, n) if mat[i][k]), None)
            if pivot is None:
                return 0
            mat[k], mat[pivot] = mat[pivot], mat[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                mat[i][j] = (mat[i][j] * mat[k][k] - mat[i][k] * mat[k][j]) // prev
            mat[i][k] = 0
        prev = mat[k][k]
    return sign * mat[-1][-1]


def spans_full_lattice(rows, m: int) -> bool:
    """True iff the integer row vectors of length m generate all of Z^m.

    That holds exactly when the m x m minors have gcd 1, which also forces
    rank m.
    """
    rows = [tuple(row) for row in rows]
    if any(len(row) != m for row in rows):
        raise ValueError(f"every row must have length {m}")
    g = 0
    for selection in combinations(rows, m):
        g = gcd(g, det(selection))
        if g == 1:
            return True
    return False
