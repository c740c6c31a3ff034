"""Exact integer linear algebra helpers: rank, determinant, lattice spanning.

Everything here works on plain Python integers, so there is no overflow and no
floating point anywhere.  Matrices are given as sequences of equal-length rows.
"""
from __future__ import annotations

from itertools import combinations
from math import gcd


def _echelon(rows) -> tuple[list[int], int]:
    """Bareiss fraction-free row echelon form of an integer matrix: its pivots
    in order, and the sign of the row swaps made.  Every division is exact,
    and after r pivots the last one is the r x r minor on the pivot rows and
    columns, so at full rank a square matrix's determinant is sign * last."""
    mat = [list(row) for row in rows]
    pivots = []
    sign = prev = 1
    for col in range(len(mat[0]) if mat else 0):
        r = len(pivots)
        below = next((i for i in range(r, len(mat)) if mat[i][col]), None)
        if below is None:
            continue
        if below != r:
            mat[r], mat[below] = mat[below], mat[r]
            sign = -sign
        pivot = mat[r][col]
        for i in range(r + 1, len(mat)):
            factor = mat[i][col]
            mat[i] = [(pivot * x - factor * y) // prev for x, y in zip(mat[i], mat[r])]
        pivots.append(pivot)
        prev = pivot
    return pivots, sign


def integer_rank(rows) -> int:
    """Rank over the rationals of an integer matrix."""
    return len(_echelon(rows)[0])


def det(rows) -> int:
    """Determinant of a square integer matrix; 1 for the empty matrix."""
    rows = list(rows)
    pivots, sign = _echelon(rows)
    if len(pivots) < len(rows):
        return 0
    return sign * pivots[-1] if pivots else 1


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
