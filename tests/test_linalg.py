import random

import pytest

from kquadric.linalg import det, integer_rank, spans_full_lattice


def _random_matrix(rng: random.Random, rows: int, cols: int) -> list[list[int]]:
    """Small entries; about a third of the matrices get a row that is an
    integer combination of two others, and some get a zero row or column."""
    mat = [[rng.randint(-3, 3) for _ in range(cols)] for _ in range(rows)]
    if rows >= 3 and rng.random() < 0.35:
        a, b, c = rng.sample(range(rows), 3)
        s, t = rng.randint(-2, 2), rng.randint(-2, 2)
        mat[c] = [s * x + t * y for x, y in zip(mat[a], mat[b])]
    elif rows >= 2 and rng.random() < 0.35:
        a, b = rng.sample(range(rows), 2)
        mat[b] = [rng.choice((-2, -1, 1, 2)) * x for x in mat[a]]
    if rng.random() < 0.1:
        mat[rng.randrange(rows)] = [0] * cols
    if rng.random() < 0.1:
        j = rng.randrange(cols)
        for row in mat:
            row[j] = 0
    return mat


def test_rank_and_determinant_match_sympy():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(20240)
    deficient = 0
    for _ in range(1500):
        rows, cols = rng.randint(1, 5), rng.randint(1, 5)
        mat = _random_matrix(rng, rows, cols)
        expected = sympy.Matrix(mat)
        rank = integer_rank(mat)
        assert rank == expected.rank(), mat
        deficient += rank < min(rows, cols)
        if rows == cols:
            assert det(mat) == expected.det(), mat
    assert deficient > 300  # the rank-deficient case is well covered


@pytest.mark.parametrize(
    "mat, rank, determinant",
    [
        ([], 0, 1),
        ([[0]], 0, 0),
        ([[7]], 1, 7),
        ([[0, 0], [0, 0]], 0, 0),
        ([[0, 0], [3, 4]], 1, 0),  # zero row first
        ([[0, 5], [0, 7]], 1, 0),  # zero column
        ([[0, 1], [1, 0]], 2, -1),  # one swap
        ([[0, 0, 1], [0, 1, 0], [1, 0, 0]], 3, -1),
        ([[0, 1, 0], [0, 0, 1], [1, 0, 0]], 3, 1),  # two swaps
        ([[0, 2, 1], [0, 4, 2], [3, 1, 1]], 2, 0),  # swap, then a dependent row
        ([[2, 4, 6], [1, 2, 3]], 1, None),  # wide, rank 1
        ([[1, 2], [3, 4], [5, 6]], 2, None),  # tall, full column rank
        ([[0, 0, 0], [0, 0, 0]], 0, None),
        ([[], []], 0, None),  # no columns
    ],
)
def test_small_cases(mat, rank, determinant):
    assert integer_rank(mat) == rank
    if determinant is not None:
        assert det(mat) == determinant


def test_inputs_are_not_modified():
    mat = [[0, 1], [2, 3]]
    integer_rank(mat)
    det(mat)
    assert mat == [[0, 1], [2, 3]]


def test_spans_full_lattice():
    basis = [[1 if i == j else 0 for j in range(3)] for i in range(3)]
    assert spans_full_lattice(basis, 3)
    assert not spans_full_lattice([[2 * x for x in row] for row in basis], 3)  # index 8
    assert spans_full_lattice(basis + [[2, 2, 2]], 3)  # an extra row keeps the span
    assert spans_full_lattice([[2, 0], [3, 0], [0, 1]], 2)  # no 2 x 2 minor is 1, but their gcd is
    assert not spans_full_lattice([[2, 0], [4, 0], [0, 1]], 2)
    assert not spans_full_lattice([], 2)
    with pytest.raises(ValueError):
        spans_full_lattice([[1, 0, 0]], 2)
