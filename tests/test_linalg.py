import random
from fractions import Fraction

from tiltbench.linalg import (
    Coordinates,
    Matrix,
    intersect_row_spaces,
    row_space_basis,
    row_spaces_equal,
)


def test_rank_identity_and_zero():
    assert Matrix.identity(3).rank() == 3
    assert Matrix.zero(2, 5).rank() == 0


def test_rank_proportional_rows():
    m = Matrix.from_rows([[1, 2], [2, 4]])
    assert m.rank() == 1


def test_kernel_identity_zero_and_relation():
    assert Matrix.identity(4).kernel_basis().cols == 0
    assert Matrix.zero(2, 3).kernel_basis().cols == 3
    k = Matrix.from_rows([[1, 1]]).kernel_basis()
    assert k.cols == 1
    # spans (1, -1)
    assert k.data[0][0] == -k.data[1][0] != 0


def test_solve_cases():
    b = Matrix.from_rows([[1], [2]])
    assert Matrix.identity(2).solve(b) == b
    assert Matrix.from_rows([[1], [1]]).solve(b) is None
    x = Matrix.from_rows([[2]]).solve(Matrix.from_rows([[1]]))
    assert x.data[0][0] == Fraction(1, 2)


def test_solve_substitutes_exactly_and_kernel_annihilates():
    rng = random.Random(0)
    for _ in range(25):
        r, c = rng.randint(0, 4), rng.randint(0, 4)
        m = Matrix(r, c, [[Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(c)] for _ in range(r)])
        ker = m.kernel_basis()
        assert (m * ker).is_zero()
        assert m.rank() + ker.cols == c
        x = Matrix(c, 1, [[Fraction(rng.randint(-2, 2))] for _ in range(c)])
        b = m * x
        sol = m.solve(b)
        assert sol is not None and m * sol == b


def test_zero_dimension_matrices_behave():
    z = Matrix.zero(0, 3)
    assert z.rank() == 0
    assert z.kernel_basis().cols == 3
    z2 = Matrix.zero(3, 0)
    assert z2.kernel_basis().cols == 0
    assert (z2.transpose() * z2).rows == 0


def test_inverse_and_det():
    m = Matrix.from_rows([[1, 2], [3, 5]])
    assert m.det() == -1
    inv = m.inverse()
    assert m * inv == Matrix.identity(2)
    assert Matrix.from_rows([[1, 2], [2, 4]]).inverse() is None


def test_row_space_helpers():
    a = Matrix.from_rows([[1, 0, 1], [0, 1, 1]])
    b = Matrix.from_rows([[1, 1, 2], [1, -1, 0]])
    assert row_spaces_equal(a, b)
    c = Matrix.from_rows([[1, 0, 0]])
    inter = intersect_row_spaces(a, c)
    assert inter.rows == 0
    inter2 = intersect_row_spaces(a, Matrix.from_rows([[2, 2, 4]]))
    assert inter2.rows == 1
    assert row_spaces_equal(row_space_basis(inter2), Matrix.from_rows([[1, 1, 2]]))


def test_coordinates_match_solve_on_transposed_rows():
    rng = random.Random(11)

    def entry():
        return Fraction(rng.randint(-3, 3) * (rng.random() < 0.6), rng.randint(1, 3))

    for _ in range(300):
        width = rng.randint(0, 5)
        rows = []
        for _ in range(rng.randint(0, 5)):
            kind = rng.random()
            if kind < 0.25 and rows:  # depends on earlier rows
                a, b = rng.choice(rows), rng.choice(rows)
                c = Fraction(rng.randint(-2, 2), rng.randint(1, 2))
                rows.append([x + c * y for x, y in zip(a, b)])
            elif kind < 0.35:
                rows.append([Fraction(0)] * width)
            else:
                rows.append([entry() for _ in range(width)])
        coords = Coordinates(rows, width)
        columns = Matrix(len(rows), width, rows).transpose() if rows else Matrix.zero(width, 0)
        for _ in range(4):
            if rows and rng.random() < 0.5:  # inside the span
                mix = [Fraction(rng.randint(-2, 2)) for _ in rows]
                v = [sum((m * row[j] for m, row in zip(mix, rows)), Fraction(0)) for j in range(width)]
            else:  # usually outside the span
                v = [entry() for _ in range(width)]
            sol = columns.solve(Matrix(width, 1, [[x] for x in v]))
            want = None if sol is None else list(sol.column(0))
            assert coords.of(v) == want
        ranks = [Matrix(k, width, rows[:k]).rank() for k in range(len(rows) + 1)]
        assert coords.independent == [k for k in range(len(rows)) if ranks[k + 1] > ranks[k]]
