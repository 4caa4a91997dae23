import itertools
import random
from fractions import Fraction

import pytest

from tiltbench.errors import DimensionMismatch, TiltbenchError
from tiltbench.linalg import (
    Basis,
    Matrix,
    div,
    frac,
    sparse_combination,
    sparse_kernel,
    sparse_left_kernel,
    sparse_row_space,
)


def matrix(rows):
    """The Matrix with the given list of rows."""
    return Matrix(len(rows), len(rows[0]) if rows else 0, rows)


def canonical(x):
    """An exact scalar in canonical form: an int, or a Fraction that is not
    integral."""
    return type(x) is int or (type(x) is Fraction and x.denominator != 1)


def exact(x):
    """An exact scalar, canonical or not: never a float, string or bool."""
    return type(x) is int or type(x) is Fraction


def test_div_gives_canonical_quotients():
    assert div(6, 3) == 2 and type(div(6, 3)) is int
    assert div(-6, 3) == -2 and type(div(-6, 3)) is int
    assert div(0, -5) == 0 and type(div(0, -5)) is int
    assert div(6, 4) == Fraction(3, 2) and type(div(6, 4)) is Fraction
    assert div(-1, 3) == Fraction(-1, 3) and div(1, -3) == Fraction(-1, 3)
    # mixed and Fraction inputs: canonical whichever way the quotient falls
    assert div(Fraction(3, 2), Fraction(1, 2)) == 3 and type(div(Fraction(3, 2), Fraction(1, 2))) is int
    assert div(3, Fraction(3)) == 1 and type(div(3, Fraction(3))) is int
    assert div(Fraction(4), 2) == 2 and type(div(Fraction(4), 2)) is int
    assert div(1, Fraction(2, 3)) == Fraction(3, 2) and type(div(1, Fraction(2, 3))) is Fraction
    assert div(Fraction(1, 2), 3) == Fraction(1, 6)
    for a, b in [(1, 0), (0, 0), (Fraction(1, 2), 0), (1, Fraction(0)), (Fraction(0), Fraction(0))]:
        with pytest.raises(ZeroDivisionError):
            div(a, b)
    with pytest.raises(TypeError):
        div(1.0, 2)
    rng = random.Random(5)
    scalars = [rng.randint(-12, 12) for _ in range(40)] + [Fraction(rng.randint(-12, 12), rng.randint(1, 6)) for _ in range(40)]
    for a in scalars:
        for b in scalars:
            if b:
                q = div(a, b)
                assert canonical(q) and q == Fraction(a) / Fraction(b)
    assert all(canonical(frac(x)) for x in scalars + ["-3/4", "6/3", 0.5, 2.0, True])
    assert frac(Fraction(6, 3)) == 2 and type(frac(Fraction(6, 3))) is int
    assert frac(True) == 1 and type(frac(True)) is int


def rank(m):
    """The rank of m: the number of its RREF rows."""
    return len(sparse_row_space([_sparse(row) for row in m.data]))


def test_rank_identity_and_zero():
    assert rank(Matrix.identity(3)) == 3
    assert rank(Matrix.zero(2, 5)) == 0


def test_rank_proportional_rows():
    m = matrix([[1, 2], [2, 4]])
    assert rank(m) == 1


def test_kernel_identity_zero_and_relation():
    assert sparse_left_kernel([{i: 1} for i in range(4)]) == []
    assert sparse_left_kernel([{}, {}, {}]) == [{0: 1}, {1: 1}, {2: 1}]
    assert sparse_kernel([{}, {}], 3) == [{0: 1}, {1: 1}, {2: 1}]
    # the rows (1) and (1): the left kernel is spanned by (-1, 1)
    assert sparse_left_kernel([{0: 1}, {0: 1}]) == [{0: -1, 1: 1}]


def test_solve_cases():
    b = matrix([[1], [2]])
    assert Matrix.identity(2).solve(b) == b
    assert matrix([[1], [1]]).solve(b) is None
    x = matrix([[2]]).solve(matrix([[1]]))
    assert x.data[0][0] == Fraction(1, 2)


def test_solve_substitutes_exactly_and_kernel_annihilates():
    rng = random.Random(0)
    for _ in range(25):
        r, c = rng.randint(0, 4), rng.randint(0, 4)
        m = Matrix(r, c, [[Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(c)] for _ in range(r)])
        rows = [_sparse(row) for row in m.data]
        ker = sparse_kernel(rows, c)
        assert all(sum(x * vec.get(j, 0) for j, x in row.items()) == 0 for row in rows for vec in ker)
        assert rank(m) + len(ker) == c
        left = sparse_left_kernel(rows)
        assert all(sparse_combination(vec, rows) == {} for vec in left) and rank(m) + len(left) == r
        x = Matrix(c, 1, [[Fraction(rng.randint(-2, 2))] for _ in range(c)])
        b = m * x
        sol = m.solve(b)
        assert sol is not None and m * sol == b


def test_zero_dimension_matrices_behave():
    z = Matrix.zero(0, 3)
    assert rank(z) == 0
    # no rows of width 3: the right kernel is everything, the left kernel empty
    assert sparse_kernel([], 3) == [{0: 1}, {1: 1}, {2: 1}]
    assert sparse_left_kernel([]) == []
    # three empty rows of width 0: the right kernel is empty, the left kernel everything
    z2 = Matrix.zero(3, 0)
    assert sparse_kernel([{}, {}, {}], 0) == []
    assert sparse_left_kernel([_sparse(row) for row in z2.data]) == [{0: 1}, {1: 1}, {2: 1}]
    assert (z2.transpose() * z2).rows == 0


def test_identity_and_zero_constructors():
    assert Matrix.identity(3) == Matrix(3, 3, [[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    assert Matrix.zero(2, 3) == Matrix(2, 3, [[0, 0, 0], [0, 0, 0]])
    assert Matrix.identity(0) == Matrix(0, 0, [])
    assert all(type(x) is int for row in Matrix.identity(3).data for x in row)
    assert Matrix.identity(3).is_identity() and Matrix.identity(0).is_identity()
    assert not Matrix.zero(2, 2).is_identity()
    assert not matrix([[1, 0, 0], [0, 1, 0]]).is_identity()
    for bad in (lambda: Matrix.zero(-1, 2), lambda: Matrix.identity(-1)):
        with pytest.raises(DimensionMismatch):
            bad()


def test_inverse_and_det():
    m = matrix([[1, 2], [3, 5]])
    assert leibniz_det(m.data) == -1
    inv = m.inverse()
    assert m * inv == Matrix.identity(2)
    assert inv == matrix([[-5, 2], [3, -1]]) and all(type(x) is int for row in inv.data for x in row)
    assert matrix([[1, 2], [2, 4]]).inverse() is None


def test_row_space_helpers():
    a = [{0: 1, 2: 1}, {1: 1, 2: 1}]
    b = matrix([[1, 1, 2], [1, -1, 0]])
    assert sparse_row_space([_sparse(r) for r in b.data]) == a == sparse_row_space(a)
    assert sparse_row_space([{0: 1, 2: 1}, {1: 1}]) != a
    assert sparse_row_space([{}, {}]) == []
    assert Basis(b.data, b.cols).coordinates([2, 2, 4]) == {0: 2}
    with pytest.raises(TiltbenchError):
        Basis(b.data, b.cols).coordinates([1, 0, 0])


def _solved(basis, v, count):
    """basis.coordinates(v) written out on all ``count`` rows offered to
    the basis, 0 on the rows left out, or None when v is outside the span."""
    try:
        coords = basis.coordinates(v)
    except TiltbenchError:
        return None
    out = [0] * count
    for k, c in coords.items():
        out[basis.positions[k]] = c
    return out


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
        coords = Basis(rows, width)
        grown = Basis([], width)  # the same rows, added one at a time
        added = [grown.add_or_coords(row) is None for row in rows]
        sparse = Basis([_sparse(row) for row in rows], width)  # the same rows as dicts
        independent = [k for k, new in enumerate(added) if new]
        assert grown.positions == coords.positions == sparse.positions == independent
        assert grown.rows == coords.rows == [rows[k] for k in independent]
        columns = [[row[j] for row in rows] for j in range(width)]
        transposed = Matrix(width, len(rows), columns)
        for _ in range(4):
            if rows and rng.random() < 0.5:  # inside the span
                mix = [Fraction(rng.randint(-2, 2)) for _ in rows]
                v = [sum((m * row[j] for m, row in zip(mix, rows)), Fraction(0)) for j in range(width)]
            else:  # usually outside the span
                v = [entry() for _ in range(width)]
            solved = transposed.solve(Matrix(width, 1, [[x] for x in v]))
            want = None if solved is None else [x[0] for x in solved.data]
            sol = fraction_solve(width, len(rows), columns, [[x] for x in v], 1)
            assert want == (None if sol is None else [x[0] for x in sol])
            n = len(rows)
            assert _solved(coords, v, n) == _solved(grown, v, n) == _solved(sparse, v, n) == want
            assert _solved(sparse, _sparse(v), n) == want
        # add_or_coords takes only the independent rows; a dependent or zero
        # row gets its coordinates on the rows taken before it
        kept = []
        span = Basis([], width)
        for k, row in enumerate(rows):
            got = span.add_or_coords(row if k % 2 else _sparse(row))
            sol = fraction_solve(width, len(kept), [[r[j] for r in kept] for j in range(width)], [[x] for x in row], 1)
            if k in independent:
                assert got is None and sol is None
                kept.append(row)
            else:
                assert got == _sparse([x[0] for x in sol])
        assert len(span.rows) == len(kept) and span.positions == independent
        ranks = [len(fraction_gauss_jordan(k, width, rows[:k])[1]) for k in range(len(rows) + 1)]
        assert coords.positions == [k for k in range(len(rows)) if ranks[k + 1] > ranks[k]]


def fraction_gauss_jordan(rows, cols, data):
    """Reference: Gauss-Jordan on Fractions, each pivot row scaled to 1 first."""
    m = [list(row) for row in data]
    pivots = []
    r = 0
    for c in range(cols):
        if r == rows:
            break
        pr = next((i for i in range(r, rows) if m[i][c] != 0), None)
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        inv = 1 / m[r][c]
        m[r] = [x * inv for x in m[r]]
        for i in range(rows):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
    return m, pivots


def fraction_kernel(rows, cols, data):
    """Reference: the right kernel basis read off ``fraction_gauss_jordan``,
    one vector per free column j, with 1 at j and minus the reduced entries
    of column j at the pivots."""
    red, pivots = fraction_gauss_jordan(rows, cols, data)
    out = []
    for j in range(cols):
        if j not in pivots:
            vec = [Fraction(0)] * cols
            vec[j] = Fraction(1)
            for r, p in enumerate(pivots):
                vec[p] = -red[r][j]
            out.append(tuple(vec))
    return out


def fraction_solve(rows, cols, data, rhs, width):
    """Reference: the x with data * x == rhs (rhs has ``width`` columns) that
    is zero at the free columns, read off ``fraction_gauss_jordan`` on the
    augmented rows; None when a pivot falls in the rhs block."""
    red, pivots = fraction_gauss_jordan(rows, cols + width, [list(a) + list(b) for a, b in zip(data, rhs)])
    if pivots and pivots[-1] >= cols:
        return None
    x = [[Fraction(0)] * width for _ in range(cols)]
    for r, p in enumerate(pivots):
        x[p] = red[r][cols:]
    return x


def leibniz_det(data):
    """Reference: the determinant as the signed sum over permutations."""
    n = len(data)
    total = 0
    for perm in itertools.permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        term = (-1) ** inversions
        for i, j in enumerate(perm):
            term *= data[i][j]
        total += term
    return total


def test_integral_inverse_exactly_when_det_is_unit():
    """The K0 check of verify_tilting: a square integer matrix has
    determinant +-1 exactly when ``inverse()`` returns a matrix of ints."""
    rng = random.Random(1982)
    cases = [
        [],
        [[2, 0], [0, 1]],  # det 2
        [[0, 1], [1, 0]],  # det -1
        [[1, 2, 3], [2, 4, 6], [0, 1, 1]],  # det 0
        [[1, 1, 0], [0, 1, 1], [1, 0, 1]],  # det 2, not unimodular though invertible
    ]
    cases += [[[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)] for n in range(6) for _ in range(60)]
    units = nonunits = singular = 0
    for data in cases:
        n = len(data)
        det = leibniz_det(data)
        inv = Matrix(n, n, data).inverse()
        integral = inv is not None and all(type(x) is int for row in inv.data for x in row)
        assert integral == (det in (1, -1)), data
        assert (inv is None) == (det == 0), data
        units += integral
        nonunits += det not in (0, 1, -1)
        singular += det == 0
    assert units > 30 and nonunits > 30 and singular > 30


def test_rref_matches_fraction_gauss_jordan():
    """rref, solve and inverse, and the sparse right and left kernels from
    the same reduction, against the Fraction reference."""
    rng = random.Random(1968)
    consistent = inconsistent = singular = 0
    for case in range(400):
        big = case % 3 == 0
        if case % 25 == 0:
            rows, cols = rng.choice([(0, rng.randint(0, 6)), (rng.randint(0, 6), 0)])
        else:  # wide, tall and square
            rows, cols = rng.randint(1, 8), rng.randint(1, 8)

        def entry():
            if rng.random() < 0.3:
                return Fraction(0)
            bound = 10**30 if big else 9
            den = rng.choice([1, 1, 2, 3, 4, 6, 7, 10**15 if big else 5])
            return Fraction(rng.randint(-bound, bound), den)

        data = [[entry() for _ in range(cols)] for _ in range(rows)]
        if rows and rng.random() < 0.3:
            data[rng.randrange(rows)] = [Fraction(0)] * cols
        if cols and rng.random() < 0.3:
            j = rng.randrange(cols)
            for row in data:
                row[j] = Fraction(0)
        if rows >= 3 and rng.random() < 0.5:  # a row that depends on two others
            i, k, l = rng.sample(range(rows), 3)
            a, b = Fraction(rng.randint(-5, 5), rng.randint(1, 4)), Fraction(rng.randint(-5, 5), rng.randint(1, 4))
            data[i] = [a * x + b * y for x, y in zip(data[k], data[l])]
        want, want_pivots = fraction_gauss_jordan(rows, cols, data)
        m = Matrix(rows, cols, data)
        red, pivots = m.rref()
        assert pivots == want_pivots
        assert (red.rows, red.cols) == (rows, cols)
        assert [list(row) for row in red.data] == want
        # the left kernel of m is the right kernel of its transpose
        sparse = [_sparse(row) for row in data]
        ker = sparse_kernel(sparse, cols)
        assert ker == [_sparse(vec) for vec in fraction_kernel(rows, cols, data)]
        left = sparse_left_kernel(sparse)
        want_left = fraction_kernel(cols, rows, [[row[j] for row in data] for j in range(cols)])
        assert left == [_sparse(vec) for vec in want_left]
        assert all(x != 0 and canonical(x) for vec in ker + left for x in vec.values())
        # solve: b = m * x is consistent; a random b usually is not when m
        # has fewer pivots than rows
        width = rng.randint(1, 2)
        x = Matrix(cols, width, [[entry() for _ in range(width)] for _ in range(cols)])
        solved = []
        for b in (m * x, Matrix(rows, width, [[entry() for _ in range(width)] for _ in range(rows)])):
            sol = m.solve(b)
            want_sol = fraction_solve(rows, cols, data, b.data, width)
            assert (None if sol is None else [list(row) for row in sol.data]) == want_sol
            solved.append(sol)
        consistent += solved[0] is not None
        inconsistent += solved[1] is None
        # inverse of the leading square block, singular when a zero or
        # dependent row or a zero column lands in it
        k = min(rows, cols)
        block = [row[:k] for row in data[:k]]
        inv = Matrix(k, k, block).inverse()
        identity = [[Fraction(int(i == j)) for j in range(k)] for i in range(k)]
        assert (None if inv is None else [list(row) for row in inv.data]) == fraction_solve(k, k, block, identity, k)
        singular += inv is None
        results = [red, *(r for r in solved + [inv] if r is not None)]
        assert all(canonical(x) for result in results for row in result.data for x in row)
    assert consistent == 400 and inconsistent > 50 and 50 < singular < 350


def test_matrix_operations_hold_only_exact_scalars():
    rng = random.Random(7)

    def rand(rows, cols):
        return Matrix(rows, cols, [[Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(cols)] for _ in range(rows)])

    a, b, c = rand(3, 4), rand(3, 4), rand(4, 2)
    sq = matrix([[2, 1, 0], [Fraction(1, 2), -3, 1], [0, 4, Fraction(-5, 7)]])
    # constructors and elimination give canonical scalars
    canonical_results = [
        a,
        a.rref()[0],
        a.solve(a * c),
        sq.inverse(),
        Matrix.identity(3),
        Matrix.zero(2, 3),
        Matrix.zero(0, 3).rref()[0],
        Matrix.zero(3, 0).rref()[0],
    ]
    # arithmetic gives ints and Fractions, integral Fractions included
    arithmetic_results = [
        a + b,
        a - b,
        -a,
        a * c,
        a.scale(Fraction(-2, 3)),
        a.scale(2),
        a.scale(Fraction(4, 2)),
        a.transpose(),
        Matrix.zero(0, 3).transpose(),
        Matrix.zero(3, 0).transpose(),
        Matrix.zero(2, 0) * Matrix.zero(0, 3),
    ]
    assert sq.inverse() is not None and a.solve(a * c) is not None
    for m in canonical_results:
        assert all(canonical(x) for row in m.data for x in row)
    for m in canonical_results + arithmetic_results:
        assert all(exact(x) for row in m.data for x in row)
        assert m == Matrix(m.rows, m.cols, [list(row) for row in m.data])
    data = Matrix(1, 6, [[2, "-3/4", Fraction(1, 2), Fraction(6, 3), "5", 0.25]]).data
    assert data == ((2, Fraction(-3, 4), Fraction(1, 2), 2, 5, Fraction(1, 4)),)
    assert all(canonical(x) for x in data[0])
    assert [type(x) for x in Matrix(1, 3, [[True, 2.0, False]]).data[0]] == [int, int, int]
    for rows, cols, data in [(2, 2, [[1, 2], [3]]), (2, 2, [[1, 2]]), (1, 2, [[1, 2, 3]]), (0, 1, [[1]]), (-1, 0, [])]:
        with pytest.raises(DimensionMismatch):
            Matrix(rows, cols, data)


def test_sparse_kernel_is_the_rref_kernel_basis():
    rng = random.Random(8)
    for _ in range(400):
        rows, cols = rng.randint(0, 8), rng.randint(0, 8)
        density = rng.choice([0.2, 0.5, 0.9])
        data = [
            [Fraction(rng.randint(-3, 3), rng.randint(1, 3)) if rng.random() < density else Fraction(0) for _ in range(cols)]
            for _ in range(rows)
        ]
        if rows > 1:
            data.append([a - 2 * b for a, b in zip(data[0], data[-1])])  # a dependent row
        sparse = sparse_kernel([_sparse(row) for row in data], cols)
        assert sparse == [_sparse(vec) for vec in fraction_kernel(len(data), cols, data)]
        # sorted {column: scalar} dicts, no zero entry, canonical scalars
        for vec in sparse:
            assert type(vec) is dict and list(vec) == sorted(vec)
            assert all(x != 0 and canonical(x) for x in vec.values())
    # integer entries and an empty row
    assert sparse_kernel([{0: 2, 2: -4}, {}, {1: 1}], 3) == [{0: 2, 2: 1}]
    assert sparse_kernel([], 2) == [{0: 1}, {1: 1}]


def test_coordinates_add_or_coords_reduces_once():
    span = Basis([], 3)
    assert span.add_or_coords([1, 0, 1]) is None
    assert span.add_or_coords([0, 1, 1]) is None
    assert span.add_or_coords([2, 3, 5]) == {0: 2, 1: 3}
    assert len(span.rows) == 2  # a dependent row is left out, but counts in positions
    assert span.add_or_coords([0, 0, 1]) is None and span.positions == [0, 1, 3]
    assert span.coordinates([2, 3, 6]) == {0: 2, 1: 3, 2: 1}


def _sparse(v):
    return {j: x for j, x in enumerate(v) if x}


def test_basis_coordinates_match_fraction_solve():
    # by hand: row 2 depends on rows 0 and 1, so it is left out of the basis
    # and its coefficient is 0
    span = Basis([[1, 0, 1, 0], [0, 1, 1, 0], [1, 1, 2, 0]], 4)
    inside = [Fraction(2), Fraction(-3), Fraction(-1), Fraction(0)]
    assert span.positions == [0, 1] and _solved(span, inside, 3) == [2, -3, 0]
    assert span.coordinates(inside) == span.coordinates(_sparse(inside)) == {0: 2, 1: -3}
    assert _solved(span, [0, 0, 0, 1], 3) is None and _solved(span, {3: Fraction(1)}, 3) is None
    assert span.coordinates({}) == {} and span.coordinates({2: Fraction(0)}) == {}
    rng = random.Random(11)
    for _ in range(300):
        width = rng.randint(1, 8)
        rows = [
            [Fraction(rng.randint(-3, 3), rng.randint(1, 3)) if rng.random() < 0.4 else Fraction(0) for _ in range(width)]
            for _ in range(rng.randint(0, 6))
        ]
        if len(rows) > 1:
            rows.insert(rng.randrange(len(rows)), [a - b for a, b in zip(rows[0], rows[-1])])  # a dependent row
        span = Basis(rows, width)
        columns = [[row[j] for row in rows] for j in range(width)]
        coeffs = [Fraction(rng.randint(-2, 2)) for _ in rows]
        inside = [sum((c * r[j] for c, r in zip(coeffs, rows)), Fraction(0)) for j in range(width)]
        outside = [Fraction(rng.randint(-2, 2)) for _ in range(width)]
        for v in (inside, outside):
            sol = fraction_solve(width, len(rows), columns, [[x] for x in v], 1)
            want = None if sol is None else [x[0] for x in sol]
            assert _solved(span, v, len(rows)) == want == _solved(span, _sparse(v), len(rows))
        assert _solved(span, inside, len(rows)) is not None


def test_sparse_row_space_is_row_space_basis():
    rng = random.Random(12)
    for _ in range(300):
        rows, cols = rng.randint(0, 7), rng.randint(1, 7)
        data = [
            [Fraction(rng.randint(-3, 3), rng.randint(1, 3)) if rng.random() < 0.5 else Fraction(0) for _ in range(cols)]
            for _ in range(rows)
        ]
        if rows > 1:
            data.append([a + 3 * b for a, b in zip(data[0], data[1])])
        red, pivots = fraction_gauss_jordan(len(data), cols, data)
        got = sparse_row_space([_sparse(r) for r in data])
        assert got == [_sparse(r) for r in red[: len(pivots)]]
        assert all(canonical(x) for row in got for x in row.values())
        assert all(list(x) == sorted(x) for x in got)


def test_basis_modulo_null_rows():
    """``Basis(rows, width, null)`` picks the rows that raise the rank of the
    null rows and the rows before them, gives coordinates on them modulo the
    null rows, and sums sparse rows back by ``vector``, on dense and sparse
    rows."""
    # by hand: row 1 lies in the null span, row 2 depends on row 0 modulo it
    basis = Basis([[1, 1, 0], [2, 0, 0], [3, 1, 0], [0, 0, 1]], 3, [[1, 0, 0]])
    assert basis.positions == [0, 3] and basis.rows == [[1, 1, 0], [0, 0, 1]]
    assert basis.coordinates({0: 5, 1: 2, 2: 7}) == {0: 2, 1: 7}
    assert Basis([_sparse(r) for r in basis.rows], 3).vector({0: 2, 1: 7}) == {0: 2, 1: 2, 2: 7}
    assert basis.coordinates([4, 0, 0]) == {}
    rng = random.Random(24)

    def entry():
        return Fraction(rng.randint(-3, 3), rng.randint(1, 3)) if rng.random() < 0.5 else Fraction(0)

    raised = 0
    for _ in range(300):
        width = rng.randint(1, 7)
        null = [[entry() for _ in range(width)] for _ in range(rng.randint(0, 3))]
        rows = []
        for _ in range(rng.randint(0, 6)):
            kind = rng.random()
            if kind < 0.2 and null:  # in the null span
                rows.append([2 * x - y for x, y in zip(rng.choice(null), rng.choice(null))])
            elif kind < 0.4 and rows:  # depends on an earlier row modulo the null span
                extra = rng.choice(null) if null else [Fraction(0)] * width
                rows.append([3 * x + y for x, y in zip(rng.choice(rows), extra)])
            else:
                rows.append([entry() for _ in range(width)])
        dense = Basis(rows, width, null)
        sparse = Basis([_sparse(r) for r in rows], width, [_sparse(r) for r in null])
        # the positions are the offset filter of one Basis without null rows,
        # and the rows that raise the rank of the null rows and the rows
        # before them
        independent = Basis(null + rows, width).positions
        assert dense.positions == sparse.positions == [k - len(null) for k in independent if k >= len(null)]
        ranks = [len(fraction_gauss_jordan(len(null) + k, width, null + rows[:k])[1]) for k in range(len(rows) + 1)]
        assert dense.positions == [k for k in range(len(rows)) if ranks[k + 1] > ranks[k]]
        assert dense.rows == [rows[k] for k in dense.positions]
        # coordinates(vector(x)) == x, also after adding a null vector
        x = {k: Fraction(rng.randint(-3, 3)) for k in range(len(dense.rows)) if rng.random() < 0.7}
        x = {k: c for k, c in x.items() if c}
        vec = sparse.vector(x)
        assert vec == _sparse([sum((c * dense.rows[k][j] for k, c in x.items()), Fraction(0)) for j in range(width)])
        assert dense.coordinates(vec) == sparse.coordinates(vec) == x
        shift = [Fraction(rng.randint(-2, 2)) for _ in null]
        in_null = [sum((c * r[j] for c, r in zip(shift, null)), Fraction(0)) for j in range(width)]
        moved = [vec.get(j, 0) + in_null[j] for j in range(width)]
        assert dense.coordinates(moved) == sparse.coordinates(_sparse(moved)) == x
        assert dense.coordinates(in_null) == {}
        # a vector outside span(null + rows) raises
        v = [entry() for _ in range(width)]
        if len(fraction_gauss_jordan(len(null) + len(rows) + 1, width, null + rows + [v])[1]) > ranks[-1]:
            raised += 1
            for b in (dense, sparse):
                with pytest.raises(TiltbenchError, match="not in the hom space"):
                    b.coordinates(v)
    assert raised > 50


def test_add_or_coords_after_null_rows_matches_the_batch_basis():
    """A ``Basis`` on null rows alone, grown by ``add_or_coords`` one row at
    a time, dense and sparse rows mixed, has the positions and rows of the
    batch ``Basis(rows, width, null)``; a row left out gets the coordinates
    modulo the null rows that the batch basis gives it, and both give the
    same coordinates to every vector after that."""
    rng = random.Random(33)

    def entry():
        return Fraction(rng.randint(-3, 3), rng.randint(1, 3)) if rng.random() < 0.5 else Fraction(0)

    left_out = 0
    for _ in range(300):
        width = rng.randint(1, 6)
        null = [[entry() for _ in range(width)] for _ in range(rng.randint(0, 3))]
        rows = []
        for _ in range(rng.randint(0, 6)):
            kind = rng.random()
            if kind < 0.25 and null:  # in the null span
                rows.append([x - 2 * y for x, y in zip(rng.choice(null), rng.choice(null))])
            elif kind < 0.5 and rows:  # depends on an earlier row modulo the null span
                extra = rng.choice(null) if null else [Fraction(0)] * width
                rows.append([2 * x + y for x, y in zip(rng.choice(rows), extra)])
            else:
                rows.append([entry() for _ in range(width)])
        batch = Basis(rows, width, null)
        grown = Basis([], width, [_sparse(r) for r in null])
        for k, row in enumerate(rows):
            got = grown.add_or_coords(_sparse(row) if k % 2 else row)
            if got is not None:
                left_out += 1
                assert k not in batch.positions
                assert got == batch.coordinates(row)
        assert grown.positions == batch.positions
        assert [r if isinstance(r, dict) else _sparse(r) for r in grown.rows] == [_sparse(r) for r in batch.rows]
        for _ in range(3):
            v = [entry() for _ in range(width)]
            try:
                want = batch.coordinates(v)
            except TiltbenchError:
                with pytest.raises(TiltbenchError, match="not in the hom space"):
                    grown.coordinates(v)
            else:
                assert grown.coordinates(v) == want
    assert left_out > 100


def test_basis_of_kernel_matches_the_eliminating_basis():
    """``Basis.of_kernel`` on ``sparse_left_kernel`` rows of seeded random
    sparse matrices, and on unit vectors, has the positions, rows and
    coordinates of ``Basis(rows, width)``, on dense and sparse vectors; a
    vector outside the span raises as there, and so does every unit vector
    at a pivot column, which has no entry at a free column."""
    rng = random.Random(32)

    def entry():
        return Fraction(rng.randint(-3, 3), rng.randint(1, 3)) if rng.random() < 0.4 else Fraction(0)

    raised = 0
    for trial in range(300):
        n = rng.randint(0, 7)
        if trial % 5 == 0:
            rows = [{j: 1} for j in range(n)]
        else:
            matrix_rows = [_sparse([entry() for _ in range(rng.randint(0, 6))]) for _ in range(n)]
            rows = sparse_left_kernel(matrix_rows)
        fast, ref = Basis.of_kernel(rows, n), Basis(rows, n)
        assert fast.positions == ref.positions == list(range(len(rows)))
        assert fast.rows == ref.rows == rows
        for _ in range(3):
            x = {k: Fraction(rng.randint(-3, 3), rng.randint(1, 2)) for k in range(len(rows)) if rng.random() < 0.6}
            x = {k: c for k, c in x.items() if c}
            vec = fast.vector(x)
            dense = [vec.get(j, 0) for j in range(n)]
            assert fast.coordinates(vec) == fast.coordinates(dense) == ref.coordinates(vec) == x
        v = [entry() for _ in range(n)]
        try:
            want = ref.coordinates(v)
        except TiltbenchError:
            raised += 1
            with pytest.raises(TiltbenchError, match="not in the hom space"):
                fast.coordinates(v)
        else:
            assert fast.coordinates(v) == want
        free = {max(row) for row in rows}
        for c in set(range(n)) - free:
            with pytest.raises(TiltbenchError, match="not in the hom space"):
                fast.coordinates({c: 1})
    assert raised > 50
    with pytest.raises(DimensionMismatch):
        Basis.of_kernel([{0: 1}, {1: 1}], 2).coordinates([1, 2, 3])
