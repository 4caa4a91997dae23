"""Exact linear algebra over the rationals.

An exact scalar is a Python ``int`` when its value is integral and a
:class:`fractions.Fraction` otherwise, never a float.  ``frac`` turns any
input into this canonical scalar, and ``div`` is the one place where scalars
are divided: its quotient is an int when the division is exact.  Ints and
Fractions compare and hash equal, so which of the two an integral value is
changes no result, only its cost.  Constructors and elimination outputs are
canonical; sums and products of canonical scalars are ints or Fractions and
are left as they come.  Matrices are small (desk scale), dense, and immutable
by convention: no routine mutates its inputs.  Operations whose entries are
exact scalars by construction build their result with ``Matrix._trusted``,
skipping the public constructor's checks.

One loop, ``_reduce``, reduces every row: it takes the row as a
``{column: entry}`` dict and subtracts the monic echelon rows whose pivots it
reaches, in the order they were found.  ``_sparse_echelon`` runs it on each
row of a batch, keeps each nonzero rest as a monic echelon row, and then runs
it on each echelon row against the later ones, which leaves the reduced row
echelon form.  ``sparse_row_space`` reads the RREF rows off it, and
``sparse_rref`` also which rows raised the rank, and ``sparse_kernel`` the
right-kernel basis (``sparse_left_kernel`` that of the columns), all as
``{column: scalar}`` dicts with increasing columns, no zero entry and
canonical scalars; callers keep them sparse.
``Matrix.solve``, ``inverse`` and ``rref`` are built on these: ``_sparse``
turns the dense rows into sparse ones and ``_dense`` the results back into
dense rows, the two converters that the module layer also uses between its
``Matrix`` values and sparse rows.  A rank is the length of
``sparse_row_space``.  :class:`Basis` is the incremental front end and
the one way to find coordinates in a fixed basis: the basis modulo a
subspace, and the coordinates on it, of every hom space and of every
quotient and submodule.  It runs the same loop on each row as it is added
and on each vector it is asked about, and keeps with each echelon row its
combination of basis rows; ``Basis.of_kernel`` and ``Basis.of_rref`` skip
that elimination for rows that ``sparse_kernel`` and ``sparse_row_space``
have reduced already.  There is no other elimination.
"""

from __future__ import annotations

import heapq
from fractions import Fraction

from .errors import DimensionMismatch, TiltbenchError


def frac(x):
    """The canonical exact scalar of an int, a Fraction, a string like
    ``"-3/4"`` or a float (converted exactly): an int when its value is
    integral, a Fraction otherwise."""
    if type(x) is int:
        return x
    if type(x) is not Fraction:
        x = Fraction(x)
    return x.numerator if x.denominator == 1 else x


def div(a, b):
    """a / b for exact scalars (ints and Fractions), as a canonical scalar:
    ``a // b`` when both are ints and b divides a.  Raises ZeroDivisionError
    when b is 0 and TypeError on a float."""
    if type(a) is int and type(b) is int and not a % b:
        return a // b
    q = Fraction(a, b)
    return q.numerator if q.denominator == 1 else q


class Matrix:
    """Immutable dense matrix of exact scalars.  Zero rows/cols are legal."""

    __slots__ = ("rows", "cols", "data")

    def __init__(self, rows: int, cols: int, data):
        if rows < 0 or cols < 0:
            raise DimensionMismatch(f"bad shape ({rows}, {cols})")
        data = tuple(tuple(x if type(x) is int else frac(x) for x in row) for row in data)
        if len(data) != rows or any(len(r) != cols for r in data):
            raise DimensionMismatch(f"data does not match shape ({rows}, {cols})")
        self.rows = rows
        self.cols = cols
        self.data = data

    @classmethod
    def _trusted(cls, rows: int, cols: int, data) -> "Matrix":
        """Wrap data that is already a rows-tuple of cols-tuples of ints and
        Fractions, without the shape check and canonicalization of the public
        constructor."""
        m = object.__new__(cls)
        m.rows = rows
        m.cols = cols
        m.data = data
        return m

    @classmethod
    def zero(cls, rows: int, cols: int) -> "Matrix":
        if rows < 0 or cols < 0:
            raise DimensionMismatch(f"bad shape ({rows}, {cols})")
        return cls._trusted(rows, cols, ((0,) * cols,) * rows)

    @classmethod
    def identity(cls, n: int) -> "Matrix":
        if n < 0:
            raise DimensionMismatch(f"bad shape ({n}, {n})")
        zeros = (0,) * n
        return cls._trusted(n, n, tuple(zeros[:i] + (1,) + zeros[i + 1 :] for i in range(n)))

    def row(self, i):
        return self.data[i]

    def __eq__(self, other):
        return (
            isinstance(other, Matrix)
            and self.rows == other.rows
            and self.cols == other.cols
            and self.data == other.data
        )

    def __hash__(self):
        return hash((self.rows, self.cols, self.data))

    def __repr__(self):
        return f"Matrix({self.rows}x{self.cols}, {[list(map(str, r)) for r in self.data]})"

    def is_zero(self) -> bool:
        return all(x == 0 for row in self.data for x in row)

    def is_identity(self) -> bool:
        return self.rows == self.cols and all(
            x == (1 if i == j else 0) for i, row in enumerate(self.data) for j, x in enumerate(row)
        )

    def __add__(self, other: "Matrix") -> "Matrix":
        if self.rows != other.rows or self.cols != other.cols:
            raise DimensionMismatch("add: shapes differ")
        return Matrix._trusted(
            self.rows,
            self.cols,
            tuple(tuple(a + b for a, b in zip(r, s)) for r, s in zip(self.data, other.data)),
        )

    def __sub__(self, other: "Matrix") -> "Matrix":
        return self + (-other)

    def __neg__(self) -> "Matrix":
        return Matrix._trusted(self.rows, self.cols, tuple(tuple(-x for x in row) for row in self.data))

    def scale(self, c) -> "Matrix":
        c = frac(c)
        return Matrix._trusted(self.rows, self.cols, tuple(tuple(c * x for x in row) for row in self.data))

    def __mul__(self, other: "Matrix") -> "Matrix":
        if self.cols != other.rows:
            raise DimensionMismatch(f"mul: {self.rows}x{self.cols} by {other.rows}x{other.cols}")
        out = []
        for srow in self.data:
            orow = [0] * other.cols
            for k, a in enumerate(srow):
                if a == 0:
                    continue
                brow = other.data[k]
                for j in range(other.cols):
                    if brow[j] != 0:
                        orow[j] += a * brow[j]
            out.append(tuple(orow))
        return Matrix._trusted(self.rows, other.cols, tuple(out))

    def transpose(self) -> "Matrix":
        data = tuple(zip(*self.data)) if self.rows else ((),) * self.cols
        return Matrix._trusted(self.cols, self.rows, data)

    # -- elimination -----------------------------------------------------

    def rref(self):
        """Reduced row echelon form.  Returns (matrix, pivot column list): the
        rows of ``sparse_row_space``, then zero rows."""
        basis = sparse_row_space(_sparse(self.data))
        data = _dense(basis, self.cols) + ((0,) * self.cols,) * (self.rows - len(basis))
        return Matrix._trusted(self.rows, self.cols, data), [min(row) for row in basis]

    def solve(self, b: "Matrix"):
        """Some x with self * x == b, or None when inconsistent: x is zero at
        the free columns of self and reads the reduced b at its pivots."""
        if b.rows != self.rows:
            raise DimensionMismatch("solve: row counts differ")
        n = self.cols
        x = [[0] * b.cols for _ in range(n)]
        for row in sparse_row_space(_sparse([r + s for r, s in zip(self.data, b.data)])):
            p = min(row)
            if p >= n:  # a pivot in the b-block means inconsistency
                return None
            for j, y in row.items():
                if j >= n:
                    x[p][j - n] = y
        return Matrix._trusted(n, b.cols, tuple(map(tuple, x)))

    def inverse(self):
        """Inverse matrix, or None if not square/invertible."""
        if self.rows != self.cols:
            return None
        identity = Matrix.identity(self.rows)
        x = self.solve(identity)
        if x is None or not (self * x == identity):
            return None
        return x


class Basis:
    """A basis of span(null + rows) modulo span(null), picked from rows.

    ``positions`` lists the indices of the rows independent of the null rows
    and of the rows before them, and ``rows`` those rows as given, dense (of
    length ``width``) or sparse, as ``{column: entry}`` dicts.  Each null
    row and then each row is reduced once, by ``_reduce``, against the
    echelon rows kept so far, and a nonzero rest is kept monic, with its
    combination of basis rows: the null rows' part is dropped, since
    coordinates are taken modulo them.  ``add_or_coords`` offers one more
    row.

    ``Basis.of_kernel`` and ``Basis.of_rref`` are the bases of rows in the
    form ``sparse_kernel`` or ``sparse_row_space`` gives them, with no null
    rows, which need no elimination: a vector's coordinates are its entries
    at the columns the rows own (free columns or pivots), and one
    ``sparse_combination`` checks that they give the vector back."""

    __slots__ = ("positions", "rows", "_width", "_count", "_echelon", "_position", "_index")

    def __init__(self, rows, width: int, null=()):
        self.positions = []
        self.rows = []
        self._width = width
        self._count = 0  # rows offered, independent or not
        self._echelon = []  # (pivot column, monic row without its pivot, {basis index: coefficient})
        self._position = {}  # pivot column -> index in _echelon
        for row in null:
            rest = _reduce(_sparse_vector(row, width), self._echelon, self._position)
            if rest:
                _push(self._echelon, self._position, rest, {})
        for row in rows:
            self.add_or_coords(row)

    @classmethod
    def of_kernel(cls, rows, width: int) -> "Basis":
        """The basis of the sparse rows, for rows in the form ``sparse_kernel``
        gives them: each row has entry 1 at its largest column, its free
        column, and no other row has an entry there, so the rows are
        independent; the unit vectors are such rows.  Its ``positions``,
        ``rows`` and ``coordinates`` are those of ``Basis(rows, width)``,
        found without an elimination; it keeps no echelon rows, so it takes
        no more rows by ``add_or_coords``."""
        return cls._owned(rows, width, max)

    @classmethod
    def of_rref(cls, rows, width: int) -> "Basis":
        """As ``of_kernel``, for rows in the form ``sparse_row_space`` gives
        them, each of which owns its smallest column, its pivot column."""
        return cls._owned(rows, width, min)

    @classmethod
    def _owned(cls, rows, width: int, owned) -> "Basis":
        """The basis of rows each with entry 1 at owned(row), where no other row has one."""
        basis = object.__new__(cls)
        basis._width = width
        basis._echelon = None
        basis.positions = list(range(len(rows)))
        basis.rows = list(rows)
        basis._index = {owned(row): k for k, row in enumerate(rows)}  # owned column -> basis index
        return basis

    def add_or_coords(self, row):
        """None after taking row as the next basis row, when it does not
        depend on the null rows and the rows before it; otherwise its
        coordinates, as ``coordinates`` gives them, and row is left out.
        Either way row is reduced once and counts as offered in
        ``positions``."""
        coeffs = {}
        rest = _reduce(_sparse_vector(row, self._width), self._echelon, self._position, coeffs)
        offered = self._count
        self._count += 1
        if not rest:
            return coeffs
        # rest = row - sum of coeffs[k] * rows[k], modulo the null rows
        combination = {k: -c for k, c in coeffs.items()}
        combination[len(self.rows)] = 1
        _push(self._echelon, self._position, rest, combination)
        self.positions.append(offered)
        self.rows.append(row)
        return None

    def coordinates(self, v) -> dict:
        """The nonzero coordinates {basis index: c} of v modulo the null
        rows; raises TiltbenchError when v is outside span(null + rows)."""
        v = _sparse_vector(v, self._width)
        if self._echelon is None:  # of_kernel, of_rref: v's entries at the owned columns
            index = self._index
            coeffs = {index[j]: x for j, x in v.items() if j in index}
            if sparse_combination(coeffs, self.rows) != v:
                raise TiltbenchError("vector not in the hom space spanned by the basis")
            return coeffs
        coeffs = {}
        if _reduce(v, self._echelon, self._position, coeffs):
            raise TiltbenchError("vector not in the hom space spanned by the basis")
        return coeffs

    def vector(self, x: dict) -> dict:
        """The sum of x[k] times rows[k] over x = {basis index: c}, for rows
        given sparse, as a {column: entry} dict without zero entries."""
        return sparse_combination(x, self.rows)


def sparse_combination(x: dict, rows) -> dict:
    """The sum of x[k] times rows[k] over x = {row index: c}, for sparse
    rows, as a {column: entry} dict without zero entries: the product of
    the row vector x with the matrix of the rows."""
    out = {}
    for k, c in x.items():
        for j, y in rows[k].items():
            s = out.get(j, 0) + c * y
            if s:
                out[j] = s
            else:
                out.pop(j, None)
    return out


def _sparse_vector(v, width: int) -> dict:
    """A new {column: entry} dict of the nonzero entries of v, given dense
    (of length width) or as such a dict."""
    if isinstance(v, dict):
        return {j: x for j, x in v.items() if x}
    if len(v) != width:
        raise DimensionMismatch(f"vector of length {len(v)} against rows of width {width}")
    return {j: x for j, x in enumerate(v) if x}


def sparse_kernel(rows, width: int) -> list:
    """Basis of the right kernel of a sparse matrix with ``width`` columns,
    as ``{column: scalar}`` dicts with increasing columns and no zero entry:
    one vector per free column j of the RREF, in increasing order, with 1 at
    j and minus the reduced entries of column j at the pivots, all of which
    lie before j.  ``rows`` are ``{column: entry}`` dicts, eliminated by
    ``_sparse_echelon``.
    """
    echelon, position, _ = _sparse_echelon(rows)
    free_entries = {}  # free column -> [(pivot, kernel entry)]
    for c, tail, _ in echelon:
        for j, x in tail.items():
            free_entries.setdefault(j, []).append((c, frac(-x)))
    out = []
    for j in range(width):
        if j not in position:
            vec = dict(sorted(free_entries.get(j, ())))
            vec[j] = 1
            out.append(vec)
    return out


def sparse_left_kernel(rows) -> list:
    """Basis of the left kernel of a list of sparse rows: the vectors v with
    sum of v[k] times rows[k] zero, as ``{row index: scalar}`` dicts, which
    are the ``sparse_kernel`` of the columns."""
    columns = {}
    for k, row in enumerate(rows):
        for j, y in row.items():
            columns.setdefault(j, {})[k] = y
    return sparse_kernel(columns.values(), len(rows))


def sparse_row_space(rows) -> list:
    """The nonzero rows of the RREF of a sparse matrix, in order, as
    ``{column: scalar}`` dicts with increasing columns.  ``rows`` are
    ``{column: entry}`` dicts, eliminated by ``_sparse_echelon``."""
    return sparse_rref(rows)[0]


def sparse_rref(rows) -> tuple:
    """(rref, raised): the rows of ``sparse_row_space`` and, from the same
    elimination, the indices of the rows independent of the rows before
    them, in increasing order."""
    echelon, _, raised = _sparse_echelon(rows)
    out = []
    for c, tail, _ in sorted(echelon, key=lambda e: e[0]):
        row = {c: 1}
        for j in sorted(tail):
            row[j] = frac(tail[j])
        out.append(row)
    return out, raised


def _sparse_echelon(rows):
    """(echelon, position, raised): the reduced row echelon form of the
    sparse rows as (pivot column, RREF row without its pivot entry 1, None)
    in the order the pivots were found, pivot column -> index in echelon,
    and the indices of the rows that raised the rank, in order.

    Each row is reduced by ``_reduce`` against the echelon rows found so far,
    and what is left of it, when nonzero, is appended monic, its first column
    its pivot.  Then each echelon row, the last first, is reduced against the
    later ones, which are reduced already; that leaves the reduced row
    echelon form.
    """
    echelon = []
    position = {}
    raised = []
    for k, row in enumerate(rows):
        rest = _reduce({j: x for j, x in row.items() if x}, echelon, position)
        if rest:
            _push(echelon, position, rest)
            raised.append(k)
    for _, tail, _ in reversed(echelon):
        _reduce(tail, echelon, position)
    return echelon, position, raised


def _reduce(row: dict, echelon: list, position: dict, coeffs=None) -> dict:
    """Subtract from the sparse row, in place, the multiple of each echelon
    row that clears it at that row's pivot, and return the rest: zero at
    every pivot.  When coeffs is a dict, each echelon row subtracted c times
    adds c times its combination to coeffs.

    An echelon row is zero at the pivots of the rows before it, so
    subtracting it brings in pivots of later rows only: the rows are visited
    in order from a heap of the pivots present.  ``_sparse_echelon`` and
    ``Basis`` reduce every row through here."""
    pending = [position[j] for j in row if j in position]
    if not pending:
        return row
    heapq.heapify(pending)
    while pending:
        pivot, tail, combination = echelon[heapq.heappop(pending)]
        c = row.pop(pivot, None)
        if c is None:
            continue  # a repeat: this row was subtracted already
        for j, x in tail.items():
            y = row.get(j)
            if y is None:
                row[j] = -c * x
                if j in position:
                    heapq.heappush(pending, position[j])
            else:
                y -= c * x
                if y:
                    row[j] = y
                else:
                    del row[j]
        if coeffs is not None:
            for k, y in combination.items():
                y = coeffs.get(k, 0) + c * y
                if y:
                    coeffs[k] = y
                else:
                    del coeffs[k]
    return row


def _push(echelon: list, position: dict, row: dict, combination=None):
    """Append a reduced nonzero row to the echelon as (pivot, tail,
    combination): its first column is its pivot, and the rest of the row and
    the combination are divided by the pivot entry, so that the row is
    monic."""
    pivot = min(row)
    p = row.pop(pivot)
    if p != 1:
        row = {j: div(x, p) for j, x in row.items()}
        if combination is not None:
            combination = {k: div(c, p) for k, c in combination.items()}
    position[pivot] = len(echelon)
    echelon.append((pivot, row, combination))


def _sparse(rows) -> list:
    """Dense rows as ``{column: entry}`` dicts of their nonzero entries."""
    return [{j: x for j, x in enumerate(row) if x} for row in rows]


def _dense(rows, width: int) -> tuple:
    """Sparse rows as a tuple of dense tuples of the given width."""
    out = []
    for row in rows:
        dense = [0] * width
        for j, x in row.items():
            dense[j] = x
        out.append(tuple(dense))
    return tuple(out)

