"""Finite-dimensional algebras: by structure constants, or by a quiver with
relations.

``FiniteDimAlgebra`` is an algebra on a basis whose product table is filled
on first use from a callback; multiplication, the trace-form radical and the
associativity and idempotent checks are written for it once.
``EndomorphismAlgebra`` is the one whose basis is a ``linalg.Basis`` of a hom
space and whose product of two basis maps is their composite, read in that
basis: End(M), the chain-level End(C) and End(T) are all built on it
(``decompose``, ``complex_decomp``, ``tilting``), and so is the semisimple
quotient A/rad(A) that ``decompose.primitive_idempotents`` reads corners in.

``BasicAlgebra`` is the one of a quiver with admissible relations, on a
basis of normal-form paths.  ``length_filtration`` is the one place the
relation ideal I is computed: I_n = R_n + arrow * I_(n-1) + I_(n-1) * arrow,
with R_n the relations of length n, one elimination per length n >= 1 over
the normal forms of length n - 1 followed by an arrow, not over every path.
Its RREF rows rewrite the leading paths (largest in deglex) into the
surviving ones, the relations that raise the rank form a minimal generating
set, and it stops at the first length with no survivors.
``build_path_algebra``, the pruning in ``presentation.quiver_presentation``
and ``presentation.relation_ideals_equal`` all read it.  Structure constants
are obtained by reducing concatenations, prefix first.

Elements are sparse dicts ``{basis index: scalar}`` of their nonzero
coordinates, with the exact scalars of ``linalg``: ints, and Fractions where
a value is not integral.
"""

from __future__ import annotations

from .errors import NoIdentity, NotAdmissible, NotAssociative, NotBasic, RadicalNotNilpotent, TiltbenchError
from .linalg import Matrix, div, frac, sparse_kernel, sparse_row_space, sparse_rref
from .quiver import Path, Quiver, Relation, longer_paths, trivial_path

COLUMN_CAP = 100_000


# -- sparse element helpers ----------------------------------------------


def el_add(x: dict, y: dict) -> dict:
    out = dict(x)
    for k, c in y.items():
        s = out.get(k, 0) + c
        if s:
            out[k] = s
        else:
            out.pop(k, None)
    return out


def el_sub(x: dict, y: dict) -> dict:
    return el_add(x, {k: -c for k, c in y.items()})


def el_scale(c, x: dict) -> dict:
    c = frac(c)
    if c == 0:
        return {}
    return {k: c * v for k, v in x.items()}


def el_from_vector(v) -> dict:
    """The sparse element whose dense coordinates are v."""
    return {k: frac(c) for k, c in enumerate(v) if c}


def el_to_vector(x: dict, dim: int) -> list:
    """Dense coordinates of length dim of the sparse element x."""
    v = [0] * dim
    for k, c in x.items():
        v[k] = c
    return v


class FiniteDimAlgebra:
    """An associative unital algebra on the basis e_0, ..., e_{dim-1}.

    Elements are sparse dicts {k: coefficient} of their nonzero coordinates,
    the form of the vectors ``linalg.sparse_kernel`` and
    ``linalg.sparse_row_space`` return, so ``el_add``, ``el_sub`` and
    ``el_scale`` apply to them and a ``linalg.Basis`` takes them as they are.
    Dense coordinates enter only as input, through ``abstract_from_table``.

    ``product(i, j)`` returns e_i * e_j as such a dict, nonzero coefficients
    only; the algebra asks for each pair at most once, on first use, and
    keeps the answer as the cell of its table.  ``one`` is the element 1.
    """

    def __init__(self, dim: int, product, one: dict):
        self.dim = dim
        self.one = {k: frac(c) for k, c in one.items() if c}
        self._product = product
        self._table = [[None] * dim for _ in range(dim)]

    def basis_product(self, i: int, j: int) -> dict:
        """e_i * e_j."""
        cell = self._table[i][j]
        if cell is None:
            cell = self._table[i][j] = self._product(i, j)
        return cell

    def mul(self, x: dict, y: dict) -> dict:
        out = {}
        table = self._table
        for i, a in x.items():
            row = table[i]
            for j, b in y.items():
                prod = row[j]
                if prod is None:
                    prod = self.basis_product(i, j)
                if not prod:
                    continue
                ab = a * b
                for k, c in prod.items():
                    s = out.get(k, 0) + ab * c
                    if s:
                        out[k] = s
                    else:
                        out.pop(k, None)
        return out

    def left_matrix(self, x: dict) -> Matrix:
        """Matrix of left multiplication by x: row j is x * e_j."""
        rows = [[0] * self.dim for _ in range(self.dim)]
        for i, a in x.items():
            for j, row in enumerate(rows):
                for k, c in self.basis_product(i, j).items():
                    row[k] += a * c
        return Matrix._trusted(self.dim, self.dim, tuple(map(tuple, rows)))

    def radical_rows(self) -> list:
        """The radical as sparse RREF rows: the kernel of the symmetric
        ``trace_form``."""
        return sparse_row_space(sparse_kernel(self.trace_form(), self.dim))

    def trace_form(self) -> list:
        """Rows, as {column: entry} dicts, of the regular trace form
        tr L_{e_i e_j}, using tr L_{e_k} = sum over m of the e_m-coefficient
        of e_k * e_m.  Over Q its kernel is the radical."""
        n = self.dim
        trace = [sum(self.basis_product(i, m).get(m, 0) for m in range(n)) for i in range(n)]
        form = [{} for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                x = sum(c * trace[k] for k, c in self.basis_product(i, j).items())
                if x:
                    form[i][j] = form[j][i] = x
        return form

    def eval_poly(self, p, x: dict) -> dict:
        acc = {}
        for c in reversed(p):
            acc = el_add(self.mul(acc, x), el_scale(c, self.one))
        return acc

    def check_associative(self):
        """Raises NotAssociative on the first basis triple (i, j, k) with
        (e_i e_j) e_k != e_i (e_j e_k)."""
        for i in range(self.dim):
            for j in range(self.dim):
                ij = self.basis_product(i, j)
                for k in range(self.dim):
                    if self.mul(ij, {k: 1}) != self.mul({i: 1}, self.basis_product(j, k)):
                        raise NotAssociative(f"associativity fails on basis triple ({i},{j},{k})")

    def check_idempotents(self, idems):
        """Raises NotBasic unless idems are nonzero orthogonal idempotents
        that sum to 1."""
        total = {}
        for e in idems:
            total = el_add(total, e)
        if total != self.one:
            raise NotBasic("the idempotents do not sum to 1")
        for i, e in enumerate(idems):
            if not e:
                raise NotBasic(f"idempotent {i} is zero")
            for j, f in enumerate(idems):
                if self.mul(e, f) != (e if i == j else {}):
                    raise NotBasic(f"idempotents {i} and {j} are not orthogonal idempotents")


class EndomorphismAlgebra(FiniteDimAlgebra):
    """The algebra on the rows of a ``linalg.Basis`` of a hom space, with
    e_i * e_j the coordinates of ``compose(rows[i], rows[j])`` and 1 those
    of ``identity``, both given as vectors in the basis's columns.  A basis
    of an algebra modulo an ideal, with compose its product, gives the
    quotient algebra.  A zero composite has zero coordinates, so it is not
    read in the basis."""

    def __init__(self, basis, compose, identity):
        self.basis = basis

        # the product closes over the basis and compose, not over self, so
        # that the algebra is no reference cycle and dies with its last use
        def product(i, j):
            composite = compose(basis.rows[i], basis.rows[j])
            return basis.coordinates(composite) if composite else {}

        super().__init__(len(basis.rows), product, basis.coordinates(identity))


def abstract_from_table(dim: int, table, one) -> FiniteDimAlgebra:
    """Algebra from structure constants; verifies associativity and identity.

    ``table[i][j]`` is the coordinate vector of (basis i) * (basis j), and
    ``one`` the coordinate vector of 1.
    """
    cells = [[el_from_vector(cell) for cell in row] for row in table]
    alg = FiniteDimAlgebra(dim, lambda i, j: cells[i][j], el_from_vector(one))
    for i in range(dim):
        if alg.mul(alg.one, {i: 1}) != {i: 1} or alg.mul({i: 1}, alg.one) != {i: 1}:
            raise NoIdentity("declared identity is not two-sided")
    alg.check_associative()
    return alg


class BasicAlgebra(FiniteDimAlgebra):
    """Path algebra modulo an admissible ideal, on a normal-form path basis.

    A ``FiniteDimAlgebra`` whose product of two basis paths is their
    concatenation reduced to normal form, tabulated on first use.

    Attributes of note:
      basis             list of Path in a fixed deglex order (trivial first)
      index             Path -> basis position
      idempotent_index  vertex label -> basis position of its trivial path
      dim               len(basis)
    """

    def __init__(self, quiver: Quiver, relations, basis, rewrite, nil_length: int):
        self.quiver = quiver
        self.relations = tuple(relations)
        self.basis = basis = list(basis)
        self.index = index = {p: i for i, p in enumerate(basis)}
        self.nil_length = nil_length  # all paths of this length or more vanish
        self._reduce_raw = reduce_raw = _path_reducer(index, rewrite, nil_length)
        self.idempotent_index = {v: self.index[trivial_path(v)] for v in quiver.vertices}
        self.source = source = [p.source for p in basis]
        self.target = target = [p.target(quiver) for p in basis]

        def product(i, j):
            """basis i * basis j: the reduced concatenation, or {} when basis
            i does not end where basis j starts."""
            if target[i] != source[j]:
                return {}
            path = Path(source[i], basis[i].arrows + basis[j].arrows)
            k = index.get(path)
            return {k: 1} if k is not None else {index[p]: c for p, c in reduce_raw(path).items()}

        # the product closes over the basis, not over self, so that a
        # BasicAlgebra is no reference cycle and dies with its last use
        super().__init__(len(basis), product, {i: 1 for i in self.idempotent_index.values()})
        self._sandwich = {}
        for i in range(self.dim):
            self._sandwich.setdefault((source[i], target[i]), []).append(i)

    def basis_el(self, i: int) -> dict:
        return {i: 1}

    def paths_between(self, a, b):
        """Basis indices i with source a and target b (the sandwich e_a A e_b)."""
        return self._sandwich.get((str(a), str(b)), [])

    def radical_indices(self):
        return [i for i in range(self.dim) if len(self.basis[i]) >= 1]

    # -- invariants ----------------------------------------------------------

    def cartan_matrix(self) -> Matrix:
        """Entry (i, j) counts basis paths from vertex i to vertex j."""
        n = len(self.quiver.vertices)
        m = [[0] * n for _ in range(n)]
        for k in range(self.dim):
            i = self.quiver.vertex_index[self.source[k]]
            j = self.quiver.vertex_index[self.target[k]]
            m[i][j] += 1
        return Matrix(n, n, m)

    def radical_basis(self):
        """Jacobson radical as a list of elements (the nontrivial basis paths).

        Cross-checked once against ``radical_rows``, the kernel of the
        regular trace form, which is the radical in characteristic zero.
        """
        rad = [self.basis_el(i) for i in self.radical_indices()]
        if not hasattr(self, "_radical_checked"):
            if self.radical_rows() != rad:
                raise RadicalNotNilpotent("trace-form radical disagrees with path radical")
            self._radical_checked = True
        return rad

    def corner_inverse(self, u: dict, vertex: str) -> dict:
        """Inverse of a unit in the local corner e_v A e_v (Neumann series)."""
        ei = self.idempotent_index[str(vertex)]
        c = u.get(ei, 0)
        if c == 0:
            raise TiltbenchError("corner element is not a unit")
        n = el_scale(div(-1, c), el_sub(u, el_scale(c, self.basis_el(ei))))
        inv = self.basis_el(ei)
        power = self.basis_el(ei)
        for _ in range(self.nil_length + 1):
            power = self.mul(power, n)
            if not power:
                break
            inv = el_add(inv, power)
        else:
            raise TiltbenchError("corner element is not a unit (series did not terminate)")
        return el_scale(div(1, c), inv)


def _path_reducer(normal, rewrite: dict, nil_length: int):
    """The function that writes a path as {normal form: coefficient}, read
    in ``normal`` or in ``rewrite``: length -> {Path: {Path: coefficient}},
    or else prefix first: the path without its last arrow is reduced, the
    arrow appended to each normal form in it, and each such path read
    there.  So rewrite data is needed only on NF * arrows, as
    ``length_filtration`` gives it; a table of every path does as well.
    Paths of length nil_length or more are 0, and each path reduced is
    memoised."""
    memo = {}

    def reduce(path: Path) -> dict:
        n = len(path.arrows)
        if n >= nil_length:
            return {}
        if path in normal:
            return {path: 1}
        table = rewrite.get(n, {})
        out = table.get(path, memo.get(path))
        if out is None:
            out, last = {}, path.arrows[-1:]
            for p, c in reduce(Path(path.source, path.arrows[:-1])).items():
                q = Path(p.source, p.arrows + last)
                rw = {q: 1} if q in normal else table.get(q)
                if rw is None:
                    raise TiltbenchError(f"raw path {path} not covered by rewrite data")
                for r, d in rw.items():
                    out[r] = out.get(r, 0) + c * d
            out = memo[path] = {r: c for r, c in out.items() if c}
        return out

    return reduce


def build_path_algebra(quiver: Quiver, relations, max_path_len: int = 30) -> BasicAlgebra:
    """Quotient of the path algebra by the ideal the relations generate, on
    the normal forms of ``length_filtration``, which raises its errors."""
    relations = list(relations)
    basis, rewrite, nil_length, _ = length_filtration(quiver, relations, max_path_len)
    return BasicAlgebra(quiver, relations, basis, rewrite, nil_length)


def opposite(a: BasicAlgebra) -> BasicAlgebra:
    """A^op: every arrow reversed, keeping its name, modulo the relations with
    each term's word reversed, keeping its coefficient."""
    q = a.quiver.opposite()
    relations = [Relation(q, [(c, Path(r.target, p.arrows[::-1])) for c, p in r.terms]) for r in a.relations]
    return build_path_algebra(q, relations, a.nil_length)


def require_same_algebra(a: BasicAlgebra, b: BasicAlgebra, what: str):
    """TiltbenchError unless a and b are one object or share their path basis."""
    if a is not b and a.basis != b.basis:
        raise TiltbenchError(f"{what} over different algebras")


def length_filtration(quiver: Quiver, relations, max_path_len: int = 30):
    """The ideal I that the relations generate, one path length at a time.

    I_n = R_n + arrow * I_(n-1) + I_(n-1) * arrow, with R_n the relations of
    length n.  Each length n >= 1 takes one elimination in the quotient by
    I_(n-1) * arrows, on the columns NF_(n-1) * arrows (a normal form of
    length n - 1, then an arrow out of its end; at length 1 the arrows) in
    reverse deglex order: of arrow * x for the RREF rows x of length n - 1
    (arrow * I_(n-2) * arrow is 0 here), then the relations of length n in
    their given order, each path entering by its prefix (``_path_reducer``).
    Its RREF rows rewrite each pivot (leading) path into the normal forms,
    the columns at no pivot, and the relations that raise the rank are
    kept: a greedy minimal generating set, shortest first.  The filtration
    stops at the nil length, the first length with no normal form.

    This is the elimination over all paths of length n, restricted.  Deglex
    is a monomial order, so normal forms are closed under prefixes and each
    of length n is a column.  The paths of length n span the columns plus
    I_(n-1) * arrows, which lies in I_n: so a relation raises the rank here
    exactly when it does over all paths, and the RREF row of I_n at a pivot
    among the columns, with only normal forms besides it, is a row here.
    So the kept relations, normal forms and structure constants agree.

    Returns (basis, rewrite, nil_length, kept): the normal forms of length
    below the nil length in deglex order, length -> {Path: {Path:
    coefficient}} for the pivot columns, the nil length and the kept
    relations.  The RREF of a span is unique for a fixed column order, and
    I_n is I_(n-1) * arrows plus the span of its rows, so two relation lists
    generate the same ideal exactly when their nil lengths and rewrite
    tables agree.  Raises TiltbenchError when
    max_path_len < 1, and NotAdmissible when some length has more than
    COLUMN_CAP columns or normal forms survive at max_path_len.
    """
    if max_path_len < 1:
        raise TiltbenchError(f"max_path_len must be at least 1, got {max_path_len}")
    by_len = {}
    for r in relations:
        by_len.setdefault(r.length, []).append(r)
    into = {v: [a for a in quiver.arrows if a.target == v] for v in quiver.vertices}
    basis = [trivial_path(v) for v in quiver.vertices]
    normal = set(basis)
    rewrite = {}
    reduce = _path_reducer(normal, rewrite, max_path_len)
    ideal = []  # the RREF rows of the last elimination, as {Path: coefficient}
    kept = []
    for n in range(1, max_path_len + 1):
        # the columns NF_(n-1) * arrows in deglex order; at length 1 the arrows in quiver order
        paths = longer_paths(quiver, survivors) if n > 1 else [Path(a.source, (a.name,)) for a in quiver.arrows]
        if len(paths) > COLUMN_CAP:
            raise NotAdmissible(f"more than {COLUMN_CAP} normal-form columns at length {n}")
        order = paths[::-1]
        col = {p.arrows: i for i, p in enumerate(order)}  # a path of length n >= 1 by its arrows

        def vector(terms):
            """The (coefficient, (source, arrows)) terms of length n in the columns."""
            vec = {}
            for c, (source, arrows) in terms:
                for p, d in reduce(Path(source, arrows[:-1])).items():
                    j = col[p.arrows + arrows[-1:]]
                    vec[j] = vec.get(j, 0) + c * d
            return vec

        rows = [
            vector((c, (a.source, (a.name,) + p.arrows)) for p, c in row.items())
            for row in ideal
            for a in into[next(iter(row)).source]
        ]
        products = len(rows)
        rels = by_len.get(n, [])
        rows.extend(vector(r.terms) for r in rels)
        red, raised = sparse_rref(rows)
        kept.extend(rels[k - products] for k in raised if k >= products)
        ideal = [{order[j]: c for j, c in row.items()} for row in red]
        rewrite[n] = {}
        for row in ideal:
            (lead, _), *tail = row.items()  # the pivot path first, with entry 1
            rewrite[n][lead] = {p: -c for p, c in tail}
        survivors = [p for p in paths if p not in rewrite[n]]
        if not survivors:
            return basis, rewrite, n, kept
        basis.extend(survivors)
        normal.update(survivors)
    raise NotAdmissible(
        f"normal-form paths still survive at length {max_path_len}; raise max_path_len or fix the relations"
    )
