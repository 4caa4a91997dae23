"""Finite-dimensional basic algebras presented by quivers with relations.

The algebra of a quiver with admissible relations is built on a basis of
normal-form paths.  Normal forms come from length-graded linear reduction:
for each length, the homogeneous span of (relations sandwiched by paths) is
row-reduced, its leading paths (largest in deglex) are rewritten into the
surviving ones, and construction stops at the first length with no
survivors.  Structure constants are obtained by reducing concatenations.

Elements are sparse dicts ``{basis index: scalar}``, with the exact scalars
of ``linalg``: ints, and Fractions where a value is not integral.
"""

from __future__ import annotations

from .errors import NotAdmissible, RadicalNotNilpotent, TiltbenchError
from .linalg import Matrix, div, frac, sparse_row_space
from .quiver import Path, Quiver, arrow_multiples, deglex_key, longer_paths, trivial_path

RAW_PATH_CAP = 100_000


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


def el_is_zero(x: dict) -> bool:
    return not x


def el_eq(x: dict, y: dict) -> bool:
    return el_is_zero(el_sub(x, y))


class BasicAlgebra:
    """Path algebra modulo an admissible ideal, on a normal-form path basis.

    Attributes of note:
      basis             list of Path in a fixed deglex order (trivial first)
      index             Path -> basis position
      idempotent_index  vertex label -> basis position of its trivial path
      dim               len(basis)
      table             (i, j) -> basis i * basis j as a {k: coefficient},
                        present only when the product is nonzero
    """

    def __init__(self, quiver: Quiver, relations, basis, rewrite, nil_length: int):
        self.quiver = quiver
        self.relations = tuple(relations)
        self.basis = list(basis)
        self.dim = len(self.basis)
        self.index = {p: i for i, p in enumerate(self.basis)}
        self.nil_length = nil_length  # all paths of this length or more vanish
        self._rewrite = rewrite  # length -> {Path: {Path: coeff}} for non-normal paths
        self.idempotent_index = {v: self.index[trivial_path(v)] for v in quiver.vertices}
        self.source = [p.source for p in self.basis]
        self.target = [p.target(quiver) for p in self.basis]
        self.table = {}
        self._build_table()
        self._sandwich = {}
        for i in range(self.dim):
            self._sandwich.setdefault((self.source[i], self.target[i]), []).append(i)

    # -- construction ------------------------------------------------------

    def _reduce_raw(self, path: Path) -> dict:
        """Express a raw path in the normal basis."""
        n = len(path)
        if n >= self.nil_length:
            return {}
        if path in self.index:
            return {self.index[path]: 1}
        rw = self._rewrite.get(n, {}).get(path)
        if rw is None:
            raise TiltbenchError(f"raw path {path} not covered by rewrite data")
        return {self.index[p]: c for p, c in rw.items() if c != 0}

    def _build_table(self):
        for i, p in enumerate(self.basis):
            for j, q in enumerate(self.basis):
                if self.target[i] != self.source[j]:
                    continue
                raw = Path(p.source, p.arrows + q.arrows)
                red = self._reduce_raw(raw)
                if red:
                    self.table[(i, j)] = red

    # -- arithmetic ----------------------------------------------------------

    def one(self) -> dict:
        return {i: 1 for i in self.idempotent_index.values()}

    def idem(self, v) -> dict:
        return {self.idempotent_index[str(v)]: 1}

    def basis_el(self, i: int) -> dict:
        return {i: 1}

    def mul(self, x: dict, y: dict) -> dict:
        out = {}
        for i, a in x.items():
            for j, b in y.items():
                prod = self.table.get((i, j))
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

    def paths_between(self, a, b):
        """Basis indices i with source a and target b (the sandwich e_a A e_b)."""
        return self._sandwich.get((str(a), str(b)), [])

    def radical_indices(self):
        return [i for i in range(self.dim) if len(self.basis[i]) >= 1]

    def el_to_vector(self, x: dict):
        return el_to_vector(x, self.dim)

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

        Cross-checked once against the trace-form kernel of the regular
        representation, which is the radical in characteristic zero; the
        form is computed from the structure constants by
        ``FiniteDimAlgebra.radical_rows``.
        """
        if not hasattr(self, "_radical_checked"):
            from .decompose import FiniteDimAlgebra

            regular = FiniteDimAlgebra(self.dim, lambda i, j: self.table.get((i, j), {}), self.one())
            got = sparse_row_space(el_from_vector(r) for r in regular.radical_rows().data)
            if got != sparse_row_space(self.basis_el(i) for i in self.radical_indices()):
                raise RadicalNotNilpotent("trace-form radical disagrees with path radical")
            self._radical_checked = True
        return [self.basis_el(i) for i in self.radical_indices()]

    def check_associative(self) -> bool:
        for i in range(self.dim):
            bi = self.basis_el(i)
            for j in range(self.dim):
                bj = self.basis_el(j)
                ij = self.mul(bi, bj)
                for k in range(self.dim):
                    bk = self.basis_el(k)
                    if not el_eq(self.mul(ij, bk), self.mul(bi, self.mul(bj, bk))):
                        return False
        return True

    def check_idempotents(self) -> bool:
        total = {}
        for v in self.quiver.vertices:
            ev = self.idem(v)
            for w in self.quiver.vertices:
                ew = self.idem(w)
                prod = self.mul(ev, ew)
                want = ev if v == w else {}
                if not el_eq(prod, want):
                    return False
            total = el_add(total, ev)
        return el_eq(total, self.one())

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
            if el_is_zero(power):
                break
            inv = el_add(inv, power)
        else:
            raise TiltbenchError("corner element is not a unit (series did not terminate)")
        return el_scale(div(1, c), inv)


def build_path_algebra(quiver: Quiver, relations, max_path_len: int = 30) -> BasicAlgebra:
    """Quotient of the path algebra by the ideal the relations generate.

    Raises NotAdmissible when normal-form paths still survive at
    ``max_path_len``.
    """
    relations = list(relations)
    by_len = {}
    for r in relations:
        by_len.setdefault(r.length, []).append(r)

    trivials = [trivial_path(v) for v in quiver.vertices]
    raw = {0: trivials, 1: [Path(a.source, (a.name,)) for a in quiver.arrows]}
    normal = {0: list(trivials), 1: list(raw[1])}
    span_rows = {1: []}  # list of dict(Path -> coeff), an rref'd spanning set
    rewrite = {}
    nil_length = None

    for n in range(2, max_path_len + 1):
        raw[n] = longer_paths(quiver, raw[n - 1])
        if len(raw[n]) > RAW_PATH_CAP:
            raise NotAdmissible(f"more than {RAW_PATH_CAP} raw paths at length {n}")
        if not raw[n]:
            nil_length = n
            break
        order = sorted(raw[n], key=lambda p: deglex_key(quiver, p), reverse=True)
        col = {p: i for i, p in enumerate(order)}
        rows = []
        for r in by_len.get(n, []):
            vec = {}
            for c, p in r.terms:
                vec[col[p]] = vec.get(col[p], 0) + c
            rows.append(vec)
        for row in span_rows[n - 1]:
            for prod in arrow_multiples(quiver, row):
                rows.append({col[p]: c for p, c in prod.items()})
        red = sparse_row_space(rows)
        pivots = {min(row) for row in red}
        normal_n = [order[j] for j in range(len(order)) if j not in pivots]
        normal_n.sort(key=lambda p: deglex_key(quiver, p))
        normal[n] = normal_n
        span_rows[n] = [{order[j]: c for j, c in row.items()} for row in red]
        rewrite[n] = {}
        for row in red:
            pc = min(row)
            rewrite[n][order[pc]] = {order[j]: -c for j, c in row.items() if j != pc}
        if not normal_n:
            nil_length = n
            break
    if nil_length is None:
        raise NotAdmissible(
            f"normal-form paths still survive at length {max_path_len}; "
            "raise max_path_len or fix the relations"
        )

    basis = []
    for n in range(0, nil_length):
        basis.extend(normal.get(n, []))
    return BasicAlgebra(quiver, relations, basis, rewrite, nil_length)
