"""Modules over a basic algebra as quiver representations.

Conventions (used consistently everywhere):

* a representation assigns to each vertex a row-vector space and to each
  arrow ``a: u -> w`` a ``dim(u) x dim(w)`` matrix acting on the right;
* a path acts by the product of its arrow matrices in word order, which
  ``Representation.path_matrix`` forms and keeps on the module;
* module maps are per-vertex matrices, composed left to right, so ``f.then(g)``
  is "apply f, then g";
* the projective P(v) has basis the normal-form paths starting at v, and
  Hom(P(a), P(b)) is identified with the span of paths from b to a acting by
  front concatenation;
* the injective I(v) is ``dual`` of P(v) over ``algebra.opposite``: its basis
  is dual to the normal-form paths of the opposite from v, each a path
  ending at v read backwards, and each arrow acts by a transpose.
"""

from __future__ import annotations

from .algebra import BasicAlgebra, el_add, el_scale, opposite
from .errors import DecompositionError, DimensionMismatch, NotProjective, TiltbenchError
from .linalg import (
    Basis,
    Matrix,
    _dense,
    _sparse,
    sparse_combination,
    sparse_kernel,
    sparse_left_kernel,
    sparse_row_space,
)
from .quiver import Path


class Representation:
    """A module over ``algebra``: ``dims`` gives each vertex's dimension (0
    when left out) and ``mats`` each arrow's matrix by arrow name (zero when
    left out).  With ``check`` the constructor certifies, by
    ``_check_relations``, that every relation of the algebra acts as zero,
    and raises TiltbenchError "relation violated" otherwise; the terms whose
    paths touch a vertex of dimension 0 act by zero matrices, and the check
    forms none of them.  ``path_matrix`` keeps every path matrix it forms:
    nothing assigns to ``dims`` or ``mats`` after construction, so a kept
    matrix is always the module's own."""

    def __init__(self, algebra: BasicAlgebra, dims: dict, mats: dict, check: bool = True):
        self.algebra = algebra
        q = algebra.quiver
        self.dims = {v: int(dims.get(v, 0)) for v in q.vertices}
        self.mats = {}
        for a in q.arrows:
            m = mats.get(a.name)
            if m is None:
                m = Matrix.zero(self.dims[a.source], self.dims[a.target])
            if m.rows != self.dims[a.source] or m.cols != self.dims[a.target]:
                raise DimensionMismatch(f"arrow {a.name}: matrix shape {m.rows}x{m.cols}")
            self.mats[a.name] = m
        self._paths = {}  # (source, arrow word) of a path -> its matrix
        if check:
            self._check_relations()

    def _check_relations(self):
        """Raise TiltbenchError when some relation does not act as zero.  A
        relation from or to a vertex of dimension 0, and a term whose path
        passes through one, act by zero matrices, so they are skipped: the
        check tests the same equations without forming them."""
        dims, arrows = self.dims, self.algebra.quiver.arrow_by_name
        for r in self.algebra.relations:
            if not (dims[r.source] and dims[r.target]):
                continue
            acc = None
            for c, p in r.terms:
                if all(dims[arrows[name].target] for name in p.arrows[:-1]):
                    term = self.path_matrix(p).scale(c)
                    acc = term if acc is None else acc + term
            if acc is not None and not acc.is_zero():
                raise TiltbenchError(f"relation violated: {r}")

    def total_dim(self) -> int:
        return sum(self.dims.values())

    def dim_vector(self) -> tuple:
        return tuple(self.dims[v] for v in self.algebra.quiver.vertices)

    def path_matrix(self, path: Path) -> Matrix:
        """The matrix of path: its prefix's kept matrix times its last arrow's."""
        return self._word_matrix(path.source, path.arrows)

    def _word_matrix(self, source, word) -> Matrix:
        m = self._paths.get((source, word))
        if m is None:
            if not word:
                m = Matrix.identity(self.dims[source])
            elif len(word) == 1:
                m = self.mats[word[0]]
            else:
                m = self._word_matrix(source, word[:-1]) * self.mats[word[-1]]
            self._paths[(source, word)] = m
        return m

    def direct_sum(self, *others: "Representation") -> "Representation":
        """The direct sum of this module and the others, in that order:
        block diagonal at every arrow."""
        parts = (self, *others)
        dims = {v: sum(p.dims[v] for p in parts) for v in self.dims}
        mats = {}
        for a in self.algebra.quiver.arrows:
            rows, before, after = [], 0, dims[a.target]
            for p in parts:
                m = p.mats[a.name]
                after -= m.cols
                rows.extend((0,) * before + row + (0,) * after for row in m.data)
                before += m.cols
            mats[a.name] = Matrix._trusted(dims[a.source], dims[a.target], tuple(rows))
        return Representation(self.algebra, dims, mats, check=False)

    def __repr__(self):
        return f"Representation(dims={self.dims})"


def _refuse_unless_same_module(x: Representation, y: Representation, message: str):
    """Raise DimensionMismatch unless x and y are one object or have the same
    dimensions and arrow matrices."""
    if x is not y and (x.dims != y.dims or x.mats != y.mats):
        raise DimensionMismatch(message)


def zero_rep(a: BasicAlgebra) -> Representation:
    return Representation(a, {}, {}, check=False)


class ModuleMap:
    def __init__(self, source: Representation, target: Representation, mats: dict, check: bool = True):
        self.source = source
        self.target = target
        self.mats = {}
        for v in source.algebra.quiver.vertices:
            m = mats.get(v)
            if m is None:
                m = Matrix.zero(source.dims[v], target.dims[v])
            if m.rows != source.dims[v] or m.cols != target.dims[v]:
                raise DimensionMismatch(f"vertex {v}: map shape {m.rows}x{m.cols}")
            self.mats[v] = m
        if check:
            self._check_intertwines()

    def _check_intertwines(self):
        for a in self.source.algebra.quiver.arrows:
            lhs = self.source.mats[a.name] * self.mats[a.target]
            rhs = self.mats[a.source] * self.target.mats[a.name]
            if not (lhs == rhs):
                raise TiltbenchError(f"map does not intertwine arrow {a.name}")

    @classmethod
    def identity(cls, m: Representation) -> "ModuleMap":
        return cls(m, m, {v: Matrix.identity(m.dims[v]) for v in m.dims}, check=False)

    @classmethod
    def zero(cls, source, target) -> "ModuleMap":
        return cls(source, target, {}, check=False)

    def then(self, other: "ModuleMap") -> "ModuleMap":
        """"self then other"; refused unless self.target and other.source are
        the same module."""
        _refuse_unless_same_module(self.target, other.source, "composition: middle modules differ")
        return ModuleMap(
            self.source,
            other.target,
            {v: self.mats[v] * other.mats[v] for v in self.mats},
            check=False,
        )

    def __add__(self, other: "ModuleMap") -> "ModuleMap":
        _refuse_unless_same_module(self.source, other.source, "sum: sources differ")
        _refuse_unless_same_module(self.target, other.target, "sum: targets differ")
        return ModuleMap(
            self.source, self.target, {v: self.mats[v] + other.mats[v] for v in self.mats}, check=False
        )

    def __sub__(self, other):
        return self + other.scale(-1)

    def scale(self, c) -> "ModuleMap":
        return ModuleMap(self.source, self.target, {v: self.mats[v].scale(c) for v in self.mats}, check=False)

    def is_zero(self) -> bool:
        return all(m.is_zero() for m in self.mats.values())

    def is_identity(self) -> bool:
        return self.source.dims == self.target.dims and all(m.is_identity() for m in self.mats.values())

    def support(self) -> list:
        """(vertex, row, column) of each nonzero entry."""
        return [(v, r, c) for v, m in self.mats.items() for r, row in enumerate(m.data) for c, x in enumerate(row) if x]

    def inverse(self):
        """The inverse map, each vertex matrix inverted once, or None when
        the dimensions differ or some vertex matrix is singular."""
        if self.source.dims != self.target.dims:
            return None
        inv = {}
        for v, m in self.mats.items():
            inv[v] = m.inverse()
            if inv[v] is None:
                return None
        return ModuleMap(self.target, self.source, inv, check=False)

    def factor_through(self, incl: "ModuleMap") -> "ModuleMap":
        """The map p with p then incl = self, for incl injective at every
        vertex: each row of self read in the ``Basis`` of incl's rows.
        Raises DecompositionError when a row leaves their span."""
        mats = {}
        for v, x in self.mats.items():
            n = incl.mats[v].rows
            span = Basis(incl.mats[v].data, incl.mats[v].cols)
            try:
                rows = [{span.positions[k]: c for k, c in span.coordinates(r).items()} for r in x.data]
            except TiltbenchError:
                raise DecompositionError("image rows escaped the row space of the inclusion") from None
            mats[v] = Matrix(x.rows, n, _dense(rows, n))
        return ModuleMap(self.source, incl.source, mats, check=False)


def stack_copies(x: Representation, includes, projects):
    """(I, P, owner) for module maps includes[k] : M_k -> x and projects[k] :
    x -> M_k.  I : sum of the M_k -> x has the rows of the includes and
    P : x -> sum of the M_k the columns of the projects, vertex by vertex,
    so block (k, l) of "I then P" is "includes[k] then projects[l]" and
    "P then I" is the sum of the "projects[k] then includes[k]".
    ``owner[v][r]`` is the copy k that row r of the sum at v belongs to."""
    total = zero_rep(x.algebra).direct_sum(*(f.source for f in includes))
    owner = {v: [k for k, f in enumerate(includes) for _ in range(f.source.dims[v])] for v in x.dims}
    rows, cols = {}, {}
    for v, d in x.dims.items():
        rows[v] = Matrix._trusted(total.dims[v], d, tuple(r for f in includes for r in f.mats[v].data))
        cols[v] = Matrix._trusted(
            d, total.dims[v], tuple(tuple(y for f in projects for y in f.mats[v].data[r]) for r in range(d))
        )
    return ModuleMap(total, x, rows, check=False), ModuleMap(x, total, cols, check=False), owner


# -- hom spaces ------------------------------------------------------------


def hom_vectors(m: Representation, n: Representation) -> list:
    """Basis of the space of module maps m -> n, each map as its ``flat``.

    The unknowns are the entries of the vertex matrices F_v, vertex by
    vertex in quiver order, each row by row.  Each entry (i, j) of
    M_a F_w - F_u N_a = 0 for an arrow a: u -> w is one sparse equation on
    at most dim m(w) + dim n(u) unknowns, and the basis is the RREF kernel
    basis of these equations (``linalg.sparse_kernel``)."""
    if m.algebra is not n.algebra and m.algebra.basis != n.algebra.basis:
        raise TiltbenchError("modules over different algebras")
    offsets = {}
    total = 0
    for v in m.algebra.quiver.vertices:
        offsets[v] = total
        total += m.dims[v] * n.dims[v]
    if total == 0:
        return []

    rows = []
    for a in m.algebra.quiver.arrows:
        ou, ow = offsets[a.source], offsets[a.target]
        nu, nw = n.dims[a.source], n.dims[a.target]
        n_cols = n.mats[a.name].transpose().data
        for i, m_row in enumerate(m.mats[a.name].data):
            left = [(ow + k * nw, x) for k, x in enumerate(m_row) if x]
            right = ou + i * nu
            for j, n_col in enumerate(n_cols):
                row = {col + j: x for col, x in left}
                for k, y in enumerate(n_col):
                    if y:
                        row[right + k] = row.get(right + k, 0) - y
                rows.append(row)
    return sparse_kernel(rows, total)


def hom_space(m: Representation, n: Representation) -> list:
    """Basis of the space of module maps m -> n: ``hom_vectors`` written out
    as module maps."""
    return [map_from_flat(m, n, vec) for vec in hom_vectors(m, n)]


def flat(f: ModuleMap) -> dict:
    """The nonzero entries of f's vertex matrices as {position: entry}, the
    positions running row by row through the vertices in quiver order, as
    the unknowns of ``hom_vectors`` do."""
    entries = (x for v in f.source.algebra.quiver.vertices for row in f.mats[v].data for x in row)
    return {p: x for p, x in enumerate(entries) if x}


def map_from_flat(m: Representation, n: Representation, vec: dict) -> ModuleMap:
    """The module map m -> n whose ``flat`` is vec."""
    mats = {}
    o = 0
    for v in m.algebra.quiver.vertices:
        d, e = m.dims[v], n.dims[v]
        rows = (tuple(vec.get(o + i * e + j, 0) for j in range(e)) for i in range(d))
        mats[v] = Matrix._trusted(d, e, tuple(rows))
        o += d * e
    return ModuleMap(m, n, mats, check=False)


def precomposition(x: Representation, e: EntryMap) -> list:
    """Sparse rows of h -> e then h, from Hom(P(b_1..b_n), x) to
    Hom(P(a_1..a_m), x), for the entry map e : P(a_1..a_m) -> P(b_1..b_n),
    in Yoneda coordinates: by Yoneda's lemma Hom(P(a_1) + ... + P(a_m), x)
    = x(a_1) + ... + x(a_m), a map is the list of its generator images,
    summand-major, and its k-th basis map sends one generator to one basis
    vector of x.  Row k is the {column: entry} dict, without zero entries, of
    the coordinates of e then (k-th basis map); block (j, i) is
    x(e.rows[i][j]), summed from x's path matrices, so neither a module map
    nor a dense matrix is built.  A label b with x(b) = 0 gives no row and a
    label a with x(a) = 0 no column."""
    dims, basis = x.dims, x.algebra.basis
    offsets, o = [], 0
    for a in e.src:
        offsets.append(o)
        o += dims[a]
    out = []
    for j, b in enumerate(e.tgt):
        block = [{} for _ in range(dims[b])]
        if block:
            for i, a in enumerate(e.src):
                if not dims[a]:
                    continue
                for k, c in e.rows[i][j].items():
                    for row, prow in zip(block, x.path_matrix(basis[k]).data):
                        for col, y in enumerate(prow, offsets[i]):
                            if y:
                                s = row.get(col, 0) + c * y
                                if s:
                                    row[col] = s
                                else:
                                    row.pop(col, None)
        out.extend(block)
    return out


def map_from_generators(psum: "ProjSum", x: Representation, images) -> ModuleMap:
    """The module map psum.rep -> x that sends the generator of summand i
    to ``images[i]``, a vector of x at its label, by Yoneda: the path k from
    that label goes to images[i] times ``x.path_matrix(k)``."""
    basis, dims = x.algebra.basis, x.dims
    mats = {}
    for w, layout in psum.layout.items():
        rows = []
        for i, k in layout:
            row = [0] * dims[w]
            for c, prow in zip(images[i], x.path_matrix(basis[k]).data):
                if c:
                    for j, y in enumerate(prow):
                        if y:
                            row[j] += c * y
            rows.append(row)
        mats[w] = Matrix(len(rows), dims[w], rows)
    return ModuleMap(psum.rep, x, mats, check=False)


def map_coordinates(f: ModuleMap, basis: list) -> list:
    """The coordinates of f in a hom-space basis, as a list; raises
    TiltbenchError when f is not in its span."""
    width = sum(f.source.dims[v] * f.target.dims[v] for v in f.mats)
    coords = Basis([flat(b) for b in basis], width).coordinates(flat(f))
    return [coords.get(k, 0) for k in range(len(basis))]


# -- standard modules --------------------------------------------------------


def projective(a: BasicAlgebra, v) -> Representation:
    """P(v): the paths starting at v, arrows acting by appending, in the
    layout of ``ProjSum(a, [v])``."""
    return ProjSum(a, [v]).rep


def injective(a: BasicAlgebra, v) -> Representation:
    """I(v), the dual of P(v) over the opposite algebra, in the layout of
    ``nu_injective_sum(a, [v])``."""
    return nu_injective_sum(a, [v])


def simple(a: BasicAlgebra, v) -> Representation:
    return Representation(a, {str(v): 1}, {}, check=False)


def regular_module(a: BasicAlgebra) -> Representation:
    """A as a module: the sum of the P(v), v in vertex order, in the layout
    of ``ProjSum``."""
    return ProjSum(a, a.quiver.vertices).rep


# -- submodules and quotients -------------------------------------------------


def _arrow_rows(m: Representation) -> dict:
    """Each arrow's matrix in m as sparse rows, for ``sparse_combination``."""
    return {name: _sparse(x.data) for name, x in m.mats.items()}


def sub_representation(m: Representation, spaces: dict):
    """(submodule, inclusion) from arrow-stable spaces, each given by sparse
    rows that span it (none where a vertex is missing).  The submodule's
    basis at v is the ``sparse_row_space`` of spaces[v], and an arrow reads
    the images of these rows at the pivots of the basis at its target
    (``Basis.of_rref``), with no elimination."""
    bases = {v: sparse_row_space(spaces.get(v, ())) for v in m.dims}
    spans = {v: Basis.of_rref(bases[v], m.dims[v]) for v in m.dims}
    dims = {v: len(bases[v]) for v in m.dims}
    arrows = _arrow_rows(m)
    mats = {}
    for a in m.algebra.quiver.arrows:
        try:
            rows = [spans[a.target].coordinates(sparse_combination(r, arrows[a.name])) for r in bases[a.source]]
        except TiltbenchError:
            raise TiltbenchError("spaces are not arrow-stable") from None
        mats[a.name] = Matrix(dims[a.source], dims[a.target], _dense(rows, dims[a.target]))
    sub = Representation(m.algebra, dims, mats, check=False)
    incl = {v: Matrix._trusted(dims[v], m.dims[v], _dense(bases[v], m.dims[v])) for v in m.dims}
    return sub, ModuleMap(sub, m, incl, check=False)


def quotient_representation(m: Representation, spaces: dict):
    """(quotient, projection) by arrow-stable spaces, given as for
    ``sub_representation``.  At each vertex one ``Basis`` takes the unit
    vectors, from the highest column down, modulo the RREF rows of the
    space: that picks the unit vectors of the free columns, and its
    coordinates, listed by increasing column, are the projection.  The
    spaces are arrow-stable when every arrow image of a space row projects
    to 0."""
    space = {v: sparse_row_space(spaces.get(v, ())) for v in m.dims}
    quotients = {v: Basis([{j: 1} for j in reversed(range(d))], d, space[v]) for v, d in m.dims.items()}
    dims = {v: len(q.rows) for v, q in quotients.items()}

    def project(v, vec) -> list:
        row = [0] * dims[v]
        for k, c in quotients[v].coordinates(vec).items():
            row[-1 - k] = c
        return row

    arrows = _arrow_rows(m)
    mats = {}
    for a in m.algebra.quiver.arrows:
        image = arrows[a.name]
        if any(quotients[a.target].coordinates(sparse_combination(r, image)) for r in space[a.source]):
            raise TiltbenchError("spaces are not arrow-stable")
        rows = [project(a.target, image[min(e)]) for e in reversed(quotients[a.source].rows)]
        mats[a.name] = Matrix(dims[a.source], dims[a.target], rows)
    quot = Representation(m.algebra, dims, mats, check=False)
    proj = {v: Matrix(d, dims[v], [project(v, {i: 1}) for i in range(d)]) for v, d in m.dims.items()}
    return quot, ModuleMap(m, quot, proj, check=False)


def radical_spaces(m: Representation) -> dict:
    """rad m as {vertex: its RREF rows}: at v, the row space of the arrow
    matrices into v."""
    out = {v: [] for v in m.dims}
    for a in m.algebra.quiver.arrows:
        out[a.target].extend(_sparse(m.mats[a.name].data))
    return {v: sparse_row_space(rows) for v, rows in out.items()}


def socle_spaces(m: Representation) -> dict:
    """soc m as {vertex: sparse rows}: at v, the RREF kernel basis of the
    vectors that every arrow out of v sends to 0 (all of m(v) when none
    leaves v)."""
    columns = {v: [] for v in m.dims}
    for a in m.algebra.quiver.arrows:
        columns[a.source].extend(zip(*m.mats[a.name].data))
    return {v: sparse_kernel(_sparse(columns[v]), d) for v, d in m.dims.items()}


def top(m: Representation):
    return quotient_representation(m, radical_spaces(m))


def socle(m: Representation):
    return sub_representation(m, socle_spaces(m))


def projective_labels(x: Representation) -> list:
    """The labels of the indecomposable projectives whose sum is x: each
    vertex v repeated t_v times, in vertex order, t the dimension vector of
    top(x).  The projective cover of x, the sum of P(v) t_v times, is onto,
    so x is projective exactly when dim x = sum of t_v * dim P(v); otherwise
    NotProjective is raised."""
    verts = list(x.algebra.quiver.vertices)
    rad = radical_spaces(x)
    tops = [x.dims[v] - len(rad[v]) for v in verts]
    cartan = x.algebra.cartan_matrix().data  # row v: dim vector of P(v)
    for u, w in enumerate(verts):
        if sum(t * cartan[k][u] for k, t in enumerate(tops)) != x.dims[w]:
            raise NotProjective("module is not a direct sum of projectives")
    return [v for v, t in zip(verts, tops) for _ in range(t)]


def radical_submodule(m: Representation):
    return sub_representation(m, radical_spaces(m))


def radical_layers(m: Representation) -> list:
    """Loewy layers top-down, each as {vertex: multiplicity of its simple}:
    rad^(k+1) m at w is the row space of the arrow images of rad^k m into w,
    each kept as its RREF rows."""
    arrows = _arrow_rows(m)
    layers = []
    cur = {v: [{i: 1} for i in range(d)] for v, d in m.dims.items()}
    while any(cur.values()):
        images = {v: [] for v in m.dims}
        for a in m.algebra.quiver.arrows:
            images[a.target].extend(sparse_combination(r, arrows[a.name]) for r in cur[a.source])
        nxt = {v: sparse_row_space(rows) for v, rows in images.items()}
        layer = {v: len(cur[v]) - len(nxt[v]) for v in cur}
        layers.append({v: d for v, d in layer.items() if d})
        cur = nxt
    return layers


def kernel_of(f: ModuleMap):
    spaces = {v: sparse_left_kernel(_sparse(x.data)) for v, x in f.mats.items()}
    return sub_representation(f.source, spaces)


def cokernel_of(f: ModuleMap):
    spaces = {v: _sparse(x.data) for v, x in f.mats.items()}
    return quotient_representation(f.target, spaces)


# -- labeled projective sums and the symbolic hom encoding -------------------


class EntryMap:
    """A map P(a_1) + ... + P(a_m) -> P(b_1) + ... + P(b_n) between sums of
    projectives, as its matrix of hom entries with both label lists:
    ``rows[i][j]`` is an algebra element supported on paths b_j -> a_i,
    acting on P(a_i) by front concatenation.  The constructor checks that the
    rows fit the labels; ``then``, ``+`` and ``-`` refuse maps whose labels do
    not meet, so a product through an empty sum keeps its full shape and a
    product of two maps that do not compose raises instead of coming out 0."""

    def __init__(self, algebra: BasicAlgebra, src_labels, tgt_labels, rows):
        if len(rows) != len(src_labels) or not {len(tgt_labels)}.issuperset(map(len, rows)):
            raise TiltbenchError(f"entry rows do not fit the labels {src_labels} -> {tgt_labels}")
        self.algebra = algebra
        self.src = src_labels
        self.tgt = tgt_labels
        self.rows = rows

    @classmethod
    def zero(cls, algebra: BasicAlgebra, src_labels, tgt_labels) -> "EntryMap":
        return cls(algebra, src_labels, tgt_labels, [[{} for _ in tgt_labels] for _ in src_labels])

    @classmethod
    def identity(cls, algebra: BasicAlgebra, labels) -> "EntryMap":
        e = cls.zero(algebra, labels, labels)
        for i, lab in enumerate(labels):
            e.rows[i][i] = {algebra.idempotent_index[str(lab)]: 1}
        return e

    def nonzero(self):
        """(i, j, element) for each nonzero entry, row by row."""
        for i, row in enumerate(self.rows):
            for j, x in enumerate(row):
                if x:
                    yield i, j, x

    def is_zero(self) -> bool:
        return not any(map(any, self.rows))

    def __eq__(self, other):
        if not isinstance(other, EntryMap):
            return NotImplemented
        return self.src == other.src and self.tgt == other.tgt and self.rows == other.rows

    def __add__(self, other: "EntryMap") -> "EntryMap":
        if self.src != other.src or self.tgt != other.tgt:
            raise TiltbenchError(f"entry maps {self.src} -> {self.tgt} and {other.src} -> {other.tgt} do not add")
        rows = [[el_add(x, y) for x, y in zip(ra, rb)] for ra, rb in zip(self.rows, other.rows)]
        return EntryMap(self.algebra, self.src, self.tgt, rows)

    def __sub__(self, other: "EntryMap") -> "EntryMap":
        return self + other.scale(-1)

    def scale(self, c) -> "EntryMap":
        return EntryMap(self.algebra, self.src, self.tgt, [[el_scale(c, x) for x in row] for row in self.rows])

    def then(self, other: "EntryMap") -> "EntryMap":
        """"self then other", for self : X -> Y and other : Y -> Z."""
        if self.tgt != other.src:
            raise TiltbenchError(f"entry maps do not compose: {self.src} -> {self.tgt} then {other.src} -> {other.tgt}")
        mul = self.algebra.mul
        rows = []
        for row in self.rows:
            out = [{} for _ in other.tgt]
            for j, x in enumerate(row):
                if x:
                    for k, y in enumerate(other.rows[j]):
                        if y:
                            out[k] = el_add(out[k], mul(y, x))
            rows.append(out)
        return EntryMap(self.algebra, self.src, other.tgt, rows)

    def __repr__(self):
        return f"EntryMap({self.src} -> {self.tgt}, {self.rows})"


class ProjSum:
    """Direct sum of labeled projectives with explicit coordinate layout, the
    one layout of a sum of projectives: ``projective`` and
    ``regular_module`` are such sums.

    Vertex space at w is spanned by pairs (summand i with label a_i, basis
    path k: a_i -> w), in summand-major order.  ``rep`` is built from the
    layout: an arrow b sends (i, k) to (i, k b), read in the path basis
    through ``algebra.basis_product``.
    """

    def __init__(self, algebra: BasicAlgebra, labels):
        self.algebra = algebra
        self.labels = [str(x) for x in labels]
        q = algebra.quiver
        self.layout = {w: [] for w in q.vertices}
        for i, lab in enumerate(self.labels):
            if lab not in q.vertex_index:
                raise TiltbenchError(f"unknown vertex label {lab!r}")
            for w in q.vertices:
                for k in algebra.paths_between(lab, w):
                    self.layout[w].append((i, k))
        self.pos = {w: {pair: c for c, pair in enumerate(self.layout[w])} for w in q.vertices}
        dims = {w: len(self.layout[w]) for w in q.vertices}
        mats = {}
        for ar in q.arrows:
            b = algebra.index[Path(ar.source, (ar.name,))]
            tgt_pos = self.pos[ar.target]
            rows = []
            for i, k in self.layout[ar.source]:
                row = [0] * dims[ar.target]
                for kk, c in algebra.basis_product(k, b).items():
                    row[tgt_pos[(i, kk)]] = c
                rows.append(tuple(row))
            mats[ar.name] = Matrix._trusted(dims[ar.source], dims[ar.target], tuple(rows))
        self.rep = Representation(algebra, dims, mats, check=False)

    def generator_position(self, i: int):
        lab = self.labels[i]
        k = self.algebra.idempotent_index[lab]
        return lab, self.pos[lab][(i, k)]


def realize_entry_map(src: ProjSum, tgt: ProjSum, e: EntryMap) -> ModuleMap:
    """The module map src -> tgt of the entry map e, whose labels must be
    those of the two sums: ``e.rows[i][j]``, an element of the sandwich
    e_{b_j} A e_{a_i}, acts on P(a_i) by front concatenation."""
    if e.src != src.labels or e.tgt != tgt.labels:
        raise TiltbenchError(f"entry map {e.src} -> {e.tgt} between sums {src.labels} -> {tgt.labels}")
    alg = src.algebra
    mats = {}
    for w in alg.quiver.vertices:
        rows = []
        for (i, k) in src.layout[w]:
            row = [0] * len(tgt.layout[w])
            for j, x in enumerate(e.rows[i]):
                if x:
                    for kk, c in alg.mul(x, alg.basis_el(k)).items():  # paths b_j -> w
                        row[tgt.pos[w][(j, kk)]] += c
            rows.append(row)
        mats[w] = Matrix(len(src.layout[w]), len(tgt.layout[w]), rows)
    return ModuleMap(src.rep, tgt.rep, mats, check=False)


def extract_entry_map(src: ProjSum, tgt: ProjSum, f: ModuleMap) -> EntryMap:
    """Inverse of realize_entry_map: the entry map src -> tgt read off the
    generator images of f."""
    e = EntryMap.zero(src.algebra, src.labels, tgt.labels)
    for i, row in enumerate(e.rows):
        lab, pos = src.generator_position(i)
        for (j, k), c in zip(tgt.layout[lab], f.mats[lab].row(pos)):
            if c:
                row[j][k] = c
    return e


def dual(n: Representation, a: BasicAlgebra) -> Representation:
    """D n = Hom_K(n, K) as a module over a, for n a module over the opposite
    of a: the dual basis at each vertex, and each arrow acting by the
    transpose of its reversed arrow's matrix in n."""
    if n.algebra.quiver != a.quiver.opposite():
        raise TiltbenchError(f"dual: the module's quiver {n.algebra.quiver} is not the opposite of {a.quiver}")
    return Representation(a, n.dims, {name: m.transpose() for name, m in n.mats.items()}, check=False)


def nu_injective_sum(algebra: BasicAlgebra, labels) -> Representation:
    """The sum of the injectives I(a_1) + ... + I(a_m): D of the sum of the
    projectives with the same labels over ``algebra.opposite``."""
    return dual(ProjSum(opposite(algebra), labels).rep, algebra)
