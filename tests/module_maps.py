"""Reference routes to hom spaces, kept for tests: the module-map route to
Hom out of a sum of projectives, which ``reps.precomposition`` is tested
against, the dense linear system for Hom(m, n), which the sparse
``reps.hom_space`` is tested against, and the dense flattening of a module
map that these references compare in; and the injectives built one at a
time as duals of the paths ending at a vertex, in the algebra itself, and
summed by ``direct_sum``, which ``reps.nu_injective_sum``, built as D of
projectives over ``algebra.opposite``, is tested against."""

from fractions import Fraction

from tiltbench.errors import TiltbenchError
from tiltbench.linalg import Matrix, sparse_kernel
from tiltbench.quiver import Path
from tiltbench.reps import ModuleMap, Representation, zero_rep

ZERO = Fraction(0)


def flatten_map(f) -> list:
    """The entries of f's vertex matrices, row by row, vertices in quiver
    order: ``reps.flat`` written out dense."""
    return [x for v in f.source.algebra.quiver.vertices for row in f.mats[v].data for x in row]


def hom_from_projective_sum(psum, x) -> list:
    """Basis of the module maps psum -> x by Yoneda's lemma, Hom(P(a), x) = x(a).

    For summand i with label a and basis vector r of x at a, the map sends
    summand i's generator to r: the path k: a -> w goes to row r of
    ``x.path_matrix(k)``, and every other summand goes to 0.  The basis is
    summand-major, then r.  No linear system is solved."""
    alg = psum.algebra
    if x.algebra is not alg and x.algebra.basis != alg.basis:
        raise TiltbenchError("modules over different algebras")
    words = {}  # (source, arrow word) -> x's matrix of that path

    def word_matrix(source, word):
        if len(word) <= 1:
            return x.mats[word[0]] if word else Matrix.identity(x.dims[source])
        m = words.get((source, word))
        if m is None:
            m = words[(source, word)] = word_matrix(source, word[:-1]) * x.mats[word[-1]]
        return m

    path_rows = {}  # basis path k -> rows of x.path_matrix(k)
    for w in alg.quiver.vertices:
        for _, k in psum.layout[w]:
            if k not in path_rows:
                p = alg.basis[k]
                path_rows[k] = word_matrix(p.source, p.arrows).data
    out = []
    for i, a in enumerate(psum.labels):
        for r in range(x.dims[a]):
            mats = {}
            for w in alg.quiver.vertices:
                zero = (ZERO,) * x.dims[w]
                rows = [path_rows[k][r] if j == i else zero for j, k in psum.layout[w]]
                mats[w] = Matrix(len(rows), x.dims[w], rows)
            out.append(ModuleMap(psum.rep, x, mats, check=False))
    return out


def dense_hom_space(m, n) -> list:
    """Basis of the module maps m -> n from the kernel of the dense system
    M_a F_w - F_u N_a = 0, one row per entry, one column per entry of the
    vertex matrices F_v (vertex by vertex, each row by row)."""
    if m.algebra is not n.algebra and m.algebra.basis != n.algebra.basis:
        raise TiltbenchError("modules over different algebras")
    q = m.algebra.quiver
    verts = list(q.vertices)
    offsets = {}
    total = 0
    for v in verts:
        offsets[v] = total
        total += m.dims[v] * n.dims[v]
    if total == 0:
        return []

    rows = []
    for a in q.arrows:
        u, w = a.source, a.target
        mu, nw = m.dims[u], n.dims[w]
        for i in range(mu):
            for j in range(nw):
                row = [ZERO] * total
                for k in range(m.dims[w]):
                    row[offsets[w] + k * n.dims[w] + j] += m.mats[a.name].data[i][k]
                for k in range(n.dims[u]):
                    row[offsets[u] + i * n.dims[u] + k] -= n.mats[a.name].data[k][j]
                rows.append(row)
    out = []
    for vec in sparse_kernel([dict(enumerate(row)) for row in rows], total):
        mats = {}
        for v in verts:
            if m.dims[v] and n.dims[v]:
                block = [
                    [vec.get(offsets[v] + i * n.dims[v] + j, ZERO) for j in range(n.dims[v])]
                    for i in range(m.dims[v])
                ]
                mats[v] = Matrix(m.dims[v], n.dims[v], block)
        out.append(ModuleMap(m, n, mats, check=False))
    return out


def injective_by_dual_paths(a, v):
    """I(v) as the linear dual of the paths ending at v: the arrow b: u -> w
    has the matrix whose entry (p, r), p: u -> v and r: w -> v, is the
    coefficient of p in b * r, each entry one product in the algebra."""
    v = str(v)
    q = a.quiver
    layout = {w: a.paths_between(w, v) for w in q.vertices}
    dims = {w: len(layout[w]) for w in q.vertices}
    mats = {}
    for ar in q.arrows:
        ar_el = {a.index[Path(ar.source, (ar.name,))]: 1}
        rows = []
        for p in layout[ar.source]:
            row = [0] * dims[ar.target]
            for col, r in enumerate(layout[ar.target]):
                row[col] = a.mul(ar_el, a.basis_el(r)).get(p, 0)
            rows.append(row)
        mats[ar.name] = Matrix(dims[ar.source], dims[ar.target], rows)
    return Representation(a, dims, mats, check=False)


def injective_sum_by_direct_sums(a, labels):
    """The sum of the injectives with the given labels, each built by
    ``injective_by_dual_paths`` and summed by ``Representation.direct_sum``."""
    rep = None
    for lab in labels:
        i = injective_by_dual_paths(a, lab)
        rep = i if rep is None else rep.direct_sum(i)
    return rep if rep is not None else zero_rep(a)
