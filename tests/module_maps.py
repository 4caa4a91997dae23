"""The module-map route to Hom out of a sum of projectives, kept as the
reference that ``reps.YonedaAction`` is tested against."""

from fractions import Fraction

from tiltbench.errors import TiltbenchError
from tiltbench.linalg import Matrix
from tiltbench.reps import ModuleMap

ZERO = Fraction(0)


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

