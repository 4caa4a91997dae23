"""Minimal right/left approximations by sums of labeled projectives.

The right approximation of X by add of the projectives with the given labels
is assembled from a minimal generating set of each Hom(P(v), X) as a module
over the category of projectives: generators are chosen modulo composites
through radical maps between the projectives.  The left approximation is
its dual, and one helper, ``_choose_generators``, makes the choice for both.

Maps out of a projective are read by Yoneda, Hom(P(v), X) = X(v): a map is
its image y of the generator e_v, and its composite with the radical path
k: w -> v is y X(k).  So the radical composites into X(v) are the rows of
X's path matrices (``Representation.path_matrix``), f is written out from
its generator images (``reps.map_from_generators``), and its certificate,
Hom(P(v), f) onto, is rank f_v = dim X(v).  Maps into a projective are
module maps.  Hom(P(w_1) + ... + P(w_m), P(v)) has a basis of one map per
summand i and path p: v -> w_i, so the left certificate, Hom(g, P(v))
onto, is that the chosen maps into P(w_i) followed by prepending p, trivial
paths included, span a space as large as Hom(X, P(v)).
Both certificates are checked before returning.

``approximation_tower`` repeats an approximation on what it leaves over, a
kernel or a cokernel, computed only when a next step approximates it; both
sides of ``tilting.construct_tpq`` read it, and with every label and right
approximations it is the minimal projective resolution, the kernels of its
maps the syzygies.
"""

from __future__ import annotations

from .algebra import BasicAlgebra
from .errors import TiltbenchError
from .linalg import Basis, Matrix, sparse_row_space
from .reps import (
    EntryMap,
    ModuleMap,
    ProjSum,
    Representation,
    flat,
    hom_space,
    map_from_generators,
    projective,
    realize_entry_map,
)


def _choose_generators(labels, basis, width, composites):
    """Per label v, the positions in basis[v] of the vectors that are
    independent of the radical composites and of the vectors before them.
    ``composites(v, w)`` lists the composites of the maps of label w with
    the radical paths between w and v, as vectors of width[v] like those
    of basis[v]."""
    chosen = {}
    for v in labels:
        if not basis[v]:
            chosen[v] = []
            continue
        chosen[v] = Basis(basis[v], width[v], [row for w in labels for row in composites(v, w)]).positions
    return chosen


def minimal_right_approximation_labeled(a: BasicAlgebra, labels, x: Representation):
    """(multiset of labels, f: ProjSum(labels').rep -> x) minimal right
    approximation of x by add of the listed projectives."""
    distinct = list(dict.fromkeys(str(t) for t in labels))
    # the images of e_v, the first path from v to v, under the basis maps
    gens = {v: [h.mats[v].row(0) for h in hom_space(projective(a, v), x)] for v in distinct}

    def composites(v, w):
        return [row for k in a.paths_between(w, v) if a.basis[k].arrows for row in x.path_matrix(a.basis[k]).data]

    chosen = _choose_generators(distinct, gens, x.dims, composites)
    out_labels = [v for v in distinct for _ in chosen[v]]
    f = map_from_generators(ProjSum(a, out_labels), x, [gens[v][j] for v in distinct for j in chosen[v]])
    for v in distinct:
        if len(Basis(f.mats[v].data, x.dims[v]).rows) != x.dims[v]:
            raise TiltbenchError(f"right approximation not surjective on Hom(P({v}), -)")
    return out_labels, f


def minimal_left_approximation_labeled(a: BasicAlgebra, labels, x: Representation):
    """(multiset of labels, g: x -> ProjSum(labels').rep) minimal left
    approximation of x by add of the listed projectives."""
    distinct = list(dict.fromkeys(str(t) for t in labels))
    homs = {v: hom_space(x, projective(a, v)) for v in distinct}
    prepends = {}  # path k -> the map P(target of k) -> P(source of k) prepending k

    def through(h, k):
        """The flat of h: x -> P(w) followed by prepending the path k: v -> w."""
        pre = prepends.get(k)
        if pre is None:
            src, tgt = ProjSum(a, [a.target[k]]), ProjSum(a, [a.source[k]])
            pre = prepends[k] = realize_entry_map(src, tgt, EntryMap(a, src.labels, tgt.labels, [[{k: 1}]]))
        return flat(h.then(pre))

    def composites(v, w):
        return [through(h, k) for k in a.paths_between(v, w) if a.basis[k].arrows for h in homs[w]]

    basis = {v: [flat(h) for h in homs[v]] for v in distinct}
    width = {v: sum(x.dims[u] * len(a.paths_between(v, u)) for u in x.dims) for v in distinct}
    chosen = _choose_generators(distinct, basis, width, composites)
    picked = [(v, homs[v][j]) for v in distinct for j in chosen[v]]
    out_labels = [v for v, _ in picked]
    mats = {}
    for w in a.quiver.vertices:
        rows = tuple(tuple(y for _, h in picked for y in h.mats[w].data[r]) for r in range(x.dims[w]))
        mats[w] = Matrix._trusted(x.dims[w], sum(h.mats[w].cols for _, h in picked), rows)
    g = ModuleMap(x, ProjSum(a, out_labels).rep, mats, check=False)
    for v in distinct:
        spanned = [through(h, k) for w, h in picked for k in a.paths_between(v, w)]
        if len(sparse_row_space(spanned)) != len(homs[v]):
            raise TiltbenchError(f"left approximation not surjective on Hom(-, P({v}))")
    return out_labels, g


def approximation_tower(approximate, leftover, a: BasicAlgebra, labels, x: Representation, steps: int):
    """Up to ``steps`` (term, d), stopping at an empty term: term is the
    ``ProjSum`` of ``approximate``, a minimal approximation above, at x and
    then at each rest, the ``leftover`` (``kernel_of`` or ``cokernel_of``)
    of the approximation before; d is its map to the term before (from it,
    on the left), the first d to or from x.  A rest is computed at the start
    of the step that approximates it, so the last step's is not."""
    link = None  # the rest's inclusion into the term before, or the projection of that term onto the rest
    f = None  # the last approximation
    for _ in range(steps):
        if f is not None:
            x, link = leftover(f)
        term_labels, f = approximate(a, labels, x)
        if not term_labels:
            return
        # an inclusion leaves the rest and a projection enters it
        d = f if link is None else f.then(link) if link.source is x else link.then(f)
        yield ProjSum(a, term_labels), d
