"""Minimal right/left approximations by sums of labeled projectives.

The right approximation of X by add of the projectives with the given labels
is assembled from a minimal generating set of each Hom(P(v), X) as a module
over the category of projectives: generators are chosen modulo composites
through radical maps between the projectives.  Approximation surjectivity is
verified by an exact rank count before returning.
"""

from __future__ import annotations

from .algebra import BasicAlgebra
from .errors import TiltbenchError
from .linalg import Coordinates, Matrix, sparse_row_space
from .reps import (
    ModuleMap,
    ProjSum,
    Representation,
    flatten_map,
    hom_space,
    projective,
    realize_entry_map,
)


def _prepend_map(a: BasicAlgebra, k: int) -> ModuleMap:
    """Module map P(target of path k) -> P(source of path k): prepend path k."""
    return realize_entry_map(ProjSum(a, [a.target[k]]), ProjSum(a, [a.source[k]]), [[{k: 1}]])


def minimal_right_approximation_labeled(a: BasicAlgebra, labels, x: Representation):
    """(multiset of labels, f: ProjSum(labels').rep -> x) minimal right
    approximation of x by add of the listed projectives."""
    distinct = []
    for lab in [str(t) for t in labels]:
        if lab not in distinct:
            distinct.append(lab)
    homs = {v: hom_space(projective(a, v), x) for v in distinct}
    chosen = {}
    for v in distinct:
        h_v = homs[v]
        if not h_v:
            chosen[v] = []
            continue
        width = len(flatten_map(h_v[0]))
        rad_rows = []
        for w in distinct:
            for k in a.paths_between(w, v):
                # prepend path k: P(v) -> P(w); radical unless trivial
                if len(a.basis[k]) == 0 and w == v:
                    continue
                pre = _prepend_map(a, k)
                for h in homs[w]:
                    rad_rows.append(flatten_map(pre.then(h)))
        # keep the maps independent of the radical ones and of those kept before
        independent = Coordinates(rad_rows + [flatten_map(h) for h in h_v], width).independent
        chosen[v] = [h_v[k - len(rad_rows)] for k in independent if k >= len(rad_rows)]
    out_labels = []
    for v in distinct:
        out_labels.extend([v] * len(chosen[v]))
    psum = ProjSum(a, out_labels)
    mats = {}
    for w in a.quiver.vertices:
        rows = []
        for v in distinct:
            for h in chosen[v]:
                rows.extend(list(h.mats[w].data))
        mats[w] = Matrix(len(rows), x.dims[w], rows)
    f = ModuleMap(psum.rep, x, mats, check=False)
    _verify_right_approximation(a, {v: len(homs[v]) for v in distinct}, f)
    return out_labels, f


def _verify_right_approximation(a, hom_dims, f):
    """Checks that every map P(v) -> x factors through f, given
    hom_dims[v] = dim Hom(P(v), x)."""
    psum_rep = f.source
    for v, target_dim in hom_dims.items():
        if target_dim == 0:
            continue
        comps = [g.then(f) for g in hom_space(projective(a, v), psum_rep)]
        if not comps:
            raise TiltbenchError("approximation property failed: no maps to lift")
        if len(sparse_row_space(dict(enumerate(flatten_map(c))) for c in comps)) != target_dim:
            raise TiltbenchError(f"right approximation not surjective on Hom(P({v}), -)")


def minimal_left_approximation_labeled(a: BasicAlgebra, labels, x: Representation):
    """(multiset of labels, g: x -> ProjSum(labels').rep) minimal left
    approximation of x by add of the listed projectives."""
    distinct = []
    for lab in [str(t) for t in labels]:
        if lab not in distinct:
            distinct.append(lab)
    homs = {v: hom_space(x, projective(a, v)) for v in distinct}
    chosen = {}
    for v in distinct:
        h_v = homs[v]
        if not h_v:
            chosen[v] = []
            continue
        width = len(flatten_map(h_v[0]))
        rad_rows = []
        for w in distinct:
            for k in a.paths_between(v, w):
                # prepend path k: P(w) -> P(v); postcompose h: x -> P(w)
                if len(a.basis[k]) == 0 and w == v:
                    continue
                pre = _prepend_map(a, k)
                for h in homs[w]:
                    rad_rows.append(flatten_map(h.then(pre)))
        # keep the maps independent of the radical ones and of those kept before
        independent = Coordinates(rad_rows + [flatten_map(h) for h in h_v], width).independent
        chosen[v] = [h_v[k - len(rad_rows)] for k in independent if k >= len(rad_rows)]
    out_labels = []
    for v in distinct:
        out_labels.extend([v] * len(chosen[v]))
    psum = ProjSum(a, out_labels)
    mats = {}
    for w in a.quiver.vertices:
        cols = None
        for v in distinct:
            for h in chosen[v]:
                cols = h.mats[w] if cols is None else cols.hstack(h.mats[w])
        mats[w] = cols if cols is not None else Matrix.zero(x.dims[w], 0)
    g = ModuleMap(x, psum.rep, mats, check=False)
    _verify_left_approximation(a, {v: len(homs[v]) for v in distinct}, g)
    return out_labels, g


def _verify_left_approximation(a, hom_dims, g):
    """Checks that every map x -> P(v) factors through g, given
    hom_dims[v] = dim Hom(x, P(v))."""
    psum_rep = g.target
    for v, target_dim in hom_dims.items():
        if target_dim == 0:
            continue
        comps = [g.then(h) for h in hom_space(psum_rep, projective(a, v))]
        if not comps:
            raise TiltbenchError("approximation property failed: no maps to lift")
        if len(sparse_row_space(dict(enumerate(flatten_map(c))) for c in comps)) != target_dim:
            raise TiltbenchError(f"left approximation not surjective on Hom(-, P({v}))")

