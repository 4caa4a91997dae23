"""Reference routes to sums of projectives and to minimal approximations,
kept for tests: each projective built by appending arrows to its paths and
summed by ``direct_sum``, which ``reps.ProjSum`` is tested against, and the
approximations by hom-space solves and module maps, which the Yoneda route
of ``approx`` is tested against."""

from module_maps import flatten_map

from tiltbench.errors import TiltbenchError
from tiltbench.linalg import Basis, Matrix, sparse_row_space
from tiltbench.quiver import Path
from tiltbench.reps import EntryMap, ModuleMap, ProjSum, Representation, hom_space, realize_entry_map, zero_rep


def projective_by_appending(a, v) -> Representation:
    """Paths starting at v; arrows act by appending."""
    v = str(v)
    q = a.quiver
    layout = {w: a.paths_between(v, w) for w in q.vertices}
    dims = {w: len(layout[w]) for w in q.vertices}
    mats = {}
    for ar in q.arrows:
        tgt_pos = {k: c for c, k in enumerate(layout[ar.target])}
        ar_el = {a.index[Path(ar.source, (ar.name,))]: 1}
        rows = []
        for k in layout[ar.source]:
            row = [0] * dims[ar.target]
            for kk, c in a.mul(a.basis_el(k), ar_el).items():
                row[tgt_pos[kk]] = c
            rows.append(row)
        mats[ar.name] = Matrix(dims[ar.source], dims[ar.target], rows)
    return Representation(a, dims, mats, check=False)


def projective_sum(a, labels) -> Representation:
    """The direct sum of the projectives with the given labels, in order."""
    out = zero_rep(a)
    for v in labels:
        out = out.direct_sum(projective_by_appending(a, v))
    return out


def _prepend_map(a, k) -> ModuleMap:
    """Module map P(target of path k) -> P(source of path k): prepend path k."""
    src, tgt = ProjSum(a, [a.target[k]]), ProjSum(a, [a.source[k]])
    return realize_entry_map(src, tgt, EntryMap(a, src.labels, tgt.labels, [[{k: 1}]]))


def _distinct(labels):
    out = []
    for lab in [str(t) for t in labels]:
        if lab not in out:
            out.append(lab)
    return out


def _choose(a, distinct, homs, radical_rows):
    """Per label, the basis maps independent of the radical composites and
    of the maps before them."""
    chosen = {}
    for v in distinct:
        h_v = homs[v]
        if not h_v:
            chosen[v] = []
            continue
        rad_rows = radical_rows(v)
        width = len(flatten_map(h_v[0]))
        chosen[v] = [h_v[k] for k in Basis([flatten_map(h) for h in h_v], width, rad_rows).positions]
    return chosen


def right_approximation(a, labels, x):
    """(labels, f) of the minimal right approximation of x by add of the
    labeled projectives, from hom_space(P(v), x) and module maps."""
    distinct = _distinct(labels)
    homs = {v: hom_space(projective_by_appending(a, v), x) for v in distinct}

    def radical_rows(v):
        rows = []
        for w in distinct:
            for k in a.paths_between(w, v):
                if len(a.basis[k]) == 0 and w == v:
                    continue
                pre = _prepend_map(a, k)
                rows.extend(flatten_map(pre.then(h)) for h in homs[w])
        return rows

    chosen = _choose(a, distinct, homs, radical_rows)
    out_labels = [v for v in distinct for _ in chosen[v]]
    psum = ProjSum(a, out_labels)
    mats = {}
    for w in a.quiver.vertices:
        rows = [row for v in distinct for h in chosen[v] for row in h.mats[w].data]
        mats[w] = Matrix(len(rows), x.dims[w], rows)
    f = ModuleMap(psum.rep, x, mats, check=False)
    for v in distinct:
        if not homs[v]:
            continue
        comps = [g.then(f) for g in hom_space(projective_by_appending(a, v), psum.rep)]
        if len(sparse_row_space(dict(enumerate(flatten_map(c))) for c in comps)) != len(homs[v]):
            raise TiltbenchError(f"right approximation not surjective on Hom(P({v}), -)")
    return out_labels, f


def left_approximation(a, labels, x):
    """(labels, g) of the minimal left approximation of x by add of the
    labeled projectives, from hom_space(x, P(v)) and module maps."""
    distinct = _distinct(labels)
    homs = {v: hom_space(x, projective_by_appending(a, v)) for v in distinct}

    def radical_rows(v):
        rows = []
        for w in distinct:
            for k in a.paths_between(v, w):
                if len(a.basis[k]) == 0 and w == v:
                    continue
                pre = _prepend_map(a, k)
                rows.extend(flatten_map(h.then(pre)) for h in homs[w])
        return rows

    chosen = _choose(a, distinct, homs, radical_rows)
    out_labels = [v for v in distinct for _ in chosen[v]]
    psum = ProjSum(a, out_labels)
    mats = {}
    picked = [h for v in distinct for h in chosen[v]]
    for w in a.quiver.vertices:
        rows = [[y for h in picked for y in h.mats[w].data[r]] for r in range(x.dims[w])]
        mats[w] = Matrix(x.dims[w], sum(h.mats[w].cols for h in picked), rows)
    g = ModuleMap(x, psum.rep, mats, check=False)
    for v in distinct:
        if not homs[v]:
            continue
        comps = [g.then(h) for h in hom_space(psum.rep, projective_by_appending(a, v))]
        if len(sparse_row_space(dict(enumerate(flatten_map(c))) for c in comps)) != len(homs[v]):
            raise TiltbenchError(f"left approximation not surjective on Hom(-, P({v}))")
    return out_labels, g
