"""Reference routes to homotopy spaces, their products and complex
decompositions, kept for tests: the dense chain-condition system that
``HomotopySpace`` solved before it went sparse; the products of End(T) and
``ChainEndData`` formed by composing chain maps (``ChainMapC.then``) and
reducing the composite, which ``HomotopySpace.compose`` and
``classes.coordinates`` are tested against; and the per-copy maps of a complex
decomposition cut out of one block map D -> c and its inverse c -> D, D the
direct sum of the copies, which ``decompose_complex`` is tested against.
The decomposition reference minimizes by ``cancel_by_closed_form``, the
cancellation step as it was before ``complexes.retract`` formed every
retract's differential as "i then d then p".  ``all_slots_differential`` is
the Hom-complex differential as it was before ``complexes._differential``
skipped the zero entries of d_x and d_y."""

from fractions import Fraction
from types import SimpleNamespace

from tiltbench.algebra import el_scale, el_sub, el_to_vector
from tiltbench.complex_decomp import (
    ChainEndData,
    _component_complex,
    _support_components,
    complexes_isomorphic,
    split_strict_idempotent,
)
from tiltbench.complexes import ChainMapC, ProjComplex, _find_unit_entry
from tiltbench.decompose import primitive_idempotents
from tiltbench.errors import TiltbenchError
from tiltbench.linalg import Basis, sparse_kernel
from tiltbench.reps import EntryMap

ZERO = Fraction(0)
ONE = Fraction(1)


class DenseHomotopy:
    """chain_vectors and class_vectors of the maps x -> y from the dense
    system of the chain condition, one row per basis path of each entry of
    each chain square, and dense null-homotopy rows, in the coordinates of
    ``HomotopySpace(x, y).positions``; ``reduce`` gives the class
    coordinates of a dense coordinate vector in the ``Basis`` of the chain
    vectors modulo the null rows."""

    def __init__(self, x, y):
        self.chain_vectors, null, n_unk = _dense_system(x, y)
        self._null = len(null)
        self._classes = Basis(self.chain_vectors, n_unk, null)
        self.class_vectors = self._classes.rows

    def reduce(self, vec):
        return dense_coordinates(self._classes, vec)


def all_slots_differential(x, y, n):
    """``complexes._differential`` as it multiplied every slot of d_y's row
    and d_x's column, zero entries included, kept as the reference."""
    alg = x.algebra
    sign = -1 if n % 2 == 0 else 1
    for d in sorted(x.terms):
        src, tgt = x.term(d), y.term(d + n)
        if not tgt:
            continue
        dy = y.diff(d + n).rows
        dx = x.diff(d - 1).rows
        after = range(len(y.term(d + n + 1)))
        before = range(len(x.term(d - 1)))
        for i in range(len(src)):
            for j in range(len(tgt)):
                for k in alg.paths_between(tgt[j], src[i]):
                    image = {(d, i, m, kk): c for m in after for kk, c in alg.mul(dy[j][m], {k: 1}).items()}
                    for ip in before:
                        for kk, c in alg.mul({k: 1}, dx[ip][i]).items():
                            image[(d - 1, ip, j, kk)] = sign * c
                    yield (d, i, j, k), image


def dense_coordinates(basis, vec):
    """basis.coordinates(vec) as a dense list over the basis rows, or None
    when vec is outside the span."""
    try:
        coords = basis.coordinates(vec)
    except TiltbenchError:
        return None
    return [coords.get(k, 0) for k in range(len(basis.rows))]


def _dense_system(x, y):
    alg = x.algebra
    pos = {}
    for d in sorted(set(x.terms) & set(y.terms)):
        src, tgt = x.term(d), y.term(d)
        for i in range(len(src)):
            for j in range(len(tgt)):
                for k in alg.paths_between(tgt[j], src[i]):
                    pos[(d, i, j, k)] = len(pos)
    n_unk = len(pos)
    rows = []
    for d in sorted(set(x.terms)):
        src_d, src_d1 = x.term(d), x.term(d + 1)
        tgt_d, tgt_d1 = y.term(d), y.term(d + 1)
        if not src_d or not tgt_d1:
            continue
        dx, dy = x.diff(d).rows, y.diff(d).rows
        for i in range(len(src_d)):
            for m in range(len(tgt_d1)):
                acc = {}
                for j in range(len(tgt_d)):
                    for k in alg.paths_between(tgt_d[j], src_d[i]):
                        for kk, c in alg.mul(dy[j][m], {k: ONE}).items():
                            row = acc.setdefault(kk, [ZERO] * n_unk)
                            row[pos[(d, i, j, k)]] += c
                for jp in range(len(src_d1)):
                    for k in alg.paths_between(tgt_d1[m], src_d1[jp]):
                        for kk, c in alg.mul({k: ONE}, dx[i][jp]).items():
                            row = acc.setdefault(kk, [ZERO] * n_unk)
                            row[pos[(d + 1, jp, m, k)]] -= c
                rows.extend(acc.values())
    chain = sparse_kernel([dict(enumerate(row)) for row in rows], n_unk)
    null = []
    for d in sorted(set(x.terms)):
        if not y.term(d - 1):
            continue
        src, tgt = x.term(d), y.term(d - 1)
        dy, dx = y.diff(d - 1).rows, x.diff(d - 1).rows
        for i in range(len(src)):
            for j in range(len(tgt)):
                for k in alg.paths_between(tgt[j], src[i]):
                    vec = [ZERO] * n_unk
                    for m in range(len(y.term(d))):
                        for kk, c in alg.mul(dy[j][m], {k: ONE}).items():
                            if (d, i, m, kk) in pos:
                                vec[pos[(d, i, m, kk)]] += c
                    for ip in range(len(x.term(d - 1))):
                        for kk, c in alg.mul({k: ONE}, dx[ip][i]).items():
                            if (d - 1, ip, j, kk) in pos:
                                vec[pos[(d - 1, ip, j, kk)]] += c
                    null.append(vec)
    return chain, null, n_unk


def end_table_by_chain_maps(space):
    """The product table of End(T) on the class basis of space (T -> T):
    cell [i][j] holds the dense class coordinates of e_i * e_j, which is
    "class j then class i", from the composed chain maps, reduced by the
    dense route."""
    ref = DenseHomotopy(space.x, space.y)
    reps = [space.vector_to_chain_map(v) for v in ref.class_vectors]
    return [[ref.reduce(_vector(space, g.then(f))) for g in reps] for f in reps]


def chain_end_table_by_chain_maps(data):
    """The product table of a ``ChainEndData``: cell [i][j] holds the dense
    chain-basis coordinates of e_i * e_j = "e_i then e_j", from the composed
    chain maps."""
    space = data.space
    maps = [space.vector_to_chain_map(v) for v in space.chain_vectors]
    span = Basis(space.chain_vectors, len(space.positions))
    return [[dense_coordinates(span, _vector(space, f.then(g))) for g in maps] for f in maps]


def _vector(space, cm):
    """Dense coordinates of the chain map cm in space."""
    return el_to_vector(space.chain_map_terms(cm), len(space.positions))


def decomposition_by_block_maps(c):
    """(summands, includes, projects) of c by the block route: split every
    support component of the minimized complex m by primitive idempotents of
    its chain endomorphisms, group the pieces up to isomorphism (each group's
    first piece aligned to itself by identities), assemble f : D -> c and
    g : c -> D from the blocks, and cut the k-th copy's maps out of them by
    the block inclusion D_k -> D and projection D -> D_k."""
    m, eq = minimize_by_closed_form(c)
    leaves = []  # (piece, include into m, project from m)
    for comp in _support_components(m):
        sub, incl, proj = _component_complex(m, comp)
        for piece, inc2, prj2 in _split_pieces(sub):
            leaves.append((piece, inc2.then(incl), proj.then(prj2)))
    groups = []
    for piece, incl, proj in leaves:
        for group in groups:
            pair = complexes_isomorphic(group[0][0], piece)
            if pair is not None:
                group.append((piece, incl, proj, pair))
                break
        else:
            ident = ChainMapC.identity(piece)
            groups.append([(piece, incl, proj, (ident, ident))])
    copies = [(group[0][0], incl, proj, pair) for group in groups for _, incl, proj, pair in group]
    d_complex = ProjComplex(c.algebra, {}, {})
    for rep, _, _, _ in copies:
        d_complex = d_complex.direct_sum(rep)
    f_mats = {d: EntryMap.zero(c.algebra, d_complex.term(d), m.term(d)).rows for d in d_complex.terms}
    g_mats = {d: EntryMap.zero(c.algebra, m.term(d), d_complex.term(d)).rows for d in d_complex.terms}
    offsets = []
    offset = {}
    for rep, incl, proj, (rep_to_piece, piece_to_rep) in copies:
        offsets.append(dict(offset))
        for d, e in rep_to_piece.then(incl).mats.items():
            for i, j, x in e.nonzero():
                f_mats[d][offset.get(d, 0) + i][j] = x
        for d, e in proj.then(piece_to_rep).mats.items():
            for i, j, x in e.nonzero():
                g_mats[d][i][offset.get(d, 0) + j] = x
        for d in rep.terms:
            offset[d] = offset.get(d, 0) + len(rep.term(d))
    f = ChainMapC(d_complex, m, f_mats).then(eq.i)
    g = eq.p.then(ChainMapC(m, d_complex, g_mats))
    includes, projects = [], []
    for (rep, _, _, _), base in zip(copies, offsets):
        inc_mats, prj_mats = {}, {}
        for d in rep.terms:
            inc = inc_mats[d] = EntryMap.zero(c.algebra, rep.term(d), d_complex.term(d)).rows
            prj = prj_mats[d] = EntryMap.zero(c.algebra, d_complex.term(d), rep.term(d)).rows
            for i, lab in enumerate(rep.term(d)):
                ident = {c.algebra.idempotent_index[lab]: ONE}
                inc[i][base.get(d, 0) + i] = ident
                prj[base.get(d, 0) + i][i] = ident
        includes.append(ChainMapC(rep, d_complex, inc_mats).then(f))
        projects.append(g.then(ChainMapC(d_complex, rep, prj_mats)))
    summands = [(group[0][0], len(group)) for group in groups]
    return summands, includes, projects


def _split_pieces(sub):
    """(piece, include into sub, project from sub) for the indecomposable
    pieces of one support component, identities for an indecomposable one."""
    if sub.is_zero():
        return []
    ident = ChainMapC.identity(sub)
    if sum(len(labels) for labels in sub.terms.values()) == 1:
        return [(sub, ident, ident)]
    data = ChainEndData(sub)
    idems = primitive_idempotents(data)
    if len(idems) == 1:
        return [(sub, ident, ident)]
    return [split_strict_idempotent(sub, data.element(coords)) for coords in idems]


def cancel_by_closed_form(c, d, i, j):
    """One Gaussian cancellation step at the unit entry d^d[i][j], every
    differential and map of the retract written out by degree; returns (new
    complex, p, i_map)."""
    alg = c.algebra
    src, tgt = c.term(d), c.term(d + 1)
    a_lab = src[i]
    u = c.diff(d).rows[i][j]
    u_inv = alg.corner_inverse(u, a_lab)
    keep_src = [r for r in range(len(src)) if r != i]
    keep_tgt = [s for s in range(len(tgt)) if s != j]

    terms = {}
    for dd, labels in c.terms.items():
        if dd == d:
            labels = [src[r] for r in keep_src]
        elif dd == d + 1:
            labels = [tgt[s] for s in keep_tgt]
        if labels:
            terms[dd] = list(labels)
    diffs = {}
    for dd in c.diffs:
        mat = c.diffs[dd].rows
        if dd == d:
            new = EntryMap.zero(alg, terms.get(d, []), terms.get(d + 1, [])).rows
            for ri, r in enumerate(keep_src):
                b_r = mat[r][j]
                for si, s in enumerate(keep_tgt):
                    corr = alg.mul(mat[i][s], alg.mul(u_inv, b_r))
                    new[ri][si] = el_sub(mat[r][s], corr)
        elif dd == d - 1:
            new = [[mat[r][s] for s in keep_src] for r in range(len(c.term(dd)))]
        elif dd == d + 1:
            new = [[mat[s][t] for t in range(len(c.term(dd + 1)))] for s in keep_tgt]
        else:
            new = mat
        diffs[dd] = new
    nc = ProjComplex(alg, terms, diffs)

    # p: c -> nc is the projection, with a correction out of the cancelled
    # target summand; i: nc -> c is the inclusion corrected into the source.
    p_mats = {}
    i_mats = {}
    for dd, labels in c.terms.items():
        if dd == d:
            p_m = EntryMap.zero(alg, src, terms.get(d, [])).rows
            for ri, r in enumerate(keep_src):
                p_m[r][ri] = {alg.idempotent_index[src[r]]: 1}
            p_mats[dd] = p_m
            i_m = EntryMap.zero(alg, terms.get(d, []), src).rows
            for ri, r in enumerate(keep_src):
                i_m[ri][r] = {alg.idempotent_index[src[r]]: 1}
                i_m[ri][i] = el_scale(-1, alg.mul(u_inv, c.diff(d).rows[r][j]))
            i_mats[dd] = i_m
        elif dd == d + 1:
            p_m = EntryMap.zero(alg, tgt, terms.get(d + 1, [])).rows
            for si, s in enumerate(keep_tgt):
                p_m[s][si] = {alg.idempotent_index[tgt[s]]: 1}
                p_m[j][si] = el_scale(-1, alg.mul(c.diff(d).rows[i][s], u_inv))
            p_mats[dd] = p_m
            i_m = EntryMap.zero(alg, terms.get(d + 1, []), tgt).rows
            for si, s in enumerate(keep_tgt):
                i_m[si][s] = {alg.idempotent_index[tgt[s]]: 1}
            i_mats[dd] = i_m
        else:
            if dd in nc.terms:
                p_mats[dd] = EntryMap.identity(alg, labels).rows
                i_mats[dd] = EntryMap.identity(alg, labels).rows
    return nc, ChainMapC(c, nc, p_mats), ChainMapC(nc, c, i_mats)


def minimize_by_closed_form(c):
    """(m, eq) as ``complexes.minimize`` gives them, by the same scan with
    ``cancel_by_closed_form``; eq has the attributes p : c -> m and i :
    m -> c."""
    cur, p_total, i_total = c, ChainMapC.identity(c), ChainMapC.identity(c)
    while (found := _find_unit_entry(cur)) is not None:
        cur, p_step, i_step = cancel_by_closed_form(cur, *found)
        p_total, i_total = p_total.then(p_step), i_step.then(i_total)
    return cur, SimpleNamespace(p=p_total, i=i_total)
