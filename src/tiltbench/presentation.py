"""Recovering a quiver-with-relations presentation from an abstract algebra.

Vertices are the given (or found) primitive idempotents e_1, ..., e_n.  The
radical and its square are computed Peirce block by Peirce block
(``radical_chain``): e_i A e_j is spanned by the e_i b e_j over the basis
elements b, found by splitting each b into its components e_i b and each
component x into its x e_j.  Each split takes the products in cyclic order
from where the last one found a part and stops once the parts sum to the
element: the e_i sum to 1 and A is the direct sum of the e_i A (and of the
A e_j), so the products not taken are 0.  Each block is kept as the sparse
RREF rows of ``linalg.sparse_row_space``, and a block no part reaches takes
no elimination.  The radical candidate R has R_ij = e_i A e_j for i != j and
R_ii = ker chi_i, where chi_i(x) = tr(L_x on e_i A e_i) / dim(e_i A e_i);
and (R^2)_ij = sum over l of R_il R_lj, taken only over the l where both
blocks are nonzero, with one elimination per block that some product
reaches.  Off the diagonal every such product lies in e_i A e_j = R_ij, so a
block with R_ij = 0 takes no product, and a block whose products span R_ij
takes no more: the rest add nothing.  The diagonal blocks take every
product, for the check that they lie in R.  No full trace form, no product
over all pairs of radical rows and no power of R past the square is formed.

Arrows i -> j lift a basis of R_ij modulo (R^2)_ij, read from the RREF
bases of the two blocks; a block where (R^2)_ij fills R_ij has none.  The
paths, evaluated one length at a time up to the first length L at which all
are 0, give every rad^k and the nilpotency index L (``quiver_presentation``
states why); a path from i times an arrow into j != i is 0 without a
product where e_i A e_j is.  The candidate relations are the left kernels of
each length's elements.  One ``algebra.length_filtration`` of the ideal I
the candidates generate both prunes them and rebuilds the path algebra: at
each length n it eliminates arrow * I_(n-1) and then the candidates of
length n once, on the normal forms of length n - 1 followed by an arrow,
and keeps a candidate only when it raises the rank, a minimal generating
set found greedily by increasing length.  The result is certified by
comparing the dimension of the rebuilt path algebra, and each dim e_i A e_j
when the caller knows it, as ``end_data`` does from the Euler form; only
ideals with length-homogeneous generators are supported (the rebuild
certifies that this suffices for the input at hand).
``relation_ideals_equal`` compares the RREF rows of one such filtration of
each side.
"""

from __future__ import annotations

from collections import namedtuple

from .algebra import BasicAlgebra, FiniteDimAlgebra, abstract_from_table, el_scale, el_sub, length_filtration
from .decompose import primitive_idempotents
from .errors import InternalDisagreement, NotBasic, PresentationError, RadicalNotNilpotent, TiltbenchError
from .linalg import Basis, div, frac, sparse_left_kernel, sparse_row_space
from .quiver import Path, Quiver, Relation, longer_paths


class Presentation(
    namedtuple("Presentation", "quiver relations algebra arrow_elements vertex_idempotents nil_index")
):
    """A quiver with relations for an abstract algebra: ``algebra`` is the
    rebuilt path algebra, certified of the same dimension;
    ``arrow_elements`` maps each arrow name and ``vertex_idempotents`` each
    vertex label to an element of the abstract algebra."""

    __slots__ = ()


def _block_product(alg: FiniteDimAlgebra, left, right):
    """Peirce blocks of R * R, as RREF elements, from those of the radical
    candidate R of ``radical_chain``, given as both left and right factor:
    (R^2)_ij = sum_l R_il R_lj over the l with both blocks nonzero, each
    block one elimination of its products in the order of l.

    Off the diagonal R_ij is all of e_i A e_j, which holds every product of
    e_i A e_l with e_l A e_j.  So a block with R_ij = 0 takes no product,
    and a block stops taking products once they span len(R_ij) dimensions:
    then they span R_ij, and the products not taken add nothing to the span
    nor to its RREF rows.  The diagonal blocks take every product, since
    ``radical_chain`` has yet to check that they lie in R.  That bound holds
    only for R itself, so any other pair of factors is refused."""
    if left is not right:
        raise TiltbenchError("_block_product squares the radical candidate: left and right must be the same blocks")
    nonzero_right = [[(j, block) for j, block in enumerate(line) if block] for line in right]
    out = []
    for i, line in enumerate(left):
        factors = {}  # j -> [(R_il, R_lj)] over the l with both blocks nonzero
        for l, block in enumerate(line):
            if block:
                for j, other in nonzero_right[l]:
                    factors.setdefault(j, []).append((block, other))
        row = [[] for _ in line]
        for j, pairs in factors.items():
            rank = None if i == j else len(line[j])
            if rank != 0:
                products = (alg.mul(x, y) for block, other in pairs for x in block for y in other)
                row[j] = sparse_row_space(products, rank)
        out.append(row)
    return out


def _components(x, idems, product, start):
    """[(i, product(e_i, x))] over the nonzero products, i taken cyclically
    from start, stopping once a part equals what the parts before it leave
    of x.  The e_i sum to 1 and the sum of their images is direct, so the
    products not taken are 0."""
    n, rest, out = len(idems), x, []
    for step in range(n):
        i = (start + step) % n
        part = product(idems[i], x)
        if part:
            out.append((i, part))
            if part == rest:
                break
            rest = el_sub(rest, part)
    return out


def _peirce_pieces(alg: FiniteDimAlgebra, idems):
    """pieces[i][j]: the RREF basis of e_i A e_j, spanned by the e_i b e_j
    over the basis elements b.  Each b is split into its components e_i b
    and each component x into its x e_j by ``_components``, each search
    starting where the last one found a part, so an element in one Peirce
    block costs one product per side."""
    n = len(idems)
    rows = [[[] for _ in range(n)] for _ in range(n)]
    i = j = 0  # where the last left and right searches found a part
    for k in range(alg.dim):
        for i, x in _components({k: 1}, idems, alg.mul, i):
            for j, y in _components(x, idems, lambda f, z: alg.mul(z, f), j):
                rows[i][j].append(y)
    return [[sparse_row_space(block) if block else [] for block in line] for line in rows]


def radical_chain(alg: FiniteDimAlgebra, idempotents):
    """(R, R^2) as Peirce blocks: ``R[i][j]`` is the RREF basis of e_i R e_j
    as elements, and likewise for R^2.

    ``idempotents`` are elements of alg that ``check_idempotents`` accepts,
    nonzero orthogonal idempotents that sum to 1.  The pieces e_i A e_j
    come from the components of each basis element (``_peirce_pieces``);
    since ``check_idempotents`` has shown that the e_i are orthogonal and
    sum to 1, A = sum of the e_i A is direct, so once the components found
    sum to the element the others are 0 and are not computed.
    R_ij = e_i A e_j for i != j, and R_ii is the kernel of
    chi_i(x) = tr(L_x on e_i A e_i) / dim(e_i A e_i), so R misses the span
    of the e_i.  R^2 takes one block product.  Raises NotBasic unless the
    diagonal blocks of R^2 lie in R; then R * R lies in R.  That R is the
    radical is certified by ``quiver_presentation``, from the paths it
    evaluates.
    """
    idems = [{k: frac(c) for k, c in e.items() if c} for e in idempotents]
    n = len(idems)
    alg.check_idempotents(idems)
    pieces = _peirce_pieces(alg, idems)
    # traces[i]: (pivot column, trace of L_b on e_i A e_i) for each RREF basis
    # row b of e_i A e_i.  On that basis, an element of e_i A e_i has as its
    # coordinate on b its entry at b's pivot column.
    traces = []

    def chi(i, x):  # chi_i(x) * dim(e_i A e_i), for x in e_i A e_i
        return sum(x.get(p, 0) * t for p, t in traces[i])

    rad = [list(row) for row in pieces]
    for i in range(n):
        basis = pieces[i][i]
        pivots = [min(b) for b in basis]
        traces.append(
            [(p, sum(alg.mul(b, c).get(q, 0) for c, q in zip(basis, pivots))) for b, p in zip(basis, pivots)]
        )
        top = next(b for b in basis if chi(i, b))  # exists: chi_i(e_i) = 1
        kernel = []
        for b in basis:
            if b is not top:
                c = div(chi(i, b), chi(i, top))
                kernel.append(el_sub(b, el_scale(c, top)) if c else b)
        rad[i][i] = sparse_row_space(kernel)
    rad2 = _block_product(alg, rad, rad)
    if any(chi(i, x) for i in range(n) for x in rad2[i][i]):
        raise NotBasic(
            f"rad * rad leaves rad on a diagonal Peirce block: the semisimple quotient is larger than K^{n}"
        )
    return rad, rad2


def _check_cartan(found, expected, what: str):
    """Raise InternalDisagreement unless the n x n matrices agree, naming
    the first entry (i, j) where the dimensions of e_i A e_j differ."""
    for i, (line, other) in enumerate(zip(found, expected)):
        for j, (f, e) in enumerate(zip(line, other)):
            if f != e:
                raise InternalDisagreement(f"{what} gives dim e_{i + 1} A e_{j + 1} = {f}, expected {e}")


def quiver_presentation(alg: FiniteDimAlgebra, idempotents=None, cartan=None) -> Presentation:
    """The quiver with relations of a basic algebra, certified.

    The arrows lift a basis of R modulo R^2 from ``radical_chain``, and the
    paths are evaluated length by length, each as its prefix's element times
    its last arrow, up to the first length L at which every path is 0.  Four
    checks certify the result: ``check_idempotents``, R * R inside R
    (``NotBasic``, both in ``radical_chain``), A = span(e_i) + span(paths)
    (``PresentationError``), and every path of length L is 0.  Then
    S = span(paths) is a nilpotent ideal with A / S = K^n, so S = rad A.
    S lies in R, since the arrows do and R * R lies in R, and R misses the
    span of the e_i, so R = S = rad A and A is basic.  Hence rad^k is the
    span of the paths of length >= k, and L is the nilpotency index.  The
    powers of a nilpotent ideal drop strictly, so L <= dim A: a path of
    length dim A + 1 that is not 0 raises ``RadicalNotNilpotent``.

    Off the diagonal R_ij = e_i A e_j, and on it R^2 lies in R by the
    ``NotBasic`` check, so a block where R^2 has as many rows as R has no
    arrow.  A path from i times an arrow into j != i lies in e_i A e_j, so
    it is 0 without a product where R_ij is 0.

    ``cartan``, when given, is the expected dim e_i A e_j at (i, j), such
    as the Euler form of a tilting complex gives for its End; the Peirce
    blocks of R are checked against it before the relations are searched,
    and the rebuilt algebra's ``cartan_matrix`` after (``_check_cartan``).
    """
    idems = idempotents if idempotents is not None else primitive_idempotents(alg)
    rad, rad2 = radical_chain(alg, idems)
    n = len(idems)
    names = [str(i + 1) for i in range(n)]
    if cartan is not None:
        peirce = [[len(block) + (i == j) for j, block in enumerate(line)] for i, line in enumerate(rad)]
        _check_cartan(peirce, cartan, "the Peirce decomposition")

    arrows = []
    arrow_elements = {}
    for i in range(n):
        for j in range(n):
            block, square = rad[i][j], rad2[i][j]
            if len(square) == len(block):
                continue  # e_i rad^2 e_j = e_i rad e_j, 0 or not, holds no arrow
            # arrows i -> j: rows of e_i rad e_j independent modulo e_i rad^2 e_j
            for el in Basis(block, alg.dim, square).rows:
                name = f"a{len(arrows)}"
                arrows.append((name, names[i], names[j]))
                arrow_elements[name] = el
    quiver = Quiver(names, arrows)
    index = quiver.vertex_index
    zero = [[i != j and not rad[i][j] for j in range(n)] for i in range(n)]  # e_i A e_j = 0

    # the paths of each length as elements, in longer_paths order: each is
    # the element of its prefix times its last arrow
    paths = [Path(a[1], (a[0],)) for a in arrows]
    rows = [arrow_elements[a[0]] for a in arrows]
    span_rows = list(idems) + rows
    candidates = []
    nil_index = 1  # the length of the paths in rows
    while any(rows):
        if nil_index > alg.dim:
            raise RadicalNotNilpotent(f"a path of length {nil_index} is not 0, past the dimension {alg.dim}")
        rows = [
            {} if zero[index[p.source]][index[a.target]] else alg.mul(x, arrow_elements[a.name])
            for x, p in zip(rows, paths)
            for a in quiver.arrows_from[p.target(quiver)]
        ]
        paths = longer_paths(quiver, paths)
        nil_index += 1
        # candidate relations: the left kernel of the rows
        for vec in sparse_left_kernel(rows):
            candidates.append(Relation(quiver, [(c, paths[j]) for j, c in vec.items()]))
        span_rows.extend(rows)
    # surjectivity: vertices and arrow products must span the algebra
    if len(sparse_row_space(span_rows)) != alg.dim:
        raise PresentationError("vertex and arrow products do not span the algebra")

    # one filtration prunes the candidates and rebuilds the path algebra
    basis, rewrite, nil_length, relations = length_filtration(quiver, candidates, max(nil_index + 1, 4))
    rebuilt = BasicAlgebra(quiver, relations, basis, rewrite, nil_length)
    if rebuilt.dim != alg.dim:
        raise PresentationError(
            f"rebuilt path algebra has dimension {rebuilt.dim}, expected {alg.dim}; "
            "the relation ideal is not generated in homogeneous lengths"
        )
    if cartan is not None:
        _check_cartan(rebuilt.cartan_matrix().data, cartan, "the rebuilt path algebra")
    vertex_idems = {names[i]: idems[i] for i in range(n)}
    return Presentation(quiver, relations, rebuilt, arrow_elements, vertex_idems, nil_index)


def algebra_from_structure_constants(dim: int, table, one) -> BasicAlgebra:
    """Basic algebra from a verified structure-constant table.

    The returned path algebra carries the recovered presentation on its
    ``recovered_from`` attribute (quiver, relations, arrow images, and the
    primitive idempotents found in the input coordinates).
    """
    abstract = abstract_from_table(dim, table, one)
    pres = quiver_presentation(abstract)
    pres.algebra.recovered_from = pres
    return pres.algebra


_IDEAL_BOUNDS = (4, 8, 16, 30)  # the common bounds relation_ideals_equal tries


def relation_ideals_equal(quiver: Quiver, rels1, rels2) -> bool:
    """Whether two relation lists over the same quiver generate the same ideal.

    Decided by one ``length_filtration`` of each list: the ideals agree when
    the RREF rows of I_n agree at every length n up to the nil length.  A
    list that is not admissible equals none.  Equal ideals have equal nil
    lengths, so both lists are filtered under one bound, doubled from 4 up
    to the default 30 while neither is admissible under it: when only one
    is, the answer is False without longer paths, and once the first is, the
    second is filtered only up to the first's nil length.
    """
    for bound in _IDEAL_BOUNDS:
        first = _filtration_or_none(quiver, rels1, bound)
        if first is not None:
            second = _filtration_or_none(quiver, rels2, first[2])
            # (rewrite, nil_length): the RREF rows of each I_n, as pivot rewrites
            return second is not None and first[1:3] == second[1:3]
        if _filtration_or_none(quiver, rels2, bound) is not None:
            return False
    return False


def _filtration_or_none(quiver: Quiver, relations, bound: int):
    """``length_filtration`` of the relations up to the bound, or None when
    they raise a package error there (not admissible under the bound)."""
    try:
        return length_filtration(quiver, relations, bound)
    except TiltbenchError:
        return None


def presentations_match(q1: Quiver, rels1, q2: Quiver, rels2) -> dict | None:
    """A vertex/arrow matching from (q1, rels1) onto (q2, rels2) under which
    the relation ideals agree, or None.

    Parallel arrows are not searched (at most one arrow per ordered vertex
    pair), which covers every algebra this package constructs.  Only vertex
    permutations are tried, and each arrow goes to the arrow between the
    image vertices unscaled.  So two presentations that an arrow rescaling
    relates are missed: on the square 1 -a-> 2 -b-> 4, 1 -c-> 3 -d-> 4 the
    relations ab - cd and ab + cd give None, though c -> -c carries one onto
    the other.
    """
    import itertools

    if len(q1.vertices) != len(q2.vertices) or len(q1.arrows) != len(q2.arrows):
        return None

    def pair_counts(q):
        out = {}
        for a in q.arrows:
            out[(a.source, a.target)] = out.get((a.source, a.target), 0) + 1
        return out

    c1 = pair_counts(q1)
    if any(v > 1 for v in c1.values()) or any(v > 1 for v in pair_counts(q2).values()):
        raise PresentationError("parallel arrows are not supported by the matcher")
    for perm in itertools.permutations(q2.vertices):
        vmap = dict(zip(q1.vertices, perm))
        amap = {}
        ok = True
        for a in q1.arrows:
            cand = [b for b in q2.arrows if b.source == vmap[a.source] and b.target == vmap[a.target]]
            if len(cand) != 1:
                ok = False
                break
            amap[a.name] = cand[0].name
        if not ok:
            continue
        moved = []
        try:
            for r in rels1:
                moved.append(
                    Relation(
                        q2,
                        [
                            (c, Path(vmap[p.source], tuple(amap[x] for x in p.arrows)))
                            for c, p in r.terms
                        ],
                    )
                )
        except TiltbenchError:
            continue
        if relation_ideals_equal(q2, moved, list(rels2)):
            return {"vertices": vmap, "arrows": amap}
    return None
