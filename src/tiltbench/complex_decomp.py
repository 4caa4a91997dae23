"""Splitting complexes of projectives into indecomposable summands.

Idempotent homotopy classes are strictified to exact chain-level idempotents
(Newton iteration; the error is null-homotopic, hence nilpotent on a radical
complex), and a strict idempotent is split degreewise: the generators of the
image of each component are read off its top, which recovers the labels of
the summand.  The summand, like each support component of the minimized
complex, is a ``complexes.retract``, whose differential is "include then d
then project"; no routine here forms a differential of its own.

Isomorphism of complexes is the module engine of ``decompose`` on chain
maps: ``indecomposable_iso`` groups the pieces of ``decompose_complex``, and
``complexes_isomorphic`` is ``isomorphism_by_summands`` behind the sorted
labels per degree.
"""

from __future__ import annotations

from functools import partial

from .algebra import EndomorphismAlgebra
from .decompose import (
    group_copies,
    indecomposable_iso,
    isomorphism_by_summands,
    lift_idempotent,
    primitive_idempotents,
)
from .errors import DecompositionError, NotIdempotent, NotRadical, TiltbenchError
from .linalg import Basis, _sparse, sparse_row_space
from .complexes import (
    ChainMapC,
    HomotopySpace,
    ProjComplex,
    homotopy_hom,
    minimize,
    retract,
    slot_maps,
    stack_copies,
)
from .reps import EntryMap, ProjSum, extract_entry_map, realize_entry_map


class ChainEndData(EndomorphismAlgebra):
    """Chain-level endomorphism algebra of a complex, on the basis of chain
    maps of its homotopy space; the product a * b is "a then b", composed by
    ``HomotopySpace.compose`` on the sparse chain vectors."""

    def __init__(self, c: ProjComplex):
        self.complex = c
        self.space = space = HomotopySpace(c, c.shift(0))
        super().__init__(
            Basis.of_kernel(space.chain_vectors, len(space.positions)),
            space.compose,
            space.chain_map_terms(ChainMapC.identity(c)),
        )

    def element(self, x: dict) -> ChainMapC:
        """The chain endomorphism of an element."""
        return self.space.vector_to_chain_map(self.basis.vector(x))


def strictify_idempotent(c: ProjComplex, e: ChainMapC) -> ChainMapC:
    """Exact chain-level idempotent homotopic to the given class idempotent.

    Requires a radical complex so that null-homotopic errors are nilpotent.
    """
    if not c.is_radical():
        raise TiltbenchError("strictification needs a radical complex")
    data = ChainEndData(c)
    space = data.space
    if not space.is_null(e.then(e) - e):
        raise NotIdempotent("class is not idempotent up to homotopy")
    lifted = lift_idempotent(data, data.basis.coordinates(space.chain_map_terms(e)))
    strict = data.element(lifted)
    if not (strict.then(strict) - strict).is_zero():
        raise NotIdempotent("strictification failed")
    if not space.is_null(strict - e):
        raise NotIdempotent("strictified idempotent left its homotopy class")
    return strict


def _image_generators(alg, psum: ProjSum, rows_by_vertex):
    """Pick image vectors whose tops form a basis; return (labels, phi).

    ``rows_by_vertex[w]`` are sparse rows spanning the image at w, and row k
    of the entry map phi : P(b_1..b_n) -> psum describes generator k as a
    map P(b_k) -> sum of the ambient labels.
    """
    labels = []
    entries = []
    for w in alg.quiver.vertices:
        rows = rows_by_vertex[w]
        # trivial-path coordinates at w detect the top
        triv_cols = [
            c
            for c, (i, k) in enumerate(psum.layout[w])
            if len(alg.basis[k]) == 0
        ]
        tops = [[row.get(c, 0) for c in triv_cols] for row in rows]
        for r in Basis(tops, len(triv_cols)).positions:
            labels.append(w)
            entry_row = [{} for _ in psum.labels]
            for c, y in rows[r].items():
                i, k = psum.layout[w][c]
                entry_row[i][k] = y
            entries.append(entry_row)
    return labels, EntryMap(alg, labels, psum.labels, entries)


def split_strict_idempotent(c: ProjComplex, strict: ChainMapC):
    """(summand, include: summand->c, project: c->summand) for an exact
    chain idempotent; include then project is the identity on the summand and
    project then include equals the idempotent on the nose.  The summand is
    the ``retract`` cut out by the image generators phi of each component
    and the maps psi through them."""
    alg = c.algebra
    sums = {d: ProjSum(alg, c.term(d)) for d in c.terms}
    labels, phi, psi = {}, {}, {}
    for d, e_d in strict.realize(sums, sums).items():
        rows_by_vertex = {v: sparse_row_space(_sparse(x.data)) for v, x in e_d.mats.items()}
        # phi: image -> c, entries indexed (image summand k, ambient summand i)
        labels[d], phi[d] = _image_generators(alg, sums[d], rows_by_vertex)
        image = ProjSum(alg, labels[d])
        # psi: c -> image with psi * phi = e and phi * psi = id
        psi[d] = extract_entry_map(sums[d], image, e_d.factor_through(realize_entry_map(image, sums[d], phi[d])))
    summand, include, project = retract(c, labels, phi, psi)
    if not include.is_chain_map() or not project.is_chain_map():
        raise DecompositionError("split maps are not chain maps")
    if not include.then(project).is_identity():
        raise DecompositionError("include then project is not the identity")
    return summand, include, project


def split_idempotent(c: ProjComplex, e: ChainMapC) -> ProjComplex:
    """Direct summand of c cut out by an idempotent homotopy class."""
    if not c.is_radical():
        m, eq = minimize(c)
        e_m = eq.i.then(e).then(eq.p)
        return split_idempotent(m, e_m)
    strict = strictify_idempotent(c, e)
    summand, _, _ = split_strict_idempotent(c, strict)
    return summand


def _support_components(c: ProjComplex):
    """Partition of the summand slots of c under nonzero differential
    coupling; returns a list of {degree: [slot indices]} dicts."""
    nodes = [(d, i) for d in c.degrees() for i in range(len(c.term(d)))]
    parent = {n: n for n in nodes}

    def find(n):
        while parent[n] != n:
            parent[n] = parent[parent[n]]
            n = parent[n]
        return n

    def union(a, b):
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb

    for d, e in c.diffs.items():
        for i, j, _ in e.nonzero():
            union((d, i), (d + 1, j))
    groups = {}
    for n in nodes:
        groups.setdefault(find(n), []).append(n)
    out = []
    for nodes_in_group in groups.values():
        comp = {}
        for d, i in sorted(nodes_in_group):
            comp.setdefault(d, []).append(i)
        out.append(comp)
    out.sort(key=lambda comp: (min(comp), comp[min(comp)][0]))
    return out


def _component_complex(c: ProjComplex, comp):
    """(sub, include, project) for the support component comp of c."""
    return retract(c, *slot_maps(c, comp))


def _labels(c: ProjComplex) -> dict:
    return {d: sorted(labels) for d, labels in c.terms.items()}


def _iso_between_indecomposable_complexes(x: ProjComplex, y: ProjComplex):
    """Iso pair (f: x->y, g: y->x) of indecomposable radical complexes, or
    None: equal sorted labels per degree, then ``indecomposable_iso`` on the
    chain maps x -> y."""
    if _labels(x) != _labels(y):
        return None
    space = homotopy_hom(x, y, 0)
    return indecomposable_iso([space.vector_to_chain_map(v) for v in space.chain_vectors])


def complexes_isomorphic(x: ProjComplex, y: ProjComplex):
    """(f: x->y, g: y->x) mutually inverse chain isomorphisms of radical
    complexes, or None: equal sorted labels per degree, then
    ``isomorphism_by_summands``.  Raises NotRadical on a complex that is not
    radical."""
    if not (x.is_radical() and y.is_radical()):
        raise NotRadical("isomorphism test needs radical complexes")
    if _labels(x) != _labels(y):
        return None
    return isomorphism_by_summands(x, y, decompose_complex, _iso_between_indecomposable_complexes, ChainMapC.zero)


def decompose_complex(c: ProjComplex, _self_hom=None):
    """Indecomposable radical summands of c with multiplicities, and one
    inclusion and one projection per summand copy.

    Returns (summands, includes, projects): summands is a list of
    (ProjComplex, multiplicity), and the copies are listed in summand order,
    each summand repeated by its multiplicity; ``includes[k]`` : T_k -> c and
    ``projects[k]`` : c -> T_k are chain maps of the k-th copy T_k.  The
    certificate is checked before it is returned: ``includes[k]`` then
    ``projects[l]`` is the identity of T_k for k = l and zero otherwise, on
    the nose, and the sum over k of ``projects[k]`` then ``includes[k]`` is
    homotopic to the identity of c; otherwise DecompositionError is raised.
    Each half is one composite of the stacked maps of ``group_copies``, and
    the chain condition is checked once on each stacked map.
    ``_self_hom(0)``, when given, returns the homotopy space c -> c for that
    last check (``TiltingContext`` shares its own).
    """
    m, eq = minimize(c)
    pieces = (piece for comp in _support_components(m) for piece in _split_component(*_component_complex(m, comp)))
    if m is not c:  # else minimize cancelled nothing and eq.i, eq.p are identities
        pieces = ((piece, incl.then(eq.i), eq.p.then(proj)) for piece, incl, proj in pieces)
    summands, includes, projects, stacked_in, stacked_out = group_copies(
        pieces, _iso_between_indecomposable_complexes, partial(stack_copies, c)
    )
    if not stacked_in.is_chain_map() or not stacked_out.is_chain_map():
        raise DecompositionError("certificate maps are not chain maps")
    space = _self_hom(0) if _self_hom is not None else HomotopySpace(c, c.shift(0))
    if not space.is_null(ChainMapC.identity(c) - stacked_out.then(stacked_in)):
        raise DecompositionError("summand certificate failed up to homotopy")
    return summands, includes, projects


def _split_component(sub: ProjComplex, incl: ChainMapC, proj: ChainMapC):
    """Split one support component sub of m into indecomposables via chain
    idempotents; incl : sub -> m and proj : m -> sub are the component's
    block maps.  Returns [(piece, include piece -> m, project m -> piece)];
    an indecomposable sub comes back with incl and proj unchanged."""
    if sub.is_zero():
        return []
    if sum(len(labels) for labels in sub.terms.values()) == 1:
        # a shifted indecomposable projective P(a): End is e_a A e_a, local
        return [(sub, incl, proj)]
    data = ChainEndData(sub)
    if data.dim == 0:
        raise DecompositionError("empty endomorphism algebra on a nonzero complex")
    idems = primitive_idempotents(data)
    if len(idems) == 1:
        return [(sub, incl, proj)]
    out = []
    for coords in idems:
        strict = data.element(coords)
        if not (strict.then(strict) - strict).is_zero():
            raise DecompositionError("primitive idempotent is not strict")
        piece, inc2, prj2 = split_strict_idempotent(sub, strict)
        out.append((piece, inc2.then(incl), proj.then(prj2)))
    return out
