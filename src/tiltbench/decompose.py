"""Splitting modules and finite-dimensional algebras into indecomposables.

The module-level entry points are ``decompose`` (the summands with one
inclusion and one projection per copy, a certificate checked before it is
returned) and ``is_isomorphic`` (explicit inverse pair or None).
Both work over the rationals and assume the split situation in which every
simple endomorphism quotient is the ground field; anything else raises
``DecompositionError`` rather than guessing.

One splitting strategy serves modules, complexes and abstract algebras:
``primitive_idempotents`` finds orthogonal primitive idempotents summing to
1, and each cuts out one indecomposable summand.  A module M is split by
those of End(M), a complex by those of its chain endomorphism ring
(``complex_decomp``).  Corners e A e are split until each is local:
  1. rad(eAe) = e rad(A) e, so eAe modulo its radical is the corner of
     e in the semisimple quotient A/rad(A), and eAe is local exactly when
     that corner has dimension 1.  rad(A) is computed once, as the kernel
     of a trace form; for End(M) that is tr_M(f g) on M (Dickson's
     criterion), which multiplies no endomorphisms.  A/rad(A) is then one
     algebra on a basis modulo rad(A), of dimension s, whose table asks for
     at most s^2 products in A; every corner is read there;
  2. otherwise probes (basis elements, their pairwise sums and differences,
     then seeded random combinations) are pushed into the corner, and coprime
     factors of a probe's minimal polynomial, one of them a power of a linear
     factor, give a Bezout spectral idempotent.  A probe whose corner image
     in A/rad(A) is a multiple of e's, so that it lies in K*e + rad(A), is
     skipped before any product in A: its corner minimal polynomial is a
     power of one linear factor, so it splits nothing.
A primitive idempotent e of End(M) gives the summand of M spanned by the
images of e; its projection p, with p then incl = e, is
``e.factor_through(incl)``.

One isomorphism engine serves modules and complexes alike, with no random
search.  ``indecomposable_iso`` decides indecomposables x, y by an invertible
basis map x -> y, which exists exactly when x ≅ y since End(x) is local, so
no End(x) is built; ``group_copies`` groups the split pieces of a module or
a complex by it into that list of copies, and checks every include/project
pair at once as the blocks of one composite of stacked maps;
``isomorphism_by_summands``
decomposes both sides, matches the summands with it and inverts the
assembled map once.  ``is_isomorphic`` and
``complex_decomp.complexes_isomorphic`` are that test behind a cheap
invariant check.
``lift_idempotent`` lifts an idempotent modulo the radical by Newton
iteration.
"""

from __future__ import annotations

import random
from functools import partial

from .algebra import EndomorphismAlgebra, FiniteDimAlgebra, el_from_vector, el_scale, el_sub
from .errors import DecompositionError
from .linalg import Basis, _sparse, div
from .polys import bezout, min_poly_of_sequence, pdivmod, pmul, rational_roots
from .reps import (
    ModuleMap,
    Representation,
    flat,
    hom_space,
    hom_vectors,
    map_from_flat,
    stack_copies,
    sub_representation,
)


LIFT_STEPS = 64  # Newton steps before idempotent lifting gives up
RANDOM_PROBES = 40  # random probes after the deterministic ones, per corner split


def lift_idempotent(alg: FiniteDimAlgebra, x: dict) -> dict:
    """Newton iteration e <- 3e^2 - 2e^3 from an idempotent mod the radical,
    for at most ``LIFT_STEPS`` steps."""
    e = x
    for _ in range(LIFT_STEPS):
        e2 = alg.mul(e, e)
        if e2 == e:
            return e
        e = el_sub(el_scale(3, e2), el_scale(2, alg.mul(e2, e)))
    raise DecompositionError("idempotent lifting did not converge")


def _probe_elements(alg: FiniteDimAlgebra, rng: random.Random, rounds: int):
    """Deterministic-then-random stream of probe elements."""
    for i in range(alg.dim):
        yield {i: 1}
    for i in range(alg.dim):
        for j in range(i + 1, alg.dim):
            yield {i: 1, j: 1}
            yield {i: 1, j: -1}
    for r in range(rounds):
        bound = 3 + 2 * r
        yield el_from_vector([rng.randint(-bound, bound) for _ in range(alg.dim)])


def _split_corner_once(alg: FiniteDimAlgebra, unit: dict, top: EndomorphismAlgebra, rng: random.Random):
    """A nontrivial idempotent pair (e, unit - e) inside the corner with the
    given unit, or None if the corner resisted all probes (``RANDOM_PROBES``
    random ones after the deterministic ones).  ``top`` is
    A/rad(A) (``_semisimple_top``); probes that ``_splits_nothing`` are
    skipped before any product in A."""
    unit_top = top.basis.coordinates(unit)
    for x in _probe_elements(alg, rng, RANDOM_PROBES):
        if _splits_nothing(top, unit_top, x):
            continue
        # force the probe into the corner
        x = alg.mul(alg.mul(unit, x), unit)
        factors = _coprime_factors(_corner_min_poly(alg, x, unit))
        if factors is None:
            continue
        m1, m2 = factors
        u, v = bezout(m1, m2)
        e = alg.eval_poly(pmul(v, m2), x)  # congruent to 1 on ker m1, 0 on ker m2
        e = alg.mul(alg.mul(unit, e), unit)
        if not e or e == unit:
            continue
        if alg.mul(e, e) != e:
            raise DecompositionError("spectral idempotent failed exactness check")
        return e, el_sub(unit, e)
    return None


def _splits_nothing(top: EndomorphismAlgebra, unit_top: dict, x: dict) -> bool:
    """Whether the probe x has its corner image unit*x*unit in K*unit +
    rad(A), read in top = A/rad(A), where unit is unit_top: then the image
    is c*unit + n, n in the radical, whose corner minimal polynomial
    (t - c)^k has no coprime factors."""
    image = top.mul(top.mul(unit_top, top.basis.coordinates(x)), unit_top)
    k = next(iter(unit_top))
    return image == el_scale(div(image.get(k, 0), unit_top[k]), unit_top)


def _coprime_factors(mu):
    """(m1, m2) with m1 = (t - r)^k for the least rational root r of mu, k its
    multiplicity, and m2 = mu / m1 not constant; None when mu has no rational
    root or is a power of one linear factor, so that no spectral idempotent
    splits the corner."""
    if len(mu) <= 2:
        return None
    roots = rational_roots(mu)
    if not roots:
        return None
    lin = [-min(roots), 1]
    m1 = [1]
    m2 = list(mu)
    while True:
        q, rem = pdivmod(m2, lin)
        if rem:
            break
        m1 = pmul(m1, lin)
        m2 = q
    return (m1, m2) if len(m2) > 1 else None


def _corner_min_poly(alg: FiniteDimAlgebra, x: dict, unit: dict):
    """Minimal polynomial of x in the corner algebra unit*A*unit: the first
    dependency among unit, unit x, unit x^2, ..."""

    def powers():
        cur = unit
        while True:
            yield cur
            cur = alg.mul(cur, x)

    return min_poly_of_sequence(powers(), alg.dim)


def _semisimple_top(alg: FiniteDimAlgebra, rad: list) -> EndomorphismAlgebra:
    """A/rad(A), given rad(A) as sparse RREF rows: the algebra on the unit
    vectors at the columns where no row of rad has its pivot, a basis of A
    modulo rad(A), with the product of A read modulo rad(A)."""
    pivots = {min(row) for row in rad}
    units = [{j: 1} for j in range(alg.dim) if j not in pivots]
    return EndomorphismAlgebra(Basis(units, alg.dim, rad), alg.mul, alg.one)


def _corner_is_local(alg: FiniteDimAlgebra, unit: dict, top: EndomorphismAlgebra) -> bool:
    """Whether unit*A*unit is local, given top = A/rad(A).  The radical of
    the corner is unit*rad(A)*unit, so the corner modulo its radical is the
    corner u*top*u at the image u of unit, and the corner is local exactly
    when that has dimension 1.  s -> u*s*u projects top onto it, so its
    dimension is the trace of that projection.  The corner of 1 is A itself,
    local when dim A/rad(A) = 1."""
    if unit == alg.one:
        dim = top.dim
    else:
        u = top.basis.coordinates(unit)
        dim = sum(top.mul(top.mul(u, {i: 1}), u).get(i, 0) for i in range(top.dim))
    if not dim:
        raise DecompositionError("corner collapsed to zero")
    return dim == 1


def primitive_idempotents(alg: FiniteDimAlgebra):
    """Complete list of orthogonal primitive idempotents summing to 1, as
    elements of alg.

    Found by repeatedly splitting corners with spectral idempotents and
    certifying primitivity via local corners.  Raises DecompositionError if
    a corner resists splitting (non-split input), and NotBasic from
    ``check_idempotents`` unless the result is a complete set of orthogonal
    idempotents.
    """
    rng = random.Random(0)
    top = _semisimple_top(alg, alg.radical_rows())
    out = []
    stack = [alg.one]
    while stack:
        unit = stack.pop()
        if _corner_is_local(alg, unit, top):
            out.append(unit)
            continue
        pair = _split_corner_once(alg, unit, top, rng)
        if pair is None:
            raise DecompositionError("corner resisted splitting; is the algebra split over Q?")
        e, comp = pair
        stack.append(e)
        stack.append(comp)
    alg.check_idempotents(out)
    return out


# -- endomorphism algebras of modules ----------------------------------------


class EndAlgebra(EndomorphismAlgebra):
    """End(M) on a basis of its hom space; the product a * b is "a then b".

    Each basis map is kept as its ``reps.flat``, the sparse vector
    ``reps.hom_vectors`` returns, in the ``basis`` of the algebra (a
    ``Basis.of_kernel``: the vectors are ``sparse_kernel`` rows), and
    ``_cells`` gives the (vertex offset, dim, row, col) of each position.  A
    product cell composes two such maps block by block (``_compose_flats``)
    without forming a ``ModuleMap``; ``element`` writes one summed flat out
    as a map.  The radical is not read from the products: ``trace_form``
    works on the same entries, so deciding whether End(M) is local asks for
    no product at all.
    """

    def __init__(self, m: Representation):
        self.module = m
        self._cells = cells = []
        for v in m.algebra.quiver.vertices:
            d, o = m.dims[v], len(cells)
            cells.extend((o, d, r, c) for r in range(d) for c in range(d))
        super().__init__(
            Basis.of_kernel(hom_vectors(m, m), len(cells)), partial(_compose_flats, cells), flat(ModuleMap.identity(m))
        )

    def element(self, x: dict) -> ModuleMap:
        """The endomorphism of an element."""
        return map_from_flat(self.module, self.module, self.basis.vector(x))

    def trace_form(self) -> list:
        """Rows, as {column: entry} dicts, of the trace form tr_M(f_i f_j) of
        End(M) acting on M.  The action is faithful, so over Q its kernel is
        the radical (Dickson's criterion), and the RREF basis equals the one
        the regular trace form gives.  Each entry is one sparse dot product,
        flatten(F_i^T) . flatten(F_j), summed over all vertices at once."""
        n = self.dim
        cells, flats = self._cells, self.basis.rows  # an RREF kernel basis keeps every row
        form = [{} for _ in range(n)]
        for i in range(n):
            transposed = []  # F_i[r][c], which pairs with F_j[c][r], at (c, r)
            for p, x in flats[i].items():
                o, d, r, c = cells[p]
                transposed.append((o + c * d + r, x))
            for j in range(i, n):
                flat = flats[j]
                x = sum(y * flat[q] for q, y in transposed if q in flat)
                if x:
                    form[i][j] = form[j][i] = x
        return form


def _compose_flats(cells: list, u: dict, v: dict) -> dict:
    """The sparse flat of "u then v" for two sparse flats of endomorphisms:
    at each vertex, u's matrix times v's.  Only the nonzero entries are
    visited: u's (r, c) and v's (c, s) of one vertex give (r, s), as
    ``HomotopySpace.compose`` does for chain maps."""
    after = {}  # (vertex offset, row) -> [(col, entry)] of v
    for p, b in v.items():
        o, _, r, c = cells[p]
        after.setdefault((o, r), []).append((c, b))
    out = {}
    for p, a in u.items():
        o, d, r, c = cells[p]
        for s, b in after.get((o, c), ()):
            q = o + r * d + s
            x = out.get(q, 0) + a * b
            if x:
                out[q] = x
            else:
                del out[q]
    return out


def decompose(m: Representation):
    """Indecomposable summands of m with multiplicities, and one inclusion
    and one projection per summand copy.

    Returns (summands, includes, projects) as ``decompose_complex`` does for
    complexes: summands is a list of (indecomposable Representation,
    multiplicity), and the copies are listed in summand order, each summand
    repeated by its multiplicity; ``includes[k]`` : M_k -> m and
    ``projects[k]`` : m -> M_k are module maps of the k-th copy M_k.  The
    certificate is checked before it is returned: ``includes[k]`` then
    ``projects[l]`` is the identity of M_k for k = l and zero otherwise, and
    the sum over k of ``projects[k]`` then ``includes[k]`` is the identity of
    m; otherwise DecompositionError is raised.  Each half is one composite
    of the stacked maps of ``group_copies``.
    """
    summands, includes, projects, stacked_in, stacked_out = group_copies(
        _split_module(m), _iso_between_indecomposables, partial(stack_copies, m)
    )
    if not stacked_out.then(stacked_in).is_identity():
        raise DecompositionError("summand certificate failed: the copies do not sum to the identity")
    return summands, includes, projects


def _split_module(m: Representation):
    """List of (indecomposable piece, inclusion into m, projection from m),
    one per primitive idempotent of End(m)."""
    if m.total_dim() == 0:
        return []
    end = EndAlgebra(m)
    idems = primitive_idempotents(end)
    if len(idems) == 1:
        ident = ModuleMap.identity(m)
        return [(m, ident, ident)]
    out = []
    for coords in idems:
        e = end.element(coords)
        piece, incl = sub_representation(m, {v: _sparse(x.data) for v, x in e.mats.items()})
        out.append((piece, incl, e.factor_through(incl)))
    return out


def group_copies(pieces, isomorphic, stack):
    """(summands, includes, projects, I, P) of a split into indecomposable
    pieces, for modules and complexes alike: both kinds of map compose with
    ``then``, answer ``is_identity``, subtract, and list their nonzero
    entries by ``support``.

    ``pieces`` lists (piece, include: piece -> X, project: X -> piece), and
    ``isomorphic(x, y)`` returns mutually inverse maps (x -> y, y -> x) or
    None.  Each piece joins the first earlier summand it is isomorphic to,
    and its maps are carried over to that summand along the isomorphism.
    The copies come in summand order, each summand's copies in split order.

    ``stack(includes, projects)`` (``reps.stack_copies`` or
    ``complexes.stack_copies``) gives I : sum of the X_k -> X with the
    includes as its block rows, P : X -> sum of the X_k with the projects as
    its block columns, and the copy that owns each position of the sum.
    Block (k, l) of "I then P" is ``includes[k]`` then ``projects[l]``, so
    one composite checks on the nose that this is the identity for k = l
    and zero otherwise; on failure the first failing block (k, l) is named.
    "P then I" is the sum over k of ``projects[k]`` then ``includes[k]``;
    whether it is the identity of X is left to the caller.
    """
    groups = []  # (summand, [(include, project) per copy])
    for piece, incl, proj in pieces:
        for rep, copies in groups:
            pair = isomorphic(rep, piece)
            if pair is not None:
                rep_to_piece, piece_to_rep = pair
                copies.append((rep_to_piece.then(incl), proj.then(piece_to_rep)))
                break
        else:
            groups.append((piece, [(incl, proj)]))
    includes = [incl for _, copies in groups for incl, _ in copies]
    projects = [proj for _, copies in groups for _, proj in copies]
    stacked_in, stacked_out, owner = stack(includes, projects)
    through = stacked_in.then(stacked_out)
    if not through.is_identity():
        wrong = through - type(through).identity(through.source)
        k, l = min((owner[key][r], owner[key][c]) for key, r, c in wrong.support())
        raise DecompositionError(f"summand certificate failed: include {k} then project {l}")
    return [(rep, len(copies)) for rep, copies in groups], includes, projects, stacked_in, stacked_out


def indecomposable_iso(hxy: list):
    """Mutually inverse pair (f: x -> y, g: y -> x) of indecomposable modules
    or radical complexes x and y, or None, decided exactly.

    ``hxy`` is a basis of Hom(x, y); the first invertible f in it comes
    back with g = f.inverse().  If x ≅ y by some φ, every map x -> y is
    "a then φ" for an a in End(x), which is local, so a is invertible or in
    rad End(x).  Were no basis map invertible, Hom(x, y) would be
    "rad End(x) then φ", which does not contain φ.  So some basis map is
    invertible exactly when x ≅ y.
    """
    for f in hxy:
        inverse = f.inverse()
        if inverse is not None:
            return f, inverse
    return None


def _iso_between_indecomposables(x: Representation, y: Representation):
    """Iso pair (f: x->y, g: y->x) of indecomposable modules, or None."""
    if x.dim_vector() != y.dim_vector():
        return None
    return indecomposable_iso(hom_space(x, y))


def isomorphism_by_summands(m, n, split, indecomposable, zero):
    """Mutually inverse pair (f: m->n, g: n->m), or None, for two modules
    or two radical complexes.

    ``split`` is ``decompose`` or ``decompose_complex``, ``indecomposable``
    the isomorphism test on indecomposables of that kind and ``zero`` the
    zero map of that kind.  Each summand of m is matched with a summand of n
    of the same multiplicity that it is isomorphic to, by ψ; f is the sum
    over matched copies of ``projects_m[k]`` then ψ then ``includes_n[k']``,
    inverted once and checked.  For complexes f is a homotopy equivalence
    between radical complexes, hence an isomorphism.
    """
    sm, _, projects_m = split(m)
    sn, includes_n, _ = split(n)
    if len(sm) != len(sn):
        return None
    first_n = [sum(mult for _, mult in sn[:j]) for j in range(len(sn))]
    unmatched = list(range(len(sn)))
    f = zero(m, n)
    k = 0
    for rep, mult in sm:
        for j in unmatched:
            if sn[j][1] == mult:
                pair = indecomposable(rep, sn[j][0])
                if pair is not None:
                    break
        else:
            return None
        unmatched.remove(j)
        for c in range(mult):
            f = f + projects_m[k + c].then(pair[0]).then(includes_n[first_n[j] + c])
        k += mult
    g = f.inverse()
    if g is not None and f.then(g).is_identity() and g.then(f).is_identity():
        return f, g
    return None


def is_isomorphic(m: Representation, n: Representation):
    """Mutually inverse pair (f: m->n, g: n->m), or None: equal dimension
    vectors, then ``isomorphism_by_summands``."""
    if m.dim_vector() != n.dim_vector():
        return None
    return isomorphism_by_summands(m, n, decompose, _iso_between_indecomposables, ModuleMap.zero)
