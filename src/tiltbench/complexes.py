"""Bounded complexes of projectives in label form.

A complex stores, per degree, an ordered list of vertex labels (the direct
sum of the corresponding projectives) and, per consecutive pair of degrees,
its differential as a ``reps.EntryMap``: the entry in row i (source summand
P(a_i)) and column j (target summand P(b_j)) is an algebra element supported
on paths b_j -> a_i, realized as a module map by front concatenation.  A
chain map keeps one entry map per degree.  Both take their matrices as rows
and wrap each once; products and sums go through ``EntryMap``, which checks
the labels.

Shift convention: (X[n])^i = X^{n+i}, so P[1] lives in degree -1; shifted
differentials pick up the sign (-1)^n.

A retract r of c, cut out by entry maps i : r -> c and p : c -> r with i
then p the identity, has the differential "i then d then p"; ``retract`` is
the one routine that forms it.  ``minimize`` cancels unit entries one at a
time (Gaussian elimination), each step the retract of the coordinate maps of
``slot_maps`` with two u^-1 corrections; ``complex_decomp`` cuts out support
components and split idempotents the same way.
"""

from __future__ import annotations

from .algebra import BasicAlgebra, el_add, el_scale
from .errors import TiltbenchError
from .linalg import Basis, _sparse, frac, sparse_kernel
from .reps import (
    EntryMap,
    ModuleMap,
    ProjSum,
    extract_entry_map,
    kernel_of,
    quotient_representation,
    realize_entry_map,
    zero_rep,
)


# -- complexes ---------------------------------------------------------------


class ProjComplex:
    def __init__(self, algebra: BasicAlgebra, terms: dict, diffs: dict):
        self.algebra = algebra
        self.terms = {}
        for d, labels in terms.items():
            labels = [str(x) for x in labels]
            for lab in labels:
                if lab not in algebra.quiver.vertex_index:
                    raise TiltbenchError(f"unknown vertex label {lab!r}")
            if labels:
                self.terms[int(d)] = labels
        self.diffs = {}
        for d, mat in diffs.items():
            d = int(d)
            src = self.terms.get(d, [])
            tgt = self.terms.get(d + 1, [])
            if not src or not tgt:
                if any(x for row in mat for x in row):
                    raise TiltbenchError(f"differential at degree {d} has no terms to connect")
                continue
            rows = [[{k: c for k, c in ((k, frac(v)) for k, v in x.items()) if c} for x in row] for row in mat]
            e = EntryMap(algebra, src, tgt, rows)
            for i, j, x in e.nonzero():
                if any(algebra.source[k] != tgt[j] or algebra.target[k] != src[i] for k in x):
                    raise TiltbenchError(f"entry ({i},{j}) at degree {d} not supported on paths {tgt[j]} -> {src[i]}")
            if not e.is_zero():
                self.diffs[d] = e

    @property
    def lo(self) -> int:
        return min(self.terms) if self.terms else 0

    @property
    def hi(self) -> int:
        return max(self.terms) if self.terms else 0

    def term(self, d: int):
        return self.terms.get(d, [])

    def diff(self, d: int) -> EntryMap:
        return self.diffs.get(d) or EntryMap.zero(self.algebra, self.term(d), self.term(d + 1))

    def is_zero(self) -> bool:
        return not self.terms

    def degrees(self):
        return sorted(self.terms)

    def d_squared_is_zero(self) -> bool:
        return all(self.diff(d).then(self.diff(d + 1)).is_zero() for d in self.diffs)

    def is_radical(self) -> bool:
        basis = self.algebra.basis
        return not any(len(basis[k]) == 0 for e in self.diffs.values() for _, _, x in e.nonzero() for k in x)

    def validate(self) -> dict:
        return {"d_squared_zero": self.d_squared_is_zero(), "is_radical": self.is_radical()}

    def shift(self, n: int) -> "ProjComplex":
        terms = {d - n: labels for d, labels in self.terms.items()}
        sign = 1 if n % 2 == 0 else -1
        diffs = {d - n: e.scale(sign).rows for d, e in self.diffs.items()}
        return ProjComplex(self.algebra, terms, diffs)

    def direct_sum(self, *others: "ProjComplex") -> "ProjComplex":
        """The direct sum of this complex and the others, in that order:
        labels concatenated and differentials block diagonal, degree by
        degree."""
        parts = (self, *others)
        terms = {d: [lab for p in parts for lab in p.term(d)] for d in set().union(*(p.terms for p in parts))}
        diffs = {}
        for d in set().union(*(p.diffs for p in parts)):
            mat, before, after = [], 0, len(terms[d + 1])
            for p in parts:
                width = len(p.term(d + 1))
                after -= width
                mat.extend([{} for _ in range(before)] + row + [{} for _ in range(after)] for row in p.diff(d).rows)
                before += width
            diffs[d] = mat
        return ProjComplex(self.algebra, terms, diffs)

    def label_multiset(self, d: int) -> dict:
        out = {}
        for lab in self.term(d):
            out[lab] = out.get(lab, 0) + 1
        return out

    def realize(self):
        """(per-degree ProjSum, per-degree differential ModuleMap)."""
        sums = {d: ProjSum(self.algebra, self.term(d)) for d in self.terms}
        dmaps = {}
        for d in self.diffs:
            dmaps[d] = realize_entry_map(sums[d], sums[d + 1], self.diffs[d])
        return sums, dmaps

    def __repr__(self):
        return f"ProjComplex({ {d: self.term(d) for d in self.degrees()} })"


def stalk_complex(algebra: BasicAlgebra, labels, degree: int = 0) -> ProjComplex:
    return ProjComplex(algebra, {degree: list(labels)}, {})


def regular_stalk(algebra: BasicAlgebra, degree: int = 0) -> ProjComplex:
    return stalk_complex(algebra, list(algebra.quiver.vertices), degree)


class ChainMapC:
    """Chain map between label-form complexes, given degreewise as entry rows
    (rows: source summands, cols: target summands) and kept as the nonzero
    ``EntryMap``s from source.term(d) to target.term(d)."""

    def __init__(self, source: ProjComplex, target: ProjComplex, mats: dict):
        self.source = source
        self.target = target
        self.mats = {}
        for d, rows in mats.items():
            d = int(d)
            e = EntryMap(source.algebra, source.term(d), target.term(d), rows)
            if not e.is_zero():
                self.mats[d] = e

    def component(self, d: int) -> EntryMap:
        return self.mats.get(d) or EntryMap.zero(self.source.algebra, self.source.term(d), self.target.term(d))

    @classmethod
    def identity(cls, c: ProjComplex) -> "ChainMapC":
        return cls(c, c, {d: EntryMap.identity(c.algebra, labels).rows for d, labels in c.terms.items()})

    @classmethod
    def zero(cls, source, target) -> "ChainMapC":
        return cls(source, target, {})

    def then(self, other: "ChainMapC") -> "ChainMapC":
        """"self then other"; refused unless self.target and other.source have
        the same terms.  A degree where either map is zero composes to zero."""
        if self.target is not other.source:
            _refuse_unless_terms_meet(self, other, "compose", "then", (self.target, other.source))
        mats = {d: e.then(other.mats[d]).rows for d, e in self.mats.items() if d in other.mats}
        return ChainMapC(self.source, other.target, mats)

    def __add__(self, other):
        if self.source is not other.source or self.target is not other.target:
            pairs = (self.source, other.source), (self.target, other.target)
            _refuse_unless_terms_meet(self, other, "add", "and", *pairs)
        mats = {d: (self.component(d) + other.component(d)).rows for d in set(self.mats) | set(other.mats)}
        return ChainMapC(self.source, self.target, mats)

    def __sub__(self, other):
        return self + other.scale(-1)

    def scale(self, c):
        return ChainMapC(self.source, self.target, {d: e.scale(c).rows for d, e in self.mats.items()})

    def is_zero(self) -> bool:
        return not self.mats

    def is_chain_map(self) -> bool:
        """Whether f^d then d_y equals d_x then f^(d+1) in every degree."""
        for d in set(self.source.terms) | set(self.target.terms):
            if self.component(d).then(self.target.diff(d)) != self.source.diff(d).then(self.component(d + 1)):
                return False
        return True

    def support(self) -> list:
        """(degree, row, column) of each nonzero entry."""
        return [(d, i, j) for d, e in self.mats.items() for i, j, _ in e.nonzero()]

    def is_identity(self) -> bool:
        alg = self.source.algebra
        return self.source.terms == self.target.terms and all(
            self.component(d) == EntryMap.identity(alg, labels) for d, labels in self.source.terms.items()
        )

    def inverse(self):
        """The inverse chain map, or None: each degree is realized, inverted
        by ``ModuleMap.inverse`` and read back as entries, and the result
        must be a chain map.  None when some degree has a term on one side
        only or a singular realization."""
        alg = self.source.algebra
        src = {d: ProjSum(alg, labels) for d, labels in self.source.terms.items()}
        tgt = {d: ProjSum(alg, labels) for d, labels in self.target.terms.items()}
        realized = self.realize(src, tgt)
        mats = {}
        for d in sorted(set(src) | set(tgt)):
            inv = realized[d].inverse() if d in realized else None
            if inv is None:
                return None
            mats[d] = extract_entry_map(tgt[d], src[d], inv).rows
        g = ChainMapC(self.target, self.source, mats)
        return g if g.is_chain_map() else None

    def realize(self, src_sums=None, tgt_sums=None):
        """Per-degree module maps (only degrees where both sides have terms)."""
        src_sums = src_sums or {d: ProjSum(self.source.algebra, self.source.term(d)) for d in self.source.terms}
        tgt_sums = tgt_sums or {d: ProjSum(self.target.algebra, self.target.term(d)) for d in self.target.terms}
        out = {}
        for d in self.source.terms:
            if d in self.target.terms:
                out[d] = realize_entry_map(src_sums[d], tgt_sums[d], self.component(d))
        return out


def _refuse_unless_terms_meet(f: ChainMapC, g: ChainMapC, verb: str, joint: str, *pairs):
    """Raise TiltbenchError unless the two complexes of each pair have the
    same terms, naming the lowest degree where they differ."""
    degrees = [d for x, y in pairs if x is not y for d in x.terms.keys() | y.terms.keys() if x.term(d) != y.term(d)]
    if degrees:
        d = min(degrees)
        raise TiltbenchError(
            f"chain maps do not {verb} in degree {d}: {f.source.term(d)} -> {f.target.term(d)}"
            f" {joint} {g.source.term(d)} -> {g.target.term(d)}"
        )


def stack_copies(x: ProjComplex, includes, projects):
    """(I, P, owner) for chain maps includes[k] : T_k -> x and projects[k] :
    x -> T_k.  I : sum of the T_k -> x has the rows of the includes and
    P : x -> sum of the T_k the columns of the projects, degree by degree,
    so block (k, l) of "I then P" is "includes[k] then projects[l]" and
    "P then I" is the sum of the "projects[k] then includes[k]".  The sum's
    differential is block diagonal, so I (or P) is a chain map exactly when
    every include (or project) is.  ``owner[d][r]`` is the copy k that
    summand r of the sum in degree d belongs to."""
    total = ProjComplex(x.algebra, {}, {}).direct_sum(*(f.source for f in includes))
    owner = {d: [k for k, f in enumerate(includes) for _ in f.source.term(d)] for d in total.terms}
    rows = {d: [row for f in includes for row in f.component(d).rows] for d in total.terms}
    cols = {}
    for d, labels in x.terms.items():
        blocks = [f.component(d).rows for f in projects]
        cols[d] = [[y for block in blocks for y in block[r]] for r in range(len(labels))]
    return ChainMapC(total, x, rows), ChainMapC(x, total, cols), owner


# -- retracts -------------------------------------------------------------------


def slot_maps(c: ProjComplex, keep: dict):
    """(terms, i, p) for the summand slots keep[d] of c in each degree d: the
    kept labels, and the coordinate inclusion i[d] and projection p[d] as
    entry maps, so that i then p is the identity."""
    alg = c.algebra
    terms, inc, prj = {}, {}, {}
    for d, slots in keep.items():
        labels = c.term(d)
        terms[d] = [labels[s] for s in slots]
        inc[d] = EntryMap.zero(alg, terms[d], labels)
        prj[d] = EntryMap.zero(alg, labels, terms[d])
        for pos, s in enumerate(slots):
            inc[d].rows[pos][s] = {alg.idempotent_index[labels[s]]: 1}
            prj[d].rows[s][pos] = {alg.idempotent_index[labels[s]]: 1}
    return terms, inc, prj


def retract(c: ProjComplex, terms: dict, inc: dict, prj: dict):
    """(r, i : r -> c, p : c -> r) for the retract r of c with labels
    terms[d], cut out by entry maps inc[d] : r^d -> c^d and prj[d] : c^d ->
    r^d with i then p the identity.  The differential of r is "i then d then
    p" in each degree; a degree where r is 0 takes entry maps from or to the
    empty sum."""
    diffs = {d: inc[d].then(c.diffs[d]).then(prj[d + 1]).rows for d in c.diffs if d in terms and d + 1 in terms}
    r = ProjComplex(c.algebra, terms, diffs)
    inc_rows = {d: e.rows for d, e in inc.items()}
    prj_rows = {d: e.rows for d, e in prj.items()}
    return r, ChainMapC(r, c, inc_rows), ChainMapC(c, r, prj_rows)


# -- homotopy hom spaces ------------------------------------------------------


def _differential(x: ProjComplex, y: ProjComplex, n: int):
    """The differential of the Hom complex from x to y at degree n, one basis
    map at a time.

    A degree-n map e has components x^d -> y^(d+n); its basis maps are the
    terms (d, i, j, k): degree d, source summand i, target summand j, basis
    path k of the sandwich y^(d+n)_j -> x^d_i, in that order.  For each one
    this yields the term and D(e) = e·d_y - (-1)^n d_x·e ("e then d_y" minus
    the sign times "d_x then e", as ``EntryMap.then`` composes), as
    {degree-(n+1) term: c} with nonzero entries only.

    e·d_y reads row j of d_y and d_x·e column i of d_x, and a zero entry
    gives no term, so each degree lists the nonzero entries of every row of
    d_y and every column of d_x once, and a basis map multiplies only
    those, in the order of the slots."""
    alg = x.algebra
    sign = -1 if n % 2 == 0 else 1  # -(-1)^n, the coefficient of d_x·e
    for d in sorted(x.terms):
        src, tgt = x.term(d), y.term(d + n)
        if not tgt:
            continue
        after = [[] for _ in tgt]  # after[j]: (m, d_y entry) along row j of y^(d+n) -> y^(d+n+1)
        for j, m, entry in y.diff(d + n).nonzero():
            after[j].append((m, entry))
        before = [[] for _ in src]  # before[i]: (ip, d_x entry) along column i of x^(d-1) -> x^d
        for ip, i, entry in x.diff(d - 1).nonzero():
            before[i].append((ip, entry))
        for i in range(len(src)):
            for j in range(len(tgt)):
                for k in alg.paths_between(tgt[j], src[i]):
                    # e·d_y sits at degree d and d_x·e at degree d - 1, so no
                    # two of these terms share a key
                    image = {(d, i, m, kk): c for m, entry in after[j] for kk, c in alg.mul(entry, {k: 1}).items()}
                    for ip, entry in before[i]:
                        for kk, c in alg.mul({k: 1}, entry).items():
                            image[(d - 1, ip, j, kk)] = sign * c
                    yield (d, i, j, k), image


class HomotopySpace:
    """Hom in the homotopy category between two complexes (at a fixed shift),
    with chain-level data retained: H^0 of the Hom complex.

    A degree-0 map x -> y has one coordinate per (degree d, source summand
    i, target summand j, basis path k of the sandwich y^d_j -> x^d_i);
    ``positions`` lists them.  Both linear systems come from the Hom
    complex's differential D (``_differential``): the chain maps are the
    kernel of D at degree 0, one sparse equation per degree-1 term, and the
    null-homotopic maps are spanned by the images under D of the degree -1
    basis maps, one sparse null row each.

    chain_vectors: basis of honest chain maps X -> Y[n], as sparse
                   coordinate vectors {position: c} (the RREF kernel basis
                   of the chain condition, from ``linalg.sparse_kernel``)
    classes:       the ``linalg.Basis`` of the chain vectors modulo the null
                   rows: the chain vectors independent of the null rows and
                   of the chain vectors before them (``Basis.of_kernel``,
                   without an elimination, when there are no null rows)
    class_vectors: ``classes.rows``, the chain vectors descending to a basis
                   of the quotient by the null-homotopic maps

    ``compose`` multiplies two endomorphisms given as sparse coordinate
    vectors term by term through the algebra's structure constants, and
    ``classes.coordinates`` reads the result in the class basis; together
    they fill End's product table without forming a chain map.
    """

    def __init__(self, x: ProjComplex, y_shifted: ProjComplex):
        self.x = x
        self.y = y_shifted
        self.alg = x.algebra
        self.positions = []  # (degree, i, j, basis path index)
        equations = {}  # degree-1 term -> {position: coefficient}: D at degree 0, transposed
        for p, (term, image) in enumerate(_differential(x, y_shifted, 0)):
            self.positions.append(term)
            for t, c in image.items():
                equations.setdefault(t, {})[p] = c
        self._pos = pos = {term: p for p, term in enumerate(self.positions)}
        n_unk = len(self.positions)
        self.chain_vectors = sparse_kernel(equations.values(), n_unk)
        null_rows = [{pos[t]: c for t, c in image.items()} for _, image in _differential(x, y_shifted, -1)]
        if null_rows:
            self.classes = Basis(self.chain_vectors, n_unk, null_rows)
        else:
            self.classes = Basis.of_kernel(self.chain_vectors, n_unk)
        self.class_vectors = self.classes.rows
        self.dim = len(self.class_vectors)
        self._endomorphisms = x.terms == y_shifted.terms and x.diffs == y_shifted.diffs

    def vector_to_chain_map(self, vec: dict) -> ChainMapC:
        """The chain map with sparse coordinates vec {position: c}."""
        mats = {}
        for p in sorted(vec):
            c = vec[p]
            if c == 0:
                continue
            d, i, j, k = self.positions[p]
            if d not in mats:
                mats[d] = EntryMap.zero(self.alg, self.x.term(d), self.y.term(d)).rows
            mats[d][i][j] = el_add(mats[d][i][j], {k: c})
        return ChainMapC(self.x, self.y, mats)

    def chain_map_terms(self, cm: ChainMapC) -> dict:
        """The coordinates of cm as {position: c}, nonzero entries only."""
        vec = {}
        for d, e in cm.mats.items():
            for i, j, x in e.nonzero():
                for k, c in x.items():
                    p = self._pos.get((d, i, j, k))
                    if p is None:
                        if c != 0:
                            raise TiltbenchError("chain map outside coordinate support")
                        continue
                    s = vec.get(p, 0) + c
                    if s:
                        vec[p] = s
                    else:
                        del vec[p]
        return vec

    def class_reps(self):
        return [self.vector_to_chain_map(v) for v in self.class_vectors]

    def compose(self, u: dict, v: dict) -> dict:
        """"u then v" for two endomorphisms of x (x and y equal), each given
        as {position: c}, as {position: c}.  Only the nonzero terms are
        visited: the term (d, i, j, k) of u and (d, j, m, l) of v give
        basis l * basis k at (d, i, m), as ``EntryMap.then`` does."""
        if not self._endomorphisms:
            raise TiltbenchError("compose needs a space of endomorphisms")
        positions = self.positions
        product = self.alg.basis_product
        pos = self._pos
        after = {}  # (degree, source summand) -> [(target summand, path, c)] of v
        for p, b in v.items():
            d, j, m, l = positions[p]
            after.setdefault((d, j), []).append((m, l, b))
        out = {}
        for p, a in u.items():
            d, i, j, k = positions[p]
            for m, l, b in after.get((d, j), ()):
                prod = product(l, k)
                if not prod:
                    continue
                ab = a * b
                for kk, c in prod.items():
                    q = pos[(d, i, m, kk)]
                    s = out.get(q, 0) + ab * c
                    if s:
                        out[q] = s
                    else:
                        del out[q]
        return out

    def reduce(self, cm: ChainMapC) -> dict:
        """Sparse coordinates {class index: c} of the homotopy class of cm in
        the class basis."""
        return self.classes.coordinates(self.chain_map_terms(cm))

    def is_null(self, cm: ChainMapC) -> bool:
        return not self.reduce(cm)


def homotopy_hom(x: ProjComplex, y: ProjComplex, n: int = 0) -> HomotopySpace:
    """Hom of homotopy classes x -> y[n]."""
    return HomotopySpace(x, y.shift(n))


# -- minimization -------------------------------------------------------------


def _find_unit_entry(c: ProjComplex):
    for d in sorted(c.diffs):
        src, tgt = c.term(d), c.term(d + 1)
        for i, j, x in c.diffs[d].nonzero():
            if src[i] == tgt[j] and x.get(c.algebra.idempotent_index[src[i]], 0) != 0:
                return d, i, j
    return None


def _cancel(c: ProjComplex, d: int, i: int, j: int):
    """One Gaussian cancellation step at the unit entry u = d^d[i][j]: the
    ``retract`` (r, i, p) of c without source summand i in degree d and
    target summand j in degree d + 1.  The slot maps get two corrections, i
    into source summand i (-u^-1 d[r][j] in row r) and p out of target
    summand j (-d[i][s] u^-1 in column s), so that "i then d" vanishes on
    summand j and r's differential at degree d is d[r][s] - d[i][s] u^-1
    d[r][j]."""
    alg = c.algebra
    mat = c.diffs[d].rows
    u_inv = alg.corner_inverse(mat[i][j], c.term(d)[i])
    keep = {dd: range(len(labels)) for dd, labels in c.terms.items()}
    keep[d] = [r for r in keep[d] if r != i]
    keep[d + 1] = [s for s in keep[d + 1] if s != j]
    terms, inc, prj = slot_maps(c, keep)
    for ri, r in enumerate(keep[d]):
        inc[d].rows[ri][i] = el_scale(-1, alg.mul(u_inv, mat[r][j]))
    for si, s in enumerate(keep[d + 1]):
        prj[d + 1].rows[j][si] = el_scale(-1, alg.mul(mat[i][s], u_inv))
    return retract(c, terms, inc, prj)


class HomotopyEquivalence:
    """A pair of chain maps p : c -> m and i : m -> c, meant to have p then
    i homotopic to the identity of c and i then p equal to the identity of m
    on the nose.  Nothing is checked when it is built; ``verify`` checks
    both, and that p and i are chain maps."""

    def __init__(self, c: ProjComplex, m: ProjComplex, p: ChainMapC, i: ChainMapC):
        self.source = c
        self.reduced = m
        self.p = p
        self.i = i

    def verify(self) -> bool:
        if not (self.p.is_chain_map() and self.i.is_chain_map()):
            return False
        if not self.i.then(self.p).is_identity():
            return False
        back = self.p.then(self.i)
        ident = ChainMapC.identity(self.source)
        return HomotopySpace(self.source, self.source).is_null(ident - back)


def minimize(c: ProjComplex):
    """(radical complex, HomotopyEquivalence).  Deterministic elimination:
    scan degrees ascending, rows then columns, cancel, repeat.  When nothing
    cancels, the complex returned is c itself and both maps are identities."""
    cur = c
    p_total = i_total = None
    while True:
        found = _find_unit_entry(cur)
        if found is None:
            break
        d, i, j = found
        cur, i_step, p_step = _cancel(cur, d, i, j)
        if p_total is None:
            p_total, i_total = p_step, i_step
        else:
            p_total = p_total.then(p_step)
            i_total = i_step.then(i_total)
    if p_total is None:  # nothing cancelled: cur is c
        p_total = ChainMapC.identity(c)
        i_total = ChainMapC.identity(c)
    eq = HomotopyEquivalence(c, cur, p_total, i_total)
    return cur, eq


# -- homology ----------------------------------------------------------------


def homology(c: ProjComplex, i: int):
    """H^i as a Representation (kernel of d^i modulo image of d^{i-1})."""
    sums, dmaps = c.realize()
    if i not in sums:
        return zero_rep(c.algebra)
    term = sums[i].rep
    if i in dmaps:
        ker_rep, incl = kernel_of(dmaps[i])
    else:
        ker_rep, incl = kernel_of(ModuleMap.zero(term, term))
    # the image of the incoming differential, in kernel coordinates
    inside = dmaps[i - 1].factor_through(incl).mats if (i - 1) in dmaps else {}
    quot, _ = quotient_representation(ker_rep, {v: _sparse(x.data) for v, x in inside.items()})
    return quot
