"""Tilting complexes, the stability criterion on their terms, endomorphism
algebras, and the induced map on stable module categories.

The central objects:

* ``maximal_nu_stable``: the largest projective whose entire forward orbit
  under the Nakayama correspondence stays projective-injective;
* ``verify_tilting``: self-orthogonality plus a determinant check on classes,
  with generation either inherited from the construction or reported as a
  necessary condition only;
* ``construct_tpq``: the two-sided approximation construction producing a
  tilting complex from a pair of stable projectives P, Q with Hom(P, Q) = 0;
* ``check_iterated_nu_stable``: the term criterion (off-degree summands avoid
  every unstable projective; each unstable projective occurs exactly once in
  degree zero);
* ``end_algebra``: the endomorphism algebra of a tilting complex as a basic
  algebra with a recovered quiver presentation;
* ``f_homology`` / ``stable_image``: hom spaces into shifted stalks as
  modules over the endomorphism algebra, and the degree-zero image module
  when those homs are concentrated in degree zero.  The hom spaces out of a
  term of T are taken in Yoneda coordinates (``reps.precomposition``), so
  neither a linear system is solved nor a module map built for them.  They
  stay sparse rows from the precomposition to the class coordinates: the
  classes are a ``linalg.Basis`` of sparse rows modulo the null maps, an
  arrow acts on a class by a sparse sum of precomposition rows, and no
  dense matrix is built before the arrow matrices of the result.
  ``TiltingContext`` keeps the one part that does not depend on the module
  (the arrow components, as ``reps.EntryMap``s) and reuses it for every query.
"""

from __future__ import annotations

from collections import namedtuple

from .algebra import BasicAlgebra, EndomorphismAlgebra
from .approx import (
    minimal_left_approximation_labeled,
    minimal_right_approximation_labeled,
)
from .complex_decomp import decompose_complex
from .complexes import (
    ChainMapC,
    HomotopySpace,
    ProjComplex,
    homotopy_hom,
    minimize,
    stalk_complex,
)
from .errors import (
    DSquaredNonzero,
    InternalDisagreement,
    NotConcentrated,
    NotRadical,
    NotSelfOrthogonal,
    NotTilting,
    PreconditionFailed,
    TiltbenchError,
)
from .linalg import Basis, Matrix, frac, sparse_combination, sparse_left_kernel
from .presentation import quiver_presentation
from .reps import (
    ProjSum,
    Representation,
    cokernel_of,
    extract_entry_map,
    kernel_of,
    nu_injective_sum,
    precomposition,
    projective,
    projective_labels,
    simple,
    socle_spaces,
)


# -- nu-stability of projectives ----------------------------------------------


class NuStableReport(namedtuple("NuStableReport", "vertices projective_injective nu_image stable e_labels")):
    """Per vertex: ``projective_injective`` (vertex -> bool), ``nu_image``
    (vertex -> vertex or None, the Nakayama correspondent) and ``stable``
    (vertex -> bool, in the maximal stable module)."""

    __slots__ = ()

    def to_dict(self):
        return {
            "kind": "nu_stable",
            "per_vertex": {
                v: {
                    "projective_injective": self.projective_injective[v],
                    "nu_image": self.nu_image[v],
                    "stable": self.stable[v],
                }
                for v in self.vertices
            },
            "E": list(self.e_labels),
        }


def nakayama_permutation(a: BasicAlgebra) -> dict:
    """Partial map v -> w with the injective at v isomorphic to the
    projective at w (defined exactly when that injective is projective).

    sigma(v) = w exactly when soc P(w) is S(v) and Cartan row w equals
    Cartan column v: P(w) then embeds in its injective envelope I(v), and
    dim P(w) = dim I(v) makes that embedding an isomorphism."""
    verts = list(a.quiver.vertices)
    cartan = a.cartan_matrix().data
    sigma = {}
    for wi, w in enumerate(verts):
        soc = socle_spaces(projective(a, w))
        soc_dims = [len(soc[v]) for v in verts]
        if sum(soc_dims) != 1:
            continue
        vi = soc_dims.index(1)
        if all(cartan[wi][u] == cartan[u][vi] for u in range(len(verts))):
            sigma[verts[vi]] = w
    return {v: sigma[v] for v in verts if v in sigma}


def maximal_nu_stable(a: BasicAlgebra) -> NuStableReport:
    """Vertices whose projective stays projective-injective under every
    forward Nakayama iterate: the largest set of projective-injective
    vertices that sigma maps into itself, found as a fixed point by dropping
    every vertex whose sigma-image leaves the set until none does."""
    sigma = nakayama_permutation(a)
    proj_inj = {v: v in sigma.values() for v in a.quiver.vertices}
    kept = {v for v, ok in proj_inj.items() if ok}
    while any(sigma.get(v) not in kept for v in kept):
        kept = {v for v in kept if sigma.get(v) in kept}
    stable = {v: v in kept for v in a.quiver.vertices}
    e_labels = [v for v in a.quiver.vertices if stable[v]]
    return NuStableReport(
        vertices=list(a.quiver.vertices),
        projective_injective=proj_inj,
        nu_image={v: sigma.get(v) for v in a.quiver.vertices},
        stable=stable,
        e_labels=e_labels,
    )


def nakayama_on_projectives(x: Representation) -> Representation:
    """Image of a projective module under the Nakayama correspondence:
    the sum of injectives with the same labels.  Raises NotProjective when
    x is not projective."""
    return nu_injective_sum(x.algebra, projective_labels(x))


def check_add_nu_equal(a: BasicAlgebra, x: Representation) -> bool:
    """Whether add(nu x) = add(x) for a projective x, Hu and Xi's condition
    for x to be a nu-stable projective: the labels of x are closed under the
    Nakayama permutation sigma, since nu P(v) = P(sigma(v)).

    Closed labels lie in the maximal stable module E (sigma permutes them);
    InternalDisagreement is raised if that cross-check fails.  The converse
    does not hold: on N(4,3), sigma = (13)(24), so P(1) lies in E while
    nu P(1) = P(3) is not a summand of P(1)."""
    if x.total_dim() == 0:
        return True
    labels = set(projective_labels(x))  # raises NotProjective if not
    return _closed_under_nu(maximal_nu_stable(a), labels)


def _closed_under_nu(report: NuStableReport, labels) -> bool:
    """Whether the labels are closed under sigma = ``report.nu_image``,
    cross-checked against E."""
    closed = _nu_leaving(report.nu_image, labels) is None
    if closed and not all(report.stable[v] for v in labels):
        raise InternalDisagreement("labels closed under the Nakayama permutation lie outside E")
    return closed


def _nu_leaving(sigma: dict, labels):
    """A label whose Nakayama image is not among the labels, or None."""
    return next((v for v in sorted(labels) if sigma.get(v) not in labels), None)


# -- tilting verification ------------------------------------------------------


class TiltingReport(
    namedtuple(
        "TiltingReport",
        "self_orthogonal self_orthogonal_ok k0_matrix k0_unimodular basic summand_count"
        " generation_status is_tilting_verdict",
    )
):
    """``self_orthogonal``: shift -> dimension; ``k0_matrix``: rows summands,
    columns vertices (alternating sums); ``generation_status``:
    "proved_by_construction" or "k0_necessary_only"."""

    __slots__ = ()

    def to_dict(self):
        return {
            "kind": "tilting_report",
            "self_orthogonal": {str(k): v for k, v in sorted(self.self_orthogonal.items())},
            "self_orthogonal_ok": self.self_orthogonal_ok,
            "k0_matrix": self.k0_matrix,
            "k0_unimodular": self.k0_unimodular,
            "basic": self.basic,
            "summand_count": self.summand_count,
            "generation_status": self.generation_status,
            "verdict": self.is_tilting_verdict,
        }


def _self_shifts(t: ProjComplex) -> list:
    """The differences n != 0 of two degrees of t, in increasing order: at
    any other n no degree-0 map t -> t[n] has a nonzero component."""
    degrees = t.degrees()
    return sorted({e - d for d in degrees for e in degrees} - {0})


def verify_tilting(
    t: ProjComplex,
    proved_by_construction: bool = False,
    decomposition=None,
    _self_hom=None,
) -> TiltingReport:
    """Self-orthogonality, class determinant and basic-ness of t.

    ``decomposition`` is a ``decompose_complex(t)`` result to reuse (only
    its summands are read; the per-copy maps were checked when it was
    built), and ``_self_hom(n)`` returns the homotopy space t -> t[n];
    ``TiltingContext`` passes both so that nothing it already holds is built
    again."""
    self_hom = _self_hom if _self_hom is not None else (lambda n: homotopy_hom(t, t, n))
    val = t.validate()
    if not val["d_squared_zero"]:
        raise DSquaredNonzero("differentials do not square to zero")
    if not val["is_radical"]:
        raise NotRadical("complex has a unit differential component")
    self_orth = {n: self_hom(n).dim for n in _self_shifts(t)}
    self_ok = all(v == 0 for v in self_orth.values())
    summands = (decomposition if decomposition is not None else decompose_complex(t))[0]
    verts = list(t.algebra.quiver.vertices)
    k0 = []
    for s, mult in summands:
        row = [0] * len(verts)
        for d in s.degrees():
            sign = 1 if d % 2 == 0 else -1
            for lab in s.term(d):
                row[verts.index(lab)] += sign
        k0.append(row)
    square = len(k0) == len(verts)
    unimodular = False
    if square and k0:
        # an integer matrix has determinant +-1 exactly when its inverse is integral
        inv = Matrix(len(k0), len(verts), k0).inverse()
        unimodular = inv is not None and all(type(x) is int for row in inv.data for x in row)
    basic = all(mult == 1 for _, mult in summands)
    return TiltingReport(
        self_orthogonal=self_orth,
        self_orthogonal_ok=self_ok,
        k0_matrix=k0,
        k0_unimodular=unimodular,
        basic=basic,
        summand_count=sum(mult for _, mult in summands),
        generation_status="proved_by_construction" if proved_by_construction else "k0_necessary_only",
        is_tilting_verdict=self_ok and unimodular and basic,
    )


# -- the approximation construction -------------------------------------------


class ConstructedTilting(
    namedtuple("ConstructedTilting", "complex raw p_labels q_labels r s proved_by_construction", defaults=(True,))
):
    """The minimized tilting complex and the raw one it was reduced from."""

    __slots__ = ()


def construct_tpq(
    a: BasicAlgebra,
    p_labels,
    q_labels,
    r: int = 1,
    s: int = 1,
) -> ConstructedTilting:
    """Tilting complex from stable projectives P, Q with Hom(P, Q) = 0.

    Degrees -r..-1 resolve the regular module by right approximations from
    add(P); degrees 1..s coresolve it by left approximations into add(Q);
    shifted copies of P and Q are appended and the result is minimized."""
    p_labels = [str(x) for x in p_labels]
    q_labels = [str(x) for x in q_labels]
    if r < 1 or s < 1:
        raise PreconditionFailed("r >= 1 and s >= 1 are required")
    for name, labels in (("P", p_labels), ("Q", q_labels)):
        unknown = next((v for v in labels if v not in a.quiver.vertex_index), None)
        if unknown is not None:
            raise PreconditionFailed(f"the labels of {name} are vertices", f"no vertex {unknown!r}")
        # a repeated label would make T non-basic
        repeated = next((v for i, v in enumerate(labels) if v in labels[:i]), None)
        if repeated is not None:
            raise PreconditionFailed(f"the labels of {name} are distinct", f"vertex {repeated!r} is repeated")
    report = maximal_nu_stable(a) if p_labels or q_labels else None
    for name, labels in (("P", p_labels), ("Q", q_labels)):
        if labels and not _closed_under_nu(report, set(labels)):
            sigma = report.nu_image
            v = _nu_leaving(sigma, set(labels))
            if sigma[v] is not None:
                detail = f"nu P({v}) = P({sigma[v]}) is not a summand of {name}"
            else:
                detail = f"nu P({v}) is not projective"
            raise PreconditionFailed(f"add({name}) = add(nu {name})", detail)
    if _hom_nonzero(a, p_labels, q_labels):
        raise PreconditionFailed("Hom(P, Q) = 0")

    reg_labels = list(a.quiver.vertices)
    reg_sum = ProjSum(a, reg_labels)
    terms = {0: reg_labels}
    diffs = {}

    # negative side: iterated right approximations of kernels
    target = reg_sum.rep
    incl = None  # inclusion of the current kernel into the previous term
    prev_sum = reg_sum
    for i in range(1, r + 1):
        labels_i, f_i = minimal_right_approximation_labeled(a, p_labels, target)
        if not labels_i:
            break
        cur_sum = ProjSum(a, labels_i)
        to_prev = f_i if incl is None else f_i.then(incl)
        diffs[-i] = extract_entry_map(cur_sum, prev_sum, to_prev).rows
        terms[-i] = labels_i
        target, incl = kernel_of(f_i)
        prev_sum = cur_sum

    # positive side: iterated left approximations of cokernels
    source = reg_sum.rep
    proj_map = None
    prev_sum = reg_sum
    for i in range(1, s + 1):
        labels_i, g_i = minimal_left_approximation_labeled(a, q_labels, source)
        if not labels_i:
            break
        cur_sum = ProjSum(a, labels_i)
        from_prev = g_i if proj_map is None else proj_map.then(g_i)
        diffs[i - 1] = extract_entry_map(prev_sum, cur_sum, from_prev).rows
        terms[i] = labels_i
        source, proj_map = cokernel_of(g_i)
        prev_sum = cur_sum

    t_pq = ProjComplex(a, terms, diffs)
    raw = t_pq
    if p_labels:
        raw = raw.direct_sum(stalk_complex(a, p_labels, -r))
    if q_labels:
        raw = raw.direct_sum(stalk_complex(a, q_labels, s))
    if not raw.d_squared_is_zero():
        raise TiltbenchError("assembled complex does not square to zero")
    reduced, _ = minimize(raw)
    return ConstructedTilting(
        complex=reduced, raw=raw, p_labels=p_labels, q_labels=q_labels, r=r, s=s
    )


def _hom_nonzero(a: BasicAlgebra, p_labels, q_labels) -> bool:
    """Whether Hom(P, Q) != 0 for the sums P and Q of the projectives with
    the given labels, by Yoneda: Hom(P(v), Q) = Q(v), and Q(v) is spanned by
    the paths from the labels of Q to v."""
    return any(a.paths_between(q, v) for q in q_labels for v in p_labels)


# -- endomorphism algebra of a tilting complex ---------------------------------


class EndData(
    namedtuple("EndData", "abstract presentation space summands copy_complexes copy_includes copy_projects")
):
    """End(T) as an abstract algebra with its presentation, and T's
    decomposition: ``summands`` are (ProjComplex, multiplicity) pairs, the
    copies are those of ``decompose_complex``, one per vertex of the
    recovered quiver, and copy k is the summand complex
    ``copy_complexes[k]`` = T_k with its chain maps
    ``copy_includes[k]`` : T_k -> t and ``copy_projects[k]`` : t -> T_k."""

    __slots__ = ()


class TiltingContext:
    """Caches everything attached to one verified-tilting complex."""

    def __init__(self, a: BasicAlgebra, t: ProjComplex, *, proved_by_construction: bool = False):
        self.algebra = a
        self.complex = t
        self.proved_by_construction = proved_by_construction
        self._nust = None
        self._decomp = None
        self._tilting_report = None
        self._end = None
        self._f_hom_cache = None  # arrow components, built on first use
        self._self_homs = {}  # shift n -> HomotopySpace(t, t[n])

    # cached building blocks ------------------------------------------------

    def nust(self) -> NuStableReport:
        if self._nust is None:
            self._nust = maximal_nu_stable(self.algebra)
        return self._nust

    def _self_hom(self, n: int) -> HomotopySpace:
        """Homotopy classes t -> t[n], built once per shift and shared by
        decomposition(), tilting_report() and end_data()."""
        if n not in self._self_homs:
            self._self_homs[n] = homotopy_hom(self.complex, self.complex, n)
        return self._self_homs[n]

    def decomposition(self):
        if self._decomp is None:
            self._decomp = decompose_complex(self.complex, _self_hom=self._self_hom)
        return self._decomp

    def tilting_report(self) -> TiltingReport:
        if self._tilting_report is None:
            self._tilting_report = verify_tilting(
                self.complex,
                proved_by_construction=self.proved_by_construction,
                decomposition=self.decomposition(),
                _self_hom=self._self_hom,
            )
        return self._tilting_report

    def end_data(self) -> EndData:
        if self._end is not None:
            return self._end
        t = self.complex
        if not t.d_squared_is_zero():
            raise DSquaredNonzero("differentials do not square to zero")
        for n in _self_shifts(t):
            if self._self_hom(n).dim:
                raise NotSelfOrthogonal(f"nonzero homotopy hom at shift {n}")
        summands, includes, projects = self.decomposition()
        space = self._self_hom(0)
        # the algebra product x*y corresponds to composition "y then x"
        abstract = EndomorphismAlgebra(
            space.classes, lambda u, v: space.compose(v, u), space.chain_map_terms(ChainMapC.identity(t))
        )
        # idempotents from the decomposition: one per summand copy
        idems = [space.reduce(prj.then(inc)) for inc, prj in zip(includes, projects)]
        pres = quiver_presentation(abstract, idempotents=idems)
        self._end = EndData(
            abstract=abstract,
            presentation=pres,
            space=space,
            summands=summands,
            copy_complexes=[rep for rep, mult in summands for _ in range(mult)],
            copy_includes=includes,
            copy_projects=projects,
        )
        return self._end

    # hom spaces into shifted stalk modules ---------------------------------

    def _arrow_components(self) -> dict:
        """The part of f_homology that does not depend on the module, built
        on first use and kept in ``_f_hom_cache``: ``(name, d)`` gives the
        degree-d component of the chain map (target summand) -> (source
        summand) realizing the arrow ``name`` of the recovered quiver, as an
        ``EntryMap``, which ``reps.precomposition`` reads with its labels."""
        if self._f_hom_cache is None:
            end = self.end_data()
            pres = end.presentation
            components = {}
            for ar in pres.quiver.arrows:
                wi = pres.quiver.vertex_index[ar.source]
                wj = pres.quiver.vertex_index[ar.target]
                b = end.space.vector_to_chain_map(end.space.classes.vector(pres.arrow_elements[ar.name]))
                chain = end.copy_includes[wj].then(b).then(end.copy_projects[wi])  # T_wj -> T_wi
                for d in end.copy_complexes[wj].degrees():
                    components[(ar.name, d)] = chain.component(d)
            self._f_hom_cache = components
        return self._f_hom_cache

    def f_homology(self, x: Representation, i: int) -> Representation:
        """Hom classes into the stalk of x shifted by i, as a module over the
        recovered quiver of the endomorphism algebra."""
        if x.algebra is not self.algebra and x.algebra.basis != self.algebra.basis:
            raise TiltbenchError("modules over different algebras")
        end = self.end_data()
        pres, summands = end.presentation, end.copy_complexes
        components = self._arrow_components()
        stalk = [_stalk_hom_classes(tw, x, i) for tw in summands]
        reps = [s.rows if s else [] for s in stalk]
        dims = {v: len(r) for v, r in zip(pres.quiver.vertices, reps)}
        # arrow actions: precompose with the arrow's degree -i component
        mats = {}
        for ar in pres.quiver.arrows:
            wi = pres.quiver.vertex_index[ar.source]
            wj = pres.quiver.vertex_index[ar.target]
            component = components.get((ar.name, -i))  # T_wj^{-i} -> T_wi^{-i}
            if not reps[wi] or component is None or stalk[wj] is None:
                mats[ar.name] = Matrix.zero(len(reps[wi]), len(reps[wj]))
                continue
            pre = precomposition(x, component)
            rows = []
            for rep in reps[wi]:
                c = stalk[wj].coordinates(sparse_combination(rep, pre))
                rows.append(tuple(frac(c.get(k, 0)) for k in range(len(reps[wj]))))
            mats[ar.name] = Matrix._trusted(len(reps[wi]), len(reps[wj]), tuple(rows))
        return Representation(pres.algebra, dims, mats)

    def _profile(self, x: Representation):
        """(profile, image0, concentrated) of x: profile maps each shift i
        with -i a degree of T, and the shift 0, to the dimension vector of
        ``f_homology(x, i)``, image0 is that module at i = 0, and
        concentrated says whether every other shift gives zero.  At any
        other shift no term of T meets the stalk, so the module is 0."""
        profile = {}
        image0 = None
        for i in sorted({-d for d in self.complex.degrees()} | {0}):
            h = self.f_homology(x, i)
            profile[i] = list(h.dim_vector())
            if i == 0:
                image0 = h
        concentrated = all(not any(v) for d, v in profile.items() if d != 0)
        return profile, image0, concentrated

    # verdicts ---------------------------------------------------------------

    def check_iterated_nu_stable(self):
        report = self.nust()
        t = self.complex
        if not t.is_radical():
            raise NotRadical("criterion requires the radical form of the complex")
        tr = self.tilting_report()
        if not (tr.self_orthogonal_ok and (self.proved_by_construction or tr.k0_unimodular)):
            raise NotTilting("complex failed tilting verification")
        e_set = set(report.e_labels)
        off_labels = set()
        for d in t.degrees():
            if d != 0:
                off_labels.update(t.term(d))
        zero_counts = t.label_multiset(0)
        per_vertex = {}
        verdict = True
        for v in self.algebra.quiver.vertices:
            if v in e_set:
                continue
            cond_a = v not in off_labels
            cond_b = zero_counts.get(v, 0) == 1
            per_vertex[v] = {"not_in_off_degrees": cond_a, "degree_zero_multiplicity": zero_counts.get(v, 0)}
            verdict = verdict and cond_a and cond_b
        off_in_e = all(lab in e_set for lab in off_labels)
        return {
            "kind": "iterated_nu_stable",
            "E": report.e_labels,
            "off_degree_labels": sorted(off_labels),
            "off_degree_terms_stable": off_in_e,
            "per_projective": per_vertex,
            "verdict": verdict,
        }

    def stable_image(self, x: Representation):
        check = self.check_iterated_nu_stable()
        if not check["verdict"]:
            raise NotTilting("stable image requires the stability criterion to hold")
        profile, image0, concentrated = self._profile(x)
        if not concentrated:
            raise NotConcentrated(profile)
        return StableImageCertificate(
            input_dims=dict(x.dims),
            profile=profile,
            module=image0,
            hom_dimension=sum(profile[0]),
        )

    def check_simple_images(self):
        report = self.nust()
        e_set = set(report.e_labels)
        per_vertex = {}
        verdict = True
        for v in self.algebra.quiver.vertices:
            if v in e_set:
                continue
            profile, image0, concentrated = self._profile(simple(self.algebra, v))
            is_simple = image0.total_dim() == 1  # a one-dimensional module is simple
            per_vertex[v] = {
                "profile": {str(k): vec for k, vec in sorted(profile.items())},
                "concentrated": concentrated,
                "simple": is_simple,
            }
            verdict = verdict and concentrated and is_simple
        return {"kind": "simple_images", "per_projective": per_vertex, "verdict": verdict}


def _stalk_hom_classes(tw: ProjComplex, x: Representation, i: int):
    """The classes of chain maps from the summand complex tw to the stalk x
    placed so that its only component sits in degree -i, or None when there
    are no such maps.

    The result is the ``linalg.Basis`` of the chain maps modulo the null
    maps, in the Yoneda coordinates of the degree -i hom space, its rows
    ``{column: entry}`` dicts.  Both come from the sparse rows of
    ``reps.precomposition``: the chain maps are the left kernel of
    the incoming differential's rows, or every unit vector when there is no
    incoming differential, and the null maps the outgoing one's rows; no
    dense matrix is built.  When there are no null rows (no outgoing
    differential, or no hom space from the next term into x), the chain
    rows, in ``sparse_kernel``'s form, are the basis as they are:
    ``Basis.of_kernel`` reads coordinates off them without an elimination."""
    deg = -i
    n = sum(x.dims[a] for a in tw.term(deg))
    if not n:
        return None
    # a complex keeps only its nonzero differentials
    d_in, d_out = tw.diffs.get(deg - 1), tw.diffs.get(deg)
    # chain condition: precomposition with the incoming differential dies
    if d_in:
        pre_in = precomposition(x, d_in)
        chain = sparse_left_kernel(pre_in)
    else:
        chain = [{j: 1} for j in range(n)]
    # null maps: (next differential) then psi for psi on the next term
    null = precomposition(x, d_out) if d_out else []
    if not null:
        return Basis.of_kernel(chain, n)
    if d_in and any(sparse_combination(row, pre_in) for row in null):
        raise TiltbenchError(f"d^2 != 0 on Hom(T, x) at degree {deg}")
    return Basis(chain, n, null)


class StableImageCertificate(namedtuple("StableImageCertificate", "input_dims profile module hom_dimension")):
    """``profile``: shift -> dim vector over the endomorphism quiver."""

    __slots__ = ()

    def to_dict(self):
        return {
            "kind": "stable_image",
            "input_dims": self.input_dims,
            "profile": {str(k): v for k, v in sorted(self.profile.items())},
            "module_dims": dict(self.module.dims),
            "hom_dimension": self.hom_dimension,
        }


def end_algebra(a: BasicAlgebra, t: ProjComplex):
    """(BasicAlgebra, Presentation) for the endomorphism algebra of t."""
    ctx = TiltingContext(a, t)
    end = ctx.end_data()
    return end.presentation.algebra, end.presentation
