import random
from collections import Counter
from fractions import Fraction

import pytest
from kupisch import all_kupisch_series, nakayama_indecomposables, seeded_kupisch_series
from module_maps import flatten_map, hom_from_projective_sum

from tiltbench import corpus
from tiltbench.complexes import HomotopySpace, ProjComplex, regular_stalk
from tiltbench.complex_decomp import complexes_isomorphic
from tiltbench.errors import (
    DSquaredNonzero,
    NotConcentrated,
    NotSelfOrthogonal,
    NotTilting,
    PreconditionFailed,
    TiltbenchError,
)
from tiltbench.presentation import presentations_match
from tiltbench.quiver import Quiver, path_from_arrows, relation_from_words
from tiltbench.algebra import build_path_algebra, el_to_vector
from tiltbench.linalg import Basis, Matrix, _dense, _sparse, sparse_left_kernel
from tiltbench.reps import (
    EntryMap,
    ProjSum,
    Representation,
    hom_space,
    injective,
    projective,
    radical_submodule,
    realize_entry_map,
    simple,
    top,
    zero_rep,
)
from tiltbench.decompose import is_isomorphic
from tiltbench.tilting import (
    TiltingContext,
    _hom_nonzero,
    _stalk_hom_classes,
    check_add_nu_equal,
    construct_tpq,
    end_algebra,
    maximal_nu_stable,
    nakayama_permutation,
    verify_tilting,
)


def test_fig1_maximal_nu_stable():
    a = corpus.fig1_algebra()
    rep = maximal_nu_stable(a)
    assert rep.e_labels == ["2", "3"]
    assert rep.nu_image["2"] == "2" and rep.nu_image["3"] == "3"
    assert rep.nu_image["1"] is None


def _nakayama_permutation_by_is_isomorphic(a):
    """sigma as it was found before I(v) and P(w) were compared as
    indecomposables: by the general is_isomorphic."""
    sigma = {}
    for v in a.quiver.vertices:
        for w in a.quiver.vertices:
            if is_isomorphic(injective(a, v), projective(a, w)) is not None:
                sigma[v] = w
                break
    return sigma


def test_nakayama_permutation_matches_is_isomorphic():
    algebras = list(corpus.corpus_algebras().values())
    series_list = [
        [2, 2, 2],
        [3, 3, 3],
        [2, 2, 3, 3],
        [3, 3, 4, 4],
        [4, 3, 3, 3],
        [4, 4, 5, 5],
        [4, 5, 5, 5],
        [3, 4, 4, 4],
        [2, 2, 2, 3, 3],
        [3, 3, 4, 4, 4, 4],
        [2, 3, 3],
        [3, 3, 3, 3],
    ]
    for series in series_list:
        algebras.append(corpus.kupisch_algebra(series))
    sigmas = []
    for a in algebras:
        sigma = nakayama_permutation(a)
        assert sigma == _nakayama_permutation_by_is_isomorphic(a)
        sigmas.append(sigma)
    # N(4, 3) is self-injective: sigma is a permutation of all four vertices
    assert sorted(sigmas[-1]) == sorted(sigmas[-1].values()) == ["1", "2", "3", "4"]
    assert any(len(s) < 3 for s in sigmas)


def test_sec5_maximal_nu_stable():
    a = corpus.sec5_algebra()
    rep = maximal_nu_stable(a)
    assert rep.e_labels == ["1", "3", "4"]


def _stable_by_orbit_walk(a):
    """The stable vertices as they were found before the fixed point: v is
    stable when every vertex of its sigma-orbit is projective-injective and
    has a sigma-image, walked for at most (number of vertices) + 1 steps."""
    sigma = nakayama_permutation(a)
    proj_inj = {v: v in sigma.values() for v in a.quiver.vertices}
    stable = {}
    for v in a.quiver.vertices:
        seen, cur, ok = set(), v, proj_inj[v]
        for _ in range(len(a.quiver.vertices) + 1):
            if not ok or cur in seen:
                break
            seen.add(cur)
            ok = cur in sigma and proj_inj[cur]
            cur = sigma.get(cur)
        stable[v] = ok
    return stable


def test_maximal_nu_stable_matches_the_orbit_walk():
    algebras = list(corpus.corpus_algebras().values())
    algebras += [corpus.kupisch_algebra(series) for series in all_kupisch_series()]
    proper = 0
    for a in algebras:
        rep = maximal_nu_stable(a)
        stable = _stable_by_orbit_walk(a)
        assert rep.stable == stable
        assert rep.e_labels == [v for v in a.quiver.vertices if stable[v]]
        proper += 0 < len(rep.e_labels) < len(a.quiver.vertices)
    # E is neither empty nor everything on most of them
    assert len(algebras) > 120 and proper > 70


def test_semisimple_all_stable():
    q = Quiver(["1", "2"], [])
    a = build_path_algebra(q, [])
    rep = maximal_nu_stable(a)
    assert rep.e_labels == ["1", "2"]


def test_check_add_nu_equal_cases():
    sec5 = corpus.sec5_algebra()
    assert check_add_nu_equal(sec5, projective(sec5, "1")) is True
    fig1 = corpus.fig1_algebra()
    assert check_add_nu_equal(fig1, projective(fig1, "1")) is False
    assert check_add_nu_equal(fig1, zero_rep(fig1)) is True
    q34 = projective(sec5, "3").direct_sum(projective(sec5, "4"))
    assert check_add_nu_equal(sec5, q34) is True


def test_construct_rejects_p_whose_nu_image_leaves_p():
    """N(4,3): every vertex lies in E, but sigma = (13)(24), so P = P(1) has
    add(nu P) != add(P); P = P(1) + P(3) is closed and builds a complex."""
    a = corpus.kupisch_algebra([3, 3, 3, 3])
    rep = maximal_nu_stable(a)
    assert rep.e_labels == ["1", "2", "3", "4"]
    assert rep.nu_image == {"1": "3", "2": "4", "3": "1", "4": "2"}
    assert check_add_nu_equal(a, projective(a, "1")) is False
    assert check_add_nu_equal(a, projective(a, "1").direct_sum(projective(a, "3"))) is True
    with pytest.raises(PreconditionFailed, match=r"add\(P\) = add\(nu P\) \(nu P\(1\) = P\(3\)"):
        construct_tpq(a, ["1"], [], 1, 1)
    with pytest.raises(PreconditionFailed, match=r"nu P\(2\) = P\(4\) is not a summand of Q"):
        construct_tpq(a, [], ["2"], 1, 1)
    built = construct_tpq(a, ["1", "3"], [], 1, 1)
    assert verify_tilting(built.complex, proved_by_construction=True).is_tilting_verdict


def test_verify_tilting_fig1_T():
    a = corpus.fig1_algebra()
    t = corpus.fig1_tilting_complex(a)
    rep = verify_tilting(t)
    assert rep.self_orthogonal_ok
    assert all(v == 0 for v in rep.self_orthogonal.values())
    assert rep.k0_unimodular
    assert rep.basic
    assert rep.is_tilting_verdict


def test_verify_tilting_stalk_and_doubled():
    a = corpus.fig1_algebra()
    stalk = regular_stalk(a)
    rep = verify_tilting(stalk)
    assert rep.is_tilting_verdict
    t = corpus.fig1_tilting_complex(a)
    doubled = t.direct_sum(t)
    rep2 = verify_tilting(doubled)
    assert rep2.self_orthogonal_ok
    assert not rep2.basic
    assert not rep2.is_tilting_verdict


def test_construct_tpq_sec5():
    a = corpus.sec5_algebra()
    built = construct_tpq(a, ["1"], ["3", "4"], 1, 1)
    t = built.complex
    assert t.validate() == {"d_squared_zero": True, "is_radical": True}
    ctx = TiltingContext(a, t, proved_by_construction=True)
    summands, _, _ = ctx.decomposition()
    assert len(summands) == 4
    assert all(mult == 1 for _, mult in summands)
    # one summand is 0 -> P1 -> P2 -> P3 -> 0 up to shift
    alpha_p = a.paths_between("2", "1")[0]
    beta_p = a.paths_between("3", "2")[0]
    chain = ProjComplex(
        a,
        {-1: ["1"], 0: ["2"], 1: ["3"]},
        {-1: [[{alpha_p: 1}]], 0: [[{beta_p: 1}]]},
    )
    matched = 0
    for s, _ in summands:
        for shift in (-1, 0, 1):
            if complexes_isomorphic(s, chain.shift(shift)) is not None:
                matched += 1
                break
    assert matched == 1
    rep = ctx.tilting_report()
    assert rep.self_orthogonal_ok and rep.basic and rep.k0_unimodular
    assert rep.generation_status == "proved_by_construction"


def test_construct_tpq_trivial_gives_regular_stalk():
    a = corpus.sec5_algebra()
    built = construct_tpq(a, [], [], 1, 1)
    t = built.complex
    assert t.degrees() == [0]
    assert sorted(t.term(0)) == sorted(a.quiver.vertices)


def test_construct_tpq_precondition_failures():
    a = corpus.sec5_algebra()
    with pytest.raises(PreconditionFailed):
        construct_tpq(a, ["1"], ["2"], 1, 1)  # Hom(P1, P2) != 0
    with pytest.raises(PreconditionFailed):
        construct_tpq(a, ["2"], ["3", "4"], 1, 1)  # P2 is not stable
    with pytest.raises(PreconditionFailed):
        construct_tpq(a, ["1"], ["3", "4"], 0, 1)


def test_end_algebra_of_fig1_T_matches_fig2():
    a = corpus.fig1_algebra()
    t = corpus.fig1_tilting_complex(a)
    b, pres = end_algebra(a, t)
    assert b.dim == 9
    assert len(pres.quiver.vertices) == 3
    assert len(pres.quiver.arrows) == 4
    match = presentations_match(
        pres.quiver, pres.relations, corpus.fig2_quiver(), corpus.fig2_relations(corpus.fig2_quiver())
    )
    assert match is not None
    # Cartan matrices agree under the matched permutation
    ref = corpus.fig2_algebra()
    perm = [ref.quiver.vertex_index[match["vertices"][v]] for v in pres.quiver.vertices]
    cm_new, cm_ref = b.cartan_matrix(), ref.cartan_matrix()
    for i in range(3):
        for j in range(3):
            assert cm_new.data[i][j] == cm_ref.data[perm[i]][perm[j]]


def test_end_algebra_of_stalk_is_the_algebra_itself():
    for a in corpus.corpus_algebras().values():
        stalk = regular_stalk(a)
        b, pres = end_algebra(a, stalk)
        assert b.dim == a.dim
        match = presentations_match(pres.quiver, pres.relations, a.quiver, list(a.relations))
        assert match is not None


def test_check_iterated_nu_stable_fig1():
    a = corpus.fig1_algebra()
    t = corpus.fig1_tilting_complex(a)
    ctx = TiltingContext(a, t)
    rep = ctx.check_iterated_nu_stable()
    assert rep["verdict"] is True
    assert rep["per_projective"]["1"]["not_in_off_degrees"] is True
    assert rep["per_projective"]["1"]["degree_zero_multiplicity"] == 1
    assert rep["off_degree_terms_stable"] is True


def test_check_iterated_nu_stable_sec5_and_stalks():
    a = corpus.sec5_algebra()
    built = construct_tpq(a, ["1"], ["3", "4"], 1, 1)
    ctx = TiltingContext(a, built.complex, proved_by_construction=True)
    assert ctx.check_iterated_nu_stable()["verdict"] is True
    for alg in corpus.corpus_algebras().values():
        ctx2 = TiltingContext(alg, regular_stalk(alg))
        assert ctx2.check_iterated_nu_stable()["verdict"] is True


def test_f_homology_fig1():
    a = corpus.fig1_algebra()
    t = corpus.fig1_tilting_complex(a)
    ctx = TiltingContext(a, t)
    s1 = simple(a, "1")
    h0 = ctx.f_homology(s1, 0)
    assert h0.total_dim() == 1
    for i in (-1, 1):
        assert ctx.f_homology(s1, i).total_dim() == 0
    p1 = projective(a, "1")
    assert ctx.f_homology(p1, 1).total_dim() == 2
    z = zero_rep(a)
    for i in (-1, 0, 1):
        assert ctx.f_homology(z, i).total_dim() == 0
    with pytest.raises(TiltbenchError, match="different algebras"):
        ctx.f_homology(simple(corpus.sec5_algebra(), "1"), 0)


def test_f_homology_cache_holds_only_module_independent_parts():
    fig1 = corpus.fig1_algebra()
    kupisch = corpus.kupisch_algebra([4, 5, 5, 5])
    built = construct_tpq(kupisch, ["2"], [], 1, 1)
    cases = [
        (fig1, lambda: TiltingContext(fig1, corpus.fig1_tilting_complex(fig1))),
        (kupisch, lambda: TiltingContext(kupisch, built.complex, proved_by_construction=True)),
    ]
    for a, make in cases:
        mods = []
        for v in a.quiver.vertices:
            p = projective(a, v)
            mods += [simple(a, v), p, radical_submodule(p)[0]]
        ctx = make()
        shifts = range(-ctx.complex.hi, -ctx.complex.lo + 1)

        def answer(c, x):
            return [(h.dims, h.mats) for h in (c.f_homology(x, i) for i in shifts)]

        first = answer(ctx, mods[0])
        size = len(ctx._f_hom_cache)
        assert size > 0
        again = [answer(ctx, x) for x in mods]  # mods[0] asked again, the rest after others
        assert len(ctx._f_hom_cache) == size
        assert again[0] == first
        fresh = make()
        assert [answer(fresh, x) for x in reversed(mods)] == again[::-1]
        # every cached value is an arrow component, an entry matrix of
        # algebra elements with exact scalars: nothing in the cache is built
        # from a module
        arrows = {ar.name for ar in ctx.end_data().presentation.quiver.arrows}
        for (name, d), v in ctx._f_hom_cache.items():
            assert name in arrows and isinstance(d, int) and isinstance(v, EntryMap)
            assert all(
                isinstance(row, list)
                and all(
                    isinstance(el, dict)
                    and all(isinstance(k, int) and type(c) in (int, Fraction) for k, c in el.items())
                    for el in row
                )
                for row in v.rows
            )


def _combine(maps, coords):
    acc = None
    for c, h in zip(coords, maps):
        if c:
            acc = h.scale(c) if acc is None else acc + h.scale(c)
    return acc


def _f_homology_by_module_maps(ctx, x, i):
    """f_homology built from whole module maps: Yoneda basis maps, realized
    differentials and arrow components, and coordinates found by a solve in
    the span of the flattened basis maps."""
    a = ctx.algebra
    end = ctx.end_data()
    pres = end.presentation
    sums, diffs = {}, {}
    for w, tw in enumerate(end.copy_complexes):
        for d in tw.degrees():
            sums[w, d] = ProjSum(a, tw.term(d))
        for d in tw.degrees():
            if tw.term(d + 1):
                diffs[w, d] = realize_entry_map(sums[w, d], sums[w, d + 1], tw.diff(d))

    def stalk_classes(w):
        psum = sums.get((w, -i))
        if psum is None:
            return None
        maps = hom_from_projective_sum(psum, x)
        if not maps:
            return None
        flat = [flatten_map(h) for h in maps]
        span = Basis(flat, len(flat[0]))
        if (w, -i - 1) in diffs:
            rows = [flatten_map(diffs[w, -i - 1].then(h)) for h in maps]
            chain = list(_dense(sparse_left_kernel(_sparse(rows)), len(maps)))
        else:
            chain = [[Fraction(int(k == j)) for k in range(len(maps))] for j in range(len(maps))]
        null = []
        if (w, -i + 1) in sums:
            for psi in hom_from_projective_sum(sums[w, -i + 1], x):
                null.append(span.coordinates(flatten_map(diffs[w, -i].then(psi))))
        classes = Basis(chain, len(maps), null)
        return maps, span, classes, classes.rows

    stalk = [stalk_classes(w) for w in range(len(pres.quiver.vertices))]
    reps = [s[3] if s else [] for s in stalk]
    dims = {v: len(r) for v, r in zip(pres.quiver.vertices, reps)}
    mats = {}
    for ar in pres.quiver.arrows:
        wi = pres.quiver.vertex_index[ar.source]
        wj = pres.quiver.vertex_index[ar.target]
        rows = [[Fraction(0)] * len(reps[wj]) for _ in reps[wi]]
        if reps[wi] and stalk[wj] is not None and (wi, -i) in sums:
            b = _combine(end.space.class_reps(), el_to_vector(pres.arrow_elements[ar.name], end.abstract.dim))
            chain = end.copy_includes[wj].then(b).then(end.copy_projects[wi])
            component = realize_entry_map(sums[wj, -i], sums[wi, -i], chain.component(-i))
            maps, span, classes, _ = stalk[wj]
            for row, coords in zip(rows, reps[wi]):
                image = component.then(_combine(stalk[wi][0], coords))
                in_classes = classes.coordinates(span.coordinates(flatten_map(image)))
                row[:] = [in_classes.get(k, 0) for k in range(len(reps[wj]))]
        mats[ar.name] = Matrix(len(reps[wi]), len(reps[wj]), rows)
    return Representation(pres.algebra, dims, mats)


def _base_modules(a):
    """The simple, the projective and the radical of the projective at each
    vertex of a: the base modules of the stable-queries benchmark."""
    mods = []
    for v in a.quiver.vertices:
        p = projective(a, v)
        mods += [simple(a, v), p, radical_submodule(p)[0]]
    return mods


def test_f_homology_matches_module_map_route():
    """f_homology against the module-map route on the base modules and two
    sums at every shift, and, for Kupisch (4,5,5,5), on all 144 ordered sums
    of two base modules at shifts 0 and 1, the stable-queries benchmark's
    queries."""
    fig1 = corpus.fig1_algebra()
    sec5 = corpus.sec5_algebra()
    kupisch = corpus.kupisch_algebra([4, 5, 5, 5])
    cases = [
        (fig1, corpus.fig1_tilting_complex(fig1)),
        (sec5, construct_tpq(sec5, ["1"], ["3", "4"], 1, 1).complex),
        (kupisch, construct_tpq(kupisch, ["2"], [], 1, 1).complex),
    ]
    nonzero_actions = 0
    for a, t in cases:
        verts = list(a.quiver.vertices)
        mods = [
            projective(a, verts[0]).direct_sum(simple(a, verts[-1])),
            radical_submodule(projective(a, verts[-1]))[0].direct_sum(projective(a, verts[1])),
        ] + _base_modules(a)
        ctx = TiltingContext(a, t)
        queries = [(x, i) for x in mods for i in range(-t.hi - 1, -t.lo + 2)]
        if a is kupisch:
            base = _base_modules(a)
            queries += [(y.direct_sum(z), i) for y in base for z in base for i in (0, 1)]
        for x, i in queries:
            fast, ref = ctx.f_homology(x, i), _f_homology_by_module_maps(ctx, x, i)
            assert fast.dims == ref.dims
            assert fast.mats == ref.mats
            nonzero_actions += sum(not m.is_zero() for m in fast.mats.values())
    assert nonzero_actions > 50


def test_f_homology_on_every_nakayama_indecomposable():
    """On every indecomposable P(v)/rad^k P(v) of three Kupisch series, with
    T = construct_tpq(A, P, [], 1, 1) for a P that passes the stability
    criterion: f_homology agrees with the module-map route at every shift,
    and stable_image answers or raises NotConcentrated, nothing else."""
    answered = not_concentrated = 0
    for series, labels in (([3, 4, 4], ["2"]), ([3, 3, 4, 4], ["2", "3", "4"]), ([4, 5, 5, 5], ["2"])):
        a = corpus.kupisch_algebra(series)
        t = construct_tpq(a, labels, [], 1, 1).complex
        ctx = TiltingContext(a, t, proved_by_construction=True)
        mods = nakayama_indecomposables(a)
        # uniserial P(v)/rad^k P(v): simple top at v and dimension k
        tops = [top(x)[0].dims for x in mods]
        assert all(sum(dims.values()) == 1 for dims in tops)
        assert [(next(v for v, d in dims.items() if d), x.total_dim()) for dims, x in zip(tops, mods)] == [
            (v, k) for v, length in zip(a.quiver.vertices, series) for k in range(1, length + 1)
        ]
        for x in mods:
            for i in range(-t.hi - 1, -t.lo + 2):
                fast, ref = ctx.f_homology(x, i), _f_homology_by_module_maps(ctx, x, i)
                assert (fast.dims, fast.mats) == (ref.dims, ref.mats)
            try:
                ctx.stable_image(x)
                answered += 1
            except NotConcentrated:
                not_concentrated += 1
    assert (answered, not_concentrated) == (10, 34)


def test_f_homology_builds_no_dense_matrix(monkeypatch):
    """f_homology keeps Hom(T_w, x) in sparse rows from the precomposition
    to the class coordinates: over the 12 base modules of Kupisch (4,5,5,5),
    T = construct_tpq(A, ["2"], [], 1, 1), at shifts 0 and 1, it never
    calls the dense Matrix constructor."""
    a = corpus.kupisch_algebra([4, 5, 5, 5])
    ctx = TiltingContext(a, construct_tpq(a, ["2"], [], 1, 1).complex)
    ctx.end_data()
    mods = _base_modules(a)
    calls = Counter()

    def counted(name):
        original = getattr(Matrix, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(Matrix, name, wrapper)

    counted("__init__")
    dims = 0
    for x in mods:
        for i in (0, 1):
            dims += ctx.f_homology(x, i).total_dim()
    assert dims > 0
    assert calls == Counter()


def test_stable_queries_skip_zero_vertices_and_eliminate_only_modulo_null_maps(monkeypatch):
    """Over the 144 sums of two base modules of Kupisch (4,5,5,5), with
    T = construct_tpq(A, ["2"], [], 1, 1), at shifts 0 and 1, the
    stable-queries benchmark's pass: the relation certificate of the image
    modules asks ``path_matrix`` for no path through a vertex of dimension
    0 (189 of the 864 relation terms remain), and 555 of the 938 stalk
    bases, those with no null maps (no outgoing differential, or no hom
    space from the next term), are ``Basis.of_kernel`` bases without an
    elimination."""
    a = corpus.kupisch_algebra([4, 5, 5, 5])
    ctx = TiltingContext(a, construct_tpq(a, ["2"], [], 1, 1).complex)
    ctx.end_data()
    base = _base_modules(a)
    sums = [y.direct_sum(z) for y in base for z in base]
    calls = Counter()
    path_matrix = Representation.path_matrix

    def counted_path_matrix(self, path):
        if self.algebra is not a:  # an image module's relation check, not a query module's Yoneda rows
            calls["path products"] += 1
            vertices = [path.source] + [self.algebra.quiver.arrow_by_name[name].target for name in path.arrows]
            assert all(self.dims[v] for v in vertices), path
        return path_matrix(self, path)

    init, of_kernel = Basis.__init__, Basis.of_kernel.__func__

    def counted_init(self, *args, **kwargs):
        calls["eliminated bases"] += 1
        init(self, *args, **kwargs)

    def counted_of_kernel(cls, rows, width):
        calls["kernel bases"] += 1
        return of_kernel(cls, rows, width)

    monkeypatch.setattr(Representation, "path_matrix", counted_path_matrix)
    monkeypatch.setattr(Basis, "__init__", counted_init)
    monkeypatch.setattr(Basis, "of_kernel", classmethod(counted_of_kernel))
    dims = sum(ctx.f_homology(x, i).total_dim() for x in sums for i in (0, 1))
    assert len(sums) == 144 and dims > 0
    assert calls == Counter({"path products": 189, "kernel bases": 555, "eliminated bases": 383})


def test_f_homology_checks_d_squared_on_homs():
    """A summand P(3) -> P(2) -> P(1) whose differentials compose to the
    nonzero path 1 -> 2 -> 3 gives d^2 != 0 on Hom(T, P(1))."""
    a = corpus.kupisch_algebra([4, 5, 5, 5])
    out_of = {ar.source: a.index[path_from_arrows(a.quiver, [ar.name])] for ar in a.quiver.arrows}
    summand = ProjComplex(
        a,
        {-1: ["3"], 0: ["2"], 1: ["1"]},
        {-1: [[{out_of["2"]: Fraction(1)}]], 0: [[{out_of["1"]: Fraction(1)}]]},
    )
    with pytest.raises(TiltbenchError, match=r"d\^2 != 0"):
        _stalk_hom_classes(summand, projective(a, "1"), 0)


def _fig1_complex_with_d_squared_nonzero(a):
    """P(3) -beta-> P(2) -alpha-> P(1) over fig1: d^2 is the path alpha*beta,
    which is nonzero."""
    arrow = {name: a.index[path_from_arrows(a.quiver, [name])] for name in ("alpha", "beta")}
    return ProjComplex(a, {-1: ["3"], 0: ["2"], 1: ["1"]}, {-1: [[{arrow["beta"]: 1}]], 0: [[{arrow["alpha"]: 1}]]})


def test_end_data_refuses_differentials_that_do_not_square_to_zero():
    a = corpus.fig1_algebra()
    ctx = TiltingContext(a, _fig1_complex_with_d_squared_nonzero(a))
    with pytest.raises(DSquaredNonzero, match="differentials do not square to zero"):
        ctx.end_data()


def test_end_data_of_a_non_radical_complex_is_that_of_its_radical_form():
    """fig1's T plus the contractible P(1) -1-> P(1) is not radical; its End
    is T's, of dimension 9."""
    a = corpus.fig1_algebra()
    t = corpus.fig1_tilting_complex(a)
    cone = ProjComplex(a, {-1: ["1"], 0: ["1"]}, {-1: [[{a.idempotent_index["1"]: 1}]]})
    padded = t.direct_sum(cone)
    assert not padded.is_radical()
    assert TiltingContext(a, padded).end_data().abstract.dim == TiltingContext(a, t).end_data().abstract.dim == 9


def test_stable_image_fig1():
    a = corpus.fig1_algebra()
    t = corpus.fig1_tilting_complex(a)
    ctx = TiltingContext(a, t)
    cert = ctx.stable_image(simple(a, "1"))
    assert cert.module.total_dim() == 1
    from tiltbench.reps import socle

    soc, _ = socle(cert.module)
    assert soc.total_dim() == 1
    with pytest.raises(NotConcentrated) as exc:
        ctx.stable_image(projective(a, "1"))
    assert sum(exc.value.profile[1]) == 2
    cert0 = ctx.stable_image(zero_rep(a))
    assert cert0.module.total_dim() == 0


def test_stable_image_of_a_complex_with_no_degree_zero_term():
    """T = A[1] over self-injective Kupisch (3,3,3) has no degree-0 term; the
    profile still covers shift 0, so the zero module has a zero image."""
    a = corpus.kupisch_algebra([3, 3, 3])
    ctx = TiltingContext(a, regular_stalk(a, -1))
    assert ctx.check_iterated_nu_stable()["verdict"] is True
    assert ctx.check_simple_images()["verdict"] is True
    cert = ctx.stable_image(zero_rep(a))
    assert cert.module.total_dim() == 0
    assert cert.hom_dimension == 0
    with pytest.raises(NotConcentrated) as exc:
        ctx.stable_image(simple(a, "1"))
    assert exc.value.profile == {0: [0, 0, 0], 1: [1, 0, 0]}


def test_check_simple_images_matches_iterated_criterion():
    a = corpus.fig1_algebra()
    t = corpus.fig1_tilting_complex(a)
    ctx = TiltingContext(a, t)
    rep = ctx.check_simple_images()
    assert rep["verdict"] is True
    assert rep["per_projective"]["1"]["simple"] is True


def linear_a3_apr_complex():
    """(A, T): linear A3, 1 -a-> 2 -b-> 3 with no relations, and the APR
    tilting complex at the simple projective P(3): P(3) -b-> P(2) in degrees
    -1 and 0, plus P(1) and a second P(2) in degree 0."""
    q = Quiver(["1", "2", "3"], [("a", "1", "2"), ("b", "2", "3")])
    a = build_path_algebra(q, [])
    b = a.paths_between("2", "3")[0]
    return a, ProjComplex(a, {-1: ["3"], 0: ["2", "1", "2"]}, {-1: [[{b: 1}, {}, {}]]})


def test_apr_tilt_on_linear_a3_gives_negative_verdicts():
    a, t = linear_a3_apr_complex()
    assert verify_tilting(t).is_tilting_verdict
    ctx = TiltingContext(a, t)
    assert ctx.nust().e_labels == []
    nu = ctx.check_iterated_nu_stable()
    assert nu["verdict"] is False
    simples = ctx.check_simple_images()
    assert simples["verdict"] is False
    assert simples["per_projective"]["3"]["profile"] == {"0": [0, 0, 0], "1": [1, 0, 0]}
    # the two oracles agree vertex by vertex: P(1) passes, P(2) and P(3) fail
    by_terms = {
        v: c["not_in_off_degrees"] and c["degree_zero_multiplicity"] == 1
        for v, c in nu["per_projective"].items()
    }
    by_images = {v: c["concentrated"] and c["simple"] for v, c in simples["per_projective"].items()}
    assert by_terms == by_images == {"1": True, "2": False, "3": False}
    with pytest.raises(NotTilting):
        ctx.stable_image(simple(a, "1"))
    end = ctx.end_data()
    pres = end.presentation
    assert end.abstract.dim == 5
    names = {v: i for i, v in enumerate(pres.quiver.vertices)}
    arrows = sorted((names[ar.source], names[ar.target]) for ar in pres.quiver.arrows)
    # End(T)'s vertex k is the k-th copy: the two-term summand, P(1), P(2)
    assert [s.terms for s in end.copy_complexes] == [{-1: ["3"], 0: ["2"]}, {0: ["1"]}, {0: ["2"]}]
    assert arrows == [(0, 2), (1, 2)]
    assert pres.relations == []


def test_context_builds_each_self_hom_once(monkeypatch):
    a = corpus.sec5_algebra()
    t = construct_tpq(a, ["1"], ["3", "4"], 1, 1).complex
    ctx = TiltingContext(a, t, proved_by_construction=True)
    builds = Counter()
    init = HomotopySpace.__init__

    def counted(self, x, y_shifted):
        if x is t:
            builds[min(y_shifted.terms)] += 1  # the shift n moves the lowest degree
        init(self, x, y_shifted)

    monkeypatch.setattr(HomotopySpace, "__init__", counted)
    ctx.tilting_report()
    ctx.end_data()
    # degrees -1, 0, 1: the shifts -2 to 2
    assert sorted(builds) == [-3, -2, -1, 0, 1]
    assert set(builds.values()) == {1}


def test_a_gap_in_the_degrees_builds_a_space_only_at_their_differences(monkeypatch):
    """fig1's T plus P(1) at degree 10^4: Hom(T, T[n]) has a degree-0 map
    only when n is a difference of two degrees of T, so verify_tilting and
    end_data build at most |degrees|^2 homotopy spaces, not one per shift
    between -10^4 - 1 and 10^4 + 1, and report only those shifts."""
    from tiltbench import tilting

    a = corpus.fig1_algebra()
    far = 10**4
    t = corpus.fig1_tilting_complex(a).direct_sum(ProjComplex(a, {far: ["1"]}, {}))
    shifts = [-far - 1, -far, -1, 1, far, far + 1]
    calls = []
    homotopy_hom = tilting.homotopy_hom

    def counted(x, y, n=0):
        calls.append(n)
        return homotopy_hom(x, y, n)

    monkeypatch.setattr(tilting, "homotopy_hom", counted)
    report = verify_tilting(t)
    assert list(report.self_orthogonal) == shifts and not report.self_orthogonal_ok
    assert sorted(calls) == shifts
    calls.clear()
    ctx = TiltingContext(a, t)
    assert list(ctx.tilting_report().self_orthogonal) == shifts
    with pytest.raises(NotSelfOrthogonal):
        ctx.end_data()
    assert sorted(calls) == sorted(shifts + [0]) and len(calls) <= len(t.degrees()) ** 2


def test_context_builds_no_space_for_stalk_components(monkeypatch):
    a = corpus.sec5_algebra()
    t = construct_tpq(a, ["1"], ["3", "4"], 1, 1).complex
    ctx = TiltingContext(a, t, proved_by_construction=True)
    builds = []
    init = HomotopySpace.__init__

    def counted(self, x, y_shifted):
        builds.append(x)
        init(self, x, y_shifted)

    monkeypatch.setattr(HomotopySpace, "__init__", counted)
    ctx.tilting_report()
    ctx.end_data()
    # T -> T[n] for each n in [-2, 2], the differences of T's degrees, and
    # End of the one support component P(1) -> P(2) -> P(3); the stalks
    # P(1)[1], P(3)[-1] and P(4)[-1] are indecomposable without one
    others = [x for x in builds if x is not t]
    assert len(builds) - len(others) == 5
    assert [{d: x.term(d) for d in x.degrees()} for x in others] == [{-1: ["1"], 0: ["2"], 1: ["3"]}]


def test_construct_computes_nu_stability_once(monkeypatch):
    from tiltbench import tilting

    a = corpus.sec5_algebra()
    reports = []
    projectives = []
    report, build = tilting.maximal_nu_stable, tilting.projective
    monkeypatch.setattr(tilting, "maximal_nu_stable", lambda *args: reports.append(1) or report(*args))
    monkeypatch.setattr(tilting, "projective", lambda *args: projectives.append(args[1]) or build(*args))
    construct_tpq(a, ["1"], ["3", "4"], 1, 1)
    assert len(reports) == 1
    # P and Q are ProjSums; one projective per vertex for sigma
    assert sorted(projectives) == ["1", "2", "3", "4"]
    reports.clear()
    construct_tpq(a, [], [], 1, 1)
    assert reports == []


def test_sec5_with_a_non_integral_coefficient_gives_the_same_results():
    """sec5 with its commutativity relation betap beta - gamma gammap = 0
    rescaled to betap beta - 2/3 gamma gammap = 0 is isomorphic to sec5
    (rescale gamma), so the pipeline must give the same answers on it, while
    its structure constants carry the non-integral scalars that the corpus
    never does."""
    q = corpus.sec5_quiver()
    relations = corpus.sec5_relations(q)
    assert [t[0] for t in relations[-1].terms] == [1, -1]
    relations[-1] = relation_from_words(q, [(1, ["betap", "beta"]), (Fraction(-2, 3), ["gamma", "gammap"])])
    scaled = build_path_algebra(q, relations)
    products = (scaled.basis_product(i, j) for i in range(scaled.dim) for j in range(scaled.dim))
    assert any(type(c) is Fraction for prod in products for c in prod.values())

    def results(a):
        built = construct_tpq(a, ["1"], ["3", "4"], 1, 1)
        for mat in built.complex.diffs.values():
            for row in mat.rows:
                for el in row:
                    assert all(type(c) is int or (type(c) is Fraction and c.denominator != 1) for c in el.values())
        report = verify_tilting(built.complex)
        ctx = TiltingContext(a, built.complex, proved_by_construction=True)
        criterion = ctx.check_iterated_nu_stable()
        images = ctx.check_simple_images()
        end, pres = end_algebra(a, built.complex)
        profiles = {v: entry["profile"] for v, entry in images["per_projective"].items()}
        return {
            "tilting": report.to_dict(),
            "criterion": criterion,
            "simple_images_verdict": images["verdict"],
            "profiles": profiles,
            "end_quiver": (pres.quiver.vertices, [(x.name, x.source, x.target) for x in pres.quiver.arrows]),
            "end_relations": [[(str(c), p.arrows) for c, p in r.terms] for r in pres.relations],
            "end_cartan": end.cartan_matrix(),
        }

    want = results(corpus.sec5_algebra())
    got = results(scaled)
    assert want["tilting"]["verdict"] and want["criterion"]["verdict"] and want["simple_images_verdict"]
    assert got == want


def test_hom_p_to_q_by_yoneda_matches_the_hom_space_route():
    """Hom(P, Q) != 0, read by Yoneda as Q(v) != 0 for a label v of P,
    agrees with a solved ``hom_space`` between the sums of projectives, over
    every pair of label sets of the corpus algebras and of seeded Kupisch
    series."""
    rng = random.Random(24)
    algebras = list(corpus.corpus_algebras().values())
    algebras += [corpus.kupisch_algebra(s) for s in seeded_kupisch_series(rng, 5)]
    nonzero = 0
    for a in algebras:
        verts = list(a.quiver.vertices)
        subsets = [[v for k, v in enumerate(verts) if mask >> k & 1] for mask in range(1 << len(verts))]
        reps = {tuple(s): ProjSum(a, s).rep for s in subsets}
        for p in subsets:
            for q in subsets:
                want = bool(hom_space(reps[tuple(p)], reps[tuple(q)]))
                assert _hom_nonzero(a, p, q) == want, (p, q)
                nonzero += want
    assert nonzero > 100
    # N(2, 3) is symmetric, so every label set is nu-stable, and P(2)(1) != 0
    with pytest.raises(PreconditionFailed, match=r"Hom\(P, Q\) = 0"):
        construct_tpq(corpus.kupisch_algebra([3, 3]), ["1"], ["2"])
