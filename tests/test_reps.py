import random
from fractions import Fraction

import pytest
from kupisch import seeded_kupisch_series
from module_maps import (
    dense_hom_space,
    flatten_map,
    hom_from_projective_sum,
    injective_by_dual_paths,
    injective_sum_by_direct_sums,
)

from tiltbench import corpus
from tiltbench.decompose import _iso_between_indecomposables, decompose
from tiltbench.errors import DimensionMismatch, NotProjective, TiltbenchError
from tiltbench.linalg import Basis, Matrix, _sparse, sparse_left_kernel, sparse_row_space
from tiltbench.quiver import path_from_arrows, trivial_path
from tiltbench.reps import (
    ModuleMap,
    Representation,
    hom_space,
    injective,
    projective,
    radical_layers,
    radical_submodule,
    regular_module,
    simple,
    socle,
    top,
    kernel_of,
    cokernel_of,
    EntryMap,
    ProjSum,
    extract_entry_map,
    realize_entry_map,
    nu_injective_sum,
    precomposition,
    projective_labels,
    quotient_representation,
    sub_representation,
    zero_rep,
)
from tiltbench.tilting import construct_tpq


def test_path_matrix_is_word_order_product_of_arrow_matrices():
    for a in (corpus.sec5_algebra(), corpus.fig2_algebra(), corpus.kupisch_algebra([3, 3, 4, 4])):
        q = a.quiver
        words = [[arrow.name] for arrow in q.arrows]
        for w in words:  # every composable word of length 1 to 3
            if len(w) < 3:
                words.extend(w + [b.name] for b in q.arrows_from[q.arrow_by_name[w[-1]].target])
        assert any(len(w) == 3 for w in words)
        for x in (regular_module(a), injective(a, q.vertices[0])):
            for v in q.vertices:
                assert x.path_matrix(trivial_path(v)) == Matrix.identity(x.dims[v])
            for w in words:
                path = path_from_arrows(q, w)
                n = x.dims[path.source]
                rows = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
                for name in w:
                    m = x.mats[name].data
                    width = x.mats[name].cols
                    rows = [[sum((r[k] * m[k][j] for k in range(len(m))), Fraction(0)) for j in range(width)] for r in rows]
                got = x.path_matrix(path)
                assert (got.rows, got.cols) == (n, x.dims[path.target(q)])
                assert [list(r) for r in got.data] == rows


def test_path_matrices_are_kept_per_module():
    """Two modules with one dimension vector but different arrow matrices,
    asked for their path matrices in interleaved order, twice, each get the
    products of their own arrow matrices: a kept matrix never answers for
    the other module."""
    a = corpus.kupisch_algebra([3, 3, 4, 4])
    x = regular_module(a)
    y = _fractional_twist(x, random.Random(34))
    assert x.dims == y.dims and x.mats != y.mats
    for _ in range(2):
        for p in a.basis:
            for m in (x, y):
                want = Matrix.identity(m.dims[p.source])
                for name in p.arrows:
                    want = want * m.mats[name]
                assert m.path_matrix(p) == want
                assert m.path_matrix(p) is m.path_matrix(p)
    assert sum(x.path_matrix(p) != y.path_matrix(p) for p in a.basis) > len(a.basis) // 2


def layers_as_labels(m):
    return [sorted(k for k, v in layer.items() for _ in range(v)) for layer in radical_layers(m)]


def test_sec5_projective_dims_and_loewy():
    a = corpus.sec5_algebra()
    p1 = projective(a, "1")
    assert p1.dim_vector() == (2, 1, 0, 0)
    assert layers_as_labels(p1) == [["1"], ["2"], ["1"]]
    p2 = projective(a, "2")
    assert layers_as_labels(p2) == [["2"], ["1", "3"]]
    p3 = projective(a, "3")
    assert layers_as_labels(p3) == [["3"], ["2", "4"], ["3"]]
    p4 = projective(a, "4")
    assert layers_as_labels(p4) == [["4"], ["3"], ["4"]]


def test_simple_and_socle():
    a = corpus.fig1_algebra()
    s2 = simple(a, "2")
    assert s2.dim_vector() == (0, 1, 0)
    t, _ = top(s2)
    so, _ = socle(s2)
    assert t.dim_vector() == so.dim_vector() == (0, 1, 0)


def test_sec5_injective_4():
    a = corpus.sec5_algebra()
    i4 = injective(a, "4")
    assert i4.total_dim() == 3
    so, _ = socle(i4)
    assert so.dim_vector() == (0, 0, 0, 1)


def test_yoneda_dimension_count():
    for a in corpus.corpus_algebras().values():
        mods = [regular_module(a)] + [projective(a, v) for v in a.quiver.vertices] + [
            simple(a, v) for v in a.quiver.vertices
        ]
        for x in mods:
            for v in a.quiver.vertices:
                assert len(hom_space(projective(a, v), x)) == x.dims[v]


def _in_span(maps, basis):
    """Every map of maps is a combination of the maps of basis."""
    span = Basis([flatten_map(b) for b in basis], len(flatten_map(maps[0])))
    try:
        for f in maps:
            span.coordinates(flatten_map(f))
    except TiltbenchError:
        return False
    return True


def test_yoneda_basis_matches_hom_space():
    algebras = list(corpus.corpus_algebras().values()) + [
        corpus.kupisch_algebra([3, 3, 4, 4]),
        corpus.kupisch_algebra([2, 3, 3]),
    ]
    for a in algebras:
        verts = list(a.quiver.vertices)
        sums = [ProjSum(a, verts + verts[:1]), ProjSum(a, [verts[-1], verts[1], verts[-1]])]
        mods = [projective(a, verts[0]).direct_sum(simple(a, verts[-1]))]
        for v in verts:
            p = projective(a, v)
            mods += [simple(a, v), p, radical_submodule(p)[0]]
        for psum in sums:
            for x in mods:
                yoneda = hom_from_projective_sum(psum, x)
                solved = hom_space(psum.rep, x)
                assert len(yoneda) == len(solved) == sum(x.dims[lab] for lab in psum.labels)
                for f in yoneda:
                    ModuleMap(f.source, f.target, f.mats, check=True)  # raises unless f intertwines
                if yoneda:
                    assert _in_span(yoneda, solved)
                    assert _in_span(solved, yoneda)


def _entry_maps(c):
    """Every differential of c between two nonzero terms."""
    return [c.diff(d) for d in c.degrees() if c.term(d + 1)]


def _random_entry_map(a, rng, m, n):
    """An entry map between random labels with random small coefficients."""
    verts = list(a.quiver.vertices)
    src = [rng.choice(verts) for _ in range(m)]
    tgt = [rng.choice(verts) for _ in range(n)]
    entries = [[{} for _ in tgt] for _ in src]
    for i, s in enumerate(src):
        for j, b in enumerate(tgt):
            for k in a.paths_between(b, s):
                c = rng.randint(-3, 3)
                if c:
                    entries[i][j][k] = Fraction(c)
    return EntryMap(a, src, tgt, entries)


def test_precomposition_matrix_matches_module_maps():
    """Sparse row k of the precomposition of E holds the Yoneda coordinates
    of (realized E) then h_k, for the k-th Yoneda basis map h_k: one row per
    basis map, no zero entry and no column outside the target hom space."""
    fig1 = corpus.fig1_algebra()
    sec5 = corpus.sec5_algebra()
    kupisch = corpus.kupisch_algebra([4, 5, 5, 5])
    cases = [
        (fig1, _entry_maps(corpus.fig1_tilting_complex(fig1))),
        (sec5, _entry_maps(construct_tpq(sec5, ["1"], ["3", "4"], 1, 1).complex)),
        (kupisch, _entry_maps(construct_tpq(kupisch, ["2"], [], 1, 1).complex)),
    ]
    rng = random.Random(20081105)
    small = corpus.kupisch_algebra([3, 3, 4, 4])
    cases.append((small, [_random_entry_map(small, rng, rng.randint(1, 3), rng.randint(1, 3)) for _ in range(10)]))
    checked = 0
    for a, maps in cases:
        verts = list(a.quiver.vertices)
        mods = [projective(a, verts[0]).direct_sum(radical_submodule(projective(a, verts[-1]))[0])]
        for v in verts:
            p = projective(a, v)
            mods += [simple(a, v), p, radical_submodule(p)[0]]
        for e in maps:
            src_sum, tgt_sum = ProjSum(a, e.src), ProjSum(a, e.tgt)
            realized = realize_entry_map(src_sum, tgt_sum, e)
            for x in mods:
                pre = precomposition(x, e)
                out_basis = hom_from_projective_sum(tgt_sum, x)
                in_basis = hom_from_projective_sum(src_sum, x)
                assert len(pre) == len(out_basis)
                assert all(0 <= j < len(in_basis) and y for row in pre for j, y in row.items())
                if not in_basis:
                    continue
                span = Basis([flatten_map(h) for h in in_basis], len(flatten_map(in_basis[0])))
                assert span.positions == list(range(len(in_basis)))
                for k, h in enumerate(out_basis):
                    assert span.coordinates(flatten_map(realized.then(h))) == pre[k]
                    checked += 1
    assert checked > 150


def _fractional_twist(m: Representation, rng: random.Random) -> Representation:
    """m after a random change of basis with non-integer entries at every
    vertex."""
    change = {}
    for v, n in m.dims.items():
        while True:
            c = Matrix(n, n, [[Fraction(rng.randint(-2, 2), rng.randint(1, 3)) for _ in range(n)] for _ in range(n)])
            inv = c.inverse()
            if inv is not None:
                change[v] = (c, inv)
                break
    mats = {ar.name: change[ar.source][1] * m.mats[ar.name] * change[ar.target][0] for ar in m.algebra.quiver.arrows}
    return Representation(m.algebra, dict(m.dims), mats)


def _hom_pools(rng):
    """Per algebra, a pool of modules: the regular module, projectives,
    injectives, simples, the zero module, sums, and a module with
    non-integer matrix entries."""
    algebras = [corpus.kupisch_algebra(s) for s in ([2, 3, 3], [3, 3, 4, 4], [4, 5, 5, 5])]
    algebras += [corpus.fig1_algebra(), corpus.sec5_algebra()]
    for a in algebras:
        verts = list(a.quiver.vertices)
        pool = [regular_module(a), zero_rep(a)]
        for v in verts:
            pool += [projective(a, v), injective(a, v), simple(a, v)]
        pool.append(projective(a, verts[0]).direct_sum(simple(a, verts[-1])).direct_sum(projective(a, verts[0])))
        pool.append(injective(a, verts[1]).direct_sum(projective(a, verts[-1])))
        pool.append(_fractional_twist(projective(a, verts[0]).direct_sum(injective(a, verts[-1])), rng))
        yield pool


def test_sparse_hom_space_matches_dense_reference():
    rng = random.Random(10)
    pairs = []
    for pool in _hom_pools(rng):
        pairs += [(m, m) for m in pool]
        pairs += [(rng.choice(pool), rng.choice(pool)) for _ in range(40)]
    fractional = lambda x: any(e.denominator != 1 for mat in x.mats.values() for row in mat.data for e in row)
    assert any(fractional(m) or fractional(n) for m, n in pairs)
    # one side zero-dimensional at a vertex where the other is not
    assert any(any(m.dims[v] == 0 < n.dims[v] or n.dims[v] == 0 < m.dims[v] for v in m.dims) for m, n in pairs)
    nonzero = 0
    for m, n in pairs:
        sparse, dense = hom_space(m, n), dense_hom_space(m, n)
        assert [flatten_map(f) for f in sparse] == [flatten_map(f) for f in dense]
        assert all(f.mats[v] == g.mats[v] for f, g in zip(sparse, dense) for v in m.dims)
        nonzero += bool(sparse)
    assert nonzero > 100


def test_fig1_hom_p2_p1_is_one_dimensional():
    a = corpus.fig1_algebra()
    h = hom_space(projective(a, "2"), projective(a, "1"))
    assert len(h) == 1


def test_sec5_hom_p1_to_p3_plus_p4_vanishes():
    a = corpus.sec5_algebra()
    q = projective(a, "3").direct_sum(projective(a, "4"))
    assert hom_space(projective(a, "1"), q) == []


def test_hom_simple_to_simple():
    a = corpus.fig2_algebra()
    for v in a.quiver.vertices:
        assert len(hom_space(simple(a, v), simple(a, v))) == 1


def test_maps_through_different_modules_of_equal_dimensions_are_refused():
    # P(1), P(2) and S1 + S2 over Kupisch (2, 2) all have dimension vector
    # (1, 1), but not the same arrow matrices
    a = corpus.kupisch_algebra([2, 2])
    p1, p2, s = projective(a, "1"), projective(a, "2"), simple(a, "1").direct_sum(simple(a, "2"))
    assert p1.dims == p2.dims == s.dims
    on_p1, on_p2, on_s = (hom_space(x, x)[0] for x in (p1, p2, s))
    with pytest.raises(DimensionMismatch):
        on_p1.then(on_p2)
    for other in (on_p2, on_s, hom_space(p1, s)[0], hom_space(s, p1)[0]):
        with pytest.raises(DimensionMismatch):
            on_p1 + other
        with pytest.raises(DimensionMismatch):
            on_p1 - other
    # a module with the same dimensions and arrow matrices is the same module
    again = projective(a, "1")
    assert again is not p1
    assert on_p1.then(ModuleMap.identity(again)).mats == on_p1.mats
    assert (on_p1 + hom_space(again, again)[0]).mats == on_p1.scale(2).mats


def test_kernel_image_cokernel():
    a = corpus.sec5_algebra()
    p1, p2 = projective(a, "1"), projective(a, "2")
    f = hom_space(p1, p2)[0]
    ker, _ = kernel_of(f)
    img_dim = sum(len(sparse_row_space(_sparse(f.mats[v].data))) for v in a.quiver.vertices)
    cok, _ = cokernel_of(f)
    assert ker.total_dim() + img_dim == p1.total_dim()
    assert cok.total_dim() == p2.total_dim() - img_dim


def _quotient_by_project_vec(m, spaces):
    """Reference for quotient_representation: the projection and arrow
    matrices, as lists of rows, of m modulo arrow-stable spaces.  A vector
    is reduced by each RREF row of the space at that row's pivot and read
    at the free columns."""
    rref = {v: sparse_row_space(spaces.get(v, [])) for v in m.dims}
    free = {v: [j for j in range(d) if all(min(row) != j for row in rref[v])] for v, d in m.dims.items()}

    def project_vec(v, vec):
        vec = list(vec)
        for row in rref[v]:
            c = vec[min(row)]
            if c != 0:
                for j, x in row.items():
                    vec[j] -= c * x
        return [vec[j] for j in free[v]]

    proj = {v: [project_vec(v, [int(i == j) for j in range(d)]) for i in range(d)] for v, d in m.dims.items()}
    mats = {
        a.name: [project_vec(a.target, m.mats[a.name].data[j]) for j in free[a.source]]
        for a in m.algebra.quiver.arrows
    }
    return proj, mats


def test_quotient_projects_onto_the_free_columns():
    """On the images and kernels of seeded random maps between Kupisch
    (3,3,4,4) modules, quotient_representation's projection and arrow
    matrices are those of the reduction at the pivots of the space's RREF
    rows; a space that is not arrow-stable raises, as it does for
    sub_representation."""
    a = corpus.kupisch_algebra([3, 3, 4, 4])
    verts = a.quiver.vertices
    mods = [f(a, v) for v in verts for f in (projective, injective, simple)]
    mods += [radical_submodule(projective(a, v))[0] for v in verts]
    rng = random.Random(3344)
    mods += [regular_module(a)] + [rng.choice(mods).direct_sum(rng.choice(mods)) for _ in range(8)]
    proper = 0
    for _ in range(60):
        m, n = rng.choice(mods), rng.choice(mods)
        f = ModuleMap.zero(m, n)
        for h in hom_space(m, n):
            f = f + h.scale(rng.randint(-2, 2))
        image = {v: _sparse(x.data) for v, x in f.mats.items()}
        kernel = {v: sparse_left_kernel(_sparse(x.data)) for v, x in f.mats.items()}
        for x, spaces in ((n, image), (m, kernel)):
            quot, proj = quotient_representation(x, spaces)
            want_proj, want_mats = _quotient_by_project_vec(x, spaces)
            assert {v: [list(r) for r in p.data] for v, p in proj.mats.items()} == want_proj
            assert {name: [list(r) for r in q.data] for name, q in quot.mats.items()} == want_mats
            proper += 0 < quot.total_dim() < x.total_dim()
    assert proper > 20
    v = verts[0]
    p = projective(a, v)
    _, pos = ProjSum(a, [v]).generator_position(0)
    for construct in (quotient_representation, sub_representation):
        with pytest.raises(TiltbenchError, match="spaces are not arrow-stable"):
            construct(p, {v: [{pos: 1}]})


def test_radical_of_p1_is_uniserial_dim2():
    a = corpus.sec5_algebra()
    r, _ = radical_submodule(projective(a, "1"))
    assert r.total_dim() == 2
    assert layers_as_labels(r) == [["2"], ["1"]]


def test_entry_map_roundtrip():
    a = corpus.fig1_algebra()
    src = ProjSum(a, ["2", "2", "3"])
    tgt = ProjSum(a, ["1"])
    alpha = a.paths_between("1", "2")[0]
    e = EntryMap(a, src.labels, tgt.labels, [[{alpha: 1}], [{}], [{}]])
    f = realize_entry_map(src, tgt, e)
    back = extract_entry_map(src, tgt, f)
    assert back == e
    assert back.rows[0][0] == {alpha: 1}
    assert back.rows[1][0] == {} and back.rows[2][0] == {}
    # an entry map is realized only between the sums of its own labels
    with pytest.raises(TiltbenchError, match="between sums"):
        realize_entry_map(src, src, e)
    # module map composition agrees with symbolic composition on an endo
    g = hom_space(src.rep, src.rep)
    assert len(g) > 0


def test_nakayama_sends_projectives_to_injectives():
    a = corpus.sec5_algebra()
    # identity entries: nu of P(v) is I(v)
    for v in a.quiver.vertices:
        nu = nu_injective_sum(a, [v])
        assert nu.dim_vector() == injective(a, v).dim_vector()


def test_nu_additivity_on_doubled_projective():
    a = corpus.sec5_algebra()
    nu2 = nu_injective_sum(a, ["1", "1"])
    single = injective(a, "1")
    assert nu2.dim_vector() == tuple(2 * x for x in single.dim_vector())


def _labels_by_decomposition(x):
    """The labels of a projective x found by decomposing it and matching each
    summand with an indecomposable projective, or None if one matches none."""
    if x.total_dim() == 0:
        return []
    labels = []
    for rep, mult in decompose(x)[0]:
        matches = [
            v
            for v in x.algebra.quiver.vertices
            if _iso_between_indecomposables(rep, projective(x.algebra, v)) is not None
        ]
        lab = matches[0] if matches else None
        if lab is None:
            return None
        labels.extend([lab] * mult)
    return labels


def test_projective_labels_match_decomposition():
    """Labels read off the top agree, as multisets, with the decomposition
    route on projective sums, simples, radicals and P + S."""
    algebras = list(corpus.corpus_algebras().values())
    algebras += [corpus.kupisch_algebra(s) for s in ([3, 3, 4, 4], [2, 3, 3], [3, 3, 3, 3])]
    for a in algebras:
        verts = list(a.quiver.vertices)
        p = {v: projective(a, v) for v in verts}
        modules = [regular_module(a), p[verts[0]].direct_sum(p[verts[-1]]).direct_sum(p[verts[0]])]
        for v in verts:
            modules += [p[v], simple(a, v), radical_submodule(p[v])[0], p[v].direct_sum(simple(a, v))]
        for x in modules:
            want = _labels_by_decomposition(x)
            if want is None:
                with pytest.raises(NotProjective):
                    projective_labels(x)
            else:
                got = projective_labels(x)
                assert sorted(got) == sorted(want)
                assert got == sorted(got, key=verts.index)


def test_injective_sums_equal_the_direct_sums_of_dual_paths():
    """``nu_injective_sum``, and so ``injective``, equal the injectives built
    one at a time as duals of paths and summed by ``direct_sum``: the same
    dimensions, matrices and scalar types, repeated labels included."""
    rng = random.Random(2008)
    algebras = list(corpus.corpus_algebras().values())
    algebras += [corpus.kupisch_algebra(s) for s in seeded_kupisch_series(rng, 6)]
    compared = 0
    for a in algebras:
        verts = list(a.quiver.vertices)
        label_sets = [[], verts, verts[::-1], [verts[-1], verts[0], verts[-1]]]
        label_sets += [rng.choices(verts, k=3) for _ in range(2)]
        for labels in label_sets:
            got, want = nu_injective_sum(a, labels), injective_sum_by_direct_sums(a, labels)
            assert got.dims == want.dims, labels
            for name, m in got.mats.items():
                assert m == want.mats[name], (labels, name)
                assert [type(x) for row in m.data for x in row] == [
                    type(x) for row in want.mats[name].data for x in row
                ]
            compared += 1
        for v in verts:
            assert injective(a, v).mats == injective_by_dual_paths(a, v).mats
    assert compared == 6 * len(algebras)


def test_unknown_vertex_labels_are_refused_like_projsum():
    a = corpus.fig1_algebra()
    for build in (lambda: injective(a, "9"), lambda: nu_injective_sum(a, ["1", "zz"]), lambda: ProjSum(a, ["9"])):
        with pytest.raises(TiltbenchError, match="unknown vertex label"):
            build()


def _dense_relation_check(x):
    """The relation certificate without its zero-dimensional shortcut: every
    term's path product, summed as dense matrices."""
    for r in x.algebra.relations:
        acc = Matrix.zero(x.dims[r.source], x.dims[r.target])
        for c, p in r.terms:
            acc = acc + x.path_matrix(p).scale(c)
        if not acc.is_zero():
            raise TiltbenchError(f"relation violated: {r}")


def _random_module_data(a, rng):
    """(dims, mats) of a seeded random representation of a's quiver, valid
    or not: a sum of one or two simples, projectives or radicals of
    projectives in a random basis at each vertex, then maybe with one vertex
    cut to dimension 0 and maybe with one matrix entry moved; or, two times
    in five, random matrices on small dimensions that are positive along
    one relation path and often 0 elsewhere."""
    q = a.quiver
    if rng.random() < 0.4:
        path = rng.choice(rng.choice(a.relations).terms)[1]
        on_path = {path.source} | {q.arrow_by_name[name].target for name in path.arrows}
        dims = {v: rng.choice([1, 2]) if v in on_path else rng.choice([0, 0, 1]) for v in q.vertices}
        mats = {
            ar.name: Matrix(
                dims[ar.source],
                dims[ar.target],
                [[rng.choice([-1, 0, 1, 1]) for _ in range(dims[ar.target])] for _ in range(dims[ar.source])],
            )
            for ar in q.arrows
        }
        return dims, mats
    parts = []
    for _ in range(rng.randint(1, 2)):
        v = rng.choice(q.vertices)
        p = projective(a, v)
        parts.append(rng.choice([simple(a, v), p, radical_submodule(p)[0]]))
    x = parts[0].direct_sum(*parts[1:])
    dims = dict(x.dims)
    change, inverse = {}, {}
    for v, d in dims.items():
        g = [[Fraction(int(i == j)) if i >= j else Fraction(rng.randint(-2, 2)) for j in range(d)] for i in range(d)]
        change[v] = Matrix(d, d, g)
        inverse[v] = change[v].inverse()
    mats = {ar.name: change[ar.source] * x.mats[ar.name] * inverse[ar.target] for ar in q.arrows}
    if rng.random() < 0.5:
        cut = rng.choice(q.vertices)
        dims[cut] = 0
        for ar in q.arrows:
            if cut in (ar.source, ar.target):
                mats[ar.name] = Matrix.zero(dims[ar.source], dims[ar.target])
    shaped = [ar.name for ar in q.arrows if dims[ar.source] and dims[ar.target]]
    if shaped and rng.random() < 0.5:
        name = rng.choice(shaped)
        m = mats[name]
        data = [list(row) for row in m.data]
        data[rng.randrange(m.rows)][rng.randrange(m.cols)] += rng.choice([-1, 1])
        mats[name] = Matrix(m.rows, m.cols, data)
    return dims, mats


def test_relation_check_raises_on_the_modules_the_dense_check_raises_on():
    """The relation certificate, which skips relations and terms through
    vertices of dimension 0, raises with the same message on exactly the
    seeded random representations that the dense check without the skip
    raises on, over two Kupisch series, fig1 and sec5."""
    rng = random.Random(3244)
    algebras = [
        corpus.kupisch_algebra([3, 3, 4, 4]),
        corpus.kupisch_algebra([4, 5, 5, 5]),
        corpus.fig1_algebra(),
        corpus.sec5_algebra(),
    ]
    outcomes = {"valid": 0, "violated": 0, "zero vertex": 0}
    for a in algebras:
        for _ in range(120):
            dims, mats = _random_module_data(a, rng)
            try:
                _dense_relation_check(Representation(a, dims, mats, check=False))
                want = None
            except TiltbenchError as exc:
                want = str(exc)
            try:
                Representation(a, dims, mats)
                got = None
            except TiltbenchError as exc:
                got = str(exc)
            assert got == want, (dims, mats)
            outcomes["valid" if want is None else "violated"] += 1
            outcomes["zero vertex"] += 0 in dims.values()
    assert min(outcomes.values()) > 100, outcomes
