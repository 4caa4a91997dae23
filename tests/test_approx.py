import random
from collections import Counter

import pytest
from approximations import (
    ext_dims,
    left_approximation,
    projective_by_appending,
    projective_resolution,
    projective_sum,
    right_approximation,
)
from kupisch import all_kupisch_series, nakayama_indecomposables

from tiltbench import approx, corpus, tilting
from tiltbench.algebra import build_path_algebra, length_filtration
from tiltbench.approx import (
    minimal_left_approximation_labeled,
    minimal_right_approximation_labeled,
)
from tiltbench.errors import PreconditionFailed, TiltbenchError
from tiltbench.linalg import _sparse, sparse_row_space
from tiltbench.quiver import Quiver
from tiltbench.reps import (
    ProjSum,
    hom_space,
    injective,
    kernel_of,
    projective,
    radical_submodule,
    regular_module,
    simple,
    top,
)
from tiltbench.tilting import TiltingContext, construct_tpq


def test_right_approx_of_projective_by_itself_is_identity_sized():
    a = corpus.sec5_algebra()
    p1 = projective(a, "1")
    labels, f = minimal_right_approximation_labeled(a, ["1"], p1)
    assert labels == ["1"]
    assert all(f.mats[v].inverse() is not None for v in a.quiver.vertices)


def test_right_approx_with_no_homs_is_zero():
    a = corpus.sec5_algebra()
    q = projective(a, "3")
    # Hom(P(1), P(3)) = 0
    labels, f = minimal_right_approximation_labeled(a, ["1"], q)
    assert labels == []
    assert f.source.total_dim() == 0


def test_sec5_right_approx_of_regular_by_p1():
    a = corpus.sec5_algebra()
    reg = regular_module(a)
    labels, f = minimal_right_approximation_labeled(a, ["1"], reg)
    # two minimal generators: the inclusion onto the P1 summand and the map
    # into the socle of P2
    assert labels == ["1", "1"]
    ker, _ = kernel_of(f)
    assert f.source.total_dim() == 6
    # image dimensions: P1 fully (3) plus a 1-dim piece of P2
    img_dim = sum(len(sparse_row_space(_sparse(f.mats[v].data))) for v in a.quiver.vertices)
    assert img_dim == 4


def test_sec5_left_approx_of_regular_by_q():
    a = corpus.sec5_algebra()
    reg = regular_module(a)
    labels, g = minimal_left_approximation_labeled(a, ["3", "4"], reg)
    assert sorted(labels) == ["3", "3", "4"]


def test_left_approx_zero_case():
    a = corpus.sec5_algebra()
    p1 = projective(a, "1")
    # Hom(P1, P3 + P4) = 0 so the left approximation of P1 by them is zero
    labels, g = minimal_left_approximation_labeled(a, ["3", "4"], p1)
    assert labels == []
    assert g.target.total_dim() == 0


def test_projective_sums_equal_the_direct_sums_of_projectives():
    """``ProjSum(a, labels).rep``, and so ``projective`` and
    ``regular_module``, equal the sums by ``direct_sum`` of the projectives
    built by appending arrows."""

    def same(m, n):
        return m.dims == n.dims and all(m.mats[ar] == n.mats[ar] for ar in m.mats)

    algebras = [corpus.fig1_algebra(), corpus.fig2_algebra(), corpus.sec5_algebra()]
    algebras += [corpus.kupisch_algebra(s) for s in ([2, 3, 3], [3, 3, 4, 4])]
    for a in algebras:
        verts = list(a.quiver.vertices)
        for labels in ([], verts, verts[::-1], [verts[-1], verts[0], verts[-1]]):
            assert same(ProjSum(a, labels).rep, projective_sum(a, labels)), labels
        assert same(regular_module(a), projective_sum(a, verts))
        assert all(same(projective(a, v), projective_by_appending(a, v)) for v in verts)


def _kupisch_cases(rng):
    """(algebra, modules, label sets) for a few Kupisch series: the regular
    module, the radicals of the projectives and the simples, against each
    single label, all labels, and seeded label lists with repeats."""
    for series in ([2, 2], [2, 3, 3], [3, 3, 4, 4], [3, 3, 3, 3]):
        a = corpus.kupisch_algebra(series)
        verts = list(a.quiver.vertices)
        modules = [regular_module(a)]
        modules += [radical_submodule(projective(a, v))[0] for v in verts]
        modules += [simple(a, v) for v in verts]
        label_sets = [[v] for v in verts] + [verts]
        label_sets += [rng.choices(verts, k=3) for _ in range(3)]
        yield a, modules, label_sets


def test_approximations_equal_the_hom_space_route():
    rng = random.Random(23)
    compared = 0
    for a, modules, label_sets in _kupisch_cases(rng):
        for x in modules:
            for labels in label_sets:
                for ours, reference in (
                    (minimal_right_approximation_labeled, right_approximation),
                    (minimal_left_approximation_labeled, left_approximation),
                ):
                    got_labels, got = ours(a, labels, x)
                    want_labels, want = reference(a, labels, x)
                    assert got_labels == want_labels
                    assert got.source.dims == want.source.dims and got.target.dims == want.target.dims
                    assert all(got.mats[v] == want.mats[v] for v in a.quiver.vertices)
                    compared += bool(got_labels)
    assert compared > 200


def test_construct_tpq_equals_the_hom_space_route(monkeypatch):
    sec5 = corpus.sec5_algebra()
    k4555, k3333, k344 = (corpus.kupisch_algebra(s) for s in ([4, 5, 5, 5], [3, 3, 3, 3], [3, 4, 4]))
    cases = [
        (sec5, ["1"], ["3", "4"], 1, 1),
        (sec5, ["1"], ["3", "4"], 2, 2),
        (k4555, ["2"], [], 1, 1),
        (k4555, ["2", "3"], [], 2, 1),
        (k4555, [], ["3", "4"], 1, 2),
        (k3333, ["1", "3"], [], 2, 1),
        (k3333, [], ["2", "4"], 1, 2),
        (k3333, ["1"], [], 1, 1),  # add(P) is not add(nu P)
        (k3333, ["1", "2", "3", "4"], [], 3, 1),  # the tower stops after one term: raw degrees -3, -1, 0
        (k3333, [], ["1", "2", "3", "4"], 1, 3),  # raw degrees 0, 1, 3
        (k344, ["2"], [], 1, 1),
        (k344, [], ["2", "3"], 1, 1),
    ]
    built = 0
    for a, p, q, r, s in cases:
        try:
            ours = construct_tpq(a, p, q, r, s)
        except PreconditionFailed:
            ours = None
        with monkeypatch.context() as m:
            m.setattr(tilting, "minimal_right_approximation_labeled", right_approximation)
            m.setattr(tilting, "minimal_left_approximation_labeled", left_approximation)
            try:
                reference = construct_tpq(a, p, q, r, s)
            except PreconditionFailed:
                reference = None
        assert (ours is None) == (reference is None)
        if ours is not None:
            for got, want in ((ours.raw, reference.raw), (ours.complex, reference.complex)):
                assert got.terms == want.terms and got.diffs == want.diffs
            built += 1
    assert built == len(cases) - 1


@pytest.mark.parametrize(
    "approximate, labels",
    [(minimal_right_approximation_labeled, ["1"]), (minimal_left_approximation_labeled, ["3", "4"])],
)
def test_certificate_fails_without_a_chosen_generator(monkeypatch, approximate, labels):
    a = corpus.sec5_algebra()
    reg = regular_module(a)
    choose = approx._choose_generators

    def drop_one(*args):
        chosen = choose(*args)
        v = next(v for v in chosen if chosen[v])
        chosen[v] = chosen[v][1:]
        return chosen

    monkeypatch.setattr(approx, "_choose_generators", drop_one)
    with pytest.raises(TiltbenchError, match="not surjective"):
        approximate(a, labels, reg)


def _modules(a):
    """Simples, projectives and injectives of a, and its regular module."""
    verts = a.quiver.vertices
    return [f(a, v) for f in (simple, projective, injective) for v in verts] + [regular_module(a)]


def test_the_towers_of_construct_tpq_stop_at_an_empty_term():
    """With P or Q all of a self-injective Nakayama algebra, the first
    approximation is the identity of A and the tower stops after it."""
    k3333 = corpus.kupisch_algebra([3, 3, 3, 3])
    verts = k3333.quiver.vertices
    right = construct_tpq(k3333, verts, [], 3, 1)
    assert sorted(right.raw.terms) == [-3, -1, 0] and right.complex.terms == {-3: list(verts)}
    assert sorted(construct_tpq(k3333, [], verts, 1, 3).raw.terms) == [0, 1, 3]


@pytest.mark.parametrize(
    "case, r, calls",
    [
        ("sec5", 1, {"kernel_of": 0, "cokernel_of": 0}),
        ("sec5", 2, {"kernel_of": 1, "cokernel_of": 1}),
        ("(4,5,5,5)", 1, {"kernel_of": 0, "cokernel_of": 0}),
    ],
)
def test_construct_tpq_leaves_the_last_rest_uncomputed(case, r, calls, monkeypatch):
    """A step's kernel or cokernel is computed only for the next step, so
    the towers of construct_tpq, which read no rest, take one per step after
    the first on each side."""
    counts = dict.fromkeys(calls, 0)
    for name in calls:

        def counted(f, name=name, leftover=getattr(tilting, name)):
            counts[name] += 1
            return leftover(f)

        monkeypatch.setattr(tilting, name, counted)
    if case == "sec5":
        construct_tpq(corpus.sec5_algebra(), ["1"], ["3", "4"], r, r)
    else:
        construct_tpq(corpus.kupisch_algebra([4, 5, 5, 5]), ["2"], [], r, r)
    assert counts == calls


def test_projective_resolution_terms_are_the_tops():
    """Each term of the tower with every label is the projective cover of
    what it approximates, so its labels are that module's top; the tower of
    a projective stops after one term, with kernel 0."""
    algebras = [corpus.fig1_algebra(), corpus.sec5_algebra(), corpus.kupisch_algebra([2, 3, 3])]
    terms = 0
    for a in algebras:
        for x in _modules(a) + nakayama_indecomposables(a):
            before = x
            for term, _, syzygy in projective_resolution(x, 4):
                assert Counter(term.labels) == Counter({v: d for v, d in top(before)[0].dims.items() if d})
                before = syzygy
                terms += 1
        for v in a.quiver.vertices:
            ((term, _, syzygy),) = projective_resolution(projective(a, v), 3)
            assert term.labels == [v] and syzygy.total_dim() == 0
    assert terms > 100


def test_ext_by_dimension_shifting_known_values():
    """Ext^0 is Hom, and over the hereditary linear A3 and Kronecker quivers
    Ext^2 vanishes while Ext^1 does not."""
    linear_a3 = build_path_algebra(Quiver(["1", "2", "3"], [("a", "1", "2"), ("b", "2", "3")]), [])
    kronecker = build_path_algebra(Quiver(["1", "2"], [("a", "1", "2"), ("b", "1", "2")]), [])
    for a in (linear_a3, kronecker):
        modules = _modules(a)
        exts = [ext_dims(x, y, 2) for x in modules for y in modules]
        assert all(e[2] == 0 for e in exts) and any(e[1] for e in exts)
    assert ext_dims(simple(kronecker, "1"), simple(kronecker, "2"), 1) == [0, 2]
    for a in (corpus.sec5_algebra(), corpus.kupisch_algebra([2, 3, 3])):
        modules = _modules(a)
        assert all(ext_dims(x, y, 0) == [len(hom_space(x, y))] for x in modules for y in modules)


def test_gabriel_bongartz_ext_of_simples_counts_arrows_and_kept_relations():
    """dim Ext^1(S_i, S_j) is the number of arrows i -> j, and dim
    Ext^2(S_i, S_j) the number of relations i -> j in a minimal generating
    set of the ideal (Bongartz, J. LMS 28, 1983): those ``length_filtration``
    keeps, not the input list.  On the corpus, every Kupisch series with at
    most 3 vertices, and two presented endomorphism algebras of tilting
    complexes."""
    algebras = [corpus.fig1_algebra(), corpus.fig2_algebra(), corpus.sec5_algebra(), corpus.sec5_b_algebra()]
    algebras += [corpus.kupisch_algebra(series) for series in all_kupisch_series(max_vertices=3)]
    for a, p, q in ((corpus.sec5_algebra(), ["1"], ["3", "4"]), (corpus.kupisch_algebra([4, 5, 5, 5]), ["2"], [])):
        ctx = TiltingContext(a, construct_tpq(a, p, q).complex, proved_by_construction=True)
        algebras.append(ctx.end_data().presentation.algebra)
    pairs = not_minimal = 0
    for a in algebras:
        kept = length_filtration(a.quiver, a.relations)[3]
        not_minimal += len(kept) < len(a.relations)
        for i in a.quiver.vertices:
            for j in a.quiver.vertices:
                arrows = sum(ar.source == i and ar.target == j for ar in a.quiver.arrows)
                relations = sum(r.source == i and r.target == j for r in kept)
                assert ext_dims(simple(a, i), simple(a, j), 2)[1:] == [arrows, relations], (a.quiver, i, j)
                pairs += 1
    assert (len(algebras), pairs) == (44, 374) and not_minimal > 0
