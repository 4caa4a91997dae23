import random

import pytest
from approximations import left_approximation, projective_by_appending, projective_sum, right_approximation

from tiltbench import approx, corpus, tilting
from tiltbench.approx import (
    minimal_left_approximation_labeled,
    minimal_right_approximation_labeled,
)
from tiltbench.errors import PreconditionFailed, TiltbenchError
from tiltbench.linalg import _sparse, sparse_row_space
from tiltbench.reps import ProjSum, kernel_of, projective, radical_submodule, regular_module, simple
from tiltbench.tilting import construct_tpq


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
