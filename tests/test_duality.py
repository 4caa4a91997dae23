"""The opposite algebra and the duality D = Hom_K(-, K), checked on the
corpus algebras and every Kupisch series of ``tests/kupisch.py``:
A^op^op = A, the Cartan matrix transposes, E(A^op) = E(A), the Nakayama
permutation inverts, and D of each projective over A^op is the injective
of A built as the dual of the paths ending at its vertex."""

import pytest
from kupisch import all_kupisch_series
from module_maps import injective_by_dual_paths

from tiltbench import corpus
from tiltbench.algebra import opposite
from tiltbench.errors import TiltbenchError
from tiltbench.reps import ProjSum, Representation, dual, projective
from tiltbench.tilting import maximal_nu_stable, nakayama_permutation


def _algebras():
    algebras = list(corpus.corpus_algebras().values())
    return algebras + [corpus.kupisch_algebra(s) for s in all_kupisch_series()]


def _relations(a):
    return [(r.source, r.target, r.terms) for r in a.relations]


def test_the_opposite_of_the_opposite_is_the_algebra():
    for a in _algebras():
        back = opposite(opposite(a))
        assert back.quiver == a.quiver
        assert _relations(back) == _relations(a)
        assert back.basis == a.basis


def test_opposite_transposes_the_cartan_matrix_and_keeps_e():
    for a in _algebras():
        op = opposite(a)
        assert op.cartan_matrix() == a.cartan_matrix().transpose()
        assert maximal_nu_stable(op).e_labels == maximal_nu_stable(a).e_labels


def test_the_nakayama_permutation_of_the_opposite_is_the_inverse():
    """sigma(v) = w when I(v) = P(w); over A^op, D turns this into
    I(w) = P(v), so sigma_op(w) = v."""
    for a in _algebras():
        sigma = nakayama_permutation(a)
        assert nakayama_permutation(opposite(a)) == {w: v for v, w in sigma.items()}


def test_the_dual_of_each_projective_over_the_opposite_is_the_injective():
    """D P_op(v), rebuilt with the relation certificate, equals the dual of
    the paths ending at v, matrix for matrix."""
    for a in _algebras():
        op = opposite(a)
        for v in a.quiver.vertices:
            d = dual(ProjSum(op, [v]).rep, a)
            checked = Representation(a, d.dims, d.mats, check=True)
            want = injective_by_dual_paths(a, v)
            assert checked.dims == want.dims and checked.mats == want.mats, (a.quiver, v)


def test_dual_refuses_a_module_over_an_algebra_that_is_not_the_opposite():
    fig1, sec5 = corpus.fig1_algebra(), corpus.sec5_algebra()
    cases = [(projective(fig1, "1"), fig1), (ProjSum(opposite(fig1), ["1"]).rep, sec5)]
    for n, a in cases:
        with pytest.raises(TiltbenchError, match="is not the opposite of") as info:
            dual(n, a)
        message = str(info.value)
        for q in (n.algebra.quiver, a.quiver):
            for ar in q.arrows:
                assert repr((ar.name, ar.source, ar.target)) in message
