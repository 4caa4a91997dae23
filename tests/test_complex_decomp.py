import gc
import weakref

from tiltbench import corpus
from tiltbench.complex_decomp import (
    ChainEndData,
    complexes_isomorphic,
    decompose_complex,
    split_idempotent,
    strictify_idempotent,
)
from tiltbench.complexes import ChainMapC, regular_stalk, stalk_complex
from tiltbench.decompose import EndAlgebra
from tiltbench.reps import regular_module


def test_decompose_fig1_T():
    t = corpus.fig1_tilting_complex()
    summands, f, g = decompose_complex(t)
    assert sorted(mult for _, mult in summands) == [1, 1, 1]
    shapes = sorted(
        tuple((d, tuple(sorted(s.term(d)))) for d in s.degrees()) for s, _ in summands
    )
    assert shapes == [
        ((-1, ("2",)),),
        ((-1, ("2",)), (0, ("1",))),
        ((-1, ("3",)),),
    ]


def test_decompose_regular_stalk():
    for a in corpus.corpus_algebras().values():
        stalk = regular_stalk(a)
        summands, f, g = decompose_complex(stalk)
        assert len(summands) == len(a.quiver.vertices)
        assert all(mult == 1 for _, mult in summands)


def test_decompose_doubled_complex():
    t = corpus.fig1_tilting_complex()
    doubled = t.direct_sum(t)
    summands, f, g = decompose_complex(doubled)
    assert sorted(mult for _, mult in summands) == [2, 2, 2]


def test_split_identity_and_zero_idempotent():
    t = corpus.fig1_tilting_complex()
    ident = ChainMapC.identity(t)
    whole = split_idempotent(t, ident)
    assert {d: sorted(whole.term(d)) for d in whole.degrees()} == {
        d: sorted(t.term(d)) for d in t.degrees()
    }
    zero = ChainMapC.zero(t, t)
    nothing = split_idempotent(t, zero)
    assert nothing.is_zero()


def test_split_projection_onto_free_summand():
    a = corpus.fig1_algebra()
    t = corpus.fig1_tilting_complex()
    # projection onto the second P(2) summand in degree -1 (zero column)
    e2 = a.idempotent_index["2"]
    mats = {-1: [[{}, {}, {}], [{}, {e2: 1}, {}], [{}, {}, {}]]}
    e = ChainMapC(t, t, mats)
    assert e.is_chain_map()
    piece = split_idempotent(t, e)
    assert piece.degrees() == [-1]
    assert piece.term(-1) == ["2"]


def test_strictify_rejects_non_idempotent():
    import pytest

    from tiltbench.errors import NotIdempotent

    a = corpus.fig1_algebra()
    t = corpus.fig1_tilting_complex()
    # twice the projection onto the free P(2) summand: a chain map whose
    # class squares to four times itself, hence not idempotent
    e2 = a.idempotent_index["2"]
    bad = ChainMapC(t, t, {-1: [[{}, {}, {}], [{}, {e2: 2}, {}], [{}, {}, {}]]})
    assert bad.is_chain_map()
    with pytest.raises(NotIdempotent):
        strictify_idempotent(t, bad)


def test_complexes_isomorphic_positive_and_negative():
    a = corpus.fig1_algebra()
    t = corpus.fig1_tilting_complex()
    pair = complexes_isomorphic(t, t)
    assert pair is not None
    f, g = pair
    assert f.then(g).is_identity_shape()
    s2 = stalk_complex(a, ["2"], 0)
    s3 = stalk_complex(a, ["3"], 0)
    assert complexes_isomorphic(s2, s3) is None
    assert complexes_isomorphic(s2, s2.shift(0)) is not None


def test_chain_end_data_identity():
    t = corpus.fig1_tilting_complex()
    data = ChainEndData(t)
    one = data.one
    assert data.element(one).is_identity_shape()
    sq = data.mul(one, one)
    assert sq == one


def test_endomorphism_algebras_are_freed_without_the_cyclic_gc():
    a = corpus.fig1_algebra()
    gc.disable()
    try:
        refs = []
        for alg in (EndAlgebra(regular_module(a)), ChainEndData(regular_stalk(a))):
            alg.mul(alg.one, alg.one)  # fill part of the product table
            refs.append(weakref.ref(alg))
        del alg
        assert [r() for r in refs] == [None, None]
    finally:
        gc.enable()
