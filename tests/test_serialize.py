import os

import pytest

from tiltbench import corpus, serialize
from tiltbench.complexes import homotopy_hom
from tiltbench.errors import TiltbenchError
from tiltbench.reps import hom_space, projective

CORPUS = os.path.join(os.path.dirname(__file__), "..", "corpus")


def test_algebra_roundtrip():
    for a in corpus.corpus_algebras().values():
        d = serialize.algebra_to_dict(a)
        back = serialize.algebra_from_dict(d)
        assert back.dim == a.dim
        assert back.quiver == a.quiver
        assert back.basis == a.basis


def test_complex_roundtrip():
    a = corpus.fig1_algebra()
    t = corpus.fig1_tilting_complex(a)
    d = serialize.complex_to_dict(t)
    back = serialize.complex_from_dict(d)
    assert back.terms == t.terms
    assert back.diffs == t.diffs


def test_module_roundtrip():
    a = corpus.sec5_algebra()
    p = projective(a, "3")
    d = serialize.module_to_dict(p)
    back = serialize.module_from_dict(d)
    assert back.dims == p.dims
    assert len(hom_space(p, back)) == len(hom_space(p, p))


def test_corpus_files_load_and_are_current():
    fig1_file = serialize.load_algebra(os.path.join(CORPUS, "fig1.json"))
    assert fig1_file.dim == 11
    sec5_file = serialize.load_algebra(os.path.join(CORPUS, "sec5_A.json"))
    assert sec5_file.dim == 13
    t = serialize.load_complex(os.path.join(CORPUS, "fig1_T.json"))
    assert homotopy_hom(t, t, 0).dim == 9
    s1 = serialize.load_module(os.path.join(CORPUS, "fig1_S1.json"))
    assert s1.total_dim() == 1
    fig2_file = serialize.load_algebra(os.path.join(CORPUS, "fig2.json"))
    assert fig2_file.dim == 9
    b5 = serialize.load_algebra(os.path.join(CORPUS, "sec5_B.json"))
    assert b5.dim == 15


def test_scalar_strings():
    from fractions import Fraction

    assert serialize.scalar_to_str(Fraction(-3, 4)) == "-3/4"
    assert serialize.scalar_from_str("7") == 7
    assert serialize.scalar_from_str("-3/4") == Fraction(-3, 4)
    assert serialize.scalar_from_str("+6/4") == Fraction(3, 2) and serialize.scalar_from_str("4/2") == 2
    assert serialize.scalar_from_str(-5) == -5
    # only the documented forms: no exponent, decimal point, space,
    # underscore, sign on the denominator, zero denominator, bool or float
    for bad in ["1e3", "1.5", " 1", "1_0", "1/-2", "1/0", "", "x", True, 1.5, None]:
        with pytest.raises(TiltbenchError, match="coeff: not a rational number"):
            serialize.scalar_from_str(bad, "coeff")
