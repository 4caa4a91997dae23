import random

from tiltbench import corpus
from tiltbench.decompose import EndAlgebra, decompose, is_isomorphic, primitive_idempotents
from tiltbench.reps import injective, projective, radical_submodule, regular_module, simple


def test_regular_module_decomposes_into_projectives():
    for name, a in corpus.corpus_algebras().items():
        summands, to_sum, from_sum = decompose(regular_module(a))
        assert sorted(s.total_dim() for s, _ in summands) == sorted(
            projective(a, v).total_dim() for v in a.quiver.vertices
        )
        assert all(mult == 1 for _, mult in summands)
        assert len(summands) == len(a.quiver.vertices)


def test_doubled_projective_has_multiplicity_two():
    a = corpus.sec5_algebra()
    p3 = projective(a, "3")
    m = p3.direct_sum(p3)
    summands, _, _ = decompose(m)
    assert len(summands) == 1
    assert summands[0][1] == 2
    assert summands[0][0].dim_vector() == p3.dim_vector()


def test_zero_module_decomposes_empty():
    from tiltbench.reps import zero_rep

    a = corpus.fig1_algebra()
    summands, _, _ = decompose(zero_rep(a))
    assert summands == []


def test_radical_of_sec5_p1_indecomposable_not_projective():
    a = corpus.sec5_algebra()
    r, _ = radical_submodule(projective(a, "1"))
    summands, _, _ = decompose(r)
    assert len(summands) == 1 and summands[0][1] == 1
    assert summands[0][0].total_dim() == 2
    for v in a.quiver.vertices:
        assert is_isomorphic(summands[0][0], projective(a, v)) is None


def test_is_isomorphic_identity_and_negative():
    a = corpus.sec5_algebra()
    p1 = projective(a, "1")
    pair = is_isomorphic(p1, p1)
    assert pair is not None
    f, g = pair
    assert f.then(g).is_identity()
    assert is_isomorphic(simple(a, "1"), simple(a, "2")) is None


def test_nu_stability_of_sec5_projectives():
    a = corpus.sec5_algebra()
    # I(1) is iso to P(1); I(2) is not iso to P(2)
    assert is_isomorphic(injective(a, "1"), projective(a, "1")) is not None
    assert is_isomorphic(injective(a, "2"), projective(a, "2")) is None
    assert is_isomorphic(injective(a, "3"), projective(a, "3")) is not None
    assert is_isomorphic(injective(a, "4"), projective(a, "4")) is not None


def test_fig1_nu_orbit():
    a = corpus.fig1_algebra()
    assert is_isomorphic(injective(a, "2"), projective(a, "2")) is not None
    assert is_isomorphic(injective(a, "3"), projective(a, "3")) is not None
    for v in a.quiver.vertices:
        assert is_isomorphic(injective(a, "1"), projective(a, v)) is None


def test_mixed_direct_sum_roundtrip():
    a = corpus.fig1_algebra()
    m = projective(a, "1").direct_sum(simple(a, "2")).direct_sum(projective(a, "1"))
    summands, to_sum, from_sum = decompose(m)
    mults = sorted(mult for _, mult in summands)
    assert mults == [1, 2]
    assert to_sum.then(from_sum).is_identity()
    assert from_sum.then(to_sum).is_identity()


def test_primitive_idempotents_of_end_algebra():
    a = corpus.sec5_algebra()
    m = projective(a, "3").direct_sum(projective(a, "3"))
    end = EndAlgebra(m)
    idems = primitive_idempotents(end)
    assert len(idems) == 2
    # the doubled projective from simple(1)+simple(1): End is 2x2 matrices
    s = simple(a, "1").direct_sum(simple(a, "1"))
    end2 = EndAlgebra(s)
    assert end2.dim == 4
    idems2 = primitive_idempotents(end2)
    assert len(idems2) == 2


def test_isomorphic_after_base_change():
    rng = random.Random(7)
    a = corpus.fig2_algebra()
    p = projective(a, "2")
    # conjugate by a random invertible change of basis at each vertex
    from tiltbench.linalg import Matrix
    from tiltbench.reps import Representation

    change = {}
    for v in a.quiver.vertices:
        n = p.dims[v]
        while True:
            m = Matrix(n, n, [[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)])
            if m.inverse() is not None:
                change[v] = m
                break
    mats = {}
    for ar in a.quiver.arrows:
        mats[ar.name] = change[ar.source].inverse() * p.mats[ar.name] * change[ar.target]
    twisted = Representation(a, dict(p.dims), mats)
    pair = is_isomorphic(p, twisted)
    assert pair is not None
