import random
import sys
from fractions import Fraction

from tiltbench import corpus
from tiltbench.decompose import EndAlgebra, FiniteDimAlgebra, decompose, is_isomorphic, primitive_idempotents
from tiltbench.linalg import Matrix
from tiltbench.polys import pgcd, pmul, peval_matrix
from tiltbench.reps import (
    ModuleMap,
    Representation,
    injective,
    projective,
    radical_submodule,
    regular_module,
    simple,
    sub_representation,
    zero_rep,
)

# the package re-exports the function ``decompose`` under the module's name
decompose_module = sys.modules["tiltbench.decompose"]


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


def test_is_isomorphic_inverts_each_vertex_matrix_once(monkeypatch):
    a = corpus.sec5_algebra()
    s = simple(a, "1")  # Hom(s, s) is one-dimensional: the first attempt is the identity
    inverted = []
    inverse = Matrix.inverse
    monkeypatch.setattr(Matrix, "inverse", lambda m: inverted.append(m) or inverse(m))
    f, g = is_isomorphic(s, s)
    assert f.then(g).is_identity() and g.then(f).is_identity()
    assert len(inverted) == len(a.quiver.vertices)
    # a singular vertex matrix is no isomorphism
    assert decompose_module._vertexwise_inverse(ModuleMap.zero(s, s)) is None


def _modules_for_radical_check():
    algebras = list(corpus.corpus_algebras().values())
    algebras += [corpus.kupisch_algebra(s) for s in ([2, 3, 3], [3, 3, 4, 4], [3, 3, 3, 3])]
    for a in algebras:
        yield regular_module(a)
        for v in a.quiver.vertices:
            p = projective(a, v)
            yield p
            yield simple(a, v)
            yield radical_submodule(p)[0]
    a = corpus.sec5_algebra()
    yield projective(a, "3").direct_sum(projective(a, "3"))  # End = M_2(e A e)
    yield simple(a, "1").direct_sum(simple(a, "1"))  # End = M_2(Q)
    yield simple(a, "2").direct_sum(projective(a, "2")).direct_sum(simple(a, "2"))
    yield zero_rep(a)


def test_end_radical_from_module_trace_form():
    seen_local = seen_matrix_ring = False
    for m in _modules_for_radical_check():
        end = EndAlgebra(m)
        rad = end.radical_rows()
        assert rad == FiniteDimAlgebra.radical_rows(end), m.dim_vector()
        seen_local |= end.dim > 1 and end.dim - rad.rows == 1
        seen_matrix_ring |= end.dim == 4 and rad.rows == 0
    assert seen_local and seen_matrix_ring


def _twisted(m: Representation, rng: random.Random) -> Representation:
    """m after a random change of basis at every vertex."""
    change = {}
    for v, n in m.dims.items():
        while True:
            c = Matrix(n, n, [[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)])
            if c.inverse() is not None:
                change[v] = c
                break
    mats = {
        ar.name: change[ar.source].inverse() * m.mats[ar.name] * change[ar.target]
        for ar in m.algebra.quiver.arrows
    }
    return Representation(m.algebra, dict(m.dims), mats)


def _reference_decompose_rec(m, rng):
    """The candidate loop without the skip span: locality from End(M)'s
    product table, and every candidate through ``_split_by_endo``."""
    d = decompose_module
    if m.total_dim() == 0:
        return []
    end = EndAlgebra(m)
    if end.dim == 1 or end.dim - FiniteDimAlgebra.radical_rows(end).rows == 1:
        ident = d.ModuleMap.identity(m)
        return [(m, ident, ident)]

    def candidates():
        yield from end.maps
        for i in range(end.dim):
            for j in range(i + 1, end.dim):
                yield end.maps[i] + end.maps[j]
        for r in range(30):
            bound = 2 + r
            yield end.element([Fraction(rng.randint(-bound, bound)) for _ in range(end.dim)])

    pieces = None
    for f in candidates():
        pieces = d._split_by_endo(m, f)
        if pieces:
            break
    if pieces is None:
        pieces = d._spin_split(m, rng)
    out = []
    for (sub, incl), proj in zip(pieces, d._projections_for(m, pieces)):
        for piece, sub_incl, sub_proj in _reference_decompose_rec(sub, rng):
            out.append((piece, sub_incl.then(incl), proj.then(sub_proj)))
    return out


def _seeded_modules():
    rng = random.Random(20)
    for s in ([2, 3, 3], [3, 3, 3, 3], [2, 2, 3, 3], [3, 3, 4, 4], [4, 5, 5, 5]):
        yield regular_module(corpus.kupisch_algebra(s))
    pools = [
        [f(a, v) for v in a.quiver.vertices for f in (projective, simple)]
        for a in (corpus.fig1_algebra(), corpus.sec5_algebra(), corpus.kupisch_algebra([3, 3, 4, 4]))
    ]
    for k in range(15):
        pool = rng.choice(pools)
        picks = rng.sample(pool, rng.randint(1, 3))
        picks.append(picks[0])  # one summand twice in every sum
        m = picks[0]
        for p in picks[1:]:
            m = m.direct_sum(p)
        yield _twisted(m, rng) if k % 2 else m


def _certificate(result):
    summands, to_sum, from_sum = result
    return (
        [(s.dims, {a: x.data for a, x in s.mats.items()}, mult) for s, mult in summands],
        {v: x.data for v, x in to_sum.mats.items()},
        {v: x.data for v, x in from_sum.mats.items()},
    )


def test_decompose_matches_loop_that_tries_every_candidate(monkeypatch):
    modules = list(_seeded_modules())
    assert len(modules) == 20
    new = [_certificate(decompose(m)) for m in modules]
    monkeypatch.setattr(decompose_module, "_decompose_rec", _reference_decompose_rec)
    old = [_certificate(decompose(m)) for m in modules]
    assert new == old
    assert any(mult > 1 for summands, _, _ in new for _, _, mult in summands)


def test_decompose_asks_no_product_and_tries_only_splitting_candidates(monkeypatch):
    ends = []
    split_calls = []
    init, split = EndAlgebra.__init__, decompose_module._split_by_endo

    def recorded(self, m):
        init(self, m)
        ends.append(self)

    monkeypatch.setattr(EndAlgebra, "__init__", recorded)
    monkeypatch.setattr(decompose_module, "_split_by_endo", lambda m, f: split_calls.append(1) or split(m, f))
    summands, _, _ = decompose(regular_module(corpus.kupisch_algebra([4, 5, 5, 5])))
    assert len(summands) == 4
    # every split succeeds: three splits leave the four projectives
    assert len(split_calls) == 3
    assert sum(cell is not None for end in ends for row in end._table for cell in row) == 0


def test_endo_candidates_carry_their_coordinates():
    # the skip span judges a candidate by its coordinates alone
    a = corpus.sec5_algebra()
    end = EndAlgebra(projective(a, "3").direct_sum(simple(a, "3")).direct_sum(projective(a, "3")))
    candidates = list(decompose_module._endo_candidates(end, random.Random(0), rounds=3))
    assert len(candidates) == end.dim + end.dim * (end.dim - 1) // 2 + 3
    for coords, f in candidates:
        assert end.coords(f) == coords


def test_fitting_pieces_are_the_kernels_of_both_factors():
    # ker m2(f) = im m1(f) for coprime m1 * m2 = mu_f: the second piece comes
    # from m1(f) alone, and must be the submodule ker m2(f)
    splits = 0
    for series in ([3, 3, 4, 4], [4, 5, 5, 5]):
        m = regular_module(corpus.kupisch_algebra(series))
        end = EndAlgebra(m)
        candidates = end.maps + [f + g for f, g in zip(end.maps, end.maps[1:])]
        for f in candidates:
            pieces = decompose_module._split_by_endo(m, f)
            if pieces is None:
                continue
            mu = decompose_module.module_min_poly(f)
            m1, m2 = decompose_module._coprime_factors(mu)
            assert pmul(m1, m2) == mu and pgcd(m1, m2) == [1]
            for factor, (sub, incl) in zip((m1, m2), pieces):
                ref, ref_incl = sub_representation(
                    m, {v: peval_matrix(factor, x).left_kernel_basis() for v, x in f.mats.items()}
                )
                assert sub.dims == ref.dims
                assert all(sub.mats[a] == ref.mats[a] for a in ref.mats)
                assert all(incl.mats[v] == ref_incl.mats[v] for v in m.dims)
            splits += 1
    assert splits >= 4
