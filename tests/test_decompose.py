import random
import sys
import types
from functools import partial

import pytest

from tiltbench import complex_decomp, corpus
from tiltbench.algebra import FiniteDimAlgebra, abstract_from_table, el_add, el_to_vector
from tiltbench.complex_decomp import ChainEndData, decompose_complex
from tiltbench.complexes import ChainMapC, ProjComplex, regular_stalk
from tiltbench.decompose import EndAlgebra, decompose, is_isomorphic, primitive_idempotents
from tiltbench.errors import DecompositionError
from tiltbench.linalg import Basis, Matrix, _sparse, sparse_left_kernel, sparse_row_space
from tiltbench.reps import (
    ModuleMap,
    Representation,
    hom_space,
    injective,
    projective,
    radical_submodule,
    regular_module,
    simple,
    zero_rep,
)
from tiltbench.tilting import TiltingContext, construct_tpq

from test_presentation import _assert_filled_cells_match

# the package re-exports the function ``decompose`` under the module's name
decompose_module = sys.modules["tiltbench.decompose"]


def test_regular_module_decomposes_into_projectives():
    for name, a in corpus.corpus_algebras().items():
        summands, _, _ = decompose(regular_module(a))
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
    summands, includes, projects = decompose(m)
    mults = sorted(mult for _, mult in summands)
    assert mults == [1, 2]
    _assert_copy_certificate(m, summands, includes, projects)


def _assert_copy_certificate(m, summands, includes, projects):
    """One include/project pair per copy, in summand order: include k then
    project l is the identity for k = l and zero otherwise, and the copies
    sum to the identity of m."""
    copies = [rep for rep, mult in summands for _ in range(mult)]
    assert len(includes) == len(projects) == len(copies)
    back = ModuleMap.zero(m, m)
    for k, (rep, incl) in enumerate(zip(copies, includes)):
        assert incl.source is rep and incl.target is m
        for l, proj in enumerate(projects):
            through = incl.then(proj)
            assert through.is_identity() if k == l else through.is_zero()
        back = back + projects[k].then(incl)
    assert back.is_identity()


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


def test_a_pairwise_probe_splits_what_no_single_basis_element_splits(monkeypatch):
    """M_2(Q) on the basis I, E12, E21, X = [[1, 1], [-1, 0]]: I is a multiple
    of 1, E12 and E21 are nilpotent and X has no rational eigenvalue, so no
    single-element probe splits it.  The 11th probe, E12 + E21, does, with
    eigenvalues 1 and -1."""
    basis = [((1, 0), (0, 1)), ((0, 1), (0, 0)), ((0, 0), (1, 0)), ((1, 1), (-1, 0))]

    def coordinates(m):  # m = a I + b E12 + c E21 + d X
        d = m[0][0] - m[1][1]
        return [m[1][1], m[0][1] - d, m[1][0] + d, d]

    def product(x, y):
        return [[sum(x[i][k] * y[k][j] for k in range(2)) for j in range(2)] for i in range(2)]

    table = [[coordinates(product(x, y)) for y in basis] for x in basis]
    alg = abstract_from_table(4, table, [1, 0, 0, 0])
    probes = []
    stream = decompose_module._probe_elements

    def recording(*args):
        for x in stream(*args):
            probes.append(x)
            yield x

    monkeypatch.setattr(decompose_module, "_probe_elements", recording)
    idems = primitive_idempotents(alg)
    assert len(probes) == 11 and probes[-1] == {1: 1, 2: 1}
    assert len(idems) == 2 and el_add(*idems) == alg.one
    assert all(alg.mul(e, f) == (e if e is f else {}) for e in idems for f in idems)


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
    s = simple(a, "1")  # one summand, and Hom(s, s) is one-dimensional
    maps, matrices = [], []
    map_inverse, matrix_inverse = ModuleMap.inverse, Matrix.inverse
    monkeypatch.setattr(ModuleMap, "inverse", lambda f: maps.append(f) or map_inverse(f))
    monkeypatch.setattr(Matrix, "inverse", lambda m: matrices.append(m) or matrix_inverse(m))
    f, g = is_isomorphic(s, s)
    assert f.then(g).is_identity() and g.then(f).is_identity()
    # the summand pairing inverts its basis map s -> s, and the assembled f
    # is inverted once: two ModuleMap.inverse calls, one matrix per vertex
    # each
    assert len(maps) == 2 and maps[1] is f
    assert len(matrices) == 2 * len(a.quiver.vertices)
    # a singular map, or one between different dimension vectors, has no inverse
    m = s.direct_sum(s)
    _, includes, projects = decompose(m)
    assert ModuleMap.zero(s, s).inverse() is None
    assert projects[0].then(includes[0]).inverse() is None
    assert ModuleMap.zero(s, simple(a, "2")).inverse() is None
    t = corpus.fig1_tilting_complex()
    doubled = t.direct_sum(t)
    _, includes, projects = decompose_complex(doubled)
    assert ChainMapC.zero(t, t).inverse() is None
    assert projects[0].then(includes[0]).inverse() is None
    identity = ChainMapC.identity(doubled)
    assert identity.inverse().then(identity).is_identity()
    # invertible in each degree but no chain map: no chain inverse
    fig1 = corpus.fig1_algebra()
    cone = ProjComplex(fig1, {0: ["1"], 1: ["2"]}, {0: [[{fig1.paths_between("2", "1")[0]: 1}]]})
    one, two = fig1.idempotent_index["1"], fig1.idempotent_index["2"]
    assert ChainMapC(cone, cone, {0: [[{one: 1}]], 1: [[{two: 1}]]}).inverse() is not None
    assert ChainMapC(cone, cone, {0: [[{one: 1}]], 1: [[{two: 2}]]}).inverse() is None


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
        # the left kernel of the regular trace form, read from End(M)'s
        # products, as the RREF rows of its left kernel
        form = [el_to_vector(row, end.dim) for row in FiniteDimAlgebra.trace_form(end)]
        regular = sparse_row_space(sparse_left_kernel(_sparse(form)))
        assert _sparse(el_to_vector(x, end.dim) for x in rad) == regular, m.dim_vector()
        seen_local |= end.dim > 1 and end.dim - len(rad) == 1
        seen_matrix_ring |= end.dim == 4 and not rad
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


def _seeded_modules():
    """(module, picks): five regular modules, built from their projectives,
    then fifteen seeded sums of projectives and simples with one pick
    repeated, every other one after a change of basis."""
    rng = random.Random(20)
    for s in ([2, 3, 3], [3, 3, 3, 3], [2, 2, 3, 3], [3, 3, 4, 4], [4, 5, 5, 5]):
        a = corpus.kupisch_algebra(s)
        yield regular_module(a), [projective(a, v) for v in a.quiver.vertices]
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
        yield (_twisted(m, rng) if k % 2 else m), picks


def test_decompose_recovers_the_summands_a_module_was_built_from():
    cases = list(_seeded_modules())
    assert len(cases) == 20
    repeated = 0
    for m, picks in cases:
        # the picks up to isomorphism, with how often each class was picked
        classes = []
        for p in picks:
            for entry in classes:
                if is_isomorphic(entry[0], p) is not None:
                    entry[1] += 1
                    break
            else:
                classes.append([p, 1])
        summands, includes, projects = decompose(m)
        assert len(summands) == len(classes), m.dim_vector()
        for rep, count in classes:
            hits = [mult for piece, mult in summands if is_isomorphic(piece, rep) is not None]
            assert hits == [count], m.dim_vector()
        repeated += any(mult > 1 for _, mult in summands)
        _assert_copy_certificate(m, summands, includes, projects)
    assert repeated == 15


def _count_thens(monkeypatch, cls):
    """A list that gets one entry per ``cls.then`` call from now on."""
    calls = []
    then = cls.then

    def counted(self, other):
        calls.append(self)
        return then(self, other)

    monkeypatch.setattr(cls, "then", counted)
    return calls


def test_an_off_diagonal_block_fails_the_module_certificate(monkeypatch):
    # piece 0's inclusion picks up a map through piece 1: include 0 then
    # project 0 is still the identity, include 0 then project 1 is not zero
    split = decompose_module._split_module

    def coupled(m):
        pieces = split(m)
        (p0, i0, q0), (p1, i1, _) = pieces[:2]
        [g] = hom_space(p0, p1)
        pieces[0] = (p0, i0 + g.then(i1), q0)
        return pieces

    monkeypatch.setattr(decompose_module, "_split_module", coupled)
    with pytest.raises(DecompositionError, match="include 0 then project 1"):
        decompose(regular_module(corpus.fig1_algebra()))


def test_module_certificate_is_two_compositions(monkeypatch):
    m = regular_module(corpus.kupisch_algebra([4, 5, 5, 5]))
    calls = _count_thens(monkeypatch, ModuleMap)
    _, includes, _ = decompose(m)
    c = len(includes)
    # "I then P" checks all c^2 include/project blocks and "P then I" sums
    # the c copies, where c^2 + c compositions did
    assert (c, len(calls)) == (4, 2)


def test_decompose_refuses_a_split_whose_projection_is_scaled(monkeypatch):
    a = corpus.sec5_algebra()
    m = projective(a, "3").direct_sum(simple(a, "2")).direct_sum(projective(a, "3"))
    split = decompose_module._split_module
    monkeypatch.setattr(
        decompose_module, "_split_module", lambda m: [(piece, incl, proj.scale(2)) for piece, incl, proj in split(m)]
    )
    with pytest.raises(DecompositionError):
        decompose(m)


class _ZeroRandom(random.Random):
    """A generator that draws 0 from every randint."""

    def randint(self, a, b):
        return 0


def test_is_isomorphic_exact_fallback_on_isomorphic_and_non_isomorphic_pairs(monkeypatch):
    # no random draw decides an isomorphism: with every random coefficient 0
    # each pair is still decided through decompose
    monkeypatch.setattr(decompose_module, "random", types.SimpleNamespace(Random=_ZeroRandom))
    decomposed = []
    inner = decompose_module.decompose
    monkeypatch.setattr(decompose_module, "decompose", lambda m: decomposed.append(m) or inner(m))
    rng = random.Random(18)
    sec5, fig1 = corpus.sec5_algebra(), corpus.fig1_algebra()
    p3, s2, rad1 = projective(sec5, "3"), simple(sec5, "2"), radical_submodule(projective(sec5, "1"))[0]
    q2, q3 = projective(fig1, "2"), projective(fig1, "3")
    isomorphic = [
        (p3.direct_sum(rad1).direct_sum(p3).direct_sum(s2), s2.direct_sum(p3).direct_sum(p3).direct_sum(rad1)),
        (rad1.direct_sum(s2).direct_sum(s2), _twisted(s2.direct_sum(rad1).direct_sum(s2), rng)),
        (q2.direct_sum(q3).direct_sum(q2), _twisted(q2.direct_sum(q2).direct_sum(q3), rng)),
        (projective(sec5, "1"), _twisted(injective(sec5, "1"), rng)),
    ]
    for m, n in isomorphic:
        decomposed.clear()
        f, g = is_isomorphic(m, n)
        assert decomposed == [m, n]
        ModuleMap(m, n, f.mats)  # f and g are module maps
        ModuleMap(n, m, g.mats)
        assert f.then(g).is_identity() and g.then(f).is_identity()
    not_isomorphic = [
        (projective(sec5, "2"), injective(sec5, "2")),
        (projective(sec5, "2").direct_sum(p3), injective(sec5, "2").direct_sum(p3)),
        (injective(fig1, "1").direct_sum(q2), projective(fig1, "1").direct_sum(q2)),
        (s2.direct_sum(projective(sec5, "2")), s2.direct_sum(_twisted(injective(sec5, "2"), rng))),
    ]
    for m, n in not_isomorphic:
        decomposed.clear()
        assert is_isomorphic(m, n) is None
        assert decomposed == [m, n]


def _reference_corner_is_local(alg, unit, top):
    """Locality from the corner's own algebra, ignoring A/rad(A): the product
    table of unit*A*unit on an RREF basis and the kernel of its trace form."""
    basis = sparse_row_space([alg.mul(alg.mul(unit, {i: 1}), unit) for i in range(alg.dim)])
    span = Basis([el_to_vector(b, alg.dim) for b in basis], alg.dim)
    corner = FiniteDimAlgebra(len(basis), lambda i, j: span.coordinates(alg.mul(basis[i], basis[j])), span.coordinates(unit))
    return corner.dim - len(corner.radical_rows()) == 1


def _algebras_for_idempotent_check():
    for m in _modules_for_radical_check():
        if m.total_dim():
            yield EndAlgebra(m)
    for a in corpus.corpus_algebras().values():
        yield ChainEndData(regular_stalk(a))
    fig1 = corpus.fig1_algebra()
    yield TiltingContext(fig1, corpus.fig1_tilting_complex(fig1)).end_data().abstract
    sec5 = corpus.sec5_algebra()
    built = construct_tpq(sec5, ["1"], ["3", "4"], 1, 1)
    yield TiltingContext(sec5, built.complex, proved_by_construction=True).end_data().abstract


def test_primitive_idempotents_match_per_corner_reference_trying_every_probe(monkeypatch):
    algebras = list(_algebras_for_idempotent_check())
    new = [primitive_idempotents(alg) for alg in algebras]
    monkeypatch.setattr(decompose_module, "_corner_is_local", _reference_corner_is_local)
    # no probe is skipped: each one goes through its corner minimal polynomial
    monkeypatch.setattr(decompose_module, "_splits_nothing", lambda top, unit_top, x: False)
    assert [primitive_idempotents(alg) for alg in algebras] == new
    assert sum(len(idems) > 1 for idems in new) >= 10


def test_quotient_locality_matches_the_corner_reference(monkeypatch):
    visited = []
    local = decompose_module._corner_is_local

    def recording(alg, unit, top):
        answer = local(alg, unit, top)
        visited.append((alg, unit, answer))
        return answer

    monkeypatch.setattr(decompose_module, "_corner_is_local", recording)
    for alg in _algebras_for_idempotent_check():
        primitive_idempotents(alg)
    assert all(_reference_corner_is_local(alg, unit, None) is answer for alg, unit, answer in visited)
    assert sum(answer for _, _, answer in visited) > sum(not answer for _, _, answer in visited) >= 10


def test_non_basic_end_splits_into_projective_twice_and_simple_once():
    a = corpus.kupisch_algebra([3, 3, 4, 4])
    for v in a.quiver.vertices:
        p, s = projective(a, v), simple(a, v)
        m = p.direct_sum(p).direct_sum(s)
        summands, includes, projects = decompose(m)
        assert len(summands) == 2, v
        for rep, count in ((p, 2), (s, 1)):
            assert [mult for piece, mult in summands if is_isomorphic(piece, rep) is not None] == [count], v
        _assert_copy_certificate(m, summands, includes, projects)


def test_module_decomposition_asks_part_of_end_m_product_table(monkeypatch):
    built = []

    class Recorded(EndAlgebra):
        def __init__(self, m):
            super().__init__(m)
            built.append(self)

    monkeypatch.setattr(decompose_module, "EndAlgebra", Recorded)
    decompose(regular_module(corpus.kupisch_algebra([4, 5, 5, 5])))
    [end] = built
    asked = sum(cell is not None for row in end._table for cell in row)
    # locality and the probe skip read every corner in End(M)/rad, of
    # dimension 4, whose table takes 16 products; reading each corner in
    # End(M) itself filled 115 cells
    assert end.dim == 19 and asked == 16


def test_filled_end_cells_are_coordinates_of_composites(monkeypatch):
    built = []
    for module, cls in ((decompose_module, EndAlgebra), (complex_decomp, ChainEndData)):

        class Recorded(cls):
            def __init__(self, x):
                super().__init__(x)
                built.append(self)

        monkeypatch.setattr(module, cls.__name__, Recorded)
    fig1_t = corpus.fig1_tilting_complex()
    for a in (corpus.sec5_algebra(), corpus.kupisch_algebra([4, 5, 5, 5])):
        decompose(regular_module(a))
        decompose(projective(a, "3").direct_sum(projective(a, "3")))
    decompose_complex(fig1_t.direct_sum(fig1_t))
    for end in built:
        if isinstance(end, EndAlgebra):
            compose = partial(decompose_module._compose_flats, end._cells)
        else:
            compose = end.space.compose
        filled, _ = _assert_filled_cells_match(end, compose)
        assert filled
    assert {type(end).__mro__[1] for end in built} == {EndAlgebra, ChainEndData}
