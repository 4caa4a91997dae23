import random
from fractions import Fraction

import pytest

from tiltbench import corpus
from tiltbench.complexes import regular_stalk
from tiltbench.decompose import FiniteDimAlgebra
from tiltbench.errors import NoIdentity, NotAssociative, NotBasic
from tiltbench.linalg import Matrix, row_space_basis, row_spaces_equal
from tiltbench.presentation import (
    abstract_from_table,
    presentations_match,
    quiver_presentation,
    radical_chain,
    relation_ideals_equal,
)
from tiltbench.tilting import TiltingContext, construct_tpq, end_algebra


def structure_constants(alg):
    """(table, one) of a path-built algebra: table[i][j] holds the
    coordinates of basis i times basis j."""
    d = alg.dim
    table = []
    for i in range(d):
        row = []
        for j in range(d):
            prod = alg.mul(alg.basis_el(i), alg.basis_el(j))
            row.append([prod.get(k, 0) for k in range(d)])
        table.append(row)
    one = [0] * d
    for k in alg.idempotent_index.values():
        one[k] = 1
    return table, one


def abstract_of(alg):
    table, one = structure_constants(alg)
    return abstract_from_table(alg.dim, table, one)


def test_one_dimensional_table():
    alg = abstract_from_table(1, [[[1]]], [1])
    pres = quiver_presentation(alg)
    assert len(pres.quiver.vertices) == 1
    assert pres.quiver.arrows == ()
    assert pres.relations == []
    assert pres.algebra.dim == 1


def test_upper_triangular_2x2_gives_a2_quiver():
    # basis: e11, e22, e12 with e11*e12 = e12, e12*e22 = e12
    z = [0, 0, 0]
    table = [
        [[1, 0, 0], z, [0, 0, 1]],
        [z, [0, 1, 0], z],
        [z, [0, 0, 1], z],
    ]
    alg = abstract_from_table(3, table, [1, 1, 0])
    pres = quiver_presentation(alg)
    assert len(pres.quiver.vertices) == 2
    assert len(pres.quiver.arrows) == 1
    assert pres.relations == []
    assert pres.algebra.dim == 3


def test_bad_tables_rejected():
    with pytest.raises(NoIdentity):
        abstract_from_table(1, [[[0]]], [1])
    # non-associative: x*x = y-ish broken table on dim 2
    table = [
        [[0, 1], [1, 0]],
        [[1, 0], [0, 1]],
    ]
    with pytest.raises((NotAssociative, NoIdentity)):
        abstract_from_table(2, table, [1, 0])


@pytest.mark.parametrize("name", ["fig1", "fig2", "sec5"])
def test_roundtrip_presentation_of_corpus_algebras(name):
    src = corpus.corpus_algebras()[name]
    alg = abstract_of(src)
    pres = quiver_presentation(alg)
    assert pres.algebra.dim == src.dim
    # same quiver shape and equal relation ideal under some matching
    match = presentations_match(pres.quiver, pres.relations, src.quiver, list(src.relations))
    assert match is not None
    # Cartan matrices agree up to the matched vertex permutation
    perm = [src.quiver.vertex_index[match["vertices"][v]] for v in pres.quiver.vertices]
    cm_src = src.cartan_matrix()
    cm_new = pres.algebra.cartan_matrix()
    for i in range(len(perm)):
        for j in range(len(perm)):
            assert cm_new.data[i][j] == cm_src.data[perm[i]][perm[j]]


def test_relation_ideal_equality_detects_difference():
    q = corpus.fig2_quiver()
    rels = corpus.fig2_relations(q)
    assert relation_ideals_equal(q, rels, list(rels))
    smaller = rels[:-1]
    assert not relation_ideals_equal(q, rels, smaller)


def test_algebra_from_structure_constants_public_api():
    from tiltbench.presentation import algebra_from_structure_constants

    src = corpus.fig2_algebra()
    d = src.dim
    table = []
    for i in range(d):
        row = []
        for j in range(d):
            prod = src.mul(src.basis_el(i), src.basis_el(j))
            row.append([prod.get(k, 0) for k in range(d)])
        table.append(row)
    one = [0] * d
    for k in src.idempotent_index.values():
        one[k] = 1
    rebuilt = algebra_from_structure_constants(d, table, one)
    assert rebuilt.dim == src.dim
    assert rebuilt.recovered_from.quiver.vertices == ("1", "2", "3")
    assert presentations_match(
        rebuilt.quiver, list(rebuilt.relations), src.quiver, list(src.relations)
    ) is not None


def test_relation_ideal_equality_up_to_generators():
    from tiltbench.quiver import monomial_relation

    q = corpus.fig1_quiver()
    rels = corpus.fig1_relations(q)
    # adding a consequence does not change the ideal
    extra = rels + [monomial_relation(q, ["alpha", "beta", "gamma", "alpha"])]
    assert relation_ideals_equal(q, rels, extra)


def test_finite_dim_algebra_asks_each_product_once():
    table, one = structure_constants(corpus.fig1_algebra())
    d = len(one)
    calls = {}

    def product(i, j):
        calls[(i, j)] = calls.get((i, j), 0) + 1
        return table[i][j]

    alg = FiniteDimAlgebra(d, product, one)
    rng = random.Random(3)
    x = [Fraction(rng.randint(-2, 2)) for _ in range(d)]
    y = [Fraction(rng.randint(-2, 2)) for _ in range(d)]
    for _ in range(2):
        alg.mul(x, y)
        alg.left_matrix(x)
        alg.radical_rows()
    assert len(calls) == d * d
    assert max(calls.values()) == 1


def test_left_matrix_and_radical_of_fig1_table():
    a = corpus.fig1_algebra()
    alg = abstract_of(a)
    rng = random.Random(4)
    x = [Fraction(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(alg.dim)]
    left = alg.left_matrix(x)
    for j in range(alg.dim):
        e_j = [Fraction(int(k == j)) for k in range(alg.dim)]
        assert list(left.row(j)) == alg.mul(x, e_j)
    assert alg.radical_rows().rows == alg.dim - len(a.quiver.vertices)


def test_not_basic_is_raised():
    # M_2(Q) on E11, E12, E21, E22 with the diagonal idempotents
    def unit(i, j):
        return [int(k == 2 * i + j) for k in range(4)]

    table = [[unit(i, l) if j == k else [0] * 4 for k in range(2) for l in range(2)] for i in range(2) for j in range(2)]
    m2 = abstract_from_table(4, table, [1, 0, 0, 1])
    with pytest.raises(NotBasic):
        quiver_presentation(m2, idempotents=[[1, 0, 0, 0], [0, 0, 0, 1]])
    # Q(i) on 1, i: a division algebra that is not Q
    qi = abstract_from_table(2, [[[1, 0], [0, 1]], [[0, 1], [-1, 0]]], [1, 0])
    with pytest.raises(NotBasic):
        quiver_presentation(qi, idempotents=[[1, 0]])
    # Q x Q with idempotents that do not sum to 1, or are not idempotent
    qq = abstract_from_table(2, [[[1, 0], [0, 0]], [[0, 0], [0, 1]]], [1, 1])
    for idems in ([[1, 0]], [[2, 0], [-1, 1]], [[1, 0], [0, 1], [0, 0]]):
        with pytest.raises(NotBasic):
            quiver_presentation(qq, idempotents=idems)
    # End(A + A): two copies of every indecomposable projective
    a = corpus.kupisch_algebra([3, 3, 4, 4])
    with pytest.raises(NotBasic):
        end_algebra(a, regular_stalk(a).direct_sum(regular_stalk(a)))


def _layers_by_all_pairs(alg):
    """[rad, rad^2, ..., 0] from the trace-form radical by all-pairs products."""
    rad = alg.radical_rows()
    chain = [rad]
    while chain[-1].rows:
        rows = [alg.mul(x, y) for x in chain[-1].data for y in rad.data]
        chain.append(row_space_basis(Matrix(len(rows), alg.dim, rows)))
    return chain


def _summary(pres):
    arrows = [(a.name, a.source, a.target) for a in pres.quiver.arrows]
    elements = {k: {i: str(c) for i, c in enumerate(v) if c} for k, v in pres.arrow_elements.items()}
    relations = [" + ".join(f"{c}*{p.source}:{'.'.join(p.arrows)}" for c, p in r.terms) for r in pres.relations]
    return arrows, elements, relations, pres.nil_index


# Presentations of End(T) recorded before the radical layers were computed
# Peirce block by Peirce block; RREF bases are unique, so they must not move.
END_PRESENTATIONS = {
    "fig1": (
        [("a0", "1", "2"), ("a1", "2", "3"), ("a2", "3", "1")],
        {"a0": {3: "1"}, "a1": {8: "1"}, "a2": {2: "1"}},
        ["1*1:a0.a1.a2", "1*2:a1.a2.a0.a1"],
        4,
    ),
    "fig2": (
        [("a0", "1", "2"), ("a1", "2", "1"), ("a2", "2", "3"), ("a3", "3", "2")],
        {"a0": {2: "1"}, "a1": {1: "1"}, "a2": {6: "1"}, "a3": {5: "1"}},
        ["1*1:a0.a1", "1*1:a0.a2", "-1*2:a1.a0 + 1*2:a2.a3", "1*3:a3.a1"],
        3,
    ),
    "sec5": (
        [("a0", "1", "2"), ("a1", "2", "1"), ("a2", "2", "3"), ("a3", "3", "2"), ("a4", "3", "4"), ("a5", "4", "3")],
        {"a0": {3: "1"}, "a1": {2: "1"}, "a2": {6: "1"}, "a3": {5: "1"}, "a4": {10: "1"}, "a5": {9: "1"}},
        ["1*1:a0.a2", "1*2:a1.a0", "1*2:a2.a3", "1*2:a2.a4", "1*3:a3.a1", "-1*3:a3.a2 + 1*3:a4.a5", "1*4:a5.a3"],
        3,
    ),
    "(3, 3, 4, 4)": (
        [("a0", "1", "2"), ("a1", "2", "3"), ("a2", "3", "4"), ("a3", "4", "1")],
        {"a0": {3: "1"}, "a1": {8: "1"}, "a2": {12: "1"}, "a3": {2: "1"}},
        ["1*1:a0.a1.a2", "1*2:a1.a2.a3", "1*3:a2.a3.a0.a1"],
        4,
    ),
    "(4, 5, 5, 5)": (
        [("a0", "1", "2"), ("a1", "2", "3"), ("a2", "3", "4"), ("a3", "4", "1")],
        {"a0": {4: "1"}, "a1": {10: "1"}, "a2": {16: "1"}, "a3": {3: "1"}},
        ["1*1:a0.a1.a2.a3", "1*2:a1.a2.a3.a0.a1", "1*3:a2.a3.a0.a1.a2"],
        5,
    ),
    "(3, 3, 3, 3, 3, 3)": (
        [(f"a{i}", str(i + 1), str((i + 1) % 6 + 1)) for i in range(6)],
        {f"a{i}": {t: "1"} for i, t in enumerate([3, 7, 10, 13, 16, 2])},
        [f"1*{i + 1}:" + ".".join(f"a{(i + k) % 6}" for k in range(3)) for i in range(6)],
        3,
    ),
    "tpq": (
        [("a0", "1", "3"), ("a1", "2", "4"), ("a2", "3", "2"), ("a3", "4", "1")],
        {"a0": {17: "1"}, "a1": {9: "1"}, "a2": {15: "1"}, "a3": {3: "1"}},
        ["1*2:a1.a3.a0.a2", "1*1:a0.a2.a1.a3.a0", "1*4:a3.a0.a2.a1.a3"],
        5,
    ),
}


def _end_cases():
    for name, a in corpus.corpus_algebras().items():
        yield name, a, regular_stalk(a)
    for series in [(3, 3, 4, 4), (4, 5, 5, 5), (3, 3, 3, 3, 3, 3)]:
        a = corpus.kupisch_algebra(list(series))
        yield str(series), a, regular_stalk(a)
    a = corpus.kupisch_algebra([4, 5, 5, 5])
    yield "tpq", a, construct_tpq(a, ["2"], [], 1, 1).complex


def _assert_peirce_layers_match(alg, idems, chain):
    reference = _layers_by_all_pairs(alg)
    assert len(chain) == len(reference)
    for layer, ref in zip(chain, reference):
        assert layer.rows == ref.rows
        rows = [r for line in layer.blocks for block in line for r in block.data]
        assert row_spaces_equal(Matrix(len(rows), alg.dim, rows), ref)
        # block (i, j) lies in e_i A e_j
        for i, e in enumerate(idems):
            for j, f in enumerate(idems):
                for row in layer.blocks[i][j].data:
                    assert alg.mul(alg.mul(e, row), f) == list(row)


@pytest.mark.parametrize("case", list(END_PRESENTATIONS))
def test_peirce_layers_of_end_algebras(case):
    name, a, t = next(c for c in _end_cases() if c[0] == case)
    end = TiltingContext(a, t).end_data()
    idems = list(end.presentation.vertex_idempotents.values())
    _assert_peirce_layers_match(end.abstract, idems, radical_chain(end.abstract, idems))
    assert _summary(end.presentation) == END_PRESENTATIONS[case]


@pytest.mark.parametrize("name", ["fig1", "fig2", "sec5", "(5, 5)", "(5, 5) reversed"])
def test_peirce_layers_from_primitive_idempotents(name):
    # Kupisch (5, 5) has Peirce blocks of dimension 2 in every layer; on the
    # reversed basis, longer paths come first in each RREF block
    if name.startswith("(5, 5)"):
        table, one = structure_constants(corpus.kupisch_algebra([5, 5]))
        if name.endswith("reversed"):
            table = [[cell[::-1] for cell in row[::-1]] for row in table[::-1]]
            one = one[::-1]
        alg = abstract_from_table(len(one), table, one)
    else:
        alg = abstract_of(corpus.corpus_algebras()[name])
    chain = radical_chain(alg)
    idems = list(quiver_presentation(alg).vertex_idempotents.values())
    _assert_peirce_layers_match(alg, idems, chain)


def test_end_data_asks_part_of_the_product_table():
    a = corpus.kupisch_algebra([4] * 8)
    alg = TiltingContext(a, regular_stalk(a)).end_data().abstract
    asked = sum(cell is not None for row in alg._table for cell in row)
    assert alg.dim == 32
    assert asked < alg.dim * alg.dim
