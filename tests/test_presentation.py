import random
from fractions import Fraction

import pytest

from tiltbench import corpus
from tiltbench.decompose import FiniteDimAlgebra
from tiltbench.errors import NoIdentity, NotAssociative
from tiltbench.presentation import (
    abstract_from_table,
    presentations_match,
    quiver_presentation,
    relation_ideals_equal,
)


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
