"""End(T) and ChainEndData multiply in homotopy coordinates
(``HomotopySpace.compose`` and ``classes.coordinates``); these tests hold them to
the chain-map route of ``tests/chain_maps.py`` cell for cell, and the sparse
chain-condition system to the dense one."""

from functools import lru_cache

import pytest

from tiltbench import corpus
from tiltbench.algebra import FiniteDimAlgebra, el_to_vector
from tiltbench.complex_decomp import ChainEndData
from tiltbench.complexes import HomotopySpace, homotopy_hom, regular_stalk
from tiltbench.errors import TiltbenchError
from tiltbench.presentation import quiver_presentation
from tiltbench.tilting import TiltingContext, construct_tpq

from chain_maps import DenseHomotopy, chain_end_table_by_chain_maps, end_table_by_chain_maps


@lru_cache(maxsize=None)
def _complexes():
    """(name, algebra, tilting complex): the corpus complexes, regular
    stalks, and construct_tpq complexes of Kupisch series, several of them
    with null-homotopy rows."""
    fig1, fig2, sec5 = corpus.fig1_algebra(), corpus.fig2_algebra(), corpus.sec5_algebra()
    k4555 = corpus.kupisch_algebra([4, 5, 5, 5])
    k3344 = corpus.kupisch_algebra([3, 3, 4, 4])
    k3333 = corpus.kupisch_algebra([3, 3, 3, 3])
    n63 = corpus.kupisch_algebra([3] * 6)
    return (
        ("fig1 T", fig1, corpus.fig1_tilting_complex(fig1)),
        ("sec5 T", sec5, construct_tpq(sec5, ["1"], ["3", "4"], 1, 1).complex),
        ("fig1 A", fig1, regular_stalk(fig1)),
        ("fig2 A", fig2, regular_stalk(fig2)),
        ("sec5 A", sec5, regular_stalk(sec5)),
        ("(3,3,4,4) A", k3344, regular_stalk(k3344)),
        ("N(6,3) A", n63, regular_stalk(n63)),
        ("(4,5,5,5) P={2}", k4555, construct_tpq(k4555, ["2"], [], 1, 1).complex),
        ("(4,5,5,5) P={2,4}", k4555, construct_tpq(k4555, ["2", "4"], [], 1, 1).complex),
        ("(4,5,5,5) P={3} r=2", k4555, construct_tpq(k4555, ["3"], [], 2, 1).complex),
        ("(3,3,4,4) P={2,3,4}", k3344, construct_tpq(k3344, ["2", "3", "4"], [], 1, 1).complex),
        ("(3,3,3,3) P={1,3}", k3333, construct_tpq(k3333, ["1", "3"], [], 1, 1).complex),
    )


NAMES = [name for name, _, _ in _complexes()]


def _case(name):
    return next(c for c in _complexes() if c[0] == name)


def _table(alg: FiniteDimAlgebra):
    return [[el_to_vector(alg.basis_product(i, j), alg.dim) for j in range(alg.dim)] for i in range(alg.dim)]


def _null_rows(space):
    return DenseHomotopy(space.x, space.y)._null


def test_the_set_has_null_homotopies():
    assert len(NAMES) >= 10
    with_null = [name for name in NAMES if _null_rows(homotopy_hom(_case(name)[2], _case(name)[2], 0))]
    assert {"sec5 T", "(4,5,5,5) P={2}"} <= set(with_null)


@pytest.mark.parametrize("name", NAMES)
def test_homotopy_vectors_match_the_dense_system(name):
    _, _, t = _case(name)
    width = t.hi - t.lo
    for n in range(-width - 1, width + 2):
        target = t.shift(n)
        space = HomotopySpace(t, target)
        ref = DenseHomotopy(t, target)
        assert space.chain_vectors == ref.chain_vectors, n
        assert space.class_vectors == ref.class_vectors, n
    # between two different complexes
    p = regular_stalk(t.algebra)
    for x, y in ((t, p), (p, t)):
        ref = DenseHomotopy(x, y)
        space = HomotopySpace(x, y)
        assert (space.chain_vectors, space.class_vectors) == (ref.chain_vectors, ref.class_vectors)


@pytest.mark.parametrize("name", NAMES)
def test_end_table_and_presentation_match_the_chain_map_route(name):
    _, a, t = _case(name)
    end = TiltingContext(a, t).end_data()
    reference = end_table_by_chain_maps(end.space)
    assert _table(end.abstract) == reference
    # the presentation read off the reference table is the same
    ref_alg = FiniteDimAlgebra(
        end.abstract.dim,
        lambda i, j: {k: c for k, c in enumerate(reference[i][j]) if c},
        end.abstract.one,
    )
    idems = list(end.presentation.vertex_idempotents.values())
    ref = quiver_presentation(ref_alg, idempotents=idems)
    pres = end.presentation
    assert [(x.name, x.source, x.target) for x in ref.quiver.arrows] == [
        (x.name, x.source, x.target) for x in pres.quiver.arrows
    ]
    assert ref.arrow_elements == pres.arrow_elements
    assert [r.terms for r in ref.relations] == [r.terms for r in pres.relations]
    assert ref.nil_index == pres.nil_index


@pytest.mark.parametrize("name", NAMES)
def test_chain_end_table_matches_the_chain_map_route(name):
    _, _, t = _case(name)
    data = ChainEndData(t)
    assert _table(data) == chain_end_table_by_chain_maps(data)


def test_compose_needs_endomorphisms():
    _, a, t = _case("sec5 T")
    space = HomotopySpace(t, regular_stalk(a))
    with pytest.raises(TiltbenchError, match="endomorphisms"):
        space.compose({}, {})
    # a vector outside the chain maps has no class coordinates
    end = homotopy_hom(t, t, 0)
    ref = DenseHomotopy(t, t.shift(0))
    n = len(end.positions)
    outside = next(p for p in range(n) if ref.reduce([int(q == p) for q in range(n)]) is None)
    with pytest.raises(TiltbenchError, match="not in the hom space"):
        end.classes.coordinates({outside: 1})
