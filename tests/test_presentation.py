import random
import time
from fractions import Fraction

import pytest

from kupisch import all_kupisch_series, seeded_kupisch_series
from tiltbench import algebra, corpus, presentation
from tiltbench.algebra import (
    BasicAlgebra,
    EndomorphismAlgebra,
    FiniteDimAlgebra,
    abstract_from_table,
    build_path_algebra,
    el_from_vector,
    el_to_vector,
    length_filtration,
)
from tiltbench.complexes import ChainMapC, regular_stalk
from tiltbench.errors import NoIdentity, NotAdmissible, NotAssociative, NotBasic, RadicalNotNilpotent, TiltbenchError
from tiltbench.linalg import Basis, _sparse, sparse_row_space
from tiltbench.presentation import (
    presentations_match,
    quiver_presentation,
    radical_chain,
    relation_ideals_equal,
)
from tiltbench.quiver import (
    Path,
    Quiver,
    Relation,
    longer_paths,
    monomial_relation,
    trivial_path,
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
    # e0 = 1, e1 * e2 = e1 and every other product of e1 and e2 zero:
    # (e1 e2) e2 = e1 but e1 (e2 e2) = 0
    table = [[[int(k == i + j) for k in range(3)] for j in range(3)] for i in range(3)]
    table[1][1] = [0, 0, 0]
    table[1][2] = [0, 1, 0]
    with pytest.raises(NotAssociative, match=r"\(1,2,2\)"):
        abstract_from_table(3, table, [1, 0, 0])


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


def test_relation_ideal_equality_up_to_generators(monkeypatch):
    q = corpus.fig1_quiver()
    rels = corpus.fig1_relations(q)
    # adding a consequence does not change the ideal
    extra = rels + [monomial_relation(q, ["alpha", "beta", "gamma", "alpha"])]
    calls = []

    def recording(quiver, relations, max_path_len=30):
        calls.append(list(relations))
        return length_filtration(quiver, relations, max_path_len)

    monkeypatch.setattr(presentation, "length_filtration", recording)
    sizes = _count_eliminations(monkeypatch)
    assert relation_ideals_equal(q, rels, extra)
    # one filtration of each side, one elimination per path length of each
    assert calls == [rels, extra]
    assert len(sizes) == 2 * corpus.fig1_algebra().nil_length


def test_finite_dim_algebra_asks_each_product_once():
    table, one = structure_constants(corpus.fig1_algebra())
    d = len(one)
    calls = {}

    def product(i, j):
        calls[(i, j)] = calls.get((i, j), 0) + 1
        return el_from_vector(table[i][j])

    alg = FiniteDimAlgebra(d, product, el_from_vector(one))
    rng = random.Random(3)
    x = el_from_vector([Fraction(rng.randint(-2, 2)) for _ in range(d)])
    y = el_from_vector([Fraction(rng.randint(-2, 2)) for _ in range(d)])
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
    x = el_from_vector([Fraction(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(alg.dim)])
    left = alg.left_matrix(x)
    for j in range(alg.dim):
        assert list(left.row(j)) == el_to_vector(alg.mul(x, {j: Fraction(1)}), alg.dim)
    assert len(alg.radical_rows()) == alg.dim - len(a.quiver.vertices)


def test_not_basic_is_raised():
    # M_2(Q) on E11, E12, E21, E22 with the diagonal idempotents
    def unit(i, j):
        return [int(k == 2 * i + j) for k in range(4)]

    table = [[unit(i, l) if j == k else [0] * 4 for k in range(2) for l in range(2)] for i in range(2) for j in range(2)]
    m2 = abstract_from_table(4, table, [1, 0, 0, 1])
    with pytest.raises(NotBasic):
        quiver_presentation(m2, idempotents=[{0: 1}, {3: 1}])
    # Q(i) on 1, i: a division algebra that is not Q
    qi = abstract_from_table(2, [[[1, 0], [0, 1]], [[0, 1], [-1, 0]]], [1, 0])
    with pytest.raises(NotBasic):
        quiver_presentation(qi, idempotents=[{0: 1}])
    # Q x Q with idempotents that do not sum to 1, or are not idempotent
    qq = abstract_from_table(2, [[[1, 0], [0, 0]], [[0, 0], [0, 1]]], [1, 1])
    for idems in ([{0: 1}], [{0: 2}, {0: -1, 1: 1}], [{0: 1}, {1: 1}, {}]):
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
    while chain[-1]:
        chain.append(sparse_row_space([alg.mul(x, y) for x in chain[-1] for y in rad]))
    return chain


def _summary(pres):
    arrows = [(a.name, a.source, a.target) for a in pres.quiver.arrows]
    elements = {k: {i: str(c) for i, c in v.items()} for k, v in pres.arrow_elements.items()}
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


def _all_pairs_block_product(alg, left, right):
    """The Peirce block product of the radical layers before it skipped
    empty blocks, kept as the reference: one elimination per (i, j) over
    every l, empty blocks included."""
    n = len(left)
    return [
        [sparse_row_space([alg.mul(x, y) for l in range(n) for x in left[i][l] for y in right[l][j]]) for j in range(n)]
        for i in range(n)
    ]


def _all_pairs_pieces(alg, idems):
    """The Peirce pieces e_i A e_j as ``radical_chain`` formed them before it
    split each basis element into its components, kept as the reference:
    the RREF basis of e_i A from the products e_i b over every basis
    element b, then one elimination of (e_i A) e_j for every pair."""
    pieces = []
    for e in idems:
        left = sparse_row_space([alg.mul(e, {k: 1}) for k in range(alg.dim)])
        pieces.append([sparse_row_space([alg.mul(r, f) for r in left]) for f in idems])
    return pieces


def _assert_peirce_layers_match(alg, idems, nil_index):
    """``radical_chain``'s rad and rad^2 against the all-pairs references,
    and the presentation's nil index against the reference chain's length."""
    reference = _layers_by_all_pairs(alg)
    assert nil_index == len(reference)
    rad, rad2 = radical_chain(alg, idems)
    # rad^2's blocks are those of the all-pairs product, row for row
    assert rad2 == _all_pairs_block_product(alg, rad, rad)
    for layer, ref in zip((rad, rad2), reference + [[]]):
        rows = [x for line in layer for block in line for x in block]
        assert len(rows) == len(ref)
        assert sparse_row_space(rows) == sparse_row_space(ref)
        # block (i, j) lies in e_i A e_j
        for i, e in enumerate(idems):
            for j, f in enumerate(idems):
                for x in layer[i][j]:
                    assert alg.mul(alg.mul(e, x), f) == x


@pytest.mark.parametrize("case", list(END_PRESENTATIONS))
def test_peirce_layers_of_end_algebras(case):
    name, a, t = next(c for c in _end_cases() if c[0] == case)
    end = TiltingContext(a, t).end_data()
    idems = list(end.presentation.vertex_idempotents.values())
    _assert_peirce_layers_match(end.abstract, idems, end.presentation.nil_index)
    assert _summary(end.presentation) == END_PRESENTATIONS[case]


def _layer_cases():
    """(name, algebra, complex) of the End(T)s whose layers and product cells
    are compared with their references: the corpus complexes (fig1's T and
    sec5's construct_tpq with P = {1}, Q = {3, 4}), the regular stalks of
    N(6,3) and N(8,4), and those of seeded Kupisch series."""
    fig1, sec5 = corpus.fig1_algebra(), corpus.sec5_algebra()
    yield "fig1 T", fig1, corpus.fig1_tilting_complex(fig1)
    yield "sec5 tpq", sec5, construct_tpq(sec5, ["1"], ["3", "4"], 1, 1).complex
    for series in [[3] * 6, [4] * 8, *seeded_kupisch_series(random.Random(28), 6)]:
        a = corpus.kupisch_algebra(series)
        yield str(tuple(series)), a, regular_stalk(a)


def _assert_filled_cells_match(alg, compose):
    """Every product cell the algebra filled is the coordinates of the
    composite of its two basis rows; returns (filled, zero) cell counts."""
    rows = alg.basis.rows
    filled = zero = 0
    for i, line in enumerate(alg._table):
        for j, cell in enumerate(line):
            if cell is not None:
                assert cell == alg.basis.coordinates(compose(rows[i], rows[j]))
                filled += 1
                zero += not cell
    return filled, zero


LAYER_CASES = [name for name, _, _ in _layer_cases()]


@pytest.mark.parametrize("case", LAYER_CASES)
def test_radical_layers_and_end_products_match_their_references(case):
    name, a, t = next(c for c in _layer_cases() if c[0] == case)
    end = TiltingContext(a, t).end_data()
    idems = list(end.presentation.vertex_idempotents.values())
    assert presentation._peirce_pieces(end.abstract, idems) == _all_pairs_pieces(end.abstract, idems)
    _assert_peirce_layers_match(end.abstract, idems, end.presentation.nil_index)
    filled, _ = _assert_filled_cells_match(end.abstract, lambda u, v: end.space.compose(v, u))
    assert filled


@pytest.mark.parametrize("series", [(2, 2, 2), (3, 4, 4), (4, 5, 5, 5)])
def test_peirce_pieces_of_elements_over_several_blocks(series, monkeypatch):
    # conjugating the vertex idempotents by u = 1 + a1 (a1 : 1 -> 2, so
    # a1^2 = 0 and u^-1 = 1 - a1) splits some basis paths over two blocks
    a = corpus.kupisch_algebra(list(series))
    arrow = {a.index[Path("1", ("a1",))]: 1}
    u, u_inv = algebra.el_add(a.one, arrow), algebra.el_sub(a.one, arrow)
    idems = [a.mul(a.mul(u, {a.idempotent_index[v]: 1}), u_inv) for v in a.quiver.vertices]
    n = len(idems)
    components = [[x for e in idems if (x := a.mul(e, {k: 1}))] for k in range(a.dim)]
    assert max(len(parts) for parts in components) > 1
    reference = _all_pairs_pieces(a, idems)
    left, right = [], []
    mul = a.mul

    def counted(x, y):
        if any(x is e for e in idems):
            left.append(y)
        elif any(y is e for e in idems):
            right.append(x)
        return mul(x, y)

    monkeypatch.setattr(a, "mul", counted)
    assert presentation._peirce_pieces(a, idems) == reference
    # at most n products per basis element on the left and per component on
    # the right, as many as the reference takes per row of e_i A
    assert a.dim <= len(left) <= n * a.dim
    assert len(right) <= n * sum(len(parts) for parts in components)
    monkeypatch.undo()
    _assert_peirce_layers_match(a, idems, quiver_presentation(a, idems).nil_index)


def test_end_of_n84_fills_mostly_zero_cells():
    a = corpus.kupisch_algebra([4] * 8)
    end = TiltingContext(a, regular_stalk(a)).end_data()
    classes = end.space.classes

    def compose(u, v):
        return end.space.compose(v, u)

    assert _assert_filled_cells_match(end.abstract, compose) == (247, 167)

    class Recording:
        """The class basis, recording each vector it is asked to read."""

        def __init__(self):
            self.rows = classes.rows
            self.read = []

        def coordinates(self, v):
            self.read.append(v)
            return classes.coordinates(v)

    basis = Recording()
    again = EndomorphismAlgebra(basis, compose, end.space.chain_map_terms(ChainMapC.identity(end.space.x)))
    for i in range(again.dim):
        for j in range(again.dim):
            assert again.basis_product(i, j) == end.abstract.basis_product(i, j)
    # the identity and the nonzero composites only: no zero vector is read
    assert all(basis.read)
    assert len(basis.read) == 1 + sum(bool(cell) for line in again._table for cell in line)


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
    pres = quiver_presentation(alg)
    _assert_peirce_layers_match(alg, list(pres.vertex_idempotents.values()), pres.nil_index)


def test_one_block_product_per_presentation(monkeypatch):
    # rad^2 is the only layer formed by Peirce block products; the paths the
    # presentation evaluates give the later ones and the nil index
    products = []
    block_product = presentation._block_product

    def counted(alg, left, right):
        products.append(1)
        return block_product(alg, left, right)

    monkeypatch.setattr(presentation, "_block_product", counted)
    a = corpus.kupisch_algebra([3] * 6)
    pres = TiltingContext(a, regular_stalk(a)).end_data().presentation
    assert pres.nil_index == 3
    assert len(products) == 1


def test_paths_that_never_vanish_raise_radical_not_nilpotent(monkeypatch):
    # a radical candidate whose only arrow is the idempotent e_1: one path
    # per length, each e_1, so the evaluation stops at length dim + 1
    alg = abstract_of(corpus.kupisch_algebra([2, 2]))
    idems = list(quiver_presentation(alg).vertex_idempotents.values())
    n = len(idems)
    empty = [[[] for _ in range(n)] for _ in range(n)]
    rad = [[[idems[0]] if i == j == 0 else [] for j in range(n)] for i in range(n)]
    monkeypatch.setattr(presentation, "radical_chain", lambda alg, idempotents: (rad, empty))
    with pytest.raises(RadicalNotNilpotent, match=f"length {alg.dim + 1} "):
        quiver_presentation(alg, idems)


def test_end_of_every_regular_stalk_presents_the_kupisch_algebra():
    for series in all_kupisch_series():
        a = corpus.kupisch_algebra(series)
        pres = TiltingContext(a, regular_stalk(a)).end_data().presentation
        assert pres.nil_index == a.nil_length, series
        assert presentations_match(pres.quiver, pres.relations, a.quiver, a.relations) is not None, series


def test_end_data_asks_part_of_the_product_table():
    a = corpus.kupisch_algebra([4] * 8)
    alg = TiltingContext(a, regular_stalk(a)).end_data().abstract
    asked = sum(cell is not None for row in alg._table for cell in row)
    assert alg.dim == 32
    assert asked < alg.dim * alg.dim


def test_relation_ideals_equal_lets_only_package_errors_through(monkeypatch):
    q = corpus.fig1_quiver()
    rels = corpus.fig1_relations(q)
    # no relations on a quiver with a cycle: NotAdmissible, so not equal
    assert not relation_ideals_equal(q, rels, [])

    def broken(*args, **kwargs):
        raise RuntimeError("bug")

    monkeypatch.setattr(presentation, "length_filtration", broken)
    with pytest.raises(RuntimeError):
        relation_ideals_equal(q, rels, list(rels))


# The routes before one length filtration replaced them, kept as the
# reference it must agree with.  Pruning: for every candidate, the
# homogeneous ideal spans of the kept relations are rebuilt from scratch, one
# RREF per path length, and the candidate tested in the span at its length.
# Ideal comparison: both quotients built, then each relation tested in the
# other list's spans.  The path algebra: one RREF per length from 2 on, over
# every raw path of that length, with a rewrite for each one that is not a
# normal form.

RAW_PATH_CAP = 100_000


def deglex_key(q: Quiver, p: Path):
    """Graded lexicographic order: by length, then arrow indices, then source."""
    names = [a.name for a in q.arrows]
    return (len(p.arrows), tuple(names.index(a) for a in p.arrows), q.vertex_index[p.source])


def arrow_multiples(q: Quiver, row: dict):
    """The nonzero products a * row and row * a of a {Path: coefficient} row
    of paths of one length, for each arrow a in quiver order, left first."""
    ends = [(p, c, p.target(q)) for p, c in row.items()]
    for a in q.arrows:
        left = {Path(a.source, (a.name,) + p.arrows): c for p, c, _ in ends if p.source == a.target}
        if left:
            yield left
        right = {Path(p.source, p.arrows + (a.name,)): c for p, c, t in ends if t == a.source}
        if right:
            yield right


def _old_build_path_algebra(quiver, relations, max_path_len=30):
    return BasicAlgebra(quiver, relations, *_old_normal_forms(quiver, relations, max_path_len))


def _old_normal_forms(quiver, relations, max_path_len):
    """(basis, rewrite, nil_length) over every raw path: rewrite[n] holds
    each raw path of length n that is not a normal form."""
    by_len = {}
    for r in relations:
        by_len.setdefault(r.length, []).append(r)

    trivials = [trivial_path(v) for v in quiver.vertices]
    raw = {0: trivials, 1: [Path(a.source, (a.name,)) for a in quiver.arrows]}
    normal = {0: list(trivials), 1: list(raw[1])}
    span_rows = {1: []}  # list of dict(Path -> coeff), an rref'd spanning set
    rewrite = {}
    nil_length = None

    for n in range(2, max_path_len + 1):
        raw[n] = longer_paths(quiver, raw[n - 1])
        if len(raw[n]) > RAW_PATH_CAP:
            raise NotAdmissible(f"more than {RAW_PATH_CAP} raw paths at length {n}")
        if not raw[n]:
            nil_length = n
            break
        order = sorted(raw[n], key=lambda p: deglex_key(quiver, p), reverse=True)
        col = {p: i for i, p in enumerate(order)}
        rows = []
        for r in by_len.get(n, []):
            vec = {}
            for c, p in r.terms:
                vec[col[p]] = vec.get(col[p], 0) + c
            rows.append(vec)
        for row in span_rows[n - 1]:
            for prod in arrow_multiples(quiver, row):
                rows.append({col[p]: c for p, c in prod.items()})
        red = sparse_row_space(rows)
        pivots = {min(row) for row in red}
        normal_n = [order[j] for j in range(len(order)) if j not in pivots]
        normal_n.sort(key=lambda p: deglex_key(quiver, p))
        normal[n] = normal_n
        span_rows[n] = [{order[j]: c for j, c in row.items()} for row in red]
        rewrite[n] = {}
        for row in red:
            pc = min(row)
            rewrite[n][order[pc]] = {order[j]: -c for j, c in row.items() if j != pc}
        if not normal_n:
            nil_length = n
            break
    if nil_length is None:
        raise NotAdmissible(
            f"normal-form paths still survive at length {max_path_len}; "
            "raise max_path_len or fix the relations"
        )

    basis = []
    for n in range(0, nil_length):
        basis.extend(normal.get(n, []))
    return basis, rewrite, nil_length


def _old_vector(rel, index):
    vec = [Fraction(0)] * len(index)
    for c, p in rel.terms:
        vec[index[p]] += c
    return vec


def _old_ideal_spans(quiver, gens, up_to):
    by_len = {}
    for g in gens:
        by_len.setdefault(g.length, []).append(g)
    out = {}
    raw = {1: [Path(a.source, (a.name,)) for a in quiver.arrows]}
    prev_rows = []
    prev_order = None
    for n in range(2, up_to + 1):
        raw[n] = []
        for p in raw[n - 1]:
            for a in quiver.arrows_from[p.target(quiver)]:
                raw[n].append(Path(p.source, p.arrows + (a.name,)))
        order = sorted(raw[n], key=lambda p: deglex_key(quiver, p))
        index = {p: i for i, p in enumerate(order)}
        rows = [_old_vector(g, index) for g in by_len.get(n, [])]
        if prev_order is not None:
            for row in prev_rows:
                for a in quiver.arrows:
                    left = [Fraction(0)] * len(order)
                    right = [Fraction(0)] * len(order)
                    any_l = any_r = False
                    for j, c in row.items():
                        p = prev_order[j]
                        if a.target == p.source:
                            left[index[Path(a.source, (a.name,) + p.arrows)]] += c
                            any_l = True
                        if p.target(quiver) == a.source:
                            right[index[Path(p.source, p.arrows + (a.name,))]] += c
                            any_r = True
                    if any_l:
                        rows.append(left)
                    if any_r:
                        rows.append(right)
        span = sparse_row_space(_sparse(rows))
        out[n] = (order, index, span)
        prev_rows = span
        prev_order = order
    return out


def _old_relation_in_ideal(quiver, gens, rel):
    order, index, span = _old_ideal_spans(quiver, gens, rel.length).get(rel.length, (None, None, None))
    if order is None:
        return False
    vec = _old_vector(rel, index)
    if not span:
        return all(c == 0 for c in vec)
    try:
        Basis(span, len(order)).coordinates(vec)
    except TiltbenchError:
        return False
    return True


def _old_prune(quiver, relations):
    kept = []
    for rel in sorted(relations, key=lambda r: r.length):
        if not (kept and _old_relation_in_ideal(quiver, kept, rel)):
            kept.append(rel)
    return kept


def _old_ideals_equal(quiver, rels1, rels2):
    try:
        a1 = _old_build_path_algebra(quiver, rels1)
        a2 = _old_build_path_algebra(quiver, rels2)
    except TiltbenchError:
        return False
    if a1.dim != a2.dim:
        return False
    return all(
        _old_relation_in_ideal(quiver, list(gens), rel)
        for gens, others in ((rels1, rels2), (rels2, rels1))
        for rel in others
    )


def _end_candidates(monkeypatch):
    """(name, quiver, candidate relations, kept relations) of the length
    filtration that quiver_presentation runs for the End(T)s of fig1, sec5,
    N(6,3), N(8,4) and Kupisch (4,5,5,5) with P = {2}."""
    fig1, sec5, k = corpus.fig1_algebra(), corpus.sec5_algebra(), corpus.kupisch_algebra([4, 5, 5, 5])
    cases = [
        ("fig1", fig1, corpus.fig1_tilting_complex(fig1)),
        ("sec5", sec5, construct_tpq(sec5, ["1"], ["3", "4"], 1, 1).complex),
        ("N(6,3)", corpus.kupisch_algebra([3] * 6), None),
        ("N(8,4)", corpus.kupisch_algebra([4] * 8), None),
        ("(4, 5, 5, 5) P={2}", k, construct_tpq(k, ["2"], [], 1, 1).complex),
    ]
    seen = []

    def recording(quiver, relations, max_path_len):
        out = length_filtration(quiver, relations, max_path_len)
        seen.append((quiver, list(relations), out[3]))
        return out

    monkeypatch.setattr(presentation, "length_filtration", recording)
    out = []
    for name, a, t in cases:
        TiltingContext(a, t if t is not None else regular_stalk(a)).end_data()
        assert len(seen) == 1, name
        out.append((name,) + seen.pop())
    monkeypatch.undo()
    return out


def _paths_of_length(quiver, n):
    paths = [Path(a.source, (a.name,)) for a in quiver.arrows]
    for _ in range(n - 1):
        paths = [Path(p.source, p.arrows + (a.name,)) for p in paths for a in quiver.arrows_from[p.target(quiver)]]
    return paths


def _random_relations(rng, quiver, count):
    """Relations of lengths 2-4 with distinct paths, about half of them
    redundant: scalar and arrow multiples of earlier ones, and linear
    combinations of two earlier ones of one shape."""
    paths = {n: _paths_of_length(quiver, n) for n in range(2, 5)}
    out = []

    def coeff():
        return Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.choice([1, 1, 2]))

    def add(row):
        row = {p: c for p, c in row.items() if c}
        if row:
            out.append(Relation(quiver, [(c, p) for p, c in row.items()]))

    while len(out) < count:
        kind = rng.random() if out else 0
        if kind < 0.5:
            n = rng.randint(2, 4)
            first = rng.choice(paths[n])
            parallel = [p for p in paths[n] if p.source == first.source and p.target(quiver) == first.target(quiver)]
            add({p: coeff() for p in rng.sample(parallel, min(len(parallel), rng.randint(1, 3)))})
        elif kind < 0.7:
            r = rng.choice(out)
            add({p: 2 * c for c, p in r.terms})
        elif kind < 0.85:
            r = rng.choice([r for r in out if r.length < 4] or out)
            if r.length < 4:
                a = rng.choice(quiver.arrows)
                if a.target == r.source:
                    add({Path(a.source, (a.name,) + p.arrows): c for c, p in r.terms})
                elif a.source == r.target:
                    add({Path(p.source, p.arrows + (a.name,)): c for c, p in r.terms})
        else:
            r = rng.choice(out)
            same = [s for s in out if (s.length, s.source, s.target) == (r.length, r.source, r.target)]
            s = rng.choice(same)
            row = {}
            for k, rel in ((coeff(), r), (coeff(), s)):
                for c, p in rel.terms:
                    row[p] = row.get(p, 0) + k * c
            add(row)
    return out


def _random_quiver(rng):
    n = rng.randint(2, 4)
    vs = [str(i + 1) for i in range(n)]
    arrows = [(vs[i], vs[(i + 1) % n]) for i in range(n)]  # an oriented cycle
    arrows += [(rng.choice(vs), rng.choice(vs)) for _ in range(rng.randint(0, 2))]
    return Quiver(vs, [(f"x{k}", s, t) for k, (s, t) in enumerate(arrows)])


def _build_or_error(build, quiver, relations, max_path_len):
    try:
        return build(quiver, relations, max_path_len)
    except TiltbenchError as exc:
        return type(exc)


def _opposite_case(quiver, relations):
    """The quiver and relations of A^op, as ``algebra.opposite`` forms them."""
    q = quiver.opposite()
    return q, [Relation(q, [(c, Path(r.target, p.arrows[::-1])) for c, p in r.terms]) for r in relations]


def _assert_filtration_matches_reference(quiver, relations, max_path_len):
    """length_filtration raises what the raw-path reference raises, or gives
    its basis and nil length, the kept relations of ``_old_prune`` (the same
    objects in the same order), the reference's rewrites restricted to the
    columns NF_(n-1) * arrows, and the structure constants read straight
    from the reference's table of every raw path, which the prefix-first
    reducer also accepts.  Returns whether the relations were admissible."""
    try:
        basis, rewrite, nil_length, kept = length_filtration(quiver, relations, max_path_len)
    except TiltbenchError as exc:
        assert _build_or_error(_old_normal_forms, quiver, relations, max_path_len) is type(exc)
        return False
    old_basis, old_rewrite, old_nil_length = _old_normal_forms(quiver, relations, max_path_len)
    assert (basis, nil_length) == (old_basis, old_nil_length)
    old_kept = _old_prune(quiver, relations)
    assert len(kept) == len(old_kept) and all(x is y for x, y in zip(kept, old_kept))
    for n in range(1, nil_length + 1):
        columns = longer_paths(quiver, [p for p in basis if len(p) == n - 1])
        old_n = old_rewrite.get(n, {})
        assert rewrite[n] == {p: old_n[p] for p in columns if p in old_n}, n
    new = BasicAlgebra(quiver, relations, basis, rewrite, nil_length)
    old = BasicAlgebra(quiver, relations, old_basis, old_rewrite, old_nil_length)
    index = new.index
    for i, p in enumerate(basis):
        for j, q in enumerate(basis):
            path = Path(p.source, p.arrows + q.arrows)
            if p.target(quiver) != q.source or len(path) >= nil_length:
                expected = {}
            elif path in index:
                expected = {index[path]: 1}
            else:
                expected = {index[r]: c for r, c in old_rewrite[len(path)][path].items()}
            assert new.basis_product(i, j) == expected == old.basis_product(i, j)
    return True


def test_length_filtration_builds_the_reference_path_algebras():
    """The length filtration agrees with the raw-path reference, as
    ``_assert_filtration_matches_reference`` checks it, on the corpus
    algebras, every Kupisch series with up to 4 vertices and Loewy length 5,
    seeded larger ones, seeded random relations and the opposite of each."""
    algebras = [*corpus.corpus_algebras().values(), corpus.sec5_b_algebra()]
    series = all_kupisch_series() + seeded_kupisch_series(random.Random(25), 12, max_vertices=5, max_length=6)
    algebras += [corpus.kupisch_algebra(s) for s in series]
    cases = [(a.quiver, a.relations, 30) for a in algebras]
    rng = random.Random(8)
    for _ in range(30):
        q = _random_quiver(rng)
        cases.append((q, _random_relations(rng, q, rng.randint(3, 10)), 9))
    cases += [(*_opposite_case(q, rels), bound) for q, rels, bound in cases]
    admissible = sum(_assert_filtration_matches_reference(*case) for case in cases)
    assert 0 < len(cases) - admissible < 40


def test_each_length_eliminates_over_normal_forms_times_arrows(monkeypatch):
    """The elimination at length n >= 2 has one column per path of
    NF_(n-1) * arrows: on sec5_A 10 and 4 at lengths 2 and 3, besides its 6
    arrows at length 1, 20 columns where its 32 raw paths of length 1 to 3
    were; without its first relation 3 at each length from 3 on, where the
    raw paths of length 22 alone number 150 050."""
    widths = []
    longer = algebra.longer_paths

    def recording(quiver, paths):
        out = longer(quiver, paths)
        widths.append(len(out))
        return out

    monkeypatch.setattr(algebra, "longer_paths", recording)
    for a in [*corpus.corpus_algebras().values(), corpus.sec5_b_algebra()]:
        widths.clear()
        built = build_path_algebra(a.quiver, a.relations)
        expected = [
            sum(len(a.quiver.arrows_from[p.target(a.quiver)]) for p in built.basis if len(p) == n - 1)
            for n in range(2, built.nil_length + 1)
        ]
        assert widths == expected
    sec5 = corpus.sec5_algebra()
    widths.clear()
    build_path_algebra(sec5.quiver, sec5.relations)
    assert [len(sec5.quiver.arrows)] + widths == [6, 10, 4]
    widths.clear()
    with pytest.raises(NotAdmissible, match="still survive at length 30"):
        build_path_algebra(sec5.quiver, sec5.relations[1:])
    assert widths[:2] == [10, 6] and set(widths[2:]) == {3}


def test_prune_matches_per_candidate_route(monkeypatch):
    for name, q, candidates, kept in _end_candidates(monkeypatch):
        old = _old_prune(q, candidates)
        assert len(kept) == len(old) and all(x is y for x, y in zip(kept, old)), name
        for rels, equal in ((kept, True), (kept[:-1], False)):
            assert relation_ideals_equal(q, rels, candidates) is equal, name
            assert _old_ideals_equal(q, rels, candidates) is equal, name
    rng = random.Random(8)
    admissible = 0
    for _ in range(30):
        q = _random_quiver(rng)
        rels = _random_relations(rng, q, rng.randint(3, 10))
        try:
            kept = length_filtration(q, rels, 9)[3]
        except NotAdmissible:
            # no kept list; and at the default max_path_len the reference
            # route of the ideal comparison enumerates raw paths for seconds
            assert _build_or_error(_old_build_path_algebra, q, rels, 9) is NotAdmissible
            continue
        admissible += 1
        old = _old_prune(q, rels)
        assert len(kept) == len(old) and all(x is y for x, y in zip(kept, old))
        cases = [(kept, rels, True), (rels, kept, True)]
        # a minimal generating set without one member spans a smaller ideal,
        # compared when it is admissible, for the reason above
        drop = rng.randrange(len(kept))
        smaller = kept[:drop] + kept[drop + 1:]
        if not isinstance(_build_or_error(build_path_algebra, q, smaller, 9), type):
            cases.append((smaller, rels, False))
        for gens, others, equal in cases:
            assert relation_ideals_equal(q, gens, others) is equal
            assert _old_ideals_equal(q, gens, others) is equal
    assert admissible >= 15


def _inadmissible_random_case():
    """(quiver, relations, cubes): the seeded random case of 3 vertices, 5
    arrows and 5 relations that is not admissible, on which the raw-path
    reference enumerates paths up to length 29 for seconds at the default
    bound, and every path of length 3 as a monomial relation."""
    rng = random.Random(8)
    for _ in range(23):
        q = _random_quiver(rng)
        rels = _random_relations(rng, q, rng.randint(3, 10))
    assert (len(q.vertices), len(q.arrows), len(rels)) == (3, 5, 5)
    with pytest.raises(NotAdmissible):
        length_filtration(q, rels, 9)
    return q, rels, [monomial_relation(q, list(p.arrows)) for p in _paths_of_length(q, 3)]


def test_relation_ideals_equal_filters_the_second_list_to_the_first_nil_length(monkeypatch):
    q, rels, cubes = _inadmissible_random_case()
    nil = length_filtration(q, rels + cubes)[2]
    bounds = []

    def recording(quiver, relations, max_path_len=30):
        bounds.append(max_path_len)
        return length_filtration(quiver, relations, max_path_len)

    monkeypatch.setattr(presentation, "length_filtration", recording)
    start = time.perf_counter()
    assert not relation_ideals_equal(q, rels + cubes, rels)
    assert time.perf_counter() - start < 1
    # an equal pair is filtered to exactly the first nil length, and the
    # bound is tight: one length less is not admissible
    assert relation_ideals_equal(q, rels + cubes, cubes + rels)
    # the first list is filtered under the first common bound, 4
    assert bounds == [4, nil, 4, nil]
    with pytest.raises(NotAdmissible):
        length_filtration(q, cubes + rels, nil - 1)


def test_relation_ideals_equal_filters_both_lists_under_one_bound(monkeypatch):
    q, rels, cubes = _inadmissible_random_case()
    nil = length_filtration(q, rels + cubes)[2]
    bounds = []

    def recording(quiver, relations, max_path_len=30):
        bounds.append((len(relations), max_path_len))
        return length_filtration(quiver, relations, max_path_len)

    monkeypatch.setattr(presentation, "length_filtration", recording)
    # the admissible list first or second: False in under a second either
    # way, and neither list is filtered beyond the bound 4
    for first, second, expected in (
        (rels + cubes, rels, [(len(rels + cubes), 4), (len(rels), nil)]),
        (rels, rels + cubes, [(len(rels), 4), (len(rels + cubes), 4)]),
    ):
        bounds.clear()
        start = time.perf_counter()
        assert not relation_ideals_equal(q, first, second)
        assert time.perf_counter() - start < 1
        assert bounds == expected
    # neither list admissible (a cycle without relations): the common bound
    # doubles up to the default
    cycle = corpus.fig1_quiver()
    bounds.clear()
    assert not relation_ideals_equal(cycle, [], [])
    assert bounds == [(0, b) for b in (4, 8, 16, 30) for _ in range(2)]


def _count_eliminations(monkeypatch):
    """The number of rows of each elimination the length filtration runs."""
    sizes = []
    sparse_rref = algebra.sparse_rref

    def counted(rows):
        sizes.append(len(rows))
        return sparse_rref(rows)

    monkeypatch.setattr(algebra, "sparse_rref", counted)
    return sizes


def test_pruning_builds_one_span_per_path_length(monkeypatch):
    sec5 = corpus.sec5_algebra()
    end = TiltingContext(sec5, construct_tpq(sec5, ["1"], ["3", "4"], 1, 1).complex).end_data()
    seen = []

    def recording(quiver, relations, max_path_len):
        seen.append(list(relations))
        return length_filtration(quiver, relations, max_path_len)

    monkeypatch.setattr(presentation, "length_filtration", recording)
    sizes = _count_eliminations(monkeypatch)
    pres = quiver_presentation(end.abstract, list(end.presentation.vertex_idempotents.values()))
    [candidates] = seen
    assert len(candidates) == 22 and sorted({r.length for r in candidates}) == [2, 3, 4]
    assert len(pres.relations) == 5
    # one elimination per path length, 1 to 4, prunes the candidates and
    # rebuilds the path algebra together; length 1 has no row
    assert len(sizes) == pres.algebra.nil_length == 4
    assert sizes[0] == 0


def test_presentations_match_does_not_rescale_arrows():
    # the commutative and the anticommutative square are isomorphic by
    # c -> -c, but the matcher only permutes vertices
    q = Quiver(["1", "2", "3", "4"], [("a", "1", "2"), ("b", "2", "4"), ("c", "1", "3"), ("d", "3", "4")])
    ab, cd = Path("1", ("a", "b")), Path("1", ("c", "d"))
    commuting = [Relation(q, [(1, ab), (-1, cd)])]
    anticommuting = [Relation(q, [(1, ab), (1, cd)])]
    assert presentations_match(q, commuting, q, commuting) is not None
    assert presentations_match(q, commuting, q, anticommuting) is None
    rescaled = [Relation(q, [(c if p == ab else -c, p) for c, p in r.terms]) for r in commuting]
    assert relation_ideals_equal(q, rescaled, anticommuting)
