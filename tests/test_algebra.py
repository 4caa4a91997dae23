"""Path-algebra construction checked against an independent brute-force
enumeration of words modulo the relations."""

from fractions import Fraction

import pytest

from tiltbench import corpus
from tiltbench.algebra import build_path_algebra
from tiltbench.errors import NotAdmissible, TiltbenchError
from tiltbench.quiver import Path, Quiver, monomial_relation, relation_from_words


def brute_force_monomial_dim(quiver, zero_words, max_len=12):
    """Count words with no zero subword: an oracle for monomial algebras."""
    zero_words = [tuple(w) for w in zero_words]
    count = {v: 0 for v in quiver.vertices}
    frontier = [(v, ()) for v in quiver.vertices]
    total = 0
    while frontier:
        nxt = []
        for start, word in frontier:
            total += 1
            count[start] += 1
            end = quiver.arrow_by_name[word[-1]].target if word else start
            for a in quiver.arrows_from[end]:
                w2 = word + (a.name,)
                if len(w2) > max_len:
                    raise AssertionError("oracle ran away")
                if any(w2[i : i + len(z)] == z for z in zero_words for i in range(len(w2) - len(z) + 1)):
                    continue
                nxt.append((start, w2))
        frontier = nxt
    return total, count


def test_fig1_dimension_and_projective_dims():
    q = corpus.fig1_quiver()
    zero = [("alpha", "beta", "gamma"), ("beta", "gamma", "alpha", "beta"), ("gamma", "alpha", "beta", "gamma")]
    total, per_vertex = brute_force_monomial_dim(q, zero)
    assert total == 11
    assert (per_vertex["1"], per_vertex["2"], per_vertex["3"]) == (3, 4, 4)

    a = corpus.fig1_algebra()
    assert a.dim == 11
    dims = [len([i for i in range(a.dim) if a.source[i] == v]) for v in q.vertices]
    assert dims == [3, 4, 4]


def test_fig2_dimension_and_cartan():
    a = corpus.fig2_algebra()
    assert a.dim == 9
    cm = a.cartan_matrix()
    assert [[int(x) for x in row] for row in cm.data] == [[1, 1, 0], [1, 2, 1], [0, 1, 2]]


def test_sec5_dimension_and_cartan():
    a = corpus.sec5_algebra()
    assert a.dim == 13
    cm = a.cartan_matrix()
    assert [[int(x) for x in row] for row in cm.data] == [
        [2, 1, 0, 0],
        [1, 1, 1, 0],
        [0, 1, 2, 1],
        [0, 0, 1, 2],
    ]
    # row sums are the projective dimensions 3, 3, 4, 3
    assert [sum(int(x) for x in row) for row in cm.data] == [3, 3, 4, 3]


def test_sec5_b_dimension():
    a = corpus.sec5_b_algebra()
    assert a.dim == 15
    cm = a.cartan_matrix()
    assert [[int(x) for x in row] for row in cm.data] == [
        [2, 1, 0, 0],
        [1, 1, 1, 1],
        [0, 1, 2, 1],
        [0, 1, 1, 2],
    ]


def test_one_vertex_no_arrows():
    q = Quiver(["v"], [])
    a = build_path_algebra(q, [])
    assert a.dim == 1
    a.check_associative()
    a.check_idempotents([a.one])


@pytest.mark.parametrize("name", ["fig1", "fig2", "sec5"])
def test_algebra_invariants(name):
    a = corpus.corpus_algebras()[name]
    a.check_associative()
    a.check_idempotents([{i: 1} for i in a.idempotent_index.values()])
    # radical basis = nontrivial paths; cross-checked against the trace form
    rad = a.radical_basis()
    assert len(rad) == a.dim - len(a.quiver.vertices)


def test_fig1_radical_dim_is_eight():
    a = corpus.fig1_algebra()
    assert len(a.radical_basis()) == 8


def test_not_admissible_detected():
    q = Quiver(["1"], [("loop", "1", "1")])
    with pytest.raises(NotAdmissible):
        build_path_algebra(q, [], max_path_len=10)
    a = build_path_algebra(q, [monomial_relation(q, ["loop"] * 2)])
    assert a.dim == 2


def test_corner_inverse():
    a = corpus.fig1_algebra()
    # unit in the corner at vertex 2: e_2 + (path 2->2 of length 3)
    nil = a.paths_between("2", "2")
    nontrivial = [i for i in nil if len(a.basis[i]) > 0]
    u = {a.idempotent_index["2"]: 1, nontrivial[0]: 3}
    inv = a.corner_inverse(u, "2")
    e2 = {a.idempotent_index["2"]: 1}
    assert a.mul(u, inv) == e2
    assert a.mul(inv, u) == e2


def test_max_path_len_edge_cases():
    # no arrows: no path of length 1, so the nil length is 1 whatever the bound
    q = Quiver(["1", "2"], [])
    a = build_path_algebra(q, [], max_path_len=1)
    assert (a.dim, a.nil_length) == (2, 1)
    # arrows survive at length 1
    line = Quiver(["1", "2"], [("a", "1", "2")])
    with pytest.raises(NotAdmissible, match="survive at length 1"):
        build_path_algebra(line, [], max_path_len=1)
    assert build_path_algebra(line, [], max_path_len=2).nil_length == 2
    for bad in (0, -3):
        with pytest.raises(TiltbenchError, match=f"max_path_len must be at least 1, got {bad}"):
            build_path_algebra(q, [], max_path_len=bad)


def test_kupisch_algebra_builds_any_loewy_length():
    # the default path-length bound of 30 would stop a Loewy length of 31
    a = corpus.kupisch_algebra([31, 31])
    assert (a.dim, a.nil_length) == (62, 31)
    with pytest.raises(NotAdmissible):
        build_path_algebra(a.quiver, a.relations)


def test_relation_sums_repeated_paths_before_its_nonzero_check():
    # terms on one path that cancel are refused like an all-zero coefficient,
    # on a line (which would otherwise keep a vacuous relation) and on a loop
    # (which would otherwise fail only after the whole length filtration)
    line = Quiver(["1", "2", "3"], [("a", "1", "2"), ("b", "2", "3")])
    loop = Quiver(["1"], [("x", "1", "1")])
    for q, word in ((line, ["a", "b"]), (loop, ["x", "x"])):
        with pytest.raises(TiltbenchError, match="relation has no nonzero terms"):
            relation_from_words(q, [(1, word), (-1, word)])
    # repeated paths that do not cancel are summed in first-occurrence order,
    # each sum a canonical scalar
    square = Quiver(["1", "2", "3", "4"], [("a", "1", "2"), ("b", "2", "4"), ("c", "1", "3"), ("d", "3", "4")])
    half = Fraction(1, 2)
    r = relation_from_words(square, [(half, ["c", "d"]), (1, ["a", "b"]), (half, ["c", "d"]), (2, ["a", "b"])])
    assert r.terms == ((1, Path("1", ("c", "d"))), (3, Path("1", ("a", "b"))))
    assert type(r.terms[0][0]) is int
    assert build_path_algebra(square, [r]).dim == 9
