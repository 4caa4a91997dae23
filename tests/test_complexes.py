import pytest

from tiltbench import corpus
from tiltbench.complexes import (
    ChainMapC,
    ProjComplex,
    homology,
    homotopy_hom,
    minimize,
    stalk_complex,
    regular_stalk,
)
from tiltbench.errors import TiltbenchError
from tiltbench.linalg import _sparse, sparse_row_space
from tiltbench.reps import EntryMap


def fig1_T():
    return corpus.fig1_tilting_complex()


def test_validate_fig1_T():
    t = fig1_T()
    rep = t.validate()
    assert rep == {"d_squared_zero": True, "is_radical": True}


def test_validate_stalk_and_unit_differential():
    a = corpus.fig1_algebra()
    stalk = stalk_complex(a, ["1"], 0)
    assert stalk.validate() == {"d_squared_zero": True, "is_radical": True}
    unit = ProjComplex(a, {0: ["1"], 1: ["1"]}, {0: [[{a.idempotent_index["1"]: 1}]]})
    rep = unit.validate()
    assert rep["d_squared_zero"] is True
    assert rep["is_radical"] is False


def test_shift_convention():
    a = corpus.fig1_algebra()
    stalk = stalk_complex(a, ["1"], 0)
    shifted = stalk.shift(1)
    assert shifted.term(-1) == ["1"]
    assert shifted.term(0) == []


def test_end_dimension_of_fig1_T():
    t = fig1_T()
    end = homotopy_hom(t, t, 0)
    assert end.dim == 9


def test_self_orthogonality_of_fig1_T():
    t = fig1_T()
    for n in (-2, -1, 1, 2):
        assert homotopy_hom(t, t, n).dim == 0


def test_stalk_shifted_homs_vanish():
    a = corpus.fig1_algebra()
    stalk = stalk_complex(a, ["1"], 0)
    assert homotopy_hom(stalk, stalk, 1).dim == 0
    assert homotopy_hom(stalk, stalk, 0).dim == 1


def test_regular_stalk_end_dim_is_algebra_dim():
    for a in corpus.corpus_algebras().values():
        stalk = regular_stalk(a)
        assert homotopy_hom(stalk, stalk, 0).dim == a.dim


def test_minimize_cone_of_identity():
    a = corpus.fig1_algebra()
    cone = ProjComplex(a, {0: ["2"], 1: ["2"]}, {0: [[{a.idempotent_index["2"]: 1}]]})
    m, eq = minimize(cone)
    assert m.is_zero()
    assert eq.verify()


def test_minimize_already_radical_is_identity():
    t = fig1_T()
    m, eq = minimize(t)
    assert m.terms == t.terms
    assert m.diffs.keys() == t.diffs.keys()
    assert eq.verify()
    # idempotence: minimizing again changes nothing
    m2, _ = minimize(m)
    assert m2.terms == m.terms


def test_minimize_padded_complex():
    a = corpus.fig1_algebra()
    t = fig1_T()
    cone = ProjComplex(a, {-1: ["3"], 0: ["3"]}, {-1: [[{a.idempotent_index["3"]: 1}]]})
    padded = t.direct_sum(cone)
    m, eq = minimize(padded)
    assert eq.verify()
    assert {d: sorted(m.term(d)) for d in m.degrees()} == {
        d: sorted(t.term(d)) for d in t.degrees()
    }
    # homotopy hom dims are invariant under minimization
    for n in (-1, 0, 1):
        assert homotopy_hom(padded, padded, n).dim == homotopy_hom(m, m, n).dim


def test_homology_of_stalk_and_cone():
    a = corpus.fig1_algebra()
    stalk = regular_stalk(a)
    h0 = homology(stalk, 0)
    assert h0.total_dim() == a.dim
    assert homology(stalk, 1).total_dim() == 0
    cone = ProjComplex(a, {0: ["2"], 1: ["2"]}, {0: [[{a.idempotent_index["2"]: 1}]]})
    assert homology(cone, 0).total_dim() == 0
    assert homology(cone, 1).total_dim() == 0


def test_homology_of_fig1_T_at_minus_one():
    from tiltbench.reps import projective

    a = corpus.fig1_algebra()
    t = fig1_T()
    # kernel of the induced map on P(2)^2 + P(3): total dim 12 minus rank
    sums, dmaps = t.realize()
    f = dmaps[-1]
    rank = sum(len(sparse_row_space(_sparse(f.mats[v].data))) for v in a.quiver.vertices)
    h = homology(t, -1)
    assert h.total_dim() == 12 - rank
    # degree 0 homology is the cokernel
    h0 = homology(t, 0)
    assert h0.total_dim() == projective(a, "1").total_dim() - rank


def test_chain_map_composition_matches_realization():
    t = fig1_T()
    end = homotopy_hom(t, t, 0)
    reps = end.class_reps()
    for u in reps[:3]:
        for v in reps[:3]:
            w = u.then(v)
            assert w.is_chain_map()
            ru = u.realize()
            rv = v.realize()
            rw = w.realize()
            for d in rw:
                assert rw[d].mats == ru[d].then(rv[d]).mats


def test_is_chain_map_sees_a_square_through_an_empty_term():
    """Over fig1 with alpha the arrow 1 -> 2, neither map below is a chain
    map, although one side of its failing square passes through a term that
    is 0; the projection of P(2) -> P(1) onto its degree-0 term is one."""
    a = corpus.fig1_algebra()
    alpha = {a.paths_between("1", "2")[0]: 1}
    e1, e2 = ({a.idempotent_index[v]: 1} for v in ("1", "2"))
    stalk_p2 = stalk_complex(a, ["2"], 0)
    stalk_p1 = stalk_complex(a, ["1"], 1)
    arrow = ProjComplex(a, {0: ["2"], 1: ["1"]}, {0: [[alpha]]})
    # f^0 then d_y is alpha, and d_x is 0 into the missing degree 1 of x
    assert not ChainMapC(stalk_p2, arrow, {0: [[e2]]}).is_chain_map()
    # d_x then f^1 is alpha, and f^0 maps into the missing degree 0 of y
    assert not ChainMapC(arrow, stalk_p1, {1: [[e1]]}).is_chain_map()
    assert ChainMapC(arrow, stalk_p2, {0: [[e2]]}).is_chain_map()


def test_chain_maps_between_stalks_of_different_projectives_do_not_compose():
    """Over fig1 the identities of the stalks P(1) and P(2) are 1x1 in degree
    0, but the middle labels differ, so their composite is refused, not 0."""
    a = corpus.fig1_algebra()
    one = ChainMapC.identity(stalk_complex(a, ["1"]))
    two = ChainMapC.identity(stalk_complex(a, ["2"]))
    with pytest.raises(TiltbenchError, match=r"\['1'\] -> \['1'\] then \['2'\] -> \['2'\]"):
        one.then(two)


def test_zero_chain_maps_between_different_complexes_are_refused():
    """A zero chain map has no entry map to catch the mismatch, so ``then``,
    ``+`` and ``-`` check the complexes' terms, naming the degree; a copy of
    a complex with the same terms still meets it."""
    a = corpus.fig1_algebra()
    p1, p2 = stalk_complex(a, ["1"]), stalk_complex(a, ["2"])
    z1, z2 = ChainMapC.zero(p1, p1), ChainMapC.zero(p2, p2)
    with pytest.raises(TiltbenchError, match=r"compose in degree 0: \['1'\] -> \['1'\] then \['2'\] -> \['2'\]"):
        z1.then(z2)
    for combine in (ChainMapC.__add__, ChainMapC.__sub__):
        with pytest.raises(TiltbenchError, match=r"add in degree 0: \['1'\] -> \['1'\] and \['2'\] -> \['2'\]"):
            combine(z1, z2)
    shifted = ChainMapC.zero(p1, p1.shift(1))
    with pytest.raises(TiltbenchError, match=r"add in degree -1: \[\] -> \['1'\] and \[\] -> \[\]"):
        shifted + z1
    copy = stalk_complex(a, ["1"])
    one = ChainMapC.identity(p1)
    assert one.then(ChainMapC.identity(copy)).target is copy
    assert (one + ChainMapC.zero(p1, copy)).is_identity()


def test_entry_maps_whose_labels_do_not_meet_are_refused():
    """Equal lengths are not enough: a sum, difference or product of entry
    maps needs equal labels, and the rows must fit the labels."""
    a = corpus.fig1_algebra()
    e1, e2 = EntryMap.identity(a, ["1"]), EntryMap.identity(a, ["2"])
    for combine in (EntryMap.then, EntryMap.__add__, EntryMap.__sub__):
        with pytest.raises(TiltbenchError):
            combine(e1, e2)
    with pytest.raises(TiltbenchError):
        EntryMap(a, ["1"], ["2"], [[{}, {}]])
    assert e1 + e1 == e1.scale(2) and (e1 - e1).is_zero()


def test_a_product_through_the_empty_sum_keeps_its_full_shape():
    """A 2x0 map then a 0x3 map is the 2x3 zero, and adding it to a 2x3 map
    gives that map back, from either side."""
    a = corpus.fig1_algebra()
    src, tgt = ["2", "3"], ["1", "1", "2"]
    product = EntryMap.zero(a, src, []).then(EntryMap.zero(a, [], tgt))
    assert product == EntryMap.zero(a, src, tgt)
    assert [len(row) for row in product.rows] == [3, 3]
    alpha = {a.paths_between("1", "2")[0]: 1}
    f = EntryMap(a, src, tgt, [[alpha, {}, {a.idempotent_index["2"]: 1}], [{}, {}, {}]])
    assert product + f == f and f + product == f
    assert f - product == f and not (f - product).is_zero()
    assert list(f.nonzero()) == [(0, 0, alpha), (0, 2, {a.idempotent_index["2"]: 1})]
