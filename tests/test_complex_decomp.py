import gc
import random
import types
import weakref

import pytest

from tiltbench import complex_decomp, corpus
from tiltbench.complex_decomp import (
    ChainEndData,
    complexes_isomorphic,
    decompose_complex,
    split_idempotent,
    strictify_idempotent,
)
from tiltbench.complexes import (
    ChainMapC,
    ProjComplex,
    _differential,
    homotopy_hom,
    minimize,
    regular_stalk,
    stalk_complex,
)
from tiltbench.decompose import EndAlgebra
from tiltbench.errors import DecompositionError, NotRadical
from tiltbench.quiver import path_from_arrows
from tiltbench.reps import EntryMap, regular_module
from tiltbench.tilting import TiltingContext, construct_tpq, maximal_nu_stable

from chain_maps import decomposition_by_block_maps, minimize_by_closed_form
from kupisch import all_kupisch_series
from test_decompose import _ZeroRandom, _count_thens
from test_homotopy_products import _complexes
from test_tilting import linear_a3_apr_complex


def test_decompose_fig1_T():
    t = corpus.fig1_tilting_complex()
    summands, _, _ = decompose_complex(t)
    assert sorted(mult for _, mult in summands) == [1, 1, 1]
    shapes = sorted(
        tuple((d, tuple(sorted(s.term(d)))) for d in s.degrees()) for s, _ in summands
    )
    assert shapes == [
        ((-1, ("2",)),),
        ((-1, ("2",)), (0, ("1",))),
        ((-1, ("3",)),),
    ]


def test_decompose_regular_stalk():
    for a in corpus.corpus_algebras().values():
        stalk = regular_stalk(a)
        summands, _, _ = decompose_complex(stalk)
        assert len(summands) == len(a.quiver.vertices)
        assert all(mult == 1 for _, mult in summands)


def test_decompose_doubled_complex():
    t = corpus.fig1_tilting_complex()
    doubled = t.direct_sum(t)
    summands, includes, projects = decompose_complex(doubled)
    assert sorted(mult for _, mult in summands) == [2, 2, 2]
    assert len(includes) == len(projects) == 6


def _certificate_cases():
    fig1_t = corpus.fig1_tilting_complex()
    cases = [("A3 APR", linear_a3_apr_complex()[1]), ("fig1 T + T", fig1_t.direct_sum(fig1_t))]
    return cases + [(name, t) for name, _, t in _complexes()]


CERTIFICATE_CASES = _certificate_cases()


@pytest.mark.parametrize("name, c", CERTIFICATE_CASES, ids=[name for name, _ in CERTIFICATE_CASES])
def test_per_copy_maps_match_the_block_route(name, c):
    summands, includes, projects = decompose_complex(c)
    ref_summands, ref_includes, ref_projects = decomposition_by_block_maps(c)
    assert [(s.terms, s.diffs, mult) for s, mult in summands] == [
        (s.terms, s.diffs, mult) for s, mult in ref_summands
    ]
    copies = [s for s, mult in summands for _ in range(mult)]
    assert len(includes) == len(projects) == len(copies)
    for rep, inc, prj, ref_inc, ref_prj in zip(copies, includes, projects, ref_includes, ref_projects):
        assert inc.source is rep and prj.target is rep
        assert inc.target is c and prj.source is c
        assert inc.mats == ref_inc.mats
        assert prj.mats == ref_prj.mats


def _raw_tpq_complexes(rng, count):
    """(name, construct_tpq(...).raw) for sec5's T_{1},{3,4} and, over count
    Kupisch series drawn with rng whose E is not empty, for P the
    sigma-orbit of a drawn vertex of E, Q empty and r = 1, 2."""
    sec5 = corpus.sec5_algebra()
    out = [("sec5 T_{1},{3,4}", construct_tpq(sec5, ["1"], ["3", "4"], 1, 1).raw)]
    for series in rng.sample(all_kupisch_series(), count):
        a = corpus.kupisch_algebra(series)
        report = maximal_nu_stable(a)
        if not report.e_labels:
            continue
        orbit = [rng.choice(report.e_labels)]
        while report.nu_image[orbit[-1]] != orbit[0]:
            orbit.append(report.nu_image[orbit[-1]])
        for r in (1, 2):
            out.append((f"{series} P={orbit} r={r}", construct_tpq(a, orbit, [], r, 1).raw))
    return out


def test_retracts_match_the_closed_form_cancellation():
    """minimize and decompose_complex give what they gave when every
    cancellation wrote its retract's differential and maps out by degree.
    Entries are dicts, so == compares them whatever their key order."""
    cases = _raw_tpq_complexes(random.Random(35), 48)
    assert len(cases) > 50
    for name, raw in cases:
        m, eq = minimize(raw)
        ref_m, ref_eq = minimize_by_closed_form(raw)
        assert (m.terms, m.diffs) == (ref_m.terms, ref_m.diffs), name
        assert eq.p.mats == ref_eq.p.mats and eq.i.mats == ref_eq.i.mats, name
        summands, includes, projects = decompose_complex(raw)
        ref_summands, ref_includes, ref_projects = decomposition_by_block_maps(raw)
        assert [(s.terms, s.diffs, mult) for s, mult in summands] == [
            (s.terms, s.diffs, mult) for s, mult in ref_summands
        ], name
        assert [f.mats for f in includes] == [f.mats for f in ref_includes], name
        assert [f.mats for f in projects] == [f.mats for f in ref_projects], name


def _tamper(monkeypatch, change):
    """Let ``_split_component`` hand its pieces through ``change`` first."""
    split = complex_decomp._split_component

    def tampered(*args):
        return change(split(*args))

    monkeypatch.setattr(complex_decomp, "_split_component", tampered)


def test_a_wrong_projection_fails_the_certificate(monkeypatch):
    _, t = linear_a3_apr_complex()
    # twice the projection: include then project is twice the identity
    _tamper(monkeypatch, lambda pieces: [(p, inc, prj.scale(2)) for p, inc, prj in pieces])
    with pytest.raises(DecompositionError, match="include 0 then project 0"):
        decompose_complex(t)


def test_contractible_complex_decomposes_empty():
    # no copies: the stacked maps go through the zero complex, and the
    # identity of the cone of P(1) -> P(1) is null-homotopic
    a = corpus.fig1_algebra()
    cone = ProjComplex(a, {0: ["1"], 1: ["1"]}, {0: [[{a.idempotent_index["1"]: 1}]]})
    assert decompose_complex(cone) == ([], [], [])


def test_an_off_diagonal_block_fails_the_certificate(monkeypatch):
    # piece 0's inclusion picks up a chain map through piece 1: include 0
    # then project 0 is still the identity, include 0 then project 1 is not
    # zero
    group = complex_decomp.group_copies

    def coupled(pieces, *rest):
        pieces = list(pieces)
        (p0, i0, q0), (p1, i1, _) = pieces[:2]
        space = homotopy_hom(p0, p1)
        [g] = [space.vector_to_chain_map(v) for v in space.chain_vectors]
        pieces[0] = (p0, i0 + g.then(i1), q0)
        return group(pieces, *rest)

    monkeypatch.setattr(complex_decomp, "group_copies", coupled)
    with pytest.raises(DecompositionError, match="include 0 then project 1"):
        decompose_complex(regular_stalk(corpus.fig1_algebra()))


def test_complex_certificate_compositions_grow_linearly(monkeypatch):
    a = corpus.kupisch_algebra([4] * 8)
    c = regular_stalk(a)
    calls = _count_thens(monkeypatch, ChainMapC)
    _, includes, _ = decompose_complex(c)
    # two check the certificate: "I then P" for all include/project blocks
    # and "P then I" for the sum of the copies, where copies^2 + copies
    # compositions did; c is radical, so no piece's maps go through the
    # identity equivalence of its minimization
    assert (len(includes), len(calls)) == (8, 2)
    # a cone of P(1) -> P(1) is cancelled: two compositions per piece carry
    # its maps through the minimization
    cone = ProjComplex(a, {0: ["1"], 1: ["1"]}, {0: [[{a.idempotent_index["1"]: 1}]]})
    calls.clear()
    _, includes, _ = decompose_complex(c.direct_sum(cone))
    copies = len(includes)
    assert (copies, len(calls)) == (8, 2 * copies + 2)


def test_a_missing_copy_fails_the_certificate(monkeypatch):
    _, t = linear_a3_apr_complex()
    # drop the stalk P(1): the projections then include no longer sum to id
    _tamper(monkeypatch, lambda pieces: [x for x in pieces if x[0].terms != {0: ["1"]}])
    with pytest.raises(DecompositionError, match="up to homotopy"):
        decompose_complex(t)


def test_split_identity_and_zero_idempotent():
    t = corpus.fig1_tilting_complex()
    ident = ChainMapC.identity(t)
    whole = split_idempotent(t, ident)
    assert {d: sorted(whole.term(d)) for d in whole.degrees()} == {
        d: sorted(t.term(d)) for d in t.degrees()
    }
    zero = ChainMapC.zero(t, t)
    nothing = split_idempotent(t, zero)
    assert nothing.is_zero()


def test_split_projection_onto_free_summand():
    a = corpus.fig1_algebra()
    t = corpus.fig1_tilting_complex()
    # projection onto the second P(2) summand in degree -1 (zero column)
    e2 = a.idempotent_index["2"]
    mats = {-1: [[{}, {}, {}], [{}, {e2: 1}, {}], [{}, {}, {}]]}
    e = ChainMapC(t, t, mats)
    assert e.is_chain_map()
    piece = split_idempotent(t, e)
    assert piece.degrees() == [-1]
    assert piece.term(-1) == ["2"]


def test_strictify_rejects_non_idempotent():
    import pytest

    from tiltbench.errors import NotIdempotent

    a = corpus.fig1_algebra()
    t = corpus.fig1_tilting_complex()
    # twice the projection onto the free P(2) summand: a chain map whose
    # class squares to four times itself, hence not idempotent
    e2 = a.idempotent_index["2"]
    bad = ChainMapC(t, t, {-1: [[{}, {}, {}], [{}, {e2: 2}, {}], [{}, {}, {}]]})
    assert bad.is_chain_map()
    with pytest.raises(NotIdempotent):
        strictify_idempotent(t, bad)


def test_strictify_lifts_an_idempotent_up_to_a_null_homotopy():
    """On fig1's T, projects[0] then includes[0] plus the first null-homotopic
    chain map of the Hom complex is idempotent only up to homotopy:
    strictification takes a Newton step and returns a strict idempotent in
    the same class."""
    t = corpus.fig1_tilting_complex()
    _, includes, projects = decompose_complex(t)
    space = homotopy_hom(t, t, 0)
    rows = ({space._pos[x]: c for x, c in image.items()} for _, image in _differential(t, space.y, -1))
    null = next(row for row in rows if row)
    e = projects[0].then(includes[0]) + space.vector_to_chain_map(null)
    assert space.is_null(e.then(e) - e) and not (e.then(e) - e).is_zero()
    strict = strictify_idempotent(t, e)
    assert (strict.then(strict) - strict).is_zero()
    assert space.is_null(strict - e) and not (strict - e).is_zero()


def test_a_support_component_splits_by_its_primitive_idempotents(monkeypatch):
    """Over fig1, P(2) -> P(1) + P(1) with both entries alpha is one support
    component whose End has two primitive idempotents: it splits into
    (P(2) -alpha-> P(1)) + P(1)."""
    a = corpus.fig1_algebra()
    alpha = a.index[path_from_arrows(a.quiver, ["alpha"])]
    c = ProjComplex(a, {-1: ["2"], 0: ["1", "1"]}, {-1: [[{alpha: 1}, {alpha: 1}]]})
    split = complex_decomp._split_component
    components = []

    def recording(sub, incl, proj):
        pieces = split(sub, incl, proj)
        components.append((sub.terms, [piece.terms for piece, _, _ in pieces]))
        return pieces

    monkeypatch.setattr(complex_decomp, "_split_component", recording)
    summands, _, _ = decompose_complex(c)
    assert components == [({-1: ["2"], 0: ["1", "1"]}, [{-1: ["2"], 0: ["1"]}, {0: ["1"]}])]
    assert [(s.terms, s.diffs, mult) for s, mult in summands] == [
        ({-1: ["2"], 0: ["1"]}, {-1: EntryMap(a, ["2"], ["1"], [[{alpha: 1}]])}, 1),
        ({0: ["1"]}, {}, 1),
    ]


def test_complexes_isomorphic_positive_and_negative():
    a = corpus.fig1_algebra()
    t = corpus.fig1_tilting_complex()
    pair = complexes_isomorphic(t, t)
    assert pair is not None
    f, g = pair
    assert f.then(g).is_identity()
    s2 = stalk_complex(a, ["2"], 0)
    s3 = stalk_complex(a, ["3"], 0)
    assert complexes_isomorphic(s2, s3) is None
    assert complexes_isomorphic(s2, s2.shift(0)) is not None


def test_complexes_isomorphic_draws_no_random_maps(monkeypatch):
    # were isomorphisms searched by random draws, every draw would be 0; the
    # pairs below have no invertible basis map, so random search alone
    # could not find their isomorphisms
    monkeypatch.setattr(complex_decomp, "random", types.SimpleNamespace(Random=_ZeroRandom), raising=False)
    a = corpus.fig1_algebra()
    x, y = stalk_complex(a, ["1"], 0), stalk_complex(a, ["2"], 1)
    t, p1 = corpus.fig1_tilting_complex(), stalk_complex(a, ["1"], 0)
    tt, p11 = t.direct_sum(t), p1.direct_sum(p1)
    for m, n in [(x.direct_sum(y), y.direct_sum(x)), (tt, tt), (p11, p11)]:
        f, g = complexes_isomorphic(m, n)
        assert f.is_chain_map() and g.is_chain_map()
        assert f.then(g).is_identity() and g.then(f).is_identity()
    # the same labels joined by a nonzero differential P(1) -> P(2)
    cone = ProjComplex(a, {0: ["1"], 1: ["2"]}, {0: [[{a.paths_between("2", "1")[0]: 1}]]})
    assert cone.is_radical() and complexes_isomorphic(x.direct_sum(y), cone) is None


def test_complexes_isomorphic_refuses_a_non_radical_complex():
    a = corpus.sec5_algebra()
    raw = construct_tpq(a, ["1"], ["3", "4"], 1, 1).raw
    assert not raw.is_radical()
    for m, n in [(raw, raw), (raw, regular_stalk(a)), (regular_stalk(a), raw)]:
        with pytest.raises(NotRadical):
            complexes_isomorphic(m, n)


def test_chain_end_data_identity():
    t = corpus.fig1_tilting_complex()
    data = ChainEndData(t)
    one = data.one
    assert data.element(one).is_identity()
    sq = data.mul(one, one)
    assert sq == one


def test_endomorphism_algebras_are_freed_without_the_cyclic_gc():
    a = corpus.fig1_algebra()
    gc.disable()
    try:
        refs = []
        end_t = TiltingContext(a, corpus.fig1_tilting_complex(a)).end_data().abstract
        for alg in (EndAlgebra(regular_module(a)), ChainEndData(regular_stalk(a)), end_t):
            alg.mul(alg.one, alg.one)  # fill part of the product table
            refs.append(weakref.ref(alg))
        del alg, end_t
        assert [r() for r in refs] == [None, None, None]
    finally:
        gc.enable()
