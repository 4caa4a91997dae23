"""Built-in example algebras and complexes used by the test suite and demos.

Three algebras ship with the package:

* ``fig1``: three vertices on a cycle ``1 -a-> 2 -b-> 3 -c-> 1`` with the
  monomial relations ``abc = bcab = cabc = 0`` (dimension 11).
* ``fig2``: three vertices ``1 <-> 2 <-> 3`` with relations
  ``ac = db = ab = dcd = ba - cd = 0`` (dimension 9).  This is the
  endomorphism algebra of the two-term tilting complex over ``fig1``.
* ``sec5``: four vertices ``1 <-> 2 <-> 3 <-> 4`` with seven relations
  (dimension 13); its projectives have Loewy structures 1/2/1, 2/{1,3},
  3/{2,4}/3 and 4/3/4.

``fig1_tilting_complex`` is the two-term complex
``0 -> P(2) + P(2) + P(3) -> P(1) -> 0`` whose only nonzero differential
entry is the one-dimensional hom from P(2) to P(1).

``kupisch_algebra`` builds the cyclic Nakayama algebra of a Kupisch series,
a family of any size for tests beyond the three fixed algebras.
"""

from __future__ import annotations

from .algebra import BasicAlgebra, build_path_algebra
from .complexes import ProjComplex
from .errors import TiltbenchError
from .quiver import Quiver, monomial_relation, relation_from_words


def fig1_quiver() -> Quiver:
    return Quiver(
        ["1", "2", "3"],
        [("alpha", "1", "2"), ("beta", "2", "3"), ("gamma", "3", "1")],
    )


def fig1_relations(q: Quiver):
    return [
        monomial_relation(q, ["alpha", "beta", "gamma"]),
        monomial_relation(q, ["beta", "gamma", "alpha", "beta"]),
        monomial_relation(q, ["gamma", "alpha", "beta", "gamma"]),
    ]


def fig1_algebra() -> BasicAlgebra:
    q = fig1_quiver()
    return build_path_algebra(q, fig1_relations(q))


def fig2_quiver() -> Quiver:
    return Quiver(
        ["1", "2", "3"],
        [("alpha", "1", "2"), ("beta", "2", "1"), ("gamma", "2", "3"), ("delta", "3", "2")],
    )


def fig2_relations(q: Quiver):
    return [
        monomial_relation(q, ["alpha", "gamma"]),
        monomial_relation(q, ["delta", "beta"]),
        monomial_relation(q, ["alpha", "beta"]),
        monomial_relation(q, ["delta", "gamma", "delta"]),
        relation_from_words(q, [(1, ["beta", "alpha"]), (-1, ["gamma", "delta"])]),
    ]


def fig2_algebra() -> BasicAlgebra:
    q = fig2_quiver()
    return build_path_algebra(q, fig2_relations(q))


def sec5_quiver() -> Quiver:
    return Quiver(
        ["1", "2", "3", "4"],
        [
            ("alpha", "1", "2"),
            ("alphap", "2", "1"),
            ("beta", "2", "3"),
            ("betap", "3", "2"),
            ("gamma", "3", "4"),
            ("gammap", "4", "3"),
        ],
    )


def sec5_relations(q: Quiver):
    return [
        monomial_relation(q, ["alphap", "alpha"]),
        monomial_relation(q, ["beta", "betap"]),
        monomial_relation(q, ["alpha", "beta"]),
        monomial_relation(q, ["beta", "gamma"]),
        monomial_relation(q, ["betap", "alphap"]),
        monomial_relation(q, ["gammap", "betap"]),
        relation_from_words(q, [(1, ["betap", "beta"]), (-1, ["gamma", "gammap"])]),
    ]


def sec5_algebra() -> BasicAlgebra:
    q = sec5_quiver()
    return build_path_algebra(q, sec5_relations(q))


def sec5_b_quiver() -> Quiver:
    # endomorphism quiver of the four-summand tilting complex over sec5
    return Quiver(
        ["1", "2", "3", "4"],
        [
            ("alpha", "1", "2"),
            ("alphap", "2", "1"),
            ("beta", "2", "3"),
            ("gamma", "3", "4"),
            ("delta", "4", "2"),
        ],
    )


def sec5_b_relations(q: Quiver):
    return [
        monomial_relation(q, ["alphap", "alpha"]),
        monomial_relation(q, ["alpha", "beta"]),
        monomial_relation(q, ["delta", "alphap"]),
        monomial_relation(q, ["beta", "gamma", "delta"]),
        monomial_relation(q, ["gamma", "delta", "beta", "gamma"]),
    ]


def sec5_b_algebra() -> BasicAlgebra:
    q = sec5_b_quiver()
    return build_path_algebra(q, sec5_b_relations(q))


def fig1_tilting_complex(a: BasicAlgebra | None = None) -> ProjComplex:
    """0 -> P(2)+P(2)+P(3) -> P(1) -> 0 with P(1) in degree zero."""
    a = a or fig1_algebra()
    f = {a.paths_between("1", "2")[0]: 1}  # spans Hom(P(2), P(1))
    return ProjComplex(
        a,
        {-1: ["2", "2", "3"], 0: ["1"]},
        {-1: [[f], [{}], [{}]]},
    )


def kupisch_algebra(series) -> BasicAlgebra:
    """Cyclic Nakayama algebra on vertices 1..n whose projective at vertex i
    has Loewy length ``series[i - 1]``.

    Arrows ``a<i>: i -> i+1`` (indices mod n); the relations kill the path of
    length ``series[i - 1]`` starting at i, so every path of length
    max(series) vanishes, whatever the Loewy length.
    """
    n = len(series)
    for i, c in enumerate(series):
        if c < 2 or series[(i + 1) % n] < c - 1:
            raise TiltbenchError(f"{tuple(series)} is not a Kupisch series")
    vertices = [str(i + 1) for i in range(n)]
    q = Quiver(vertices, [(f"a{i + 1}", vertices[i], vertices[(i + 1) % n]) for i in range(n)])
    relations = [
        monomial_relation(q, [f"a{(i + k) % n + 1}" for k in range(c)]) for i, c in enumerate(series)
    ]
    return build_path_algebra(q, relations, max_path_len=max(series) + 1)


def corpus_algebras() -> dict:
    return {"fig1": fig1_algebra(), "fig2": fig2_algebra(), "sec5": sec5_algebra()}
