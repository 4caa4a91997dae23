"""Quivers, paths, and relations.

Composition convention (normative for the whole package): paths read left to
right, so the word ``alpha beta`` means "first alpha, then beta" and is
composable when ``target(alpha) == source(beta)``.

Arrows and paths, like the reports of ``presentation`` and ``tilting``, are
immutable named tuples: they hash and compare as the tuple of their fields.
"""

from __future__ import annotations

from collections import namedtuple

from .errors import TiltbenchError, MixedLengthRelation
from .linalg import frac


class Arrow(namedtuple("Arrow", "name source target")):
    __slots__ = ()


class Quiver:
    """Finite directed multigraph with ordered, distinct vertex/arrow names."""

    def __init__(self, vertices, arrows):
        self.vertices = tuple(str(v) for v in vertices)
        self.arrows = tuple(
            a if isinstance(a, Arrow) else Arrow(str(a[0]), str(a[1]), str(a[2])) for a in arrows
        )
        if len(set(self.vertices)) != len(self.vertices):
            raise TiltbenchError("duplicate vertex labels")
        names = [a.name for a in self.arrows]
        if len(set(names)) != len(names):
            raise TiltbenchError("duplicate arrow names")
        self.vertex_index = {v: i for i, v in enumerate(self.vertices)}
        self.arrow_by_name = {a.name: a for a in self.arrows}
        self.arrow_index = {a.name: i for i, a in enumerate(self.arrows)}
        for a in self.arrows:
            if a.source not in self.vertex_index or a.target not in self.vertex_index:
                raise TiltbenchError(f"arrow {a.name} references unknown vertex")
        self.arrows_from = {v: [] for v in self.vertices}
        for a in self.arrows:
            self.arrows_from[a.source].append(a)

    def opposite(self) -> "Quiver":
        """The quiver with every arrow reversed, keeping its name."""
        return Quiver(self.vertices, [(a.name, a.target, a.source) for a in self.arrows])

    def __eq__(self, other):
        return (
            isinstance(other, Quiver)
            and self.vertices == other.vertices
            and self.arrows == other.arrows
        )

    def __repr__(self):
        return f"Quiver({list(self.vertices)}, {[(a.name, a.source, a.target) for a in self.arrows]})"


class Path(namedtuple("Path", "source arrows")):
    """A (possibly trivial) path; `arrows` is a tuple of arrow names, and
    ``len`` counts them, so a trivial path is falsy."""

    __slots__ = ()

    def __len__(self):
        return len(self.arrows)

    def target(self, q: Quiver) -> str:
        return q.arrow_by_name[self.arrows[-1]].target if self.arrows else self.source

    def word(self) -> str:
        return "*".join(self.arrows) if self.arrows else f"e_{self.source}"


def trivial_path(v: str) -> Path:
    return Path(str(v), ())


def path_from_arrows(q: Quiver, arrow_names) -> Path:
    """Build a path from a nonempty arrow-name sequence, checking composability."""
    names = tuple(str(n) for n in arrow_names)
    if not names:
        raise TiltbenchError("empty arrow sequence has no source; use trivial_path")
    for n in names:
        if n not in q.arrow_by_name:
            raise TiltbenchError(f"unknown arrow {n!r}")
    for a, b in zip(names, names[1:]):
        if q.arrow_by_name[a].target != q.arrow_by_name[b].source:
            raise TiltbenchError(f"arrows {a!r} and {b!r} do not compose left-to-right")
    return Path(q.arrow_by_name[names[0]].source, names)


def longer_paths(q: Quiver, paths):
    """Each path followed by each arrow out of its target, in order."""
    return [Path(p.source, p.arrows + (a.name,)) for p in paths for a in q.arrows_from[p.target(q)]]


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


def deglex_key(q: Quiver, p: Path):
    """Graded lexicographic order: by length, then arrow indices, then source."""
    return (len(p.arrows), tuple(q.arrow_index[a] for a in p.arrows), q.vertex_index[p.source])


class Relation:
    """A linear combination of parallel paths that is declared zero.

    All paths in one relation must share source and target and have length at
    least 2 (admissible shape).  The graded machinery additionally requires a
    single common length.
    """

    def __init__(self, q: Quiver, terms):
        summed = {}  # path -> summed coefficient, in first-occurrence order
        for c, p in terms:
            summed[p] = summed.get(p, 0) + frac(c)
        self.terms = tuple((frac(c), p) for p, c in summed.items() if c != 0)
        if not self.terms:
            raise TiltbenchError("relation has no nonzero terms")
        paths = [p for _, p in self.terms]
        for p in paths:
            if len(p) < 2:
                raise TiltbenchError("relation paths must have length >= 2")
        src = {p.source for p in paths}
        tgt = {p.target(q) for p in paths}
        if len(src) != 1 or len(tgt) != 1:
            raise TiltbenchError("relation terms are not parallel")
        lengths = {len(p) for p in paths}
        if len(lengths) != 1:
            raise MixedLengthRelation(f"relation mixes path lengths {sorted(lengths)}")
        self.length = lengths.pop()
        self.source = src.pop()
        self.target = tgt.pop()

    def __repr__(self):
        return " + ".join(f"({c})*{p.word()}" for c, p in self.terms) + " = 0"


def monomial_relation(q: Quiver, arrow_names) -> Relation:
    return Relation(q, [(1, path_from_arrows(q, arrow_names))])


def relation_from_words(q: Quiver, terms) -> Relation:
    """Terms as (coeff, [arrow names...]) pairs."""
    return Relation(q, [(c, path_from_arrows(q, w)) for c, w in terms])
