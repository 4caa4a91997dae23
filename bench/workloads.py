"""Inputs, passes and correctness gates of the benchmark workloads.

Each workload is a class with three steps:

* ``setup()`` imports tiltbench and builds the inputs; the caller times it
  as ``setup_s``.  Nothing here imports tiltbench at module level, so that
  the import is part of that time.
* ``check()`` runs once per process after set-up, untimed: gates that need
  one computation per process, and reference values for the per-item gates.
  It returns ``(label, error or None)`` for each gate it ran.
* ``run_pass()`` runs every item once and returns ``[label, start, end,
  error or None]`` for each request, the times from ``time.perf_counter()``.

The seed fixes the order of the items in each pass.  It never changes which
algebras are built: rotating a Kupisch series changes the cost of a pass by
10-20 %, which would swamp the run-to-run spread the benchmark has to resolve.
"""

from __future__ import annotations

import os
import random
import time


def kupisch_algebra(series):
    """Cyclic Nakayama algebra on vertices 1..n whose projective at vertex i
    has Loewy length ``series[i - 1]``.

    Arrows ``a<i>: i -> i+1`` (indices mod n); the relations kill the path of
    length ``series[i - 1]`` starting at i.  N(n, l) is ``[l] * n``.
    """
    import tiltbench as tb

    n = len(series)
    for i, c in enumerate(series):
        if c < 2 or series[(i + 1) % n] < c - 1:
            raise ValueError(f"{tuple(series)} is not a Kupisch series")
    vertices = [str(i + 1) for i in range(n)]
    arrows = [(f"a{i + 1}", vertices[i], vertices[(i + 1) % n]) for i in range(n)]
    q = tb.Quiver(vertices, arrows)
    relations = [
        tb.monomial_relation(q, [f"a{(i + k) % n + 1}" for k in range(c)])
        for i, c in enumerate(series)
    ]
    return tb.build_path_algebra(q, relations)


def _timed(label, compute, gate):
    """One request: ``compute()`` is timed, ``gate(result)`` is not.
    A request that raises is a failed item, not a crash of the workload."""
    start = time.perf_counter()
    try:
        result = compute()
    except Exception as exc:  # noqa: BLE001 - every failure is counted
        return [label, start, time.perf_counter(), f"raised {type(exc).__name__}: {exc}"]
    end = time.perf_counter()
    try:
        error = gate(result)
    except Exception as exc:  # noqa: BLE001
        error = f"gate raised {type(exc).__name__}: {exc}"
    return [label, start, end, error]


class Workload:
    def __init__(self, root, seed, out_dir):
        self.root = root
        self.out_dir = out_dir
        self.rng = random.Random(seed)

    def check(self):
        return []


class CorpusCli(Workload):
    """The 13 commands of corpus/regenerate.py, run in-process through
    ``cli.main`` with cwd ``corpus/`` and compared byte-for-byte with
    ``corpus/golden/``.  The CLI keeps its default seed 0, because the goldens
    were made with it."""

    COMMANDS = [
        ("alg_check_fig1.json", ["alg", "check", "fig1.json"]),
        ("alg_check_fig2.json", ["alg", "check", "fig2.json"]),
        ("alg_check_sec5_A.json", ["alg", "check", "sec5_A.json"]),
        ("nust_fig1.json", ["nust", "fig1.json"]),
        ("nust_sec5_A.json", ["nust", "sec5_A.json"]),
        ("tilting_verify_fig1_T.json", ["tilting", "verify", "fig1.json", "fig1_T.json"]),
        ("nustable_check_fig1_T.json", ["nustable", "check", "fig1.json", "fig1_T.json"]),
        ("endalg_fig1_T.json", ["endalg", "fig1.json", "fig1_T.json"]),
        (
            "sec5_T.json",
            ["tilting", "construct", "sec5_A.json", "--p", "1", "--q", "3,4", "-r", "1", "-s", "1"],
        ),
        ("tilting_verify_sec5_T.json", ["tilting", "verify", "sec5_A.json", "golden/sec5_T.json"]),
        ("nustable_check_sec5_T.json", ["nustable", "check", "sec5_A.json", "golden/sec5_T.json"]),
        ("endalg_sec5_T.json", ["endalg", "sec5_A.json", "golden/sec5_T.json"]),
        ("stable_image_fig1_S1.json", ["stable-image", "fig1.json", "fig1_T.json", "fig1_S1.json"]),
    ]

    def setup(self):
        import tiltbench.cli  # noqa: F401 - the import is part of set-up

        corpus = os.path.join(self.root, "corpus")
        self.golden = {}
        for name, _ in self.COMMANDS:
            with open(os.path.join(corpus, "golden", name), "rb") as fh:
                self.golden[name] = fh.read()
        self.cli_out = os.path.join(self.out_dir, "cli")
        os.makedirs(self.cli_out, exist_ok=True)
        os.chdir(corpus)

    def run_pass(self):
        from tiltbench import cli

        order = list(self.COMMANDS)
        self.rng.shuffle(order)
        items = []
        for name, argv in order:
            out = os.path.join(self.cli_out, name)
            if os.path.exists(out):
                os.remove(out)

            def gate(code, name=name, out=out):
                if code != 0:
                    return f"exit code {code}"
                if not os.path.exists(out):
                    return "no output written"
                with open(out, "rb") as fh:
                    if fh.read() != self.golden[name]:
                        return "output differs from golden"
                return None

            items.append(_timed(name, lambda argv=argv, out=out: cli.main(["-o", out] + argv), gate))
        return items


class EndScaling(Workload):
    """``end_algebra(N, regular_stalk(N))`` for the cyclic Nakayama algebras
    N(6,3) and N(8,4) (dimensions 18 and 32).  N(10,4) takes about 14 s alone
    and is left out to keep a run short."""

    SHAPES = [(6, 3), (8, 4)]

    def setup(self):
        self.algebras = [(f"N({n},{l})", kupisch_algebra([l] * n)) for n, l in self.SHAPES]

    def run_pass(self):
        import tiltbench as tb

        order = list(self.algebras)
        self.rng.shuffle(order)
        items = []
        for label, a in order:

            def gate(result, a=a):
                end, _ = result
                if end.dim != a.dim:
                    return f"End dimension {end.dim} != {a.dim}"
                if tb.presentations_match(end.quiver, list(end.relations), a.quiver, list(a.relations)) is None:
                    return "End(A) presentation does not match A"
                return None

            items.append(_timed(label, lambda a=a: tb.end_algebra(a, tb.regular_stalk(a)), gate))
        return items


class ModuleDecomp(Workload):
    """``maximal_nu_stable`` plus ``decompose(regular_module(A))`` for the
    Kupisch series (3,3,4,4) and (4,5,5,5) (dimensions 14 and 19).  The gate
    asks for one summand per vertex, each of multiplicity 1 and isomorphic to
    the projective at that vertex; it runs inside the pass, after the item's
    latency is taken."""

    SERIES = [(3, 3, 4, 4), (4, 5, 5, 5)]

    def setup(self):
        self.algebras = [(str(s), kupisch_algebra(list(s))) for s in self.SERIES]

    def run_pass(self):
        import tiltbench as tb

        order = list(self.algebras)
        self.rng.shuffle(order)
        items = []
        for label, a in order:

            def compute(a=a):
                tb.maximal_nu_stable(a)
                return tb.decompose(tb.regular_module(a))

            def gate(result, a=a):
                summands, _, _ = result
                if any(mult != 1 for _, mult in summands):
                    return "a summand has multiplicity > 1"
                matched = []
                for piece, _ in summands:
                    hits = [
                        v
                        for v in a.quiver.vertices
                        if tb.is_isomorphic(piece, tb.projective(a, v)) is not None
                    ]
                    if len(hits) != 1:
                        return f"summand matches projectives {hits}"
                    matched.extend(hits)
                if sorted(matched) != sorted(a.quiver.vertices):
                    return f"summands match projectives {sorted(matched)}"
                return None

            items.append(_timed(label, compute, gate))
        return items


class StableQueries(Workload):
    """Many cheap reads after one expensive build.  Set-up builds
    ``TiltingContext(A, T).end_data()`` for A = Kupisch (4,5,5,5) and
    T = ``construct_tpq(A, ["2"], [], 1, 1)``.  A query is ``f_homology(x, i)``
    at every shift i of T, for x = y + z with y, z among the simples,
    projectives and radicals of projectives.

    A pass asks every ordered pair (y, z) once, 144 queries, in a seeded
    order, so that every pass costs the same whatever the seed.
    The gate is additivity, f(y + z) = f(y) + f(z), against reference values
    computed once per process; ``check()`` also requires
    ``check_simple_images()`` to agree with ``check_iterated_nu_stable()``."""

    SERIES = (4, 5, 5, 5)

    def setup(self):
        import tiltbench as tb
        from tiltbench.reps import radical_submodule

        a = kupisch_algebra(list(self.SERIES))
        built = tb.construct_tpq(a, ["2"], [], 1, 1)
        self.ctx = tb.TiltingContext(a, built.complex, proved_by_construction=built.proved_by_construction)
        self.ctx.end_data()
        t = built.complex
        self.shifts = list(range(-t.hi, -t.lo + 1))
        self.base = {}
        for v in a.quiver.vertices:
            p = tb.projective(a, v)
            self.base[f"S{v}"] = tb.simple(a, v)
            self.base[f"P{v}"] = p
            self.base[f"radP{v}"] = radical_submodule(p)[0]
        names = sorted(self.base)
        self.pairs = [(y, z) for y in names for z in names]

    def _profile(self, x):
        return {i: tuple(self.ctx.f_homology(x, i).dim_vector()) for i in self.shifts}

    def check(self):
        iterated = self.ctx.check_iterated_nu_stable()["verdict"]
        simple_images = self.ctx.check_simple_images()["verdict"]
        error = None
        if iterated != simple_images:
            error = f"check_iterated_nu_stable {iterated} != check_simple_images {simple_images}"
        self.reference = {name: self._profile(m) for name, m in self.base.items()}
        return [("criteria agree", error)]

    def run_pass(self):
        order = list(self.pairs)
        self.rng.shuffle(order)
        items = []
        for y, z in order:
            x = self.base[y].direct_sum(self.base[z])

            def gate(profile, y=y, z=z):
                for i in self.shifts:
                    want = tuple(p + q for p, q in zip(self.reference[y][i], self.reference[z][i]))
                    if profile[i] != want:
                        return f"shift {i}: {profile[i]} != {want}"
                return None

            items.append(_timed(f"{y}+{z}", lambda x=x: self._profile(x), gate))
        return items


WORKLOADS = {
    "corpus-cli": CorpusCli,
    "end-scaling": EndScaling,
    "module-decomp": ModuleDecomp,
    "stable-queries": StableQueries,
}
