"""Kupisch series for tests that sweep cyclic Nakayama algebras."""

import itertools


def seeded_kupisch_series(rng, count, max_vertices=4, max_length=5):
    """count distinct Kupisch series drawn with rng: n vertices, 2 <= n <=
    max_vertices, and Loewy lengths 2 <= c_i <= max_length with c_{i+1} >=
    c_i - 1 cyclically, as ``corpus.kupisch_algebra`` requires."""
    out = []
    while len(out) < count:
        n = rng.randint(2, max_vertices)
        series = [rng.randint(2, max_length)]
        for _ in range(n - 1):
            series.append(rng.randint(max(2, series[-1] - 1), max_length))
        if series[0] >= series[-1] - 1 and series not in out:
            out.append(series)
    return out


def all_kupisch_series(max_vertices=4, max_length=5):
    """Every Kupisch series with 2 <= n <= max_vertices vertices and Loewy
    lengths 2 <= c_i <= max_length, c_{i+1} >= c_i - 1 cyclically, in
    lexicographic order for each n."""
    out = []
    for n in range(2, max_vertices + 1):
        for series in itertools.product(range(2, max_length + 1), repeat=n):
            if all(series[(i + 1) % n] >= c - 1 for i, c in enumerate(series)):
                out.append(list(series))
    return out


def nakayama_indecomposables(a):
    """The indecomposable modules of a Nakayama algebra a, each once up to
    isomorphism: P(v)/rad^k P(v) for each vertex v, in quiver order, and
    k = 1, ..., the Loewy length of P(v), in that order.  Each is the
    ``quotient_representation`` of P(v) by rad^k P(v), whose spaces are the
    rows of the composite inclusion of the radical powers into P(v)."""
    from tiltbench.linalg import _sparse
    from tiltbench.reps import ModuleMap, projective, quotient_representation, radical_submodule

    out = []
    for v in a.quiver.vertices:
        p = projective(a, v)
        power, into_p = p, ModuleMap.identity(p)
        while power.total_dim():
            power, incl = radical_submodule(power)
            into_p = incl.then(into_p)
            out.append(quotient_representation(p, {w: _sparse(m.data) for w, m in into_p.mats.items()})[0])
    return out
