"""Seeded Kupisch series for tests that sweep cyclic Nakayama algebras."""


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
