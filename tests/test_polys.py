import importlib
import os
import random
import subprocess
import sys
from fractions import Fraction
from math import gcd, lcm

from kupisch import all_kupisch_series

import tiltbench
from tiltbench import corpus, polys
from tiltbench.algebra import el_from_vector, el_to_vector
from tiltbench.decompose import EndAlgebra, _corner_min_poly, primitive_idempotents
from tiltbench.linalg import _sparse, div, sparse_left_kernel
from tiltbench.polys import _divisors, pdivmod, peval_frac, pmul, pnorm, pscale, rational_roots
from tiltbench.reps import regular_module
from tiltbench.tilting import TiltingContext


def power(p, n):
    out = [Fraction(1)]
    for _ in range(n):
        out = pmul(out, p)
    return out


def linear(r):
    return [-Fraction(r), Fraction(1)]


def test_rational_roots_of_repeated_factors_each_once():
    third = [Fraction(-1, 3), Fraction(1)]
    p = pmul(power(third, 4), [Fraction(-2), Fraction(1)])
    assert sorted(rational_roots(p)) == [Fraction(1, 3), Fraction(2)]
    q = pmul(power(third, 6), power([Fraction(5, 7), Fraction(1)], 3))
    assert sorted(rational_roots(q)) == [Fraction(-5, 7), Fraction(1, 3)]


def test_rational_roots_a_float_root_finder_misses():
    # a denominator above 10^8, which limit_denominator(10^8) cannot give back
    tiny = Fraction(1, 10**9 + 7)
    assert rational_roots(pmul(linear(tiny), linear(2))) == [tiny, Fraction(2)]
    # two roots closer than 1e-7
    near = 1 + Fraction(1, 10**9)
    assert rational_roots(pmul(power(linear(1), 2), linear(near))) == [Fraction(1), near]


def test_rational_roots_zero_irrational_and_constant():
    # t^3 (t + 1/2)^2 (t^2 - 2): the root 0 once, no irrational root
    p = pmul(pmul(power(linear(0), 3), power(linear(Fraction(-1, 2)), 2)), [Fraction(-2), 0, Fraction(1)])
    assert rational_roots(p) == [Fraction(-1, 2), Fraction(0)]
    assert rational_roots([Fraction(-2), 0, Fraction(1)]) == []
    assert rational_roots([Fraction(3)]) == []
    assert rational_roots([]) == []


def _fraction_rational_roots(p):
    """The distinct rational roots of p by the square-free part computed by
    Euclid over Fractions and made monic, then scaled to integers: the
    reference for ``rational_roots``, which finds the same part in
    integers."""

    def monic(q):
        return pscale(div(1, q[-1]), q) if q else q

    g, h = pnorm(p), pnorm([i * c for i, c in enumerate(p)][1:])
    while h:
        g, h = h, pdivmod(g, h)[1]
    coeffs = monic(pdivmod(p, g)[0]) if len(g) > 1 else monic(pnorm(p))
    den = lcm(*(c.denominator for c in coeffs))
    ints = [c.numerator * (den // c.denominator) for c in coeffs]
    g = gcd(*ints)
    ints = [c // g for c in ints]
    roots = set()
    if ints and ints[0] == 0:
        roots.add(0)
        ints = ints[1:]
    if len(ints) > 1:
        for s in _divisors(ints[-1]):
            for r in _divisors(ints[0]):
                for x in (div(r, s), div(-r, s)):
                    if x not in roots and peval_frac(ints, x) == 0:
                        roots.add(x)
    return sorted(roots)


QUADRATICS = [[-2, 0, 1], [1, 0, 1], [1, 1, 1], [-3, 0, 2], [Fraction(1, 2), -1, 3]]


def test_rational_roots_match_the_fraction_square_free_route():
    """On 1000 seeded polynomials (products of linear factors with repeated
    rational roots, powers of t and irreducible quadratics, scaled by a
    Fraction) and on constants and [], the integer square-free part gives
    the roots of the Fraction one."""
    rng = random.Random(39)
    polynomials = [[], [Fraction(0)], [Fraction(5, 3)], [-7]]
    for _ in range(1000):
        p = [Fraction(rng.randint(1, 9), rng.randint(1, 9)) * rng.choice((1, -1))]
        for _ in range(rng.randint(0, 4)):
            p = pmul(p, power(linear(Fraction(rng.randint(-6, 6), rng.randint(1, 6))), rng.randint(1, 4)))
        p = pmul(p, power(linear(0), rng.choice((0, 0, 1, 2, 3))))
        if rng.random() < 0.3:
            p = pmul(p, pnorm(rng.choice(QUADRATICS)))
        polynomials.append(p)
    with_roots = 0
    for p in polynomials:
        roots = rational_roots(p)
        assert roots == _fraction_rational_roots(p), p
        assert all(peval_frac(p, x) == 0 for x in roots)
        with_roots += len(roots) > 1
    assert with_roots > 500


def test_rational_roots_factor_the_square_free_part(monkeypatch):
    """Every candidate comes from the square-free part: on
    (t - 1/1000003)^3 (t - 2) no number trial-divided exceeds 2 * 1000003,
    where p's own coefficients would ask for (1000003)^3."""
    asked = []

    def recorded_divisors(n):
        asked.append(abs(n))
        return _divisors(n)

    monkeypatch.setattr(polys, "_divisors", recorded_divisors)
    big = 1000003
    p = pmul(power(linear(Fraction(1, big)), 3), linear(2))
    assert rational_roots(p) == [Fraction(1, big), Fraction(2)]
    assert asked and max(asked) <= 2 * big


def test_primitive_idempotents_unchanged_by_the_integer_square_free_part(monkeypatch):
    """``primitive_idempotents`` of End(A_A) is the same list with the
    Fraction square-free part as with the integer one, on the corpus
    algebras and on all 120 Kupisch series with 2 to 4 vertices."""
    algebras = list(corpus.corpus_algebras().values())
    algebras += [corpus.kupisch_algebra(series) for series in all_kupisch_series()]
    assert len(algebras) == 123
    for a in algebras:
        end = EndAlgebra(regular_module(a))
        with monkeypatch.context() as patch:
            patch.setattr(importlib.import_module("tiltbench.decompose"), "rational_roots", _fraction_rational_roots)
            want = primitive_idempotents(end)
        assert primitive_idempotents(end) == want


def test_decompose_imports_no_numpy():
    src = os.path.dirname(os.path.dirname(os.path.abspath(tiltbench.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    code = (
        "import sys\n"
        "from tiltbench import corpus, decompose, regular_module\n"
        "decompose(regular_module(corpus.kupisch_algebra([3, 3, 4, 4])))\n"
        "assert 'numpy' not in sys.modules\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr


def _old_corner_min_poly(alg, x, unit):
    """Minimal polynomial of x in unit*A*unit from the left kernel of the
    Krylov matrix, rebuilt for every power."""
    flats = [el_to_vector(unit, alg.dim)]
    cur = unit
    while True:
        cur = alg.mul(cur, x)
        flats.append(el_to_vector(cur, alg.dim))
        ker = sparse_left_kernel(_sparse(flats))
        if ker:
            row = ker[0]
            top = max(row)
            return pnorm([row.get(i, 0) / row[top] for i in range(top + 1)])


def test_corner_min_poly_unchanged_on_end_of_corpus_tilting_complex():
    a = corpus.fig1_algebra()
    alg = TiltingContext(a, corpus.fig1_tilting_complex(a)).end_data().abstract
    rng = random.Random(4)
    units = [alg.one] + primitive_idempotents(alg)
    assert len(units) > 2
    checked = 0
    for unit in units:
        probes = [[Fraction(int(k == i)) for k in range(alg.dim)] for i in range(alg.dim)]
        probes += [[Fraction(rng.randint(-2, 2)) for _ in range(alg.dim)] for _ in range(5)]
        for x in probes:
            x = alg.mul(alg.mul(unit, el_from_vector(x)), unit)
            assert _corner_min_poly(alg, x, unit) == _old_corner_min_poly(alg, x, unit)
            checked += 1
    assert checked > 30
