import os
import random
import subprocess
import sys
from fractions import Fraction

import tiltbench
from tiltbench import corpus
from tiltbench.algebra import el_from_vector, el_to_vector
from tiltbench.decompose import _corner_min_poly, primitive_idempotents
from tiltbench.linalg import _sparse, sparse_left_kernel
from tiltbench.polys import pmul, pnorm, rational_roots
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
