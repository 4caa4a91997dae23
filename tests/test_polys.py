import os
import random
import subprocess
import sys
from fractions import Fraction

import pytest

import tiltbench
from tiltbench import corpus
from tiltbench.algebra import el_from_vector
from tiltbench.decompose import EndAlgebra, _corner_min_poly, module_min_poly, primitive_idempotents
from tiltbench.linalg import Matrix
from tiltbench.polys import min_poly_of_matrices, pdivmod, pgcd, pmul, pnorm, rational_roots
from tiltbench.reps import ModuleMap, projective, regular_module, simple, zero_rep
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


def _old_min_poly_of_matrix(m):
    """Minimal polynomial from the left kernel of the Krylov matrix of
    flattened powers, rebuilt for every power."""
    n = m.rows
    if n == 0:
        return [Fraction(1)]
    powers = [Matrix.identity(n)]
    flat = [sum([list(r) for r in powers[0].data], [])]
    while True:
        powers.append(powers[-1] * m)
        flat.append(sum([list(r) for r in powers[-1].data], []))
        ker = Matrix(len(flat), len(flat[0]), flat).left_kernel_basis()
        if ker.rows:
            row = list(ker.row(0))
            top = max(i for i, c in enumerate(row) if c != 0)
            return pnorm([c / row[top] for c in row[: top + 1]])


def _old_module_min_poly(f):
    """lcm of the minimal polynomials of the vertex matrices."""
    mu = [Fraction(1)]
    for m in f.mats.values():
        if m.rows == 0:
            continue
        mv = _old_min_poly_of_matrix(m)
        mu = pdivmod(pmul(mu, mv), pgcd(mu, mv))[0]
    return pnorm(mu)


def test_krylov_min_poly_matches_lcm_of_vertex_min_polys():
    rng = random.Random(3)
    modules = [regular_module(corpus.kupisch_algebra(s)) for s in ([2, 3, 3], [3, 3, 4, 4], [4, 5, 5, 5])]
    a = corpus.sec5_algebra()
    modules += [
        regular_module(a),
        projective(a, "3").direct_sum(projective(a, "3")),
        simple(a, "1").direct_sum(projective(a, "2")).direct_sum(simple(a, "1")),
    ]
    degrees = set()
    for m in modules:
        end = EndAlgebra(m)
        for _ in range(15):
            f = end.element(el_from_vector([Fraction(rng.randint(-3, 3)) for _ in range(end.dim)]))
            mu = module_min_poly(f)
            assert mu == _old_module_min_poly(f)
            degrees.add(len(mu) - 1)
    assert degrees >= {2, 3, 4, 5}


def test_krylov_min_poly_edge_cases():
    a = corpus.sec5_algebra()
    p = projective(a, "1")
    assert module_min_poly(ModuleMap.identity(p)) == linear(1)
    # a nonzero radical endomorphism of P(1) is nilpotent
    end = EndAlgebra(p)
    rad = end.radical_rows()
    assert rad.rows
    nil = end.element(el_from_vector(rad.row(0)))
    mu = module_min_poly(nil)
    assert mu == _old_module_min_poly(nil) and len(mu) > 2 and mu[:-1] == [0] * (len(mu) - 1)
    # S(1) is zero at every other vertex
    s = simple(a, "1")
    assert module_min_poly(ModuleMap.identity(s).scale(Fraction(-2, 3))) == linear(Fraction(-2, 3))
    assert module_min_poly(ModuleMap.identity(zero_rep(a))) == [1]
    assert min_poly_of_matrices([Matrix.zero(0, 0)]) == _old_min_poly_of_matrix(Matrix.zero(0, 0)) == [1]
    for rows in ([[0, 1], [0, 0]], [[2, 1], [0, 2]], [[1, 2], [3, 4]], [[Fraction(1, 3)]]):
        m = Matrix(len(rows), len(rows[0]), rows)
        assert min_poly_of_matrices([m]) == _old_min_poly_of_matrix(m)
    with pytest.raises(ValueError):
        min_poly_of_matrices([Matrix.zero(1, 2)])


def _old_corner_min_poly(alg, x, unit):
    """Minimal polynomial of x in unit*A*unit from the left kernel of the
    Krylov matrix, rebuilt for every power."""
    flats = [alg.el_to_vector(unit)]
    cur = unit
    while True:
        cur = alg.mul(cur, x)
        flats.append(alg.el_to_vector(cur))
        ker = Matrix(len(flats), len(flats[0]), flats).left_kernel_basis()
        if ker.rows:
            row = list(ker.row(0))
            top = max(i for i, c in enumerate(row) if c != 0)
            return pnorm([c / row[top] for c in row[: top + 1]])


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
