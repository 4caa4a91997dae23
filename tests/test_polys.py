from fractions import Fraction

from tiltbench.polys import pmul, rational_roots


def power(p, n):
    out = [Fraction(1)]
    for _ in range(n):
        out = pmul(out, p)
    return out


def test_rational_roots_of_repeated_factors_each_once():
    third = [Fraction(-1, 3), Fraction(1)]
    p = pmul(power(third, 4), [Fraction(-2), Fraction(1)])
    assert sorted(rational_roots(p)) == [Fraction(1, 3), Fraction(2)]
    q = pmul(power(third, 6), power([Fraction(5, 7), Fraction(1)], 3))
    assert sorted(rational_roots(q)) == [Fraction(-5, 7), Fraction(1, 3)]
