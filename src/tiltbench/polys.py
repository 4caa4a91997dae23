"""Small univariate polynomial kit over the rationals.

Polynomials are coefficient lists, low degree first, normalized so the last
entry is nonzero (the zero polynomial is the empty list).
"""

from __future__ import annotations

from math import gcd, lcm

from .linalg import Basis, div, frac


def pnorm(p):
    p = [frac(c) for c in p]
    while p and p[-1] == 0:
        p.pop()
    return p


def padd(p, q):
    n = max(len(p), len(q))
    return pnorm([(p[i] if i < len(p) else 0) + (q[i] if i < len(q) else 0) for i in range(n)])


def pmul(p, q):
    if not p or not q:
        return []
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if a == 0:
            continue
        for j, b in enumerate(q):
            out[i + j] += a * b
    return pnorm(out)


def pscale(c, p):
    c = frac(c)
    return pnorm([c * x for x in p])


def pdivmod(p, q):
    p, q = pnorm(p), pnorm(q)
    if not q:
        raise ZeroDivisionError("polynomial division by zero")
    quo = [0] * max(0, len(p) - len(q) + 1)
    rem = list(p)
    while len(rem) >= len(q) and rem:
        c = div(rem[-1], q[-1])
        k = len(rem) - len(q)
        quo[k] = c
        for i, b in enumerate(q):
            rem[k + i] -= c * b
        rem = pnorm(rem)
    return pnorm(quo), rem


def pmonic(p):
    p = pnorm(p)
    return pscale(div(1, p[-1]), p) if p else p


def pgcd(p, q):
    p, q = pnorm(p), pnorm(q)
    while q:
        p, q = q, pdivmod(p, q)[1]
    return pmonic(p)


def pderiv(p):
    return pnorm([i * c for i, c in enumerate(p)][1:])


def squarefree_part(p):
    g = pgcd(p, pderiv(p))
    if len(g) <= 1:
        return pmonic(p)
    return pmonic(pdivmod(p, g)[0])


def peval_frac(p, x):
    acc = 0
    for c in reversed(p):
        acc = acc * x + c
    return acc


def bezout(p, q):
    """(u, v) with u*p + v*q = gcd(p, q) monic."""
    r0, r1 = pnorm(p), pnorm(q)
    u0, u1 = [1], []
    v0, v1 = [], [1]
    while r1:
        quo, rem = pdivmod(r0, r1)
        r0, r1 = r1, rem
        u0, u1 = u1, padd(u0, pscale(-1, pmul(quo, u1)))
        v0, v1 = v1, padd(v0, pscale(-1, pmul(quo, v1)))
    inv = div(1, r0[-1])
    return pscale(inv, u0), pscale(inv, v0)


def min_poly_of_sequence(vectors, width: int):
    """Monic t^k - (c_0 + c_1 t + ... + c_{k-1} t^(k-1)) for the first vector
    v_k of the sequence with v_k = c_0 v_0 + ... + c_{k-1} v_{k-1}.

    When v_k is the flattened k-th power of a matrix (or of an algebra
    element), this is its minimal polynomial.  The vectors, of length
    ``width``, dense or as ``{column: entry}`` dicts, are reduced once each
    against one growing ``Basis``, and no vector after v_k is asked for."""
    span = Basis([], width)
    for v in vectors:
        coords = span.add_or_coords(v)
        if coords is not None:
            return pnorm([-coords.get(k, 0) for k in range(len(span.rows))] + [1])
    raise ValueError("the sequence ended before its vectors became dependent")


def rational_roots(p):
    """The distinct rational roots of p, in increasing order, found exactly.

    The square-free part is scaled to a primitive integer polynomial
    a_0 + ... + a_n t^n and a factor t (the root 0) is split off; every
    other rational root is +-r/s with r dividing a_0 and s dividing a_n
    (rational root theorem), and each such candidate is tested with
    ``peval_frac``."""
    coeffs = squarefree_part(p)
    den = lcm(*(c.denominator for c in coeffs))
    ints = [c.numerator * (den // c.denominator) for c in coeffs]
    g = gcd(*ints)
    ints = [c // g for c in ints]
    roots = set()
    if ints and ints[0] == 0:  # square-free, so t divides it once
        roots.add(0)
        ints = ints[1:]
    if len(ints) > 1:
        for s in _divisors(ints[-1]):
            for r in _divisors(ints[0]):
                for x in (div(r, s), div(-r, s)):
                    if x not in roots and peval_frac(ints, x) == 0:
                        roots.add(x)
    return sorted(roots)


def _divisors(n: int) -> list:
    """Positive divisors of the nonzero integer n, from its factorization by
    trial division."""
    n = abs(n)
    out = [1]
    d = 2
    while d * d <= n:
        k = 0
        while n % d == 0:
            n //= d
            k += 1
        if k:
            out = [x * d**e for x in out for e in range(k + 1)]
        d += 1
    if n > 1:
        out += [x * n for x in out]
    return out
