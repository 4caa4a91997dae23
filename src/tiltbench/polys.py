"""Small univariate polynomial kit over the rationals.

Polynomials are coefficient lists, low degree first, normalized so the last
entry is nonzero (the zero polynomial is the empty list).
"""

from __future__ import annotations

from fractions import Fraction

from .linalg import Matrix

ZERO = Fraction(0)
ONE = Fraction(1)


def pnorm(p):
    p = [Fraction(c) for c in p]
    while p and p[-1] == 0:
        p.pop()
    return p


def padd(p, q):
    n = max(len(p), len(q))
    return pnorm([(p[i] if i < len(p) else 0) + (q[i] if i < len(q) else 0) for i in range(n)])


def pmul(p, q):
    if not p or not q:
        return []
    out = [ZERO] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if a == 0:
            continue
        for j, b in enumerate(q):
            out[i + j] += a * b
    return pnorm(out)


def pscale(c, p):
    c = Fraction(c)
    return pnorm([c * x for x in p])


def pdivmod(p, q):
    p, q = pnorm(p), pnorm(q)
    if not q:
        raise ZeroDivisionError("polynomial division by zero")
    quo = [ZERO] * max(0, len(p) - len(q) + 1)
    rem = list(p)
    while len(rem) >= len(q) and rem:
        c = rem[-1] / q[-1]
        k = len(rem) - len(q)
        quo[k] = c
        for i, b in enumerate(q):
            rem[k + i] -= c * b
        rem = pnorm(rem)
    return pnorm(quo), rem


def pmonic(p):
    p = pnorm(p)
    return pscale(ONE / p[-1], p) if p else p


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


def peval_frac(p, x: Fraction) -> Fraction:
    acc = ZERO
    for c in reversed(p):
        acc = acc * x + c
    return acc


def peval_matrix(p, m: Matrix) -> Matrix:
    acc = Matrix.zero(m.rows, m.cols)
    for c in reversed(p):
        acc = acc * m + Matrix.identity(m.rows).scale(c)
    return acc


def bezout(p, q):
    """(u, v) with u*p + v*q = gcd(p, q) monic."""
    r0, r1 = pnorm(p), pnorm(q)
    u0, u1 = [ONE], []
    v0, v1 = [], [ONE]
    while r1:
        quo, rem = pdivmod(r0, r1)
        r0, r1 = r1, rem
        u0, u1 = u1, padd(u0, pscale(-1, pmul(quo, u1)))
        v0, v1 = v1, padd(v0, pscale(-1, pmul(quo, v1)))
    lead = r0[-1]
    return pscale(ONE / lead, u0), pscale(ONE / lead, v0)


def min_poly_of_matrix(m: Matrix):
    """Monic minimal polynomial of a square matrix."""
    if m.rows != m.cols:
        raise ValueError("min poly of nonsquare matrix")
    n = m.rows
    if n == 0:
        return [ONE]  # unit polynomial: the zero operator on zero space
    powers = [Matrix.identity(n)]
    flat = [sum([list(r) for r in powers[0].data], [])]
    while True:
        powers.append(powers[-1] * m)
        flat.append(sum([list(r) for r in powers[-1].data], []))
        mat = Matrix.from_rows(flat)
        ker = mat.left_kernel_basis()
        if ker.rows:
            # the relation with the highest power having coefficient 1
            row = list(ker.row(0))
            top = max(i for i, c in enumerate(row) if c != 0)
            coeffs = [c / row[top] for c in row[: top + 1]]
            return pnorm(coeffs)


def rational_roots(p, max_denominator: int = 10**8):
    """Verified rational roots (with multiplicity stripped): exact membership
    only; numerics are just used to propose candidates."""
    import numpy as np

    p = squarefree_part(p)
    roots = []
    work = list(p)
    # strip known roots as they are confirmed, retrying numerically each time
    changed = True
    while changed and len(pnorm(work)) > 1:
        changed = False
        arr = np.array([float(c) for c in reversed(work)], dtype=float)
        try:
            cand = np.roots(arr)
        except Exception:
            break
        seen = set()
        for z in cand:
            if abs(z.imag) > 1e-7:
                continue
            fr = Fraction(float(z.real)).limit_denominator(max_denominator)
            for guess in {fr, Fraction(round(float(z.real))), fr.limit_denominator(10**4)}:
                if guess in seen:
                    continue
                seen.add(guess)
                if peval_frac(work, guess) == 0:
                    roots.append(guess)
                    work = pdivmod(work, [-guess, ONE])[0]
                    changed = True
                    break
            if changed:
                break
    return roots
