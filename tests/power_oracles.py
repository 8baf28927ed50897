"""Polynomial-power oracles for the matrix-power rules in `fields` and
`galois_rings`.

These are the builders the library used before every power became a power
of a multiplication matrix: square-and-multiply on coefficient lists,
Rabin's irreducibility test by repeated p-th powers, the first-fit searches
for a modulus and a generator on top of them, and the Galois-ring trace as
the sum of the m Frobenius conjugates, each conjugate found through the
Witt digits.
"""

from wittsums.fields import _code_to_coeffs, _poly_gcd_is_nonconst, _poly_mul_mod, primefactors


def poly_pow_mod(a, n, mod, p):
    """a^n in Z/p[x]/(mod), mod monic, by square-and-multiply."""
    m = len(mod) - 1
    res = [1] + [0] * (m - 1)
    base = list(a)
    while n:
        if n & 1:
            res = _poly_mul_mod(res, base, mod, p)
        base = _poly_mul_mod(base, base, mod, p)
        n >>= 1
    return res


def is_irreducible_by_powers(coeffs, p):
    """Rabin's test, each x^(p^k) by k calls of poly_pow_mod(., p)."""
    m = len(coeffs) - 1
    if m == 1:
        return True
    x = [0, 1] + [0] * (m - 2)
    t = x
    for _ in range(m):
        t = poly_pow_mod(t, p, coeffs, p)
    if t != x:
        return False
    for r in primefactors(m):
        t = x
        for _ in range(m // r):
            t = poly_pow_mod(t, p, coeffs, p)
        diff = [(ti - xi) % p for ti, xi in zip(t, x)]
        if _poly_gcd_is_nonconst(diff, coeffs, p):
            return False
    return True


def smallest_irreducible_by_powers(p, m):
    """The first monic degree-m polynomial in base-p code order that
    passes is_irreducible_by_powers."""
    for code in range(p**m):
        coeffs = _code_to_coeffs(code, p, m) + [1]
        if is_irreducible_by_powers(coeffs, p):
            return tuple(coeffs)
    raise RuntimeError("no irreducible found")


def generator_by_powers(p, m, mod):
    """Coefficients of the first code c (from p, or 2 over a prime field)
    with c^((q-1)/r) != 1 for every prime r | q - 1; [1] when q = 2."""
    q = p**m
    factors = primefactors(q - 1) if q > 2 else []
    for cand in range(p if m > 1 else 2, q):
        cc = _code_to_coeffs(cand, p, m)
        if all(poly_pow_mod(cc, (q - 1) // r, list(mod), p) != [1] + [0] * (m - 1) for r in factors):
            return cc
    return [1]


def oracle_frobenius(R, x, times=1):
    """The Frobenius through the Witt digits of x, one lift per digit."""
    F = R.residue_field
    return R.from_digits(F.frobenius(a, times) for a in R.witt_digits(x))


def frobenius_trace(R, x):
    """Tr(x) down to Z/p^l as the sum of x's m Frobenius conjugates; the
    sum must lie in the prime subring."""
    acc = R.zero()
    for _ in range(R.m):
        acc = R.add(acc, x)
        x = oracle_frobenius(R, x)
    if any(acc[1:]):
        raise ArithmeticError("trace left the prime subring")
    return acc[0]
