"""Rational-function arithmetic without a gcd per result, and leading terms
without a series.

The operators keep the canonical form num/den (coprime, den monic) by the
classical fraction shortcuts; each result must equal, in num, den and hash,
the fully gcd-normalized fraction the general constructor builds from the
raw cross products.
"""

import random

import pytest

from wittsums import (
    EllipticCurve,
    EllipticFunction,
    InfinitePlace,
    OriginPlace,
    Poly,
    RationalFunction,
    RationalFunctionField,
    get_field,
    places_up_to_degree,
    witt_function,
)
from wittsums import poly as poly_module


def random_poly(F, rng, degree):
    return Poly(F, [rng.randrange(F.q) for _ in range(degree)] + [rng.randrange(1, F.q)])


def random_fraction(F, rng, pool):
    """A canonical fraction from products of a small pool of polynomials,
    so that operands share factors; a denominator is 1, a power of x or a
    product from the pool."""
    num = Poly.const(F, rng.randrange(F.q))
    for _ in range(rng.randint(0, 3)):
        num = num * rng.choice(pool)
    kind = rng.randrange(3)
    if kind == 0:
        den = Poly.one(F)
    elif kind == 1:
        den = Poly.x(F) ** rng.randint(1, 4)
    else:
        den = Poly.one(F)
        for _ in range(rng.randint(1, 3)):
            den = den * rng.choice(pool)
    return RationalFunction(num, den)


def full(num, den):
    """The fraction normalized by a full gcd, as the constructor does it."""
    return RationalFunction(num, den)


def same(f, g):
    return f.num == g.num and f.den == g.den and hash(f) == hash(g)


@pytest.mark.parametrize("p, m", [(5, 1), (3, 2)])
def test_shortcut_arithmetic_matches_full_normalization(p, m):
    F = get_field(p, m)
    rng = random.Random(f"fractions:{p}:{m}")
    x = Poly.x(F)
    pool = [x, x + Poly.one(F)] + [random_poly(F, rng, rng.randint(1, 2)) for _ in range(4)]
    fracs = [random_fraction(F, rng, pool) for _ in range(40)]
    for _ in range(400):
        f, g = rng.choice(fracs), rng.choice(fracs)
        if rng.random() < 0.2:
            g = RationalFunction(g.num, f.den)  # equal denominators
        a, b, c, d = f.num, f.den, g.num, g.den
        assert same(f + g, full(a * d + c * b, b * d))
        assert same(f - g, full(a * d - c * b, b * d))
        assert same(f * g, full(a * c, b * d))
        if not g.is_zero():
            assert same(f / g, full(a * d, b * c))
            assert same(g.inverse(), full(d, c))
        n = rng.randint(-3, 3)
        if n >= 0 or not f.is_zero():
            want = full(a**n, b**n) if n >= 0 else full(b ** (-n), a ** (-n))
            assert same(f**n, want)
        s = rng.randrange(F.q)
        assert same(f.scale(s), full(a.scale(s), b))


def test_zero_results_have_denominator_one():
    F = get_field(5, 1)
    x = RationalFunction.x(F)
    f = x.inverse() + RationalFunction.const(F, 3)
    for z in (f - f, f * RationalFunction.zero(F), f.scale(0), RationalFunction.zero(F) / f):
        assert z.is_zero() and z.den == Poly.one(F) and z == RationalFunction.zero(F)


def test_witt_addition_over_f5_makes_few_divisions(monkeypatch):
    """(1/x + x^2, 1/x, 1/x) + itself over F_5(x): a gcd per result made
    4,359 polynomial divisions here."""
    F = get_field(5, 1)
    x = RationalFunction.x(F)
    f = witt_function(RationalFunctionField(F), (x.inverse() + x**2, x.inverse(), x.inverse()))
    calls = []
    divmod_ = poly_module.Poly.divmod

    def counting(self, other):
        calls.append(1)
        return divmod_(self, other)

    monkeypatch.setattr(poly_module.Poly, "divmod", counting)
    g = f + f
    monkeypatch.undo()
    assert len(calls) < 500
    assert g.coords[0] == (x.inverse() + x**2).scale(2)
    assert g == f.scalar(2)


# -- leading terms without series ---------------------------------------------


@pytest.mark.parametrize("p, m", [(3, 1), (2, 2), (5, 1)])
def test_rational_leading_term_matches_expansion(p, m):
    F = get_field(p, m)
    rng = random.Random(f"lead:{p}:{m}")
    x = Poly.x(F)
    places = places_up_to_degree(F, 2)
    for _ in range(30):
        pl = rng.choice(places)
        pi = x if isinstance(pl, InfinitePlace) else pl.poly
        num = random_poly(F, rng, rng.randint(0, 3)) * pi ** rng.randint(0, 2)
        den = random_poly(F, rng, rng.randint(0, 2)) * pi ** rng.randint(0, 2)
        f = RationalFunction(num, den)
        v, a = f.leading_term_at(pl)
        s = f.laurent_at(pl, v + 1)
        assert (v, a) == (s.valuation(), s.leading()) == (f.valuation_at(pl), s.leading())


def test_elliptic_leading_term_matches_expansion():
    F = get_field(3, 1)
    E = EllipticCurve(F, 0, 1, 0, 0, 1)
    x, y = EllipticFunction.x(E), EllipticFunction.y(E)
    one = EllipticFunction.one(E)
    for pl in [OriginPlace(E)] + E.places_up_to_degree(2)[1:]:
        for f in (x, y, y / x, x * y + one, (x + one).inverse()):
            v, a = f.leading_term_at(pl)
            s = f.laurent_at(pl, v + 1)
            assert (v, a) == (s.valuation(), s.leading())


# (p, m, Weierstrass coefficients): curves over F_2, F_3, F_4 and F_5
ORIGIN_RULE_CURVES = [
    (2, 1, (0, 0, 1, 0, 0)),
    (2, 1, (1, 1, 0, 0, 1)),
    (3, 1, (0, 0, 0, 2, 1)),
    (2, 2, (1, 3, 0, 0, 2)),
    (5, 1, (1, 2, 3, 4, 1)),
]


@pytest.mark.parametrize("p, m, coeffs", ORIGIN_RULE_CURVES)
def test_elliptic_origin_leading_term_matches_expansion(p, m, coeffs, monkeypatch):
    # the origin's rule reads degrees and leading coefficients; the
    # expansion it replaces must agree on u + v*y with polynomial and
    # rational u, v, either of them possibly zero
    F = get_field(p, m)
    E = EllipticCurve(F, *coeffs)
    O = OriginPlace(E)
    rng = random.Random(f"origin:{p}:{m}:{coeffs}")

    def part():
        kind = rng.randrange(4)
        if kind == 0:
            return RationalFunction.zero(F)
        num = RationalFunction.from_poly(random_poly(F, rng, rng.randint(0, 4)))
        if kind == 1:
            return num
        return num / RationalFunction.from_poly(random_poly(F, rng, rng.randint(1, 4)))

    cases = []
    while len(cases) < 40:
        f = EllipticFunction(E, part(), part())
        if f.is_zero():
            continue
        s = f.laurent_at(O, 16)  # every valuation here is below 12
        cases.append((f, (s.valuation(), s.leading())))
    calls = []
    monkeypatch.setattr(EllipticFunction, "laurent_at", lambda *a: calls.append(a))
    for f, want in cases:
        assert f.leading_term_at(O) == want
        assert f.valuation_at(O) == want[0]
    assert calls == []
    assert {v % 2 for _, (v, _) in cases} == {0, 1}
