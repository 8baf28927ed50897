"""Rational and elliptic function fields: places, valuations, Laurent
expansions, point enumeration, and divisor degree identities."""

import random

import pytest

from wittsums import (
    EllipticCurve,
    EllipticFunction,
    EllipticFunctionField,
    FinitePlace,
    InfinitePlace,
    LaurentSeries,
    OriginPlace,
    Poly,
    RationalFunction,
    RationalFunctionField,
    get_field,
    places_up_to_degree,
)
from wittsums.elliptic import _affine_xy_series, _origin_xy_series
from wittsums.poly import factor, irreducibles_of_degree
from wittsums.series import eval_poly_at_series

from global_reduction import witness
from pole_places import pole_divisor


# -- polynomials -----------------------------------------------------------


def test_factor_and_irreducibles():
    F2 = get_field(2, 1)
    assert [f.coeffs for f in irreducibles_of_degree(F2, 2)] == [(1, 1, 1)]
    assert len(irreducibles_of_degree(F2, 3)) == 2
    f = Poly(F2, (0, 1)) * Poly(F2, (1, 1)) ** 2 * Poly(F2, (1, 1, 1))
    fac = factor(f)
    prod = Poly.one(F2)
    for g, e in fac:
        prod = prod * g**e
    assert prod == f
    assert sorted(e for _, e in fac) == [1, 1, 2]


# -- Laurent series --------------------------------------------------------


def test_series_inverse_geometric():
    F2 = get_field(2, 1)
    # 1/(1 + t) = 1 + t + t^2 + ... over F_2
    s = LaurentSeries(F2, 0, [1, 1], 8)
    inv = s.inverse()
    for k in range(8):
        assert inv.coeff(k) == 1


def test_series_poly_eval():
    F3 = get_field(3, 1)
    # (1 + X)^2 at X = 1 + t is (2 + t)^2 = 1 + t + t^2 mod 3
    s = eval_poly_at_series((1, 2, 1), LaurentSeries(F3, 0, [1, 1], 6))
    assert (s.coeff(0), s.coeff(1), s.coeff(2)) == (1, 1, 1)
    # and at X = t it is just the polynomial itself
    s2 = eval_poly_at_series((1, 2, 1), LaurentSeries.t_power(F3, 1, 6))
    assert (s2.coeff(0), s2.coeff(1), s2.coeff(2)) == (1, 2, 1)


# -- rational function field -------------------------------------------------


def test_valuation_examples():
    F3 = get_field(3, 1)
    x = RationalFunction.x(F3)
    one = RationalFunction.one(F3)
    f = (x * x + one) / x
    px = FinitePlace(Poly(F3, (0, 1)))
    assert f.valuation_at(px) == -1
    assert (x**3).valuation_at(InfinitePlace(F3)) == -3


def test_laurent_examples():
    F2 = get_field(2, 1)
    x = RationalFunction.x(F2)
    inf = InfinitePlace(F2)
    s = (x**3).laurent_at(inf, 4)
    assert s.valuation() == -3 and s.leading() == 1
    assert s.coeff(-2) == 0 and s.coeff(0) == 0
    # 1/(x^2+x) = x^-1 * 1/(1+x) = x^-1 + 1 + x + ... at (x)
    f = RationalFunction.one(F2) / (x * x + x)
    px = FinitePlace(Poly(F2, (0, 1)))
    s = f.laurent_at(px, 4)
    assert s.valuation() == -1
    for k in range(-1, 4):
        assert s.coeff(k) == 1


def test_laurent_reexpansion_consistent():
    F4 = get_field(2, 2)
    rng = random.Random(3)
    x = RationalFunction.x(F4)
    f = (x**3 + RationalFunction.const(F4, 2)) / (x**2 + x)
    for place in [InfinitePlace(F4), FinitePlace(Poly(F4, (0, 1)))]:
        s1 = f.laurent_at(place, 5)
        s2 = f.laurent_at(place, 9)
        for k in range(s1.valuation(), 5):
            assert s1.coeff(k) == s2.coeff(k)


def test_laurent_at_higher_degree_place():
    # expanding at a degree-2 place evaluates at a root in F_4
    F2 = get_field(2, 1)
    x = RationalFunction.x(F2)
    f = (x**2 + RationalFunction.one(F2)) / (x + RationalFunction.one(F2))
    place = FinitePlace(Poly(F2, (1, 1, 1)))
    s = f.laurent_at(place, 3)
    big = s.field
    root = min(
        r for r in big.elements() if big.add(big.add(big.mul(r, r), r), 1) == 0
    )
    num = big.add(big.mul(root, root), 1)
    den = big.add(root, 1)
    assert s.coeff(0) == big.mul(num, big.inv(den))


def test_places_up_to_degree_p1_f2():
    F2 = get_field(2, 1)
    places = places_up_to_degree(F2, 2)
    assert len(places) == 4  # infinity, (x), (x+1), (x^2+x+1)
    assert isinstance(places[0], InfinitePlace)
    assert sorted(pl.degree for pl in places) == [1, 1, 1, 2]


def test_degree_formula_rational():
    F3 = get_field(3, 1)
    rng = random.Random(11)
    for _ in range(20):
        num = Poly(F3, tuple(rng.randrange(3) for _ in range(rng.randrange(1, 5))))
        den = Poly(F3, tuple(rng.randrange(3) for _ in range(rng.randrange(1, 5))))
        if num.is_zero() or den.is_zero():
            continue
        f = RationalFunction(num, den)
        if f.is_zero() or f.is_constant():
            continue
        poles = sum(mult * pl.degree for pl, mult in pole_divisor(f))
        zeros = sum(mult * pl.degree for pl, mult in pole_divisor(f.inverse()))
        assert poles == zeros > 0


def test_pole_divisor_examples():
    F3 = get_field(3, 1)
    x = RationalFunction.x(F3)
    pd = pole_divisor(x**3)
    assert len(pd) == 1 and isinstance(pd[0][0], InfinitePlace) and pd[0][1] == 3
    g = RationalFunction.one(F3) / (x * x + RationalFunction.one(F3))
    pd = pole_divisor(g)
    assert len(pd) == 1 and pd[0][0].poly.coeffs == (1, 0, 1) and pd[0][1] == 1


# -- elliptic function field --------------------------------------------------


def curve_f2():
    F2 = get_field(2, 1)
    return EllipticCurve(F2, 0, 0, 1, 0, 0)  # y^2 + y = x^3


def test_elliptic_point_counts_and_hasse():
    E = curve_f2()
    assert E.count_points(1) == 3  # O, (0,0), (0,1)
    # Hasse bound and the Frobenius-eigenvalue recursion from #E(F_2) = 3
    n1 = E.count_points(1)
    a = 2 + 1 - n1
    alpha_beta_sum = {1: a}
    s_prev, s_cur = 2, a  # power sums of the Frobenius eigenvalues
    for d in range(2, 4):
        s_next = a * s_cur - 2 * s_prev
        s_prev, s_cur = s_cur, s_next
        expected = 2**d + 1 - s_cur
        assert E.count_points(d) == expected
        assert abs(2**d + 1 - E.count_points(d)) <= 2 * 2 ** (d / 2)


def test_elliptic_valuations_at_origin():
    E = curve_f2()
    O = OriginPlace(E)
    x = EllipticFunction.x(E)
    y = EllipticFunction.y(E)
    assert x.valuation_at(O) == -2
    assert y.valuation_at(O) == -3
    s = x.laurent_at(O, 0)
    assert s.valuation() == -2 and s.leading() == 1


def test_elliptic_pole_divisors():
    E = curve_f2()
    x = EllipticFunction.x(E)
    y = EllipticFunction.y(E)
    pd = pole_divisor(x)
    assert len(pd) == 1 and isinstance(pd[0][0], OriginPlace) and pd[0][1] == 2
    pd = pole_divisor(y)
    assert pd[0][1] == 3


def test_elliptic_degree_formula():
    E = curve_f2()
    x = EllipticFunction.x(E)
    y = EllipticFunction.y(E)
    one = EllipticFunction.const(E, 1)
    for f in [x, y, x + one, y + x, y * x + one]:
        poles = sum(mult * pl.degree for pl, mult in pole_divisor(f))
        zeros = sum(mult * pl.degree for pl, mult in pole_divisor(f.inverse()))
        assert poles == zeros > 0


def test_elliptic_places_cover_points():
    # degree-weighted place counts reproduce point counts over extensions
    E = curve_f2()
    places = E.places_up_to_degree(3)
    for d in range(1, 4):
        n = sum(pl.degree for pl in places if pl.degree != 0 and d % pl.degree == 0)
        assert n == E.count_points(d)


def test_singular_model_rejected():
    F2 = get_field(2, 1)
    with pytest.raises(ValueError):
        EllipticCurve(F2, 0, 0, 0, 0, 0)  # y^2 = x^3 is singular


# -- the curve adapter of a function-field ring ------------------------------

# P^1 over F_2, F_3, F_4, and the six curves of the benchmark's genus-1
# workload, as (p, m, Weierstrass coefficients or None)
ADAPTER_RINGS = [
    (2, 1, None),
    (3, 1, None),
    (2, 2, None),
    (2, 1, (0, 0, 1, 0, 0)),  # y^2 + y = x^3
    (2, 1, (0, 0, 1, 1, 0)),  # y^2 + y = x^3 + x
    (2, 1, (1, 0, 0, 0, 1)),  # y^2 + xy = x^3 + 1
    (2, 1, (1, 1, 0, 0, 1)),  # y^2 + xy = x^3 + x^2 + 1
    (3, 1, (0, 1, 0, 0, 1)),  # y^2 = x^3 + x^2 + 1
    (3, 1, (0, 0, 0, 2, 1)),  # y^2 = x^3 + 2x + 1
]


def _adapter_ring(p, m, coeffs):
    F = get_field(p, m)
    if coeffs is None:
        return RationalFunctionField(F)
    return EllipticFunctionField(EllipticCurve(F, *coeffs))


def _rational_places(ring):
    """The base place and the rational finite or affine places."""
    if isinstance(ring, RationalFunctionField):
        return places_up_to_degree(ring.field, 1)
    return ring.curve.places_up_to_degree(1)


@pytest.mark.parametrize("p, m, coeffs", ADAPTER_RINGS)
def test_witness_pole_order_and_leading_coefficient(p, m, coeffs):
    ring = _adapter_ring(p, m, coeffs)
    places = _rational_places(ring)
    assert places[0] == ring.base_place and len(places) > 1
    for place in places:
        for s in range(1, 9):
            g, lam = witness(ring, place, s)
            assert g.valuation_at(place) == -s
            assert g.laurent_at(place, 1 - s).leading() == lam


def test_witness_needs_a_rational_place():
    F = get_field(2, 1)
    quadratic = Poly(F, (1, 1, 1))
    with pytest.raises(ValueError):
        witness(RationalFunctionField(F), FinitePlace(quadratic), 1)
    ring = EllipticFunctionField(EllipticCurve(F, 0, 0, 1, 0, 0))
    (place, *_) = ring.places_above(quadratic)
    assert place.degree == 2
    with pytest.raises(ValueError):
        witness(ring, place, 1)


# the elliptic curves above, one over F_4 and one over F_5
RELATION_CURVES = [(p, m, c) for p, m, c in ADAPTER_RINGS if c is not None] + [
    (2, 2, (1, 3, 0, 0, 2)),  # y^2 + xy = x^3 + (w + 1) x^2 + w, F_4 = F_2(w)
    (5, 1, (0, 0, 0, 1, 1)),  # y^2 = x^3 + x + 1
]


def test_elliptic_curve_relation_in_series():
    # the Weierstrass relation vanishes identically in the function field,
    # and the local expansions (x_s, y_s) satisfy it to their precision at
    # the origin and at every place of degree <= 2, ramified places over
    # the x-line among them
    ramified = 0
    for p, m, coeffs in RELATION_CURVES:
        E = EllipticCurve(get_field(p, m), *coeffs)
        x = EllipticFunction.x(E)
        y = EllipticFunction.y(E)
        c1, c2, c3, c4, c6 = (EllipticFunction.const(E, c) for c in (E.a1, E.a2, E.a3, E.a4, E.a6))
        rel = y * y + c1 * x * y + c3 * y - (x * x * x + c2 * x * x + c4 * x + c6)
        assert rel.is_zero()
        places = E.places_up_to_degree(2)
        assert isinstance(places[0], OriginPlace)
        for place in places:
            if isinstance(place, OriginPlace):
                big, e = E.field, (lambda c: c)
                x_s, y_s = _origin_xy_series(E, 40)
            else:
                big, e = place.big, place.emb or (lambda c: c)
                ramified += not place.unramified_over_x
                x_s, y_s = _affine_xy_series(place, 40)
            a1, a2, a3, a4, a6 = (e(c) for c in (E.a1, E.a2, E.a3, E.a4, E.a6))
            rhs = eval_poly_at_series((a6, a4, a2, 1), x_s)
            lhs = y_s * y_s + (x_s.scale(a1) + LaurentSeries.const(big, a3, 40)) * y_s
            rel = lhs - rhs
            assert rel.is_zero() and rel.prec >= 30, (coeffs, place)
    assert ramified == 5
