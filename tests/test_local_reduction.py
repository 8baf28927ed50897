"""Artin reduction in W_l(k_P((t))) against the global reduction in W_l(K).

`artin_reduce_at` reduces the expansions of f at a rational place above P
with monomial witnesses; the oracle in `global_reduction` reduces f itself
with global witnesses.  Both must give the same terms at every negative
order and at t^0, take a step at the same places, and give the same
reduced pole order.  The vectors cover P^1 over F_2, F_4, F_3 and F_5 and
the six curves of the genus-1 benchmark workload, at lengths up to 3, with
poles at the base place, at rational places and at places of degree 2,
and with pole orders divisible by p so that reduction has work to do.
"""

import random

import pytest

from wittsums.asw import artin_reduce_at, reduced_pole_order, witt_function
from wittsums.elliptic import EllipticCurve, EllipticFunction, EllipticFunctionField
from wittsums.fields import get_field
from wittsums.poly import Poly, roots_in_field
from wittsums.rational import RationalFunction, RationalFunctionField

from global_reduction import global_artin_reduce_at, global_reduced_pole_order
from pole_places import candidate_pole_places


def _low(terms):
    """The terms of order <= 0; a coordinate with none reads None."""
    return tuple(t if t and t[0] <= 0 else None for t in terms)


def _compare_at_every_pole(f) -> int:
    """Assert local == global at each pole place of f; the number of
    places where a step was taken."""
    stepped = 0
    for place in candidate_pole_places(f):
        loc = artin_reduce_at(f, place)
        glo = global_artin_reduce_at(f, place)
        assert loc.place == glo.place
        assert _low(loc.terms) == _low(glo.terms), (f, place)
        assert loc.stepped == (not glo.witness.is_zero()), (f, place)
        assert reduced_pole_order(f, place) == global_reduced_pole_order(f, glo)
        stepped += loc.stepped
    return stepped


def _irreducible_quadratic(F):
    for c0 in range(1, F.q):
        for c1 in range(F.q):
            pi = Poly(F, (c0, c1, 1))
            if not roots_in_field(pi):
                return pi
    raise AssertionError("no irreducible quadratic")


# (p, m, lengths, vectors per length); at p = 5, l = 3 the global oracle
# takes up to 90 s for one of these vectors, so that case has its own test
P1_FIELDS = ((2, 1, (1, 2, 3), 6), (2, 2, (1, 2, 3), 4), (3, 1, (1, 2, 3), 3), (5, 1, (1, 2), 4))


@pytest.mark.parametrize("p, m, lengths, count", P1_FIELDS)
def test_local_reduction_matches_global_p1(p, m, lengths, count):
    F = get_field(p, m)
    K = RationalFunctionField(F)
    x = RationalFunction.x(F)
    one = RationalFunction.one(F)
    # poles at infinity, at x = 1 and at a place of degree 2
    poles = [x.inverse(), x - one, RationalFunction.from_poly(_irreducible_quadratic(F))]
    rng = random.Random(f"local-p1-{p}-{m}")
    stepped = 0
    for l in lengths:
        for _ in range(count):
            coords = []
            for i in range(l):
                acc = RationalFunction.const(F, rng.randrange(F.q))
                for h in rng.sample(poles, rng.randrange(1, 3)):
                    # a p-divisible order on the first coordinate, and small
                    # orders beside it
                    for e in {p * rng.randrange(1, 3) if i == 0 else p, rng.randrange(1, p + 1)}:
                        acc = acc + (h ** (-e)).scale(rng.randrange(1, F.q))
                coords.append(acc)
            stepped += _compare_at_every_pole(witt_function(K, coords))
    assert stepped >= count * len(lengths)


def test_local_reduction_matches_global_p1_length3_over_f5():
    F = get_field(5, 1)
    K = RationalFunctionField(F)
    x = RationalFunction.x(F)
    h = (x - RationalFunction.one(F)).inverse()
    vectors = [
        (x**5 + x.scale(2), x**2, x),
        (h**5 + x, x, h),
        (x**5, x**5, x**5),
        (x**10 + x**3, x**2 + x, x),
    ]
    assert sum(_compare_at_every_pole(witt_function(K, v)) for v in vectors) == 4


# (a1, a2, a3, a4, a6), p, lengths: the curves of the genus-1 workload
GENUS1_CURVES = (
    ((0, 0, 1, 0, 0), 2, (1, 2, 3)),
    ((0, 0, 1, 1, 0), 2, (1, 2, 3)),
    ((1, 0, 0, 0, 1), 2, (1, 2, 3)),
    ((1, 1, 0, 0, 1), 2, (1, 2, 3)),
    ((0, 1, 0, 0, 1), 3, (1, 2, 3)),
    ((0, 0, 0, 2, 1), 3, (1, 2, 3)),
)


@pytest.mark.parametrize("coeffs, p, lengths", GENUS1_CURVES)
def test_local_reduction_matches_global_elliptic(coeffs, p, lengths):
    E = EllipticCurve(get_field(p, 1), *coeffs)
    ring = EllipticFunctionField(E)
    F = ring.field
    x, y = EllipticFunction.x(E), EllipticFunction.y(E)
    # pole orders 2 (x) and 3 (y) at the origin, p at the places above
    # x = 0, and poles at the places above an irreducible quadratic in x
    quad = RationalFunction.from_poly(_irreducible_quadratic(F))
    monomials = [x, y, x * x, x * y, y * y, x.inverse() ** p, EllipticFunction.from_rational(E, quad.inverse())]
    rng = random.Random(f"local-elliptic-{coeffs}")
    stepped = 0
    for l in lengths:
        for _ in range(3):
            coords = []
            for _ in range(l):
                acc = EllipticFunction.const(E, rng.randrange(F.q))
                for g in rng.sample(monomials, 3):
                    acc = acc + g.scale(rng.randrange(1, F.q))
                coords.append(acc)
            stepped += _compare_at_every_pole(witt_function(ring, coords))
    assert stepped >= len(lengths)
