"""Pole divisors and candidate pole places, rebuilt from the library's one
place walk, `asw.denominator_places`, and the valuations at its places.

Every pole of a Witt function lies among the walked places, so a place
where some coordinate has a negative valuation is a pole place and no
other place is.
"""

from wittsums.asw import denominator_places, witt_function
from wittsums.elliptic import EllipticFunction, EllipticFunctionField
from wittsums.rational import RationalFunctionField


def candidate_pole_places(f) -> list:
    """Union of the coordinate pole divisors, in the ring's place order
    (the base place first)."""
    return [
        pl for pl in denominator_places(f)
        if any(not c.is_zero() and c.valuation_at(pl) < 0 for c in f.coords)
    ]


def pole_divisor(g) -> list:
    """[(place, pole order)] over all poles of a nonzero function g, in the
    ring's place order."""
    if isinstance(g, EllipticFunction):
        ring = EllipticFunctionField(g.curve)
    else:
        ring = RationalFunctionField(g.field)
    f = witt_function(ring, (g,))
    return [(pl, -g.valuation_at(pl)) for pl in candidate_pole_places(f)]
