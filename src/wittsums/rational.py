"""The rational function field k(x) over a finite field k.

Provides normalized rational functions, the places of the projective line
(monic irreducible polynomials plus the place at infinity), valuations,
local Laurent expansions, and point/place enumeration with a hard cap on
enumeration size.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fields import EnumerationCapError, FiniteField, extension
from .poly import OperatorRing, Poly, irreducibles_of_degree, roots_in_field
from .series import LaurentSeries, eval_poly_at_series

ENUMERATION_CAP = 10**7


@dataclass(frozen=True)
class FinitePlace:
    """A finite place of P^1/k: a monic irreducible polynomial in x."""

    poly: Poly

    def __post_init__(self):
        if self.poly.is_constant() or self.poly.leading() != 1:
            raise ValueError("a finite place is a monic irreducible of degree >= 1")

    @property
    def degree(self) -> int:
        return self.poly.degree

    @property
    def field(self) -> FiniteField:
        return self.poly.field

    def __repr__(self):
        return f"FinitePlace({self.poly})"


@dataclass(frozen=True)
class InfinitePlace:
    """The place at infinity of P^1/k (degree 1)."""

    field: FiniteField

    degree = 1

    def __repr__(self):
        return "InfinitePlace()"


class RationalFunction:
    """num/den with den monic and gcd(num, den) = 1.

    This canonical form is what `==`, `hash` and the caches keyed on
    functions rely on.  The general constructor pays one gcd to reach it;
    the operators keep it with the classical fraction shortcuts instead
    (for a/b and c/d, both canonical):

    - a sum takes one gcd(a + c, b) when b = d, and otherwise
      g = gcd(b, d), with one more gcd(t, g) on the numerator
      t = a (d/g) + c (b/g) only when g != 1 (Henrici);
    - a product cross-cancels, gcd(a, d) and gcd(c, b), and a quotient
      (a d)/(b c) likewise gcd(a, c) and gcd(d, b);
    - a power, negation, scaling and inverse take none.

    A gcd with a constant argument is skipped, so a sum or product whose
    denominators are 1 takes none; one with a monomial c x^k is read off
    the other argument's order at 0, with no polynomial division.
    """

    __slots__ = ("field", "num", "den")

    def __init__(self, num: Poly, den: Poly | None = None, *, _normalized=False):
        field = num.field
        if den is None:
            den = Poly.one(field)
        if den.is_zero():
            raise ZeroDivisionError("rational function with zero denominator")
        if not _normalized:
            g = num.gcd(den)
            if not g.is_constant():
                num = num // g
                den = den // g
            lead_inv = field.inv(den.leading())
            num = num.scale(lead_inv)
            den = den.scale(lead_inv)
        self.field = field
        self.num = num
        self.den = den

    @classmethod
    def _coprime(cls, num: Poly, den: Poly):
        """num/den for coprime num and monic den; the zero function gets
        the denominator 1."""
        if num.is_zero():
            return cls.zero(num.field)
        return cls(num, den, _normalized=True)

    @classmethod
    def _monic(cls, num: Poly, den: Poly):
        """num/den for coprime num and den, made monic in den."""
        lead = den.leading()
        if lead != 1:
            inv = num.field.inv(lead)
            num, den = num.scale(inv), den.scale(inv)
        return cls(num, den, _normalized=True)

    # -- constructors

    @classmethod
    def zero(cls, field):
        return cls(Poly.zero(field), Poly.one(field), _normalized=True)

    @classmethod
    def one(cls, field):
        return cls(Poly.one(field), Poly.one(field), _normalized=True)

    @classmethod
    def const(cls, field, c):
        return cls(Poly.const(field, c), Poly.one(field), _normalized=True)

    @classmethod
    def x(cls, field):
        return cls(Poly.x(field), Poly.one(field), _normalized=True)

    @classmethod
    def from_poly(cls, f: Poly):
        return cls(f, Poly.one(f.field), _normalized=True)

    # -- queries

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def is_constant(self) -> bool:
        return self.num.is_constant() and self.den.is_constant()

    def denominators(self) -> tuple:
        """The polynomials whose zeros are the only possible finite poles."""
        return (self.den,)

    def __eq__(self, other):
        if not isinstance(other, RationalFunction):
            return NotImplemented
        return (
            self.field == other.field
            and self.num == other.num
            and self.den == other.den
        )

    def __hash__(self):
        return hash((self.field, self.num, self.den))

    # -- arithmetic

    def __add__(self, other):
        a, b, c, d = self.num, self.den, other.num, other.den
        if a.is_zero():
            return other
        if c.is_zero():
            return self
        if b == d:
            return RationalFunction._coprime(*_cancel(a + c, b))
        g = _gcd(b, d)
        if g is None:
            return RationalFunction._coprime(a * d + c * b, b * d)
        b1 = b // g
        t = a * (d // g) + c * b1
        g2 = _gcd(t, g)  # = gcd(t, d)
        if g2 is not None:
            t, d = t // g2, d // g2
        return RationalFunction._coprime(t, b1 * d)

    def __neg__(self):
        return RationalFunction(-self.num, self.den, _normalized=True)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        a, b, c, d = self.num, self.den, other.num, other.den
        if a.is_zero():
            return self
        if c.is_zero():
            return other
        a, d = _cancel(a, d)
        c, b = _cancel(c, b)
        return RationalFunction(a * c, b * d, _normalized=True)

    def __truediv__(self, other):
        if other.is_zero():
            raise ZeroDivisionError("division by the zero function")
        a, b, c, d = self.num, self.den, other.num, other.den
        if a.is_zero():
            return self
        a, c = _cancel(a, c)
        d, b = _cancel(d, b)
        return RationalFunction._monic(a * d, b * c)

    def inverse(self) -> "RationalFunction":
        if self.is_zero():
            raise ZeroDivisionError("division by the zero function")
        return RationalFunction._monic(self.den, self.num)

    def __pow__(self, n: int):
        if n < 0:
            return self.inverse() ** (-n)
        return RationalFunction(self.num**n, self.den**n, _normalized=True)

    def scale(self, c: int) -> "RationalFunction":
        if c == 0:
            return RationalFunction.zero(self.field)
        return RationalFunction(self.num.scale(c), self.den, _normalized=True)

    def map_field(self, emb) -> "RationalFunction":
        """Extend constants along a field embedding."""
        return RationalFunction(
            self.num.map_field(emb), self.den.map_field(emb), _normalized=True
        )

    def eval(self, x: int, big: FiniteField | None = None, emb=None) -> int:
        """Value at a point with coordinate in the base field or an extension.

        Raises ZeroDivisionError at a pole.
        """
        if big is None:
            big = self.field
        return big.mul(self.num.eval(x, big, emb), big.inv(self.den.eval(x, big, emb)))

    def eval_array(self, xs, big: FiniteField | None = None, emb=None):
        """Values at a numpy array of points, as `eval` gives them one at a
        time; raises ZeroDivisionError if any point is a pole."""
        if big is None:
            big = self.field
        return self.eval_logs(big.log[xs], big, emb)

    def eval_logs(self, lx, big: FiniteField, emb=None):
        """Values at the points whose logs are lx (-1 for the point 0), as
        `Poly.eval_logs` gives num and den; the quotient is a difference of
        logs.  Raises ZeroDivisionError if any point is a pole."""
        num = self.num.eval_logs(lx, big, emb)
        den = self.den.eval_logs(lx, big, emb)
        if not den.all():
            raise ZeroDivisionError("inverse of 0")
        quo = big.exp[(big.log[num] - big.log[den]) % (big.q - 1)]
        return np.where(num == 0, 0, quo)

    # -- places and valuations

    def valuation_at(self, place) -> int:
        """v_P(f); raises ValueError for the zero function."""
        if self.is_zero():
            raise ValueError("the zero function has no valuation")
        if isinstance(place, InfinitePlace):
            return self.den.degree - self.num.degree
        return self._split_at(place.poly)[0]

    def _split_at(self, pi: Poly):
        """(v, n, d): f = pi^v n/d with pi dividing neither n nor d."""
        v, n, d = 0, self.num, self.den
        while True:
            q, r = n.divmod(pi)
            if not r.is_zero():
                break
            n, v = q, v + 1
        if v:
            return v, n, d
        while True:
            q, r = d.divmod(pi)
            if not r.is_zero():
                break
            d, v = q, v - 1
        return v, n, d

    def leading_term_at(self, place) -> tuple:
        """(v, a): the valuation at the place and the leading coefficient of
        the expansion `laurent_at` gives, with no series.  At a finite place
        f = pi^v n/d and pi = (x - root) h with h(root) = pi'(root), so
        a = (n/d)(root) pi'(root)^v; at infinity a is the leading
        coefficient of num (den is monic).  Raises ValueError for the zero
        function."""
        if self.is_zero():
            raise ValueError("the zero function has no valuation")
        if isinstance(place, InfinitePlace):
            return self.den.degree - self.num.degree, self.num.leading()
        pi = place.poly
        v, n, d = self._split_at(pi)
        big, emb, root = _residue_root(pi)
        nv, dv, dpi = (g.eval(root, big, emb) for g in (n, d, pi.derivative()))
        return v, big.mul(big.div(nv, dv), big.pow(dpi, v))

    def laurent_at(self, place, prec: int) -> LaurentSeries:
        """Expansion in the standard local parameter at the place.

        At a rational place (x - alpha) the parameter is t = x - alpha; at
        infinity it is t = 1/x.  At a place of degree e > 1 constants are
        extended to the residue field F_{q^e} and the expansion is taken at a
        root of the place polynomial, in the parameter t = x - root.
        """
        F = self.field
        if isinstance(place, InfinitePlace):
            # x = 1/t:  f = t^(deg den - deg num) * rev(num)(t) / rev(den)(t)
            rn, rd = self.num.reverse(), self.den.reverse()
            work = prec + max(0, self.num.degree - self.den.degree) + 1
            t = LaurentSeries.t_power(F, 1, work)
            num_s = eval_poly_at_series(rn.coeffs, t).shift(
                self.den.degree - self.num.degree
            )
            den_s = eval_poly_at_series(rd.coeffs, t)
            return (num_s * den_s.inverse()).truncate(prec)
        big, emb, root = _residue_root(place.poly)
        # substitute x = root + t and divide the two polynomial expansions;
        # the guard terms absorb precision lost inverting a denominator that
        # vanishes at the place
        t = LaurentSeries(big, 0, [root, 1], prec + 2 * self.den.degree + 2)
        num_s = eval_poly_at_series(self.num.coeffs, t, emb)
        den_s = eval_poly_at_series(self.den.coeffs, t, emb)
        return (num_s * den_s.inverse()).truncate(prec)

    def __repr__(self):
        return f"RationalFunction(({self.num})/({self.den}))"


def _residue_root(pi: Poly):
    """(F_{q^e}, the embedding of the constants or None, the least root
    of pi there) for a monic irreducible pi of degree e."""
    F = pi.field
    if pi.degree == 1:
        return F, None, F.neg(pi.coeffs[0])
    big, emb = extension(F, pi.degree)
    return big, emb, min(roots_in_field(pi.map_field(emb)))


def _gcd(u: Poly, v: Poly) -> Poly | None:
    """gcd(u, v) for v nonzero, or None when it is 1 or u is zero (the
    callers then keep u and v as they are); a constant argument costs no
    division, and neither does a monomial c x^k, whose gcd with the other
    argument is x^min(k, its order at 0).  Powers of x are the denominators
    of Laurent polynomials in x and of their Witt sums and products."""
    if u.is_constant() or v.is_constant():
        return None
    for s, t in ((u, v), (v, u)):
        if not any(s.coeffs[:-1]):
            k = min(s.degree, next(i for i, c in enumerate(t.coeffs) if c))
            return Poly.x(s.field) ** k if k else None
    g = u.gcd(v)
    return None if g.is_constant() else g


def _cancel(u: Poly, v: Poly):
    """(u/g, v/g) for g = gcd(u, v), v nonzero."""
    g = _gcd(u, v)
    return (u, v) if g is None else (u // g, v // g)


def places_up_to_degree(field: FiniteField, dmax: int) -> list:
    """All places of P^1/k of degree <= dmax (infinity included), ordered by
    degree then coefficient code."""
    if field.q**dmax > ENUMERATION_CAP:
        raise EnumerationCapError(
            f"place enumeration size {field.q}^{dmax} exceeds cap {ENUMERATION_CAP}"
        )
    out: list = [InfinitePlace(field)]
    for d in range(1, dmax + 1):
        out.extend(FinitePlace(f) for f in irreducibles_of_degree(field, d))
    return out


class RationalFunctionField(OperatorRing):
    """k(x) as a Witt coefficient ring (elements are RationalFunction),
    with the curve adapter of P^1: the base place is infinity, the affine
    points are the codes x, and a finite place is the zero set of its
    polynomial."""

    genus = 0

    def __init__(self, field: FiniteField):
        self.field = field

    @property
    def key(self):
        return self.field

    def const(self, c: int):
        return RationalFunction.const(self.field, c)

    # -- the curve adapter

    @property
    def base_place(self) -> InfinitePlace:
        return InfinitePlace(self.field)

    def places_above(self, pi: Poly) -> list:
        """The places over a monic irreducible pi(x): pi itself."""
        return [FinitePlace(pi)]

    def place_key(self, place):
        """Sort key: infinity first, then by degree and coefficients."""
        if isinstance(place, InfinitePlace):
            return (0,)
        return (place.degree, place.poly.coeffs)

    def points_over(self, big: FiniteField, emb) -> tuple:
        """The affine points over `big` as code arrays: (xs,)."""
        return (np.arange(big.q),)

    def place_mask(self, place: FinitePlace, points, big: FiniteField, emb):
        """Which of `points` (from points_over) lie on a finite place."""
        return place.poly.eval_logs(big.log[points[0]], big, emb) == 0

    def rational_above(self, place):
        """(ring', place', emb): a rational place above `place` over the
        constant-field extension by its degree, with the embedding of the
        constants (None and the place itself when it is rational)."""
        if place.degree == 1:
            return self, place, None
        big, emb, root = _residue_root(place.poly)
        return RationalFunctionField(big), FinitePlace(Poly(big, (big.neg(root), 1))), emb
