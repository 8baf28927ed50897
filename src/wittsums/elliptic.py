"""Elliptic function fields: smooth Weierstrass curves over finite fields.

Functions on the curve are represented as u(x) + v(x)*y with u, v rational
functions of x; arithmetic uses y^2 = B(x) - A(x)*y where A = a1*x + a3 and
B = x^3 + a2*x^2 + a4*x + a6.  Local expansions use the parameter x/y at
the point at infinity and x - x0 (or y - y0 at ramified points) at affine
points.  One Newton solver finds them all: at each place the unknown
coordinate (1/y, y or x) is a root of a polynomial whose coefficients are
series in the parameter, and each step doubles its known terms.  The
leading term at the point at infinity needs no series: x and y lead with
t^-2 and t^-3.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .fields import FiniteField, extension, get_embedding_over
from .poly import OperatorRing, Poly, power, roots_in_field
from .rational import ENUMERATION_CAP, EnumerationCapError, RationalFunction
from .series import MAX_SERIES_PREC, LaurentSeries, PrecisionError, eval_poly_at_series


@lru_cache(maxsize=128)
def _artin_schreier_table(field: FiniteField):
    """t[u] = a solution z of z^2 + z = u over a char-2 field, or -1.

    Codes z and z ^ 1 differ by the element 1 and share the image, so the
    even codes reach every image exactly once."""
    z = np.arange(0, field.q, 2)
    t = np.full(field.q, -1, dtype=np.int64)
    t[field.add_array(field.mul_array(z, z), z)] = z
    t.flags.writeable = False
    return t


class EllipticCurve:
    """y^2 + a1*x*y + a3*y = x^3 + a2*x^2 + a4*x + a6, smooth, over F_q."""

    def __init__(self, field: FiniteField, a1: int, a2: int, a3: int, a4: int, a6: int):
        self.field = field
        self.a1, self.a2, self.a3, self.a4, self.a6 = a1, a2, a3, a4, a6
        if self.discriminant() == 0:
            raise ValueError("singular Weierstrass model (discriminant = 0)")

    def discriminant(self) -> int:
        F = self.field
        a1, a2, a3, a4, a6 = self.a1, self.a2, self.a3, self.a4, self.a6
        b2 = F.add(F.mul(a1, a1), F.mul(F.from_int(4), a2))
        b4 = F.add(F.mul(F.from_int(2), a4), F.mul(a1, a3))
        b6 = F.add(F.mul(a3, a3), F.mul(F.from_int(4), a6))
        b8 = F.add(
            F.add(F.mul(F.mul(a1, a1), a6), F.mul(F.from_int(4), F.mul(a2, a6))),
            F.add(
                F.sub(F.mul(a2, F.mul(a3, a3)), F.mul(a1, F.mul(a3, a4))),
                F.neg(F.mul(a4, a4)),
            ),
        )
        t1 = F.neg(F.mul(F.mul(b2, b2), b8))
        t2 = F.neg(F.mul(F.from_int(8), F.pow(b4, 3)))
        t3 = F.neg(F.mul(F.from_int(27), F.mul(b6, b6)))
        t4 = F.mul(F.from_int(9), F.mul(b2, F.mul(b4, b6)))
        return F.add(F.add(t1, t2), F.add(t3, t4))

    def map_field(self, emb) -> "EllipticCurve":
        """The same model with constants extended along a field embedding."""
        return EllipticCurve(
            emb.big, emb(self.a1), emb(self.a2), emb(self.a3), emb(self.a4), emb(self.a6)
        )

    # A(x) = a1*x + a3,  B(x) = x^3 + a2*x^2 + a4*x + a6 (base-field polys)
    def poly_A(self) -> Poly:
        return Poly(self.field, (self.a3, self.a1))

    def poly_B(self) -> Poly:
        return Poly(self.field, (self.a6, self.a4, self.a2, 1))

    def __eq__(self, other):
        return isinstance(other, EllipticCurve) and (
            self.field,
            self.a1,
            self.a2,
            self.a3,
            self.a4,
            self.a6,
        ) == (other.field, other.a1, other.a2, other.a3, other.a4, other.a6)

    def __hash__(self):
        return hash((self.field, self.a1, self.a2, self.a3, self.a4, self.a6))

    def __repr__(self):
        return (
            f"EllipticCurve(F_{self.field.q}; a1={self.a1}, a2={self.a2}, "
            f"a3={self.a3}, a4={self.a4}, a6={self.a6})"
        )

    # -- points ---------------------------------------------------------

    def points_above(self, big: FiniteField, emb, xs):
        """The affine points over `big` whose x lies in the code array xs,
        as code arrays (xs, ys) ordered by x, then y; emb embeds the
        constants (None when big is the curve's field).

        y^2 + A y = B, A = A(x), B = B(x): in characteristic 2 y is the
        square root of B when A = 0, else y = A z with z^2 + z = B / A^2;
        in odd characteristic (2y + A)^2 = A^2 + 4B, a square exactly when
        its log is even."""
        xs = np.asarray(xs, dtype=np.int64)
        n, exp, log = big.q - 1, big.exp, big.log
        lx = log[xs]
        A = self.poly_A().eval_logs(lx, big, emb)
        B = self.poly_B().eval_logs(lx, big, emb)
        if big.p == 2:
            # the log of a zero code is -1: the entries it spoils are replaced
            z = _artin_schreier_table(big)[np.where(B == 0, 0, exp[(log[B] - 2 * log[A]) % n])]
            ok = (A == 0) | (z >= 0)
            root_b = np.where(B == 0, 0, exp[log[B] * (big.q // 2) % n])  # y^2 = B
            y1 = np.where(A == 0, root_b, big.mul_array(A, np.maximum(z, 0)))
            y2 = y1 ^ A  # the other root, y + A
        else:
            disc = big.add_array(big.mul_array(A, A), big.mul_array(B, big.from_int(4)))
            ok = (disc == 0) | (log[disc] % 2 == 0)
            s = np.where(disc == 0, 0, exp[log[disc] // 2])
            half = big.inv(big.from_int(2))
            y1 = big.add_array(big.mul_array(s, half), big.mul_array(A, big.neg(half)))
            y2 = big.mul_array(big.add_array(s, A), big.neg(half))
        lo, hi = np.minimum(y1, y2), np.maximum(y1, y2)
        count = np.where(ok, np.where(lo == hi, 1, 2), 0)
        return np.repeat(xs, count), np.stack([lo, hi], axis=1)[np.arange(2) < count[:, None]]

    def affine_points(self, d: int = 1):
        """(big field, embedding, xs, ys): the affine points over F_{q^d}
        as code arrays."""
        F = self.field
        if F.q**d > ENUMERATION_CAP:
            raise EnumerationCapError(
                f"point enumeration size {F.q}^{d} exceeds cap {ENUMERATION_CAP}"
            )
        big, emb = extension(self.field, d)
        return (big, emb) + self.points_above(big, emb, np.arange(big.q))

    def count_points(self, d: int = 1) -> int:
        """#E(F_{q^d}) including the point at infinity."""
        return len(self.affine_points(d)[2]) + 1

    # -- places ---------------------------------------------------------

    def origin(self) -> "OriginPlace":
        return OriginPlace(self)

    def places_above(self, pi: Poly) -> list["AffinePlace"]:
        """The places of the curve lying over a monic irreducible pi(x).

        Split or ramified: the points above the least root x0 of pi lie
        over F_{q^e}, e = deg pi, one place through each.  Inert: none do,
        and the one place has its two points above x0 over F_{q^2e}."""
        big, emb = extension(self.field, pi.degree)
        x0 = min(roots_in_field(pi.map_field(emb) if emb else pi))
        ys = self.points_above(big, emb, [x0])[1].tolist()
        if ys:
            return [AffinePlace.from_point(self, big, emb, x0, y0) for y0 in ys]
        big, emb = extension(self.field, 2 * pi.degree)
        x0 = min(roots_in_field(pi.map_field(emb)))
        y0 = int(self.points_above(big, emb, [x0])[1][0])
        return [AffinePlace.from_point(self, big, emb, x0, y0)]

    def places_up_to_degree(self, dmax: int) -> list:
        """All places of the curve of degree <= dmax, origin first."""
        F = self.field
        if F.q**dmax > ENUMERATION_CAP:
            raise EnumerationCapError(
                f"place enumeration size {F.q}^{dmax} exceeds cap {ENUMERATION_CAP}"
            )
        out: list = [OriginPlace(self)]
        seen = set()
        for d in range(1, dmax + 1):
            big, emb, xs, ys = self.affine_points(d)
            for x0, y0 in zip(xs.tolist(), ys.tolist()):
                pl = AffinePlace.from_point(self, big, emb, x0, y0)
                if pl.degree == d and pl not in seen:
                    seen.add(pl)
                    out.append(pl)
        return out


class OriginPlace:
    """The point at infinity of a Weierstrass model (always rational)."""

    __slots__ = ("curve",)

    degree = 1

    def __init__(self, curve: EllipticCurve):
        self.curve = curve

    def __eq__(self, other):
        return isinstance(other, OriginPlace) and self.curve == other.curve

    def __hash__(self):
        return hash(("OriginPlace", self.curve))

    def __repr__(self):
        return "OriginPlace()"


class AffinePlace:
    """A closed affine point: a Frobenius orbit of geometric points.

    Coordinates live in F_{q^e} for e the field extension holding the orbit;
    the place degree is the orbit size.
    """

    __slots__ = ("curve", "ext_degree", "orbit", "big", "emb")

    def __init__(self, curve, ext_degree, orbit, big, emb):
        self.curve = curve
        self.ext_degree = ext_degree
        self.orbit = orbit  # sorted tuple of (x, y) codes in `big`
        self.big = big
        self.emb = emb

    @classmethod
    def from_point(cls, curve: EllipticCurve, big: FiniteField, emb, x0: int, y0: int):
        q = curve.field.q
        orbit = set()
        pt = (x0, y0)
        while pt not in orbit:
            orbit.add(pt)
            pt = (big.pow(pt[0], q), big.pow(pt[1], q))
        ext = big.m // curve.field.m
        return cls(curve, ext, tuple(sorted(orbit)), big, emb)

    @property
    def degree(self) -> int:
        return len(self.orbit)

    def points_in(self, big: FiniteField) -> list:
        """The place's points as (x, y) codes in `big`, an extension of the
        curve's field; none unless big contains the place's field."""
        if big.m % self.big.m:
            return []
        if big == self.big:
            return list(self.orbit)
        F = self.curve.field
        emb = get_embedding_over(F.p, F.m, self.big.m, big.m)
        return [(emb(x), emb(y)) for x, y in self.orbit]

    @property
    def representative(self):
        return self.orbit[0]

    @property
    def unramified_over_x(self) -> bool:
        """Whether x - x0 is a local parameter at the place, that is
        dG/dy = 2 y0 + a1 x0 + a3 != 0 at its representative; otherwise
        y - y0 is."""
        E, big = self.curve, self.big
        e = self.emb if self.emb else (lambda c: c)
        x0, y0 = self.representative
        return big.add(big.add(y0, y0), big.add(big.mul(e(E.a1), x0), e(E.a3))) != 0

    def __eq__(self, other):
        return (
            isinstance(other, AffinePlace)
            and self.curve == other.curve
            and self.ext_degree == other.ext_degree
            and self.orbit == other.orbit
        )

    def __hash__(self):
        return hash(("AffinePlace", self.curve, self.ext_degree, self.orbit))

    def __repr__(self):
        return f"AffinePlace(ext={self.ext_degree}, rep={self.orbit[0]})"


# -- local expansions ---------------------------------------------------


def _newton_root(coeffs, w: LaurentSeries, prec: int) -> LaurentSeries:
    """The root of H(w) = sum_j coeffs[j] w^j that agrees with the start
    value w, to precision prec.  The coefficients are LaurentSeries of
    valuation >= 0 known to precision prec.

    Each step w <- w - H(w)/H'(w) doubles the known terms, H' built once
    from the j*coeffs[j]; raises ArithmeticError when H'(w) is not a unit at
    the start value, which is the point being singular on the model."""
    if prec <= w.prec:
        return w
    F = w.field
    deriv = [c.scale(F.from_int(j)) for j, c in enumerate(coeffs)][1:]

    def horner(cs, w):
        acc = cs[-1]
        for c in reversed(cs[:-1]):
            acc = acc * w + c
        return acc

    if horner(deriv, w).val != 0:
        raise ArithmeticError("singular point on a smooth model")
    known = w.prec
    while known < prec:
        known = min(2 * known, prec)
        w = LaurentSeries(F, w.val, w.coeffs, known)
        w = w - horner(coeffs, w) * horner(deriv, w).inverse()
    return w


@lru_cache(maxsize=128)
def _origin_xy_series(curve: EllipticCurve, prec: int):
    """Expansions of (x, y) at the origin in the parameter t = x/y.

    w = 1/y is the root of -t^3 + (1 + a1 t - a2 t^2) w + (a3 - a4 t) w^2
    - a6 w^3 with w = t^3 + O(t^4), where H' = 1 mod t; then x = t/w and
    y = 1/w."""
    F, neg = curve.field, curve.field.neg
    wp = prec + 7  # w = 1/y has valuation 3; inversion costs 2*3 terms
    t = LaurentSeries.t_power(F, 1, wp)
    a1, a2, a3, a4, a6 = curve.a1, curve.a2, curve.a3, curve.a4, curve.a6
    polys = ((0, 0, 0, neg(1)), (1, a1, neg(a2)), (a3, neg(a4)), (neg(a6),))
    coeffs = [eval_poly_at_series(c, t) for c in polys]
    winv = _newton_root(coeffs, LaurentSeries.t_power(F, 3, 4), wp).inverse()
    return (t * winv).truncate(prec), winv.truncate(prec)


@lru_cache(maxsize=128)
def _affine_xy_series(place: AffinePlace, prec: int):
    """Expansions of (x, y) at an affine place in its standard parameter.

    Unramified over the x-line: t = x - x0, and y is the root of
    y^2 + A(x) y - B(x) near y0.  Ramified: t = y - y0, and x is the root of
    -x^3 - a2 x^2 + (a1 y - a4) x + y^2 + a3 y - a6 near x0.
    """
    E, big, emb = place.curve, place.big, place.emb
    neg = E.field.neg
    x0, y0 = place.representative
    if place.unramified_over_x:
        x_s = LaurentSeries(big, 0, [x0, 1], prec)
        polys = ((-E.poly_B()).coeffs, E.poly_A().coeffs, (1,))
        coeffs = [eval_poly_at_series(c, x_s, emb) for c in polys]
        return x_s, _newton_root(coeffs, LaurentSeries.const(big, y0, 1), prec)
    y_s = LaurentSeries(big, 0, [y0, 1], prec)
    polys = ((neg(E.a6), E.a3, 1), (neg(E.a4), E.a1), (neg(E.a2),), (neg(1),))
    coeffs = [eval_poly_at_series(c, y_s, emb) for c in polys]
    return _newton_root(coeffs, LaurentSeries.const(big, x0, 1), prec), y_s


class EllipticFunction:
    """u(x) + v(x)*y as a function on an elliptic curve."""

    __slots__ = ("curve", "u", "v")

    def __init__(self, curve: EllipticCurve, u: RationalFunction, v: RationalFunction):
        self.curve = curve
        self.u = u
        self.v = v

    # -- constructors

    @classmethod
    def zero(cls, curve):
        F = curve.field
        return cls(curve, RationalFunction.zero(F), RationalFunction.zero(F))

    @classmethod
    def one(cls, curve):
        F = curve.field
        return cls(curve, RationalFunction.one(F), RationalFunction.zero(F))

    @classmethod
    def const(cls, curve, c):
        F = curve.field
        return cls(curve, RationalFunction.const(F, c), RationalFunction.zero(F))

    @classmethod
    def x(cls, curve):
        F = curve.field
        return cls(curve, RationalFunction.x(F), RationalFunction.zero(F))

    @classmethod
    def y(cls, curve):
        F = curve.field
        return cls(curve, RationalFunction.zero(F), RationalFunction.one(F))

    @classmethod
    def from_rational(cls, curve, u: RationalFunction):
        return cls(curve, u, RationalFunction.zero(curve.field))

    # -- queries

    def is_zero(self) -> bool:
        return self.u.is_zero() and self.v.is_zero()

    def denominators(self) -> tuple:
        """The polynomials in x whose zeros carry every affine pole."""
        return (self.u.den, self.v.den)

    def __eq__(self, other):
        if not isinstance(other, EllipticFunction):
            return NotImplemented
        return self.curve == other.curve and self.u == other.u and self.v == other.v

    def __hash__(self):
        return hash((self.curve, self.u, self.v))

    # -- arithmetic (y^2 = B - A*y)

    def _rat(self, f: Poly) -> RationalFunction:
        return RationalFunction.from_poly(f)

    def __add__(self, other):
        return EllipticFunction(self.curve, self.u + other.u, self.v + other.v)

    def __neg__(self):
        return EllipticFunction(self.curve, -self.u, -self.v)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        A = self._rat(self.curve.poly_A())
        B = self._rat(self.curve.poly_B())
        u1, v1, u2, v2 = self.u, self.v, other.u, other.v
        uu = u1 * u2 + v1 * v2 * B
        vv = u1 * v2 + u2 * v1 - v1 * v2 * A
        return EllipticFunction(self.curve, uu, vv)

    def conjugate(self) -> "EllipticFunction":
        """Image under y -> -y - A, the hyperelliptic involution."""
        A = self._rat(self.curve.poly_A())
        return EllipticFunction(self.curve, self.u - self.v * A, -self.v)

    def norm(self) -> RationalFunction:
        """f * conjugate(f) = u^2 - u*v*A - v^2*B, a function of x alone."""
        A = self._rat(self.curve.poly_A())
        B = self._rat(self.curve.poly_B())
        return self.u * self.u - self.u * self.v * A - self.v * self.v * B

    def inverse(self) -> "EllipticFunction":
        if self.is_zero():
            raise ZeroDivisionError("inverting the zero function")
        n = self.norm()
        conj = self.conjugate()
        return EllipticFunction(self.curve, conj.u / n, conj.v / n)

    def __truediv__(self, other):
        return self * other.inverse()

    def __pow__(self, n: int):
        if n < 0:
            return self.inverse() ** (-n)
        return power(self, n, EllipticFunction.one(self.curve))

    def scale(self, c: int) -> "EllipticFunction":
        return EllipticFunction(self.curve, self.u.scale(c), self.v.scale(c))

    def map_field(self, emb) -> "EllipticFunction":
        """Extend constants along a field embedding (base change of the curve)."""
        return EllipticFunction(
            self.curve.map_field(emb), self.u.map_field(emb), self.v.map_field(emb)
        )

    # -- evaluation and expansion

    def eval_at_point(self, big: FiniteField, emb, x0: int, y0: int) -> int:
        """Value at an affine point; raises ZeroDivisionError at poles."""
        uval = self.u.eval(x0, big, emb)
        vval = self.v.eval(x0, big, emb)
        return big.add(uval, big.mul(vval, y0))

    def eval_array(self, xs, ys, big: FiniteField | None = None, emb=None):
        """Values at the affine points with code arrays xs, ys, as
        `eval_at_point` gives them one at a time; raises ZeroDivisionError
        if u or v has a pole at any x."""
        if big is None:
            big = self.curve.field
        lx = big.log[xs]
        out = self.u.eval_logs(lx, big, emb)
        if self.v.is_zero():
            return out
        return big.add_array(out, big.mul_array(self.v.eval_logs(lx, big, emb), ys))

    def _eval_rat_at_series(self, f: RationalFunction, x_s, emb):
        num = eval_poly_at_series(f.num.coeffs, x_s, emb)
        den = eval_poly_at_series(f.den.coeffs, x_s, emb)
        return num * den.inverse()

    def laurent_at(self, place, prec: int) -> LaurentSeries:
        """Expansion in the standard parameter at a place of the curve."""
        if isinstance(place, OriginPlace):
            if place.curve != self.curve:
                raise ValueError("place belongs to a different curve")
            # generous working precision: x, y have poles of order 2, 3
            deg = max(
                self.u.den.degree + self.u.num.degree,
                self.v.den.degree + self.v.num.degree + 2,
            )
            work = prec + 6 * (deg + 2)
            x_s, y_s = _origin_xy_series(self.curve, work)
            big, emb = self.curve.field, None
        else:
            if place.curve != self.curve:
                raise ValueError("place belongs to a different curve")
            work = prec + 2 * (self.u.den.degree + self.v.den.degree + 2)
            x_s, y_s = _affine_xy_series(place, work)
            big, emb = place.big, place.emb
        out = self._eval_rat_at_series(self.u, x_s, emb)
        if not self.v.is_zero():
            out = out + self._eval_rat_at_series(self.v, x_s, emb) * y_s
        return out.truncate(prec) if out.prec >= prec else out

    def valuation_at(self, place) -> int:
        return self.leading_term_at(place)[0]

    def leading_term_at(self, place) -> tuple:
        """(v, a): the valuation at the place and the leading coefficient of
        the expansion `laurent_at` gives.  At the origin no series is
        needed: x and y lead with t^-2 and t^-3, so u has the even valuation
        -2 deg u and v*y the odd one -2 deg v - 3; the two never cancel, and
        the one with the smaller valuation leads with the leading
        coefficient of its numerator (denominators are monic).  At an affine
        place the expansion's precision doubles until it is nonzero.  Raises
        ValueError for the zero function."""
        if self.is_zero():
            raise ValueError("the zero function has no valuation")
        if isinstance(place, OriginPlace):
            if place.curve != self.curve:
                raise ValueError("place belongs to a different curve")
            return min(
                (2 * (f.den.degree - f.num.degree) - 3 * k, f.num.leading())
                for k, f in enumerate((self.u, self.v))
                if not f.is_zero()
            )
        prec = 16
        while prec <= MAX_SERIES_PREC:
            s = self.laurent_at(place, prec)
            if not s.is_zero():
                return s.valuation(), s.leading()
            prec *= 2
        raise PrecisionError("valuation did not resolve within the precision cap")

    def __repr__(self):
        return f"EllipticFunction(({self.u}) + ({self.v})*y)"


class EllipticFunctionField(OperatorRing):
    """The function field of a curve as a Witt coefficient ring, with the
    curve's adapter: the base place is the origin, the affine points are
    the code pairs (x, y), and a place is its Frobenius orbit of points."""

    genus = 1

    def __init__(self, curve: EllipticCurve):
        self.curve = curve
        self.field = curve.field

    @property
    def key(self):
        return self.curve

    def const(self, c: int):
        return EllipticFunction.const(self.curve, c)

    # -- the curve adapter

    @property
    def base_place(self) -> OriginPlace:
        return OriginPlace(self.curve)

    def places_above(self, pi: Poly) -> list:
        return self.curve.places_above(pi)

    def place_key(self, place):
        """Sort key: the origin first, then by field degree and orbit."""
        if isinstance(place, OriginPlace):
            return (0,)
        return (place.ext_degree, place.orbit)

    def points_over(self, big: FiniteField, emb) -> tuple:
        """The affine points over `big` as code arrays: (xs, ys)."""
        return self.curve.points_above(big, emb, np.arange(big.q))

    def place_mask(self, place: AffinePlace, points, big: FiniteField, emb):
        """Which of `points` (from points_over) lie on an affine place."""
        xs, ys = points
        on = [x * big.q + y for x, y in place.points_in(big)]
        return np.isin(xs * big.q + ys, on)

    def rational_above(self, place):
        """(ring', place', emb): a rational place above `place`, over the
        constant-field extension by its degree e, with the embedding of the
        constants (None when e = 1).  A place recorded over a field larger
        than F_{q^e} is first descended to F_{q^e}, through the embedding
        that agrees with the curve's constants."""
        if not isinstance(place, AffinePlace) or place.ext_degree == 1:
            return self, place, None
        e = place.degree
        x0, y0 = place.representative
        if place.ext_degree > e:
            F = self.field
            up = get_embedding_over(F.p, F.m, F.m * e, place.big.m)
            down = {up(a): a for a in range(F.q**e)}
            x0, y0 = down[x0], down[y0]
        big, emb = extension(self.field, e)
        ring = self if emb is None else EllipticFunctionField(self.curve.map_field(emb))
        return ring, AffinePlace.from_point(ring.curve, big, None, x0, y0), emb
