"""Artin-Schreier-Witt layer: the operator P = F - Id on Witt vectors of
functions, local Artin reduction at a place, reduced pole orders, conductors,
nondegeneracy, and the genus of the induced cyclic cover.

A "Witt function" is a WittVector whose coefficient ring is a function field
(k(x) or an elliptic function field).  Reduction at a place P repeatedly
subtracts P(V^i(g, 0, ...)) for witnesses g chosen to cancel p-divisible
pole orders; since Verschiebung-supported subtrahends change coordinate i by
exactly g^p - g and leave lower coordinates alone, the pair (coordinate
index, pole order) decreases lexicographically and the loop terminates.
"""

from __future__ import annotations

from dataclasses import dataclass

from .elliptic import (
    AffinePlace,
    EllipticFunction,
    EllipticFunctionField,
    OriginPlace,
)
from .fields import get_embedding
from .galois_rings import get_galois_ring
from .poly import Poly, roots_in_field
from .rational import (
    FinitePlace,
    InfinitePlace,
    RationalFunction,
    RationalFunctionField,
)
from .witt import WittParams, WittVector


class DegenerateInputError(ValueError):
    """The Witt function induces a degenerate (constant-class) character."""


def witt_function(ring, coords) -> WittVector:
    """Build a Witt vector of functions over a function-field ring."""
    coords = tuple(coords)
    return WittVector(WittParams(ring.char, len(coords)), ring, coords)


def wp(f: WittVector) -> WittVector:
    """The additive operator P = Frobenius - Id."""
    return f.frobenius() - f


# -- local place adapters ------------------------------------------------


class _LocalPlace:
    """Uniform local interface: valuation, leading coefficient, value at the
    place, and witness functions with a prescribed pole order there."""

    def valuation(self, f) -> int:
        raise NotImplementedError

    def leading(self, f) -> int:
        raise NotImplementedError

    def value(self, f) -> int:
        raise NotImplementedError

    def witness_base(self, s: int):
        """(g, lam): a function with v_P(g) = -s and leading coefficient lam."""
        raise NotImplementedError


class _LocalP1(_LocalPlace):
    """A rational place of P^1 (finite of degree 1, or infinity)."""

    def __init__(self, ring: RationalFunctionField, place):
        if isinstance(place, FinitePlace) and place.degree != 1:
            raise ValueError("local adapter needs a rational place")
        self.ring = ring
        self.place = place
        self.field = ring.field

    def valuation(self, f: RationalFunction) -> int:
        return f.valuation_at(self.place)

    def leading(self, f: RationalFunction) -> int:
        v = f.valuation_at(self.place)
        return f.laurent_at(self.place, v + 1).leading()

    def value(self, f: RationalFunction) -> int:
        return f.laurent_at(self.place, 1).coeff(0)

    def witness_base(self, s: int):
        F = self.field
        x = RationalFunction.x(F)
        if isinstance(self.place, InfinitePlace):
            return x**s, 1
        alpha = F.neg(self.place.poly.coeffs[0])
        lin = x - RationalFunction.const(F, alpha)
        return lin ** (-s), 1


class _LocalElliptic(_LocalPlace):
    """The origin or a rational affine place of an elliptic curve."""

    def __init__(self, ring: EllipticFunctionField, place):
        self.ring = ring
        self.place = place
        self.curve = ring.curve
        self.field = ring.field
        if isinstance(place, AffinePlace):
            if place.degree != 1:
                raise ValueError("local adapter needs a rational place")

    def valuation(self, f: EllipticFunction) -> int:
        return f.valuation_at(self.place)

    def leading(self, f: EllipticFunction) -> int:
        v = f.valuation_at(self.place)
        return f.laurent_at(self.place, v + 1).leading()

    def value(self, f: EllipticFunction) -> int:
        return f.laurent_at(self.place, 1).coeff(0)

    def witness_base(self, s: int):
        E = self.curve
        F = self.field
        if isinstance(self.place, OriginPlace):
            # pole orders at the origin: x has 2, y has 3; x^a or x^a*y
            # realizes every order s >= 2, and y/x realizes order 1
            if s == 1:
                g = EllipticFunction.y(E) / EllipticFunction.x(E)
            elif s % 2 == 0:
                g = EllipticFunction.x(E) ** (s // 2)
            else:
                g = EllipticFunction.x(E) ** ((s - 3) // 2) * EllipticFunction.y(E)
            v = g.valuation_at(self.place)
            if v != -s:
                raise ArithmeticError(f"witness has pole order {-v} at the origin, not {s}")
            lam = g.laurent_at(self.place, v + 1).leading()
            return g, lam
        x0, y0 = self.place.representative
        e = self.place.emb if self.place.emb else (lambda c: c)
        a1, a3 = e(E.a1), e(E.a3)
        big = self.place.big
        gy = big.add(big.add(y0, y0), big.add(big.mul(a1, x0), a3))
        if gy != 0:
            lin = EllipticFunction.x(E) - EllipticFunction.const(E, x0)
        else:
            lin = EllipticFunction.y(E) - EllipticFunction.const(E, y0)
        g = lin ** (-s)
        return g, 1


def _local_adapter(ring, place) -> _LocalPlace:
    if isinstance(ring, RationalFunctionField):
        return _LocalP1(ring, place)
    if isinstance(ring, EllipticFunctionField):
        return _LocalElliptic(ring, place)
    raise TypeError(f"unsupported function-field ring {ring!r}")


def _extend_to_rational(f: WittVector, place):
    """Base-change f so that a higher-degree place acquires a rational place
    above it; returns (f', place', ring').  Reduced pole orders are stable
    under constant-field extension, so rp may be computed upstairs."""
    ring = f.ring
    if isinstance(ring, RationalFunctionField):
        if isinstance(place, InfinitePlace) or place.degree == 1:
            return f, place, ring
        F = ring.field
        e = place.degree
        emb = get_embedding(F.p, F.m, F.m * e)
        root = min(roots_in_field(place.poly.map_field(emb)))
        big = emb.big
        new_place = FinitePlace(Poly(big, (big.neg(root), 1)))
        new_ring = RationalFunctionField(big)
        coords = [c.map_field(emb) for c in f.coords]
        return witt_function(new_ring, coords), new_place, new_ring
    if isinstance(ring, EllipticFunctionField):
        if isinstance(place, OriginPlace) or place.degree == 1:
            if isinstance(place, AffinePlace) and place.ext_degree != 1:
                # rational point recorded over an extension field: descend
                F = ring.field
                x0, y0 = place.representative
                x0d = _descend_code(place.big, F, x0)
                y0d = _descend_code(place.big, F, y0)
                place = AffinePlace.from_point(ring.curve, F, None, x0d, y0d)
            return f, place, ring
        F = ring.field
        e = place.ext_degree
        emb = get_embedding(F.p, F.m, F.m * e)
        coords = [c.map_field(emb) for c in f.coords]
        big_curve = ring.curve.map_field(emb)
        x0, y0 = place.representative
        new_place = AffinePlace.from_point(big_curve, emb.big, None, x0, y0)
        new_ring = EllipticFunctionField(big_curve)
        return witt_function(new_ring, coords), new_place, new_ring
    raise TypeError(f"unsupported function-field ring {ring!r}")


def _descend_code(big, small, code):
    """Invert a field embedding on a code known to lie in the small field."""
    emb = get_embedding(small.p, small.m, big.m)
    for a in small.elements():
        if emb(a) == code:
            return a
    raise ValueError("code does not lie in the subfield")


@dataclass
class ReducedForm:
    reduced: WittVector
    witness: WittVector
    place: object

    def check(self, original: WittVector) -> bool:
        return original == self.reduced + wp(self.witness)


def artin_reduce_at(f: WittVector, place) -> ReducedForm:
    """A representative of f mod P(W_l) whose coordinate valuations at the
    place are each >= 0 or prime to p."""
    f, place, ring = _extend_to_rational(f, place)
    local = _local_adapter(ring, place)
    p, l = f.params.p, f.params.l
    res_field = ring.field
    r = f
    witness = WittVector.zero(f.params, ring)
    for i in range(l):
        while True:
            fi = r.coords[i]
            if ring.is_zero(fi):
                break
            v = local.valuation(fi)
            if v >= 0 or (-v) % p != 0:
                break
            s = (-v) // p
            a = local.leading(fi)
            base, lam = local.witness_base(s)
            c = res_field.pth_root(res_field.div(a, res_field.pow(lam, p)))
            g = base.scale(c)
            gv = WittVector.teichmuller(f.params, ring, g).verschiebung(i)
            r = r - wp(gv)
            witness = witness + gv
    return ReducedForm(reduced=r, witness=witness, place=place)


def reduced_pole_order(f: WittVector, place) -> int:
    """rp_P(f) = max_i { -p^(l-1-i) * v_P(f'_i) } over a reduced form f',
    when positive; otherwise the exact sentinel in {-1, 0}.

    Pole-free reduced vectors represent the zero class iff their value at
    the place lies in the image of P on Witt vectors of the residue field,
    which happens iff the absolute trace of the value vanishes; that case is
    reported as -1, the remaining pole-free case as 0.
    """
    rf = artin_reduce_at(f, place)
    ring = rf.reduced.ring
    local = _local_adapter(ring, rf.place)
    p, l = f.params.p, f.params.l
    vals = []
    for i, fi in enumerate(rf.reduced.coords):
        if ring.is_zero(fi):
            continue
        v = local.valuation(fi)
        if v < 0:
            vals.append(p ** (l - 1 - i) * (-v))
    if vals:
        return max(vals)
    digits = tuple(
        0 if ring.is_zero(fi) else local.value(fi) for fi in rf.reduced.coords
    )
    R = get_galois_ring(p, l, ring.field.m)
    tr = R.absolute_trace(R.from_digits(digits))
    return -1 if tr % p**l == 0 else 0


def candidate_pole_places(f: WittVector) -> list:
    """Union of the coordinate pole divisors, deterministically ordered."""
    ring = f.ring
    if isinstance(ring, RationalFunctionField):
        seen = {}
        inf = False
        for c in f.coords:
            if c.is_zero():
                continue
            for pl, _ in c.pole_divisor():
                if isinstance(pl, InfinitePlace):
                    inf = True
                else:
                    seen[(pl.poly.degree, pl.poly.coeffs)] = pl
        out: list = [InfinitePlace(ring.field)] if inf else []
        out.extend(pl for _, pl in sorted(seen.items()))
        return out
    if isinstance(ring, EllipticFunctionField):
        origin = False
        seen = {}
        for c in f.coords:
            if c.is_zero():
                continue
            for pl, _ in c.pole_divisor():
                if isinstance(pl, OriginPlace):
                    origin = True
                else:
                    seen[(pl.ext_degree, pl.orbit)] = pl
        out = [OriginPlace(ring.curve)] if origin else []
        out.extend(pl for _, pl in sorted(seen.items()))
        return out
    raise TypeError(f"unsupported function-field ring {ring!r}")


@dataclass
class Conductor:
    """Sum over the pole support of (rp_P + 1) * P, with its total degree."""

    entries: tuple  # ((place, rp + 1), ...) with rp > 0
    degree: int

    @property
    def support(self):
        return tuple(pl for pl, _ in self.entries)


def pole_support(f: WittVector) -> list:
    """Places with strictly positive reduced pole order."""
    return [pl for pl, _ in conductor(f).entries]


def conductor(f: WittVector) -> Conductor:
    entries = []
    total = 0
    for pl in candidate_pole_places(f):
        rp = reduced_pole_order(f, pl)
        if rp > 0:
            entries.append((pl, rp + 1))
            total += (rp + 1) * pl.degree
    return Conductor(entries=tuple(entries), degree=total)


def is_nondegenerate(f: WittVector) -> bool:
    """Whether the first coordinate is outside k + P_0(K).

    A positive reduced pole order for the length-1 vector (f_0) at any pole
    certifies nondegeneracy; if every pole reduces away, the class of f_0 is
    constant and the character it induces is degenerate.
    """
    ring = f.ring
    f0 = witt_function(ring, (f.coords[0],))
    return conductor(f0).degree > 0


def genus_of_cover(f: WittVector, base_genus: int) -> int:
    """Genus of the cyclic degree-p^l cover defined by f, via the conductor
    discriminant formula 2(g_L - 1) = 2 p^l (g_K - 1) + sum over the
    characters psi^n, n = 1..p^l-1, of their conductor degrees.

    For n = p^(l-k) u with u a unit, p^(l-k) f = V^(l-k) F^(l-k) f is
    congruent to V^(l-k) f mod P, and Galois-conjugate characters share
    their conductor, so psi^n has the conductor of the length-k truncation
    (f_0, ..., f_(k-1)); exactly p^k - p^(k-1) such n exist.  Raises
    DegenerateInputError when f_0 lies in k + P(K) (no positive pole order
    survives reduction), since f then defines no cyclic cover of degree p^l.
    """
    p, l = f.params.p, f.params.l
    total = 2 * p**l * (base_genus - 1)
    for k in range(1, l + 1):
        degree = conductor(witt_function(f.ring, f.coords[:k])).degree
        if k == 1 and degree == 0:
            raise DegenerateInputError("the first coordinate lies in k + P(K)")
        total += (p**k - p ** (k - 1)) * degree
    if total % 2 or total // 2 + 1 < 0:
        raise ArithmeticError("conductor formula produced an invalid genus")
    return total // 2 + 1
