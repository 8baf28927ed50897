"""The global Artin reduction, kept as the oracle of the local one.

It reduces f in W_l(K) itself: each step subtracts P(V^i [c g]) for a
global witness g, a function of K with pole order s at the place and
leading coefficient lam there, so the result can be checked by the exact
identity f = reduced + P(witness) over the function field.
"""

from __future__ import annotations

from dataclasses import dataclass

from wittsums.asw import witt_function, wp
from wittsums.elliptic import EllipticFunction, OriginPlace
from wittsums.galois_rings import get_galois_ring
from wittsums.poly import Poly
from wittsums.rational import InfinitePlace, RationalFunction, RationalFunctionField
from wittsums.witt import WittVector


def witness(ring, place, s: int):
    """(g, lam): v_P(g) = -s with leading coefficient lam, at a rational
    place of k(x) or of an elliptic function field."""
    if isinstance(ring, RationalFunctionField):
        F = ring.field
        if isinstance(place, InfinitePlace):
            return RationalFunction.x(F) ** s, 1
        if place.degree != 1:
            raise ValueError("a witness needs a rational place")
        return RationalFunction(Poly.one(F), place.poly**s, _normalized=True), 1
    E = ring.curve
    x, y = EllipticFunction.x(E), EllipticFunction.y(E)
    if isinstance(place, OriginPlace):
        # pole orders at the origin: x has 2, y has 3; x^a or x^a*y
        # realizes every order s >= 2, and y/x realizes order 1
        if s == 1:
            g = y / x
        elif s % 2 == 0:
            g = x ** (s // 2)
        else:
            g = x ** ((s - 3) // 2) * y
        v, lam = g.leading_term_at(place)
        if v != -s:
            raise ArithmeticError(f"witness has pole order {-v} at the origin, not {s}")
        return g, lam
    if place.ext_degree != 1:
        raise ValueError("a witness needs a rational place")
    x0, y0 = place.representative
    if place.unramified_over_x:
        lin = x - EllipticFunction.const(E, x0)
    else:
        lin = y - EllipticFunction.const(E, y0)
    return lin ** (-s), 1


@dataclass
class GlobalReducedForm:
    """f = reduced + P(witness), reduced at a rational place; `terms` holds,
    per coordinate of `reduced`, its (valuation, leading coefficient) at
    the place, or None for a zero coordinate."""

    reduced: WittVector
    witness: WittVector
    place: object
    terms: tuple

    def check(self, original: WittVector) -> bool:
        return original == self.reduced + wp(self.witness)


def global_artin_reduce_at(f: WittVector, place) -> GlobalReducedForm:
    """A representative of f mod P(W_l(K)) whose coordinate valuations at
    the place are each >= 0 or prime to p, over a rational place above the
    given one."""
    ring, place, emb = f.ring.rational_above(place)
    if emb is not None:
        f = witt_function(ring, [c.map_field(emb) for c in f.coords])
    p, l = f.params.p, f.params.l
    res_field = ring.field
    r = f
    total = WittVector.zero(f.params, ring)
    terms = []
    for i in range(l):
        while True:
            fi = r.coords[i]
            if ring.is_zero(fi):
                term = None
                break
            v, a = term = fi.leading_term_at(place)
            if v >= 0 or (-v) % p != 0:
                break
            base, lam = witness(ring, place, (-v) // p)
            c = res_field.pth_root(res_field.div(a, res_field.pow(lam, p)))
            gv = WittVector.teichmuller(f.params, ring, base.scale(c)).verschiebung(i)
            r = r - wp(gv)
            total = total + gv
        terms.append(term)
    return GlobalReducedForm(reduced=r, witness=total, place=place, terms=tuple(terms))


def global_reduced_pole_order(f: WittVector, rf: GlobalReducedForm) -> int:
    """reduced_pole_order of f at rf.place, read off its global reduced
    form rf."""
    p, l = f.params.p, f.params.l
    vals = [p ** (l - 1 - i) * -t[0] for i, t in enumerate(rf.terms) if t and t[0] < 0]
    if vals:
        return max(vals)
    digits = tuple(t[1] if t and t[0] == 0 else 0 for t in rf.terms)
    R = get_galois_ring(p, l, rf.reduced.ring.field.m)
    tr = R.absolute_trace(R.from_digits(digits))
    return -1 if tr % p**l == 0 else 0
