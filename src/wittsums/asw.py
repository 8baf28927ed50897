"""Artin-Schreier-Witt layer: the operator P = F - Id on Witt vectors of
functions, local Artin reduction at a place, reduced pole orders, conductors,
nondegeneracy, and the genus of the induced cyclic cover.

A "Witt function" is a WittVector whose coefficient ring is a function field
(k(x) or an elliptic function field).  Its reduced pole order at P depends
only on its image in W_l(k_P((t))), the local Witt-vector conductor
(Brylinski, Ann. Inst. Fourier 33, 1983), so Artin reduction works on the
expansions at a rational place above P, with monomial witnesses.

This module alone decides where f can have a pole, and alone reduces f:
`denominator_places` walks the base place and the places above each
irreducible factor of each coordinate's denominator.  `conductor` reduces f
once at each of them and keeps each reduced form, from which the point sums
read f's Witt digits there.  It serves every truncation (f_0, ..., f_(k-1))
too: coordinate k of a Witt sum involves only coordinates <= k, and a step
on coordinate i changes only coordinates >= i, so the reduced form of a
truncation is the truncated reduced form.
"""

from __future__ import annotations

from dataclasses import dataclass

from .galois_rings import get_galois_ring
from .poly import OperatorRing, factor
from .series import MAX_SERIES_PREC, LaurentSeries, PrecisionError
from .witt import WittParams, WittVector


class DegenerateInputError(ValueError):
    """The Witt function induces a degenerate character: one of constant
    class, or one whose twist lies in p GR."""


def witt_function(ring, coords) -> WittVector:
    """Build a Witt vector of functions over a function-field ring."""
    coords = tuple(coords)
    return WittVector(WittParams(ring.char, len(coords)), ring, coords)


def wp(f: WittVector) -> WittVector:
    """The additive operator P = Frobenius - Id."""
    return f.frobenius() - f


class _LocalRing(OperatorRing):
    """k((t)) to `prec` terms, as a Witt coefficient ring."""

    key = property(lambda self: (self.field, self.prec))

    def __init__(self, field, prec: int):
        self.field, self.prec = field, prec

    def const(self, c: int):
        return LaurentSeries.const(self.field, c, self.prec)


@dataclass
class ReducedForm:
    """f reduced at a rational place above the given one, with residue field
    of degree k over the base field: per coordinate, the (valuation, leading
    coefficient) there, or None where no term of order <= 0 is left; and
    whether a pole was removed (`stepped`)."""

    place: object
    k: int
    terms: tuple
    stepped: bool

    @property
    def digits(self) -> tuple:
        """The constant term of each coordinate, or 0 where there is none."""
        return tuple(t[1] if t and t[0] == 0 else 0 for t in self.terms)


def _reduce_locally(ring, place, coords, prec: int) -> tuple:
    """The terms of a reduced form from expansions to `prec` terms; raises
    PrecisionError where they do not decide one.

    While coordinate i leads with a t^(-ps), subtract P(V^i [c t^-s]) for
    c^p = a: coordinate i changes by (c t^-s)^p - c t^-s and the lower ones
    not at all, so (i, pole order) falls lexicographically."""
    F = ring.field
    local = _LocalRing(F, prec)
    r = witt_function(local, [local.zero() if c.is_zero() else c.laurent_at(place, prec) for c in coords])
    terms = []  # coordinate i ends as the reduced form's: later steps leave it
    for i in range(len(coords)):
        while True:
            s = r.coords[i]
            if s.is_zero() and s.prec > 0:
                term = None
                break
            v, a = term = s.val, s.leading()  # PrecisionError if t^0 is not reached
            if v >= 0 or v % F.p:
                break
            g = LaurentSeries.t_power(F, v // F.p, prec, F.pth_root(a))
            r = r - wp(WittVector.teichmuller(r.params, local, g).verschiebung(i))
        terms.append(term)
    return tuple(terms)


def artin_reduce_at(f: WittVector, place) -> ReducedForm:
    """The leading terms of a representative of f mod P(W_l(k_P((t)))) whose
    coordinate valuations are each >= 0 or prime to p, at a rational place
    above `place` (reduced pole orders are stable under constant-field
    extension).  With no pole order divisible by p, f is already reduced.

    Coordinate j of a Witt sum is weighted-homogeneous of degree p^j (f_k of
    weight p^k), so expansions to R + 2 terms, R = max p^(l-1-k) * (pole
    order of f_k), mostly fix every term of order <= 0, the only ones read;
    where the series' precision rules say they do not, the precision doubles."""
    ring, place, emb = f.ring.rational_above(place)
    coords = [c.map_field(emb) for c in f.coords] if emb is not None else f.coords
    k = ring.field.m // f.ring.field.m
    p, l = f.params.p, f.params.l
    terms = tuple(None if c.is_zero() else c.leading_term_at(place) for c in coords)
    if not any(t and t[0] < 0 and t[0] % p == 0 for t in terms):
        return ReducedForm(place, k, terms, stepped=False)
    prec = max(p ** (l - 1 - i) * -t[0] for i, t in enumerate(terms) if t and t[0] < 0) + 2
    while prec <= MAX_SERIES_PREC:
        try:
            return ReducedForm(place, k, _reduce_locally(ring, place, coords, prec), stepped=True)
        except PrecisionError:
            prec *= 2
    raise PrecisionError("Artin reduction did not resolve within the precision cap")


def _truncation_pole_orders(terms, p: int) -> list:
    """From a reduced form's terms, the reduced pole order of each
    truncation (f_0, ..., f_(k-1)), k = 1..l, or 0 where it has no pole:
    rp_k = max(p * rp_(k-1), -v_(k-1))."""
    out, rp = [], 0
    for t in terms:
        rp = max(p * rp, -t[0] if t and t[0] < 0 else 0)
        out.append(rp)
    return out


def reduced_pole_order(f: WittVector, place) -> int:
    """rp_P(f) = max_i { -p^(l-1-i) * v_P(f'_i) } over a reduced form f',
    when positive; otherwise the exact sentinel in {-1, 0}.

    Pole-free reduced vectors represent the zero class iff their value at
    the place lies in the image of P on Witt vectors of the residue field,
    which happens iff the absolute trace of the value vanishes; that case is
    reported as -1, the remaining pole-free case as 0.
    """
    rf = artin_reduce_at(f, place)
    p, l = f.params.p, f.params.l
    rp = _truncation_pole_orders(rf.terms, p)[-1]
    if rp > 0:
        return rp
    R = get_galois_ring(p, l, f.ring.field.m * rf.k)
    tr = R.absolute_trace(R.from_digits(rf.digits))
    return -1 if tr % p**l == 0 else 0


def denominator_places(f: WittVector) -> list:
    """The base place and the places above each irreducible factor of each
    coordinate's denominator, in the ring's place order, each once: every
    pole of f lies among them."""
    ring = f.ring
    pis = {}
    for c in f.coords:
        for den in c.denominators():
            for pi, _ in factor(den):
                pis[(pi.degree, pi.coeffs)] = pi
    places = [ring.base_place] + [pl for pi in pis.values() for pl in ring.places_above(pi)]
    return sorted(places, key=ring.place_key)


@dataclass
class Conductor:
    """Sum over the pole support of (rp_P + 1) * P; with the degree of the
    conductor of each truncation (f_0, ..., f_(k-1)), k = 1..l, the last
    being f's own; and f's reduced form at every walked place."""

    entries: tuple  # ((place, rp + 1), ...) with rp > 0
    truncation_degrees: tuple
    reductions: tuple  # ((place, ReducedForm), ...) in walk order

    @property
    def degree(self) -> int:
        return self.truncation_degrees[-1]

    @property
    def support(self):
        return tuple(pl for pl, _ in self.entries)


def conductor(f: WittVector) -> Conductor:
    """The conductor of f and of its truncations, from one Artin reduction
    at each place `denominator_places` walks, kept in `reductions`; a place
    without a pole has rp <= 0 for every truncation and adds nothing."""
    entries, degrees = [], [0] * f.params.l
    reductions = tuple((pl, artin_reduce_at(f, pl)) for pl in denominator_places(f))
    for pl, rf in reductions:
        rps = _truncation_pole_orders(rf.terms, f.params.p)
        for k, rp in enumerate(rps):
            if rp > 0:
                degrees[k] += (rp + 1) * pl.degree
        if rps[-1] > 0:
            entries.append((pl, rps[-1] + 1))
    return Conductor(tuple(entries), tuple(degrees), reductions)


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
    degrees = conductor(f).truncation_degrees
    if degrees[0] == 0:
        raise DegenerateInputError("the first coordinate lies in k + P(K)")
    total = 2 * p**l * (base_genus - 1)
    total += sum((p**k - p ** (k - 1)) * dg for k, dg in enumerate(degrees, 1))
    if total % 2 or total // 2 + 1 < 0:
        raise ArithmeticError("conductor formula produced an invalid genus")
    return total // 2 + 1
