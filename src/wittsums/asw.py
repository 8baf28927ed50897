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

from .galois_rings import get_galois_ring
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


@dataclass
class ReducedForm:
    """f = reduced + P(witness), reduced at a rational place; `terms` holds,
    per coordinate of `reduced`, its (valuation, leading coefficient) at
    the place, or None for a zero coordinate."""

    reduced: WittVector
    witness: WittVector
    place: object
    terms: tuple

    def check(self, original: WittVector) -> bool:
        return original == self.reduced + wp(self.witness)


def artin_reduce_at(f: WittVector, place) -> ReducedForm:
    """A representative of f mod P(W_l) whose coordinate valuations at the
    place are each >= 0 or prime to p.

    A place of degree > 1 is first replaced by a rational place above it,
    over the constant-field extension that holds its points; reduced pole
    orders are stable under constant-field extension."""
    ring, place, emb = f.ring.rational_above(place)
    if emb is not None:
        f = witt_function(ring, [c.map_field(emb) for c in f.coords])
    p, l = f.params.p, f.params.l
    res_field = ring.field
    r = f
    witness = WittVector.zero(f.params, ring)
    terms = []
    # a step at coordinate i leaves the coordinates below i as they are, so
    # the term on which coordinate i stopped is that of the reduced form
    for i in range(l):
        while True:
            fi = r.coords[i]
            if ring.is_zero(fi):
                term = None
                break
            v, a = term = fi.leading_term_at(place)
            if v >= 0 or (-v) % p != 0:
                break
            s = (-v) // p
            base, lam = ring.witness(place, s)
            c = res_field.pth_root(res_field.div(a, res_field.pow(lam, p)))
            g = base.scale(c)
            gv = WittVector.teichmuller(f.params, ring, g).verschiebung(i)
            r = r - wp(gv)
            witness = witness + gv
        terms.append(term)
    return ReducedForm(reduced=r, witness=witness, place=place, terms=tuple(terms))


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
    vals = [p ** (l - 1 - i) * -t[0] for i, t in enumerate(rf.terms) if t and t[0] < 0]
    if vals:
        return max(vals)
    digits = tuple(t[1] if t and t[0] == 0 else 0 for t in rf.terms)
    R = get_galois_ring(p, l, rf.reduced.ring.field.m)
    tr = R.absolute_trace(R.from_digits(digits))
    return -1 if tr % p**l == 0 else 0


def candidate_pole_places(f: WittVector) -> list:
    """Union of the coordinate pole divisors, in the ring's place order
    (the base place first)."""
    ring = f.ring
    seen = {}
    for c in f.coords:
        if not c.is_zero():
            for pl, _ in c.pole_divisor():
                seen[ring.place_key(pl)] = pl
    return [pl for _, pl in sorted(seen.items())]


@dataclass
class Conductor:
    """Sum over the pole support of (rp_P + 1) * P, with its total degree."""

    entries: tuple  # ((place, rp + 1), ...) with rp > 0
    degree: int

    @property
    def support(self):
        return tuple(pl for pl, _ in self.entries)


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
