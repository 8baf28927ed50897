"""Galois rings GR(p^l, m), Teichmuller lifts and traces.

Elements are tuples of m integers modulo p^l (coefficients of the residue
polynomial).  The modulus is the coefficient-wise integer lift of the
residue field's irreducible modulus, so reduction mod p and the Witt-digit
isomorphism GR(p^l, m) -> W_l(F_{p^m}) are compatible by construction.
Maps between Galois rings go through that isomorphism: a ring map
GR(p^l, m) -> GR(p^l, md) is W_l of a residue-field embedding, applied to
Witt digits.
"""

from __future__ import annotations

from functools import lru_cache

from .fields import (
    FiniteField,
    _mat_pow_mod,
    _mul_matrix,
    _poly_mul_mod,
    get_embedding,
    get_field,
)
from .witt import WittParams


class GaloisRing:
    def __init__(self, p: int, l: int, m: int):
        WittParams(p, l)  # validates p prime, 1 <= l <= cap
        self.p = p
        self.l = l
        self.m = m
        self.pl = p**l
        self.size = p ** (l * m)
        self.residue_field: FiniteField = get_field(p, m)
        self.modulus = tuple(c % self.pl for c in self.residue_field.modulus)
        self._teich_cache: dict[int, tuple[int, ...]] = {}
        self._basis_tr = None  # traces of the basis powers, built on first use

    # -- element helpers

    def zero(self):
        return (0,) * self.m

    def one(self):
        return (1,) + (0,) * (self.m - 1)

    def from_int(self, n: int):
        return (n % self.pl,) + (0,) * (self.m - 1)

    def element(self, coeffs):
        c = [x % self.pl for x in coeffs]
        if len(c) > self.m:
            raise ValueError("too many coefficients")
        c += [0] * (self.m - len(c))
        return tuple(c)

    def is_zero(self, x) -> bool:
        return all(c == 0 for c in x)

    def eq(self, x, y) -> bool:
        return x == y

    # -- ring operations

    def add(self, x, y):
        return tuple((a + b) % self.pl for a, b in zip(x, y))

    def sub(self, x, y):
        return tuple((a - b) % self.pl for a, b in zip(x, y))

    def neg(self, x):
        return tuple(-a % self.pl for a in x)

    def mul(self, x, y):
        return tuple(_poly_mul_mod(x, y, self.modulus, self.pl))

    def pow(self, x, n: int):
        if n < 0:
            raise ValueError("negative power of a Galois-ring element")
        M = _mul_matrix(x, self.modulus, self.pl)
        return tuple(_mat_pow_mod(M, n, self.pl)[:, 0].tolist())

    def scalar_mul(self, n: int, x):
        return tuple(n * a % self.pl for a in x)

    # -- Teichmuller lifts and Witt digits

    def teichmuller(self, a: int):
        """The unique lift of field element a fixed by x -> x^(p^m).

        Any lift y of a is [a] (1 + p z), and [a]^q = [a] while
        (1 + p z)^(p^(l-1)) = 1, so y^(q^(l-1)) = [a] for q = p^m; when
        a = 0, y = p z and q^(l-1) >= l makes that power 0."""
        t = self._teich_cache.get(a)
        if t is None:
            y = self.element(self.residue_field.coeffs(a))
            t = self._teich_cache[a] = self.pow(y, self.residue_field.q ** (self.l - 1))
        return t

    def witt_digits(self, x) -> tuple[int, ...]:
        """Witt coordinates (a_0, ..., a_{l-1}) of x under the canonical
        isomorphism w: GR(p^l, m) -> W_l(F_{p^m}).

        The naive Teichmuller digit d_i (from x = sum p^i [d_i]) carries a
        Frobenius twist: a_i = d_i^(p^i).  Without it, w fails to be a ring
        homomorphism for m > 1.
        """
        F = self.residue_field
        v = list(x)
        digits = []
        mod = self.pl
        for i in range(self.l):
            d = F.encode(c % self.p for c in v)
            digits.append(F.frobenius(d, times=i))
            if i == self.l - 1:
                break
            t = self.teichmuller(d)
            v = [((c - tc) % mod) // self.p for c, tc in zip(v, t)]
            mod //= self.p
        return tuple(digits)

    def from_digits(self, digits):
        F = self.residue_field
        acc = self.zero()
        ppow = 1
        for i, a in enumerate(digits):
            d = F.pow(a, F.p ** ((F.m - 1) * i))  # inverse Frobenius, i times
            acc = self.add(acc, self.scalar_mul(ppow, self.teichmuller(d)))
            ppow *= self.p
        return acc

    # -- traces

    def absolute_trace(self, x) -> int:
        """Trace down to Z/p^l, returned as an int in [0, p^l): the dot
        product of x's coordinates with the traces of the basis powers.

        GR/Z_{p^l} is Galois, so the characteristic polynomial of
        multiplication by y is the product of T - sigma(y) over the Galois
        group and the trace of that matrix is the sum of y's conjugates.
        Tr(x^j), the trace of multiplication by x^j, is built once per
        ring."""
        if self._basis_tr is None:
            basis = ([0] * j + [1] for j in range(self.m))
            self._basis_tr = [
                int(_mul_matrix(e, self.modulus, self.pl).trace()) % self.pl for e in basis
            ]
        return sum(c * t for c, t in zip(x, self._basis_tr)) % self.pl

    def elements(self):
        """Iterate all p^(lm) elements (desk scale only)."""
        import itertools

        return (
            tuple(t) for t in itertools.product(range(self.pl), repeat=self.m)
        )

    def __eq__(self, other):
        return isinstance(other, GaloisRing) and (self.p, self.l, self.m) == (
            other.p,
            other.l,
            other.m,
        )

    def __hash__(self):
        return hash(("GaloisRing", self.p, self.l, self.m))

    def __repr__(self):
        return f"GaloisRing(p={self.p}, l={self.l}, m={self.m})"


@lru_cache(maxsize=128)
def get_galois_ring(p: int, l: int, m: int) -> GaloisRing:
    return GaloisRing(p, l, m)


@lru_cache(maxsize=128)
def get_gr_embedding(p: int, l: int, m: int, md: int):
    """The ring map GR(p^l, m) -> GR(p^l, md) lifting the residue-field
    embedding get_embedding(p, m, md): that embedding applied to each Witt
    digit.  A ring map between Galois rings is the unique lift of its
    residue-field map, so no other map has this reduction."""
    small, big = get_galois_ring(p, l, m), get_galois_ring(p, l, md)
    emb = get_embedding(p, m, md)
    return lambda x: big.from_digits(emb(a) for a in small.witt_digits(x))
