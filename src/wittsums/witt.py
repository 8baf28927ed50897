"""Witt vectors of length l over any coefficient ring of characteristic p.

The ring structure is driven by universal sum/product/negation polynomials,
computed once per (p, l) by exact big-integer ghost recursion and reduced
mod p.  A coefficient ring exposes zero/one/from_int/add/sub/mul/neg/pow/
eq/is_zero, a `char` attribute, and equality and hashing: `FiniteField` on
int codes, and `poly.OperatorRing` (k[T], k(x), elliptic function fields)
by forwarding to the element operators.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .fields import EnumerationCapError, isprime

MAX_LENGTH = 4  # universal polynomial size grows too fast beyond this
# monomials of weighted degree p^(l-1) that the last universal polynomial
# may reach: (3,4) has 1,068 and builds in 0.03 s, (13,3) 6,022 in 1.4 s;
# (5,4) has 47,098 (12 s) and (7,4) 706,814 (minutes)
UNIVERSAL_MONOMIAL_CAP = 10_000


@dataclass(frozen=True)
class WittParams:
    p: int
    l: int

    def __post_init__(self):
        if not isprime(self.p):
            raise ValueError(f"p={self.p} is not prime")
        if not 1 <= self.l <= MAX_LENGTH:
            raise ValueError(f"length l={self.l} outside supported range 1..{MAX_LENGTH}")


# Integer polynomials are dicts from exponent tuples to nonzero int
# coefficients; here the variables are X_0..X_{l-1}, Y_0..Y_{l-1}, and the
# curve parser uses the same helpers in x, y.


def _padd(a: dict, b: dict, scale: int = 1) -> dict:
    """a + scale * b."""
    out = dict(a)
    for e, c in b.items():
        c = out.get(e, 0) + scale * c
        if c:
            out[e] = c
        else:
            out.pop(e, None)
    return out


def _pmul(a: dict, b: dict) -> dict:
    out: dict = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = tuple(i + j for i, j in zip(ea, eb))
            out[e] = out.get(e, 0) + ca * cb
    return {e: c for e, c in out.items() if c}


def _ppow(a: dict, n: int, one: dict) -> dict:
    """a^n by square-and-multiply."""
    acc = one
    while n:
        if n & 1:
            acc = _pmul(acc, a)
        n >>= 1
        if n:
            a = _pmul(a, a)
    return acc


def _ghost(p: int, n: int, first: int, nvars: int) -> dict:
    """w_n = sum_{j<=n} p^j Z_j^(p^(n-j)) in the variables Z_j = first + j."""
    out = {}
    for j in range(n + 1):
        e = [0] * nvars
        e[first + j] = p ** (n - j)
        out[tuple(e)] = p**j
    return out


def _solve_ghost(p: int, targets, one: dict) -> list[dict]:
    """The integer polynomials S_0..S_{l-1} with ghost components
    w_n(S) = targets[n], from S_n = (targets[n] - sum_{j<n} p^j S_j^(p^(n-j))) / p^n."""
    S: list[dict] = []
    for n, rest in enumerate(targets):
        for j, s in enumerate(S):
            rest = _padd(rest, _ppow(s, p ** (n - j), one), -(p**j))
        pn = p**n
        if any(c % pn for c in rest.values()):
            raise ArithmeticError(f"ghost recursion not integral at p={p}, n={n}")
        S.append({e: c // pn for e, c in rest.items()})
    return S


def _terms_mod_p(poly: dict, p: int) -> tuple:
    """(coeff mod p, exponents) terms, exponents in descending lex order:
    the order fixes the order of operations in `_eval_terms`."""
    return tuple((c % p, e) for e, c in sorted(poly.items(), reverse=True) if c % p)


def _universal_monomials(p: int, l: int) -> int:
    """The monomials in X_0..X_{l-1}, Y_0..Y_{l-1} (X_j, Y_j of weight p^j)
    of weighted degree p^(l-1), where the last sum polynomial lives; the
    build cost grows with this count."""
    n = p ** (l - 1)
    if n >= UNIVERSAL_MONOMIAL_CAP:
        return n + 1  # above the cap already: the X_0^a Y_0^(n-a) alone
    ways = [1] + [0] * n
    for j in range(2 * l):
        w = p ** (j % l)
        for s in range(w, n + 1):
            ways[s] += ways[s - w]
    return ways[n]


@lru_cache(maxsize=128)
def compute_universal_polys(p: int, l: int) -> "UniversalWittPolys":
    """Sum, product and negation polynomials for W_l, coefficients mod p.

    Each polynomial is a tuple of (coeff, exponents) terms; exponents index
    the 2l variables X_0..X_{l-1}, Y_0..Y_{l-1} (negation uses only the X's).
    """
    WittParams(p, l)  # validate
    size = _universal_monomials(p, l)
    if size > UNIVERSAL_MONOMIAL_CAP:
        raise EnumerationCapError(
            f"universal Witt polynomials for (p, l) = ({p}, {l}) reach {size} "
            f"monomials, above the cap {UNIVERSAL_MONOMIAL_CAP}"
        )
    nvars = 2 * l
    one = {(0,) * nvars: 1}
    wx = [_ghost(p, n, 0, nvars) for n in range(l)]
    wy = [_ghost(p, n, l, nvars) for n in range(l)]

    def polys(targets):
        return tuple(_terms_mod_p(s, p) for s in _solve_ghost(p, targets, one))

    return UniversalWittPolys(
        p=p,
        l=l,
        sums=polys([_padd(a, b) for a, b in zip(wx, wy)]),
        prods=polys([_pmul(a, b) for a, b in zip(wx, wy)]),
        negs=polys([_padd({}, a, -1) for a in wx]),
    )


@dataclass(frozen=True)
class UniversalWittPolys:
    p: int
    l: int
    sums: tuple
    prods: tuple
    negs: tuple


def _eval_terms(terms, vals, ring):
    """Evaluate a term list at vals (length 2l sequence of ring elements)."""
    acc = ring.zero()
    pow_cache = {}
    for coeff, exps in terms:
        term = None
        for idx, e in enumerate(exps):
            if e == 0:
                continue
            key = (idx, e)
            v = pow_cache.get(key)
            if v is None:
                v = ring.pow(vals[idx], e)
                pow_cache[key] = v
            term = v if term is None else ring.mul(term, v)
        if term is None:
            term = ring.one()
        # coeff is in [1, p); multiply by repeated addition
        t = term
        for _ in range(coeff - 1):
            t = ring.add(t, term)
        acc = ring.add(acc, t)
    return acc


class WittVector:
    """Immutable Witt vector; `ring` is the coefficient ring descriptor."""

    __slots__ = ("params", "ring", "coords")

    def __init__(self, params: WittParams, ring, coords):
        coords = tuple(coords)
        if len(coords) != params.l:
            raise ValueError("coordinate count != l")
        if ring.char != params.p:
            raise ValueError("coefficient ring characteristic != p")
        self.params = params
        self.ring = ring
        self.coords = coords

    @classmethod
    def zero(cls, params, ring):
        return cls(params, ring, [ring.zero()] * params.l)

    @classmethod
    def one(cls, params, ring):
        return cls(params, ring, [ring.one()] + [ring.zero()] * (params.l - 1))

    @classmethod
    def teichmuller(cls, params, ring, a):
        return cls(params, ring, [a] + [ring.zero()] * (params.l - 1))

    def _check(self, other):
        if self.params != other.params or self.ring != other.ring:
            raise ValueError("mismatched Witt parameters or coefficient rings")

    def __eq__(self, other):
        if not isinstance(other, WittVector):
            return NotImplemented
        return (
            self.params == other.params
            and self.ring == other.ring
            and all(self.ring.eq(a, b) for a, b in zip(self.coords, other.coords))
        )

    def __hash__(self):
        return hash((self.params, tuple(map(str, self.coords))))

    def is_zero(self) -> bool:
        return all(self.ring.is_zero(c) for c in self.coords)

    def __add__(self, other):
        self._check(other)
        up = compute_universal_polys(self.params.p, self.params.l)
        vals = self.coords + other.coords
        return WittVector(
            self.params, self.ring, [_eval_terms(up.sums[i], vals, self.ring) for i in range(self.params.l)]
        )

    def __mul__(self, other):
        self._check(other)
        up = compute_universal_polys(self.params.p, self.params.l)
        vals = self.coords + other.coords
        return WittVector(
            self.params, self.ring, [_eval_terms(up.prods[i], vals, self.ring) for i in range(self.params.l)]
        )

    def __neg__(self):
        up = compute_universal_polys(self.params.p, self.params.l)
        vals = self.coords + tuple([self.ring.zero()] * self.params.l)
        return WittVector(
            self.params, self.ring, [_eval_terms(up.negs[i], vals, self.ring) for i in range(self.params.l)]
        )

    def __sub__(self, other):
        return self + (-other)

    def scalar(self, n: int) -> "WittVector":
        """n * self for an integer n (via double-and-add)."""
        if n < 0:
            return (-self).scalar(-n)
        acc = WittVector.zero(self.params, self.ring)
        base = self
        while n:
            if n & 1:
                acc = acc + base
            if n > 1:
                base = base + base
            n >>= 1
        return acc

    def verschiebung(self, k: int = 1) -> "WittVector":
        if not 0 <= k <= self.params.l:
            raise ValueError("shift count out of range")
        z = self.ring.zero()
        return WittVector(self.params, self.ring, (z,) * k + self.coords[: self.params.l - k])

    def frobenius(self) -> "WittVector":
        p = self.params.p
        return WittVector(self.params, self.ring, [self.ring.pow(c, p) for c in self.coords])

    def __repr__(self):
        return f"WittVector({self.coords})"
