"""Dense univariate polynomials over a FiniteField, plus factorization.

Coefficients are stored as integer field codes, index = degree.  The zero
polynomial has an empty coefficient tuple and degree -1.
"""

from __future__ import annotations

import random

import numpy as np

from .fields import FiniteField, primefactors


def power(base, n: int, one):
    """base^n by square-and-multiply, n >= 0, for any element with `*`."""
    res = one
    while n:
        if n & 1:
            res = res * base
        n >>= 1
        if n:
            base = base * base
    return res


class Poly:
    __slots__ = ("field", "coeffs")

    def __init__(self, field: FiniteField, coeffs):
        c = list(coeffs)
        while c and c[-1] == 0:
            c.pop()
        self.field = field
        self.coeffs = tuple(c)

    # -- constructors

    @classmethod
    def zero(cls, field):
        return cls(field, ())

    @classmethod
    def one(cls, field):
        return cls(field, (1,))

    @classmethod
    def const(cls, field, c):
        return cls(field, (c,))

    @classmethod
    def x(cls, field):
        return cls(field, (0, 1))

    # -- basic queries

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def is_constant(self) -> bool:
        return len(self.coeffs) <= 1

    def leading(self) -> int:
        return self.coeffs[-1] if self.coeffs else 0

    def __eq__(self, other):
        if not isinstance(other, Poly):
            return NotImplemented
        return self.field == other.field and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.field, self.coeffs))

    # -- arithmetic

    def __add__(self, other):
        F = self.field
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = F.add(out[i], c)
        return Poly(F, out)

    def __neg__(self):
        F = self.field
        return Poly(F, [F.neg(c) for c in self.coeffs])

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        F = self.field
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return Poly.zero(F)
        out = [0] * (len(a) + len(b) - 1)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    if bj:
                        out[i + j] = F.add(out[i + j], F.mul(ai, bj))
        return Poly(F, out)

    def scale(self, c: int) -> "Poly":
        F = self.field
        if c == 0:
            return Poly.zero(F)
        return Poly(F, [F.mul(c, a) for a in self.coeffs])

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative power of a polynomial")
        return power(self, n, Poly.one(self.field))

    def divmod(self, other: "Poly"):
        F = self.field
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        d = other.degree
        inv = F.inv(other.leading())
        quo = [0] * max(0, len(rem) - d)
        while len(rem) > d:
            c = F.mul(rem[-1], inv)
            k = len(rem) - 1 - d
            quo[k] = c
            if c:
                for j in range(d + 1):
                    rem[k + j] = F.sub(rem[k + j], F.mul(c, other.coeffs[j]))
            rem.pop()
        return Poly(F, quo), Poly(F, rem)

    def __mod__(self, other):
        return self.divmod(other)[1]

    def __floordiv__(self, other):
        return self.divmod(other)[0]

    def monic(self) -> "Poly":
        if self.is_zero():
            return self
        return self.scale(self.field.inv(self.leading()))

    def gcd(self, other: "Poly") -> "Poly":
        a, b = self, other
        while not b.is_zero():
            a, b = b, a % b
        return a.monic() if not a.is_zero() else a

    def derivative(self) -> "Poly":
        F = self.field
        return Poly(F, [F.mul(F.from_int(i), c) for i, c in enumerate(self.coeffs) if i])

    def eval(self, x: int, big: FiniteField | None = None, emb=None) -> int:
        """Value at a point x of `big` (default: the coefficient field), by
        Horner's rule; `emb` maps the coefficients into `big`."""
        if big is None:
            big = self.field
        acc = 0
        for c in reversed(self.coeffs):
            acc = big.add(big.mul(acc, x), emb(c) if emb else c)
        return acc

    def eval_array(self, xs, big: FiniteField | None = None, emb=None):
        """Values at a numpy array of points of `big` (default: the
        coefficient field), as `eval` gives them, in the log domain: with
        n = q - 1, c x^i (i >= 1) is the gather exp[(log c + (i mod n)
        log x) mod n], i reduced so that the product stays below n^2, and
        the terms add by `add_array`; `emb` maps the coefficients into `big`."""
        if big is None:
            big = self.field
        return self.eval_logs(big.log[xs], big, emb)

    def eval_logs(self, lx, big: FiniteField, emb=None):
        """`eval_array` at the points whose logs are lx.  As log 0 = -1, the
        gathers at x = 0 read wrong entries: the constant term replaces them."""
        n = big.q - 1
        cs = [emb(c) for c in self.coeffs] if emb else self.coeffs
        c0 = cs[0] if cs else 0
        acc = None
        for i, c in enumerate(cs[1:], 1):
            if c:
                term = big.exp[(big.log[c] + i % n * lx) % n]
                acc = term if acc is None else big.add_array(acc, term)
        if acc is None:
            return np.full(np.shape(lx), c0, dtype=np.int64)
        if c0:
            acc = big.add_array(acc, c0)
        return np.where(lx < 0, c0, acc)

    def map_field(self, emb) -> "Poly":
        return Poly(emb.big, [emb(c) for c in self.coeffs])

    def reverse(self) -> "Poly":
        """x^deg * f(1/x)."""
        return Poly(self.field, tuple(reversed(self.coeffs)))

    def pow_mod(self, n: int, mod: "Poly") -> "Poly":
        res = Poly.one(self.field)
        base = self % mod
        while n:
            if n & 1:
                res = (res * base) % mod
            base = (base * base) % mod
            n >>= 1
        return res

    def __repr__(self):
        if self.is_zero():
            return "Poly(0)"
        terms = []
        for i, c in enumerate(self.coeffs):
            if c:
                terms.append(f"{c}*x^{i}" if i else f"{c}")
        return "Poly(" + " + ".join(terms) + ")"


# -- factorization -----------------------------------------------------------


def _squarefree_decomposition(f: Poly):
    """Yield (squarefree factor, multiplicity) pairs; f monic nonconstant."""
    F = f.field
    p = F.p
    e = 1
    while not f.is_constant():
        df = f.derivative()
        if df.is_zero():
            # f = g(x^p); take p-th root of coefficients
            root = [F.pth_root(f.coeffs[i]) for i in range(0, len(f.coeffs), p)]
            f = Poly(F, root)
            e *= p
            continue
        c = f.gcd(df)
        w = f // c
        k = 1
        while not w.is_constant():
            y = w.gcd(c)
            z = w // y
            if not z.is_constant():
                yield z, e * k
            w = y
            c = c // y
            k += 1
        f = c


def _distinct_degree(f: Poly):
    """Yield (product of irreducibles of degree d, d); f monic squarefree."""
    F = f.field
    x = Poly.x(F)
    h = x
    d = 0
    while f.degree > 2 * (d + 1) - 1:
        d += 1
        h = h.pow_mod(F.q, f)
        g = f.gcd(h - x)
        if not g.is_constant():
            yield g, d
            f = f // g
            h = h % f
    if not f.is_constant():
        yield f, f.degree


def _equal_degree_split(f: Poly, d: int, rng: random.Random) -> Poly:
    """Find a proper monic factor of f (product of irreducibles of degree d)."""
    F = f.field
    n = f.degree
    while True:
        a = Poly(F, [rng.randrange(F.q) for _ in range(n)])
        if a.is_constant():
            continue
        g = f.gcd(a)
        if not g.is_constant() and g.degree < n:
            return g
        if F.p == 2:
            # trace map over F_2
            t = Poly.zero(F)
            b = a % f
            for _ in range(d * F.m):
                t = t + b
                b = b.pow_mod(2, f)
            g = f.gcd(t)
        else:
            b = a.pow_mod((F.q**d - 1) // 2, f)
            g = f.gcd(b - Poly.one(F))
        if not g.is_constant() and g.degree < n:
            return g


def factor(f: Poly, seed: int = 0) -> list[tuple[Poly, int]]:
    """Full factorization into monic irreducibles, sorted deterministically.

    Returns [(irreducible, multiplicity)]; the unit leading coefficient is
    dropped.
    """
    if f.is_zero():
        raise ValueError("cannot factor the zero polynomial")
    rng = random.Random(seed)
    out: list[tuple[Poly, int]] = []
    for sqf, mult in _squarefree_decomposition(f.monic()):
        for prod, d in _distinct_degree(sqf):
            stack = [prod]
            while stack:
                g = stack.pop()
                if g.degree == d:
                    out.append((g, mult))
                else:
                    h = _equal_degree_split(g, d, rng)
                    stack.append(h)
                    stack.append(g // h)
    out.sort(key=lambda t: (t[0].degree, t[0].coeffs))
    return out


def roots_in_field(f: Poly) -> list[int]:
    """All roots of f lying in its coefficient field."""
    return sorted(
        g.field.neg(g.coeffs[0]) for g, _ in factor(f) if g.degree == 1
    )


def irreducibles_of_degree(field: FiniteField, d: int):
    """All monic irreducibles of degree d, in code order (desk scale)."""
    x = Poly.x(field)
    out = []
    for code in range(field.q**d):
        cs = []
        c = code
        for _ in range(d):
            cs.append(c % field.q)
            c //= field.q
        f = Poly(field, cs + [1])
        # irreducible iff x^(q^d) == x mod f and x^(q^(d/r)) != x for r | d
        h = x.pow_mod(field.q**d, f)
        if h != x % f:
            continue
        ok = True
        for r in primefactors(d):
            h = x.pow_mod(field.q ** (d // r), f)
            if not f.gcd(h - x).is_constant():
                ok = False
                break
        if ok:
            out.append(f)
    return out


class OperatorRing:
    """A Witt coefficient ring whose elements carry their own arithmetic
    operators (+, -, *, **, ==, is_zero).

    A subclass sets `field`, builds constants with `const(c)` and names its
    identity with `key`; two rings are equal when their types and keys are.
    """

    field: FiniteField

    @property
    def char(self) -> int:
        return self.field.p

    @property
    def key(self):
        raise NotImplementedError

    def const(self, c: int):
        raise NotImplementedError

    def zero(self):
        return self.const(0)

    def one(self):
        return self.const(1)

    def from_int(self, n: int):
        return self.const(n % self.field.p)

    def is_zero(self, a) -> bool:
        return a.is_zero()

    def eq(self, a, b) -> bool:
        return a == b

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def neg(self, a):
        return -a

    def mul(self, a, b):
        return a * b

    def pow(self, a, n):
        return a**n

    def __eq__(self, other):
        return type(other) is type(self) and self.key == other.key

    def __hash__(self):
        return hash((type(self).__name__, self.key))


class PolynomialRing(OperatorRing):
    """k[T] as a Witt coefficient ring (elements are Poly)."""

    def __init__(self, field: FiniteField):
        self.field = field

    @property
    def key(self):
        return self.field

    def const(self, c: int):
        return Poly.const(self.field, c)
