"""Truncated Laurent series over a finite field, on int64 arrays.

A series knows its valuation `val`, a coefficient window `coeffs` and an
absolute precision `prec`: coefficients of t^e are known for all e < prec.
`coeffs` is an int64 numpy array of field codes, `coeffs[i]` the
coefficient of t^(val + i).  The window is normalized: its first and last
entries are nonzero and it ends below `prec`.  A series that is zero to its
precision has an empty window and val == prec.  Arrays are never changed
in place once a series holds them.

Precision rules (the window of a result is cut at its `prec`):

- a + b: prec = min(a.prec, b.prec);
- a * b: prec = min(a.val + b.prec, b.val + a.prec);
- inverse: the relative precision prec - val is kept, so val -> -val and
  prec -> prec - 2 val;
- -a, c * a: unchanged; a^0 is 1 with prec a.prec - a.val (a.prec when a
  is zero); a^n, n > 0, by square-and-multiply under the product rule.

Over F_p a code is the residue itself, so a product is `np.convolve` of
the two windows mod p.  Over F_{p^m}, m > 1, a code is sum(c_j p^j), the
base-p vector (c_0, ..., c_{m-1}) of the element's coordinates in the
polynomial basis of the field's modulus.  A product uses Kronecker
substitution: coefficient i of a window occupies the slots
[i (2m - 1), i (2m - 1) + m) of one flat integer array, the rest zero.
Convolving two such arrays puts in block i, slots [i (2m - 1),
(i + 1)(2m - 1)), the coordinate polynomial (degree <= 2m - 2) of
coefficient i of the product, with no block spilling into the next.  Each
block is reduced mod p and then by the modulus, through the (2m - 1) x m
matrix of the coordinates of x^j mod the modulus.  An inverse is the
Newton iteration b <- b (2 - a b), which doubles the known terms at each
step.  Sums, negation and scaling go through the field's table operations
`add_array` and `mul_array`, for every p and m.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .fields import FiniteField

_EMPTY = np.zeros(0, dtype=np.int64)
MAX_SERIES_PREC = 1 << 16  # the most terms a precision-doubling loop asks for


class PrecisionError(ArithmeticError):
    """A computation needed more series terms than were available."""


# -- coefficient-array arithmetic -------------------------------------------


@lru_cache(maxsize=128)
def _kronecker(field: FiniteField):
    """(powers p^j, j < m; rows x^j mod the modulus, j < 2m - 1, as
    coordinate vectors) for a field with m > 1."""
    p, m = field.p, field.m
    weights = p ** np.arange(m, dtype=np.int64)
    red = np.array([field.coeffs(field.pow(p, j)) for j in range(2 * m - 1)], dtype=np.int64)
    return weights, red


def _convolve(a, b, bound: int):
    """np.convolve, on Python integers when a sum of products could pass
    int64 (`bound` is an upper bound on one product)."""
    if min(len(a), len(b)) * bound >= 2**63:
        return np.convolve(a.astype(object), b.astype(object))
    return np.convolve(a, b)


def _mul(field: FiniteField, a, b, n: int):
    """The first n coefficients of the product of coefficient arrays."""
    a, b = a[:n], b[:n]
    p, m = field.p, field.m
    if m == 1:
        return (_convolve(a, b, (p - 1) ** 2)[:n] % p).astype(np.int64)
    weights, red = _kronecker(field)
    w = 2 * m - 1
    flat = []
    for x in (a, b):
        blocks = np.zeros((len(x), w), dtype=np.int64)
        blocks[:, :m] = x[:, None] // weights % p
        flat.append(blocks.ravel())
    k = min(n, len(a) + len(b) - 1)
    prod = _convolve(flat[0], flat[1], m * (p - 1) ** 2)[: k * w] % p
    prod = np.asarray(prod, dtype=np.int64).reshape(k, w)
    return prod @ red % p @ weights


def _inverse(field: FiniteField, a, n: int):
    """The first n coefficients of 1/a, for a window a with a[0] != 0, by
    Newton's iteration: if a b = 1 mod t^k then b (2 - a b) = 1 mod t^2k."""
    b = np.array([field.inv(int(a[0]))], dtype=np.int64)
    if len(a) == 1:
        return b
    neg_a = field.mul_array(a[:n], field.neg(1))
    k = 1
    while k < n:
        k = min(2 * k, n)
        e = _mul(field, neg_a, b, k)  # -1 + O(t^(old k))
        e[0] = 0
        d = _mul(field, b, e, k)
        nb = np.zeros(k, dtype=np.int64)
        nb[: len(b)] = b
        nb[: len(d)] = field.add_array(nb[: len(d)], d)
        b = nb
    return b


# -- series -----------------------------------------------------------------


class LaurentSeries:
    __slots__ = ("field", "val", "coeffs", "prec")

    def __init__(self, field: FiniteField, val: int, coeffs, prec: int):
        c = np.array(coeffs, dtype=np.int64)[: max(0, prec - val)]
        nz = np.flatnonzero(c)
        if len(nz):
            start = int(nz[0])
            c = c[start : int(nz[-1]) + 1]
            val += start
        else:
            c, val = _EMPTY, prec
        self.field = field
        self.val = val
        self.coeffs = c
        self.prec = prec

    @classmethod
    def zero(cls, field, prec):
        return cls(field, prec, _EMPTY, prec)

    @classmethod
    def const(cls, field, c, prec):
        return cls(field, 0, [c], prec)

    @classmethod
    def t_power(cls, field, n, prec, c=1):
        return cls(field, n, [c], prec)

    def is_zero(self) -> bool:
        """Zero to working precision."""
        return not len(self.coeffs)

    def coeff(self, e: int) -> int:
        if e >= self.prec:
            raise PrecisionError(f"coefficient of t^{e} beyond precision {self.prec}")
        if e < self.val or e >= self.val + len(self.coeffs):
            return 0
        return int(self.coeffs[e - self.val])

    def leading(self) -> int:
        if not len(self.coeffs):
            raise PrecisionError("leading coefficient of a zero-to-precision series")
        return int(self.coeffs[0])

    def valuation(self) -> int:
        if not len(self.coeffs):
            raise PrecisionError("valuation of a zero-to-precision series")
        return self.val

    def truncate(self, prec: int) -> "LaurentSeries":
        if prec > self.prec:
            raise PrecisionError("cannot extend precision by truncation")
        return LaurentSeries(self.field, self.val, self.coeffs, prec)

    def shift(self, n: int) -> "LaurentSeries":
        """Multiply by t^n."""
        return LaurentSeries(self.field, self.val + n, self.coeffs, self.prec + n)

    def __add__(self, other):
        F = self.field
        prec = min(self.prec, other.prec)
        lo = min(self.val, other.val, prec)
        out = np.zeros(prec - lo, dtype=np.int64)
        a = self.coeffs[: max(0, prec - self.val)]
        out[self.val - lo : self.val - lo + len(a)] = a
        b = other.coeffs[: max(0, prec - other.val)]
        if len(b):
            i = other.val - lo
            out[i : i + len(b)] = F.add_array(out[i : i + len(b)], b)
        return LaurentSeries(F, lo, out, prec)

    def __neg__(self):
        F = self.field
        return LaurentSeries(F, self.val, F.mul_array(self.coeffs, F.neg(1)), self.prec)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        F = self.field
        prec = min(self.val + other.prec, other.val + self.prec)
        if not len(self.coeffs) or not len(other.coeffs):
            return LaurentSeries.zero(F, prec)
        lo = self.val + other.val
        return LaurentSeries(F, lo, _mul(F, self.coeffs, other.coeffs, prec - lo), prec)

    def scale(self, c: int) -> "LaurentSeries":
        F = self.field
        if c == 0:
            return LaurentSeries.zero(F, self.prec)
        return LaurentSeries(F, self.val, F.mul_array(self.coeffs, c), self.prec)

    def inverse(self) -> "LaurentSeries":
        F = self.field
        if not len(self.coeffs):
            raise PrecisionError("inverting a zero-to-precision series")
        n = self.prec - self.val  # number of known coefficients
        return LaurentSeries(F, -self.val, _inverse(F, self.coeffs, n), -self.val + n)

    def __pow__(self, n: int):
        if n < 0:
            return self.inverse() ** (-n)
        if n == 0:
            return LaurentSeries.const(
                self.field, 1, self.prec - self.val if len(self.coeffs) else self.prec
            )
        res = None
        base = self
        while n:
            if n & 1:
                res = base if res is None else res * base
            n >>= 1
            if n:
                base = base * base
        return res

    def __repr__(self):
        terms = [f"{c}*t^{self.val + i}" for i, c in enumerate(self.coeffs.tolist()) if c]
        body = " + ".join(terms) if terms else "0"
        return f"LaurentSeries({body} + O(t^{self.prec}))"


def eval_poly_at_series(coeffs, s: LaurentSeries, emb=None) -> LaurentSeries:
    """Evaluate a polynomial (integer-code coefficients, index = degree) at a
    series, by Horner; coefficients optionally pass through an embedding."""
    F = s.field
    coeffs = list(coeffs)
    if not coeffs:
        return LaurentSeries.zero(F, s.prec)
    acc = None
    for c in reversed(coeffs):
        cc = emb(c) if emb else c
        if acc is None:
            acc = LaurentSeries.const(F, cc, s.prec)
        else:
            acc = acc * s + LaurentSeries.const(F, cc, s.prec)
    return acc
