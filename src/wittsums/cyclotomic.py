"""Exact arithmetic in Z[zeta] for zeta a primitive p^l-th root of unity.

Elements are coefficient vectors of length phi = p^(l-1)*(p-1), reduced
modulo the cyclotomic polynomial Phi_{p^l}(X) = sum_{i<p} X^(i*p^(l-1)).
Coefficients are ints: 1, zeta, ..., zeta^(phi-1) is a basis of Z[zeta].
"""

from __future__ import annotations

import cmath


class CyclotomicInteger:
    __slots__ = ("p", "l", "coeffs")

    def __init__(self, p: int, l: int, coeffs):
        self.p = p
        self.l = l
        phi = p ** (l - 1) * (p - 1)
        coeffs = tuple(coeffs)
        if len(coeffs) != phi:
            raise ValueError(f"need {phi} coefficients, got {len(coeffs)}")
        self.coeffs = coeffs

    # -- constructors

    @classmethod
    def zero(cls, p, l):
        return cls(p, l, (0,) * (p ** (l - 1) * (p - 1)))

    @classmethod
    def from_int(cls, p, l, n):
        phi = p ** (l - 1) * (p - 1)
        return cls(p, l, (n,) + (0,) * (phi - 1))

    @classmethod
    def one(cls, p, l):
        return cls.from_int(p, l, 1)

    @classmethod
    def zeta_pow(cls, p, l, t):
        """zeta^t as a reduced element."""
        n = p**l
        v = [0] * n
        v[t % n] = 1
        return cls._reduce(p, l, v)

    @classmethod
    def _reduce(cls, p, l, v):
        """Reduce a length-p^l exponent vector modulo Phi_{p^l}."""
        n = p**l
        pl1 = p ** (l - 1)
        phi = pl1 * (p - 1)
        v = list(v)
        for e in range(n - 1, phi - 1, -1):
            c = v[e]
            if c:
                v[e] = 0
                j = e - phi  # e = (p-1)*p^(l-1) + j with 0 <= j < p^(l-1)
                for i in range(p - 1):
                    v[j + i * pl1] -= c
        return cls(p, l, v[:phi])

    # -- predicates

    def _check(self, other):
        if (self.p, self.l) != (other.p, other.l):
            raise ValueError("mismatched cyclotomic orders")

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def __eq__(self, other):
        if not isinstance(other, CyclotomicInteger):
            return NotImplemented
        return (self.p, self.l) == (other.p, other.l) and all(
            a == b for a, b in zip(self.coeffs, other.coeffs)
        )

    def __hash__(self):
        return hash((self.p, self.l, self.coeffs))

    # -- arithmetic

    def __add__(self, other):
        self._check(other)
        return CyclotomicInteger(
            self.p, self.l, tuple(a + b for a, b in zip(self.coeffs, other.coeffs))
        )

    def __sub__(self, other):
        self._check(other)
        return CyclotomicInteger(
            self.p, self.l, tuple(a - b for a, b in zip(self.coeffs, other.coeffs))
        )

    def __neg__(self):
        return CyclotomicInteger(self.p, self.l, tuple(-a for a in self.coeffs))

    def __mul__(self, other):
        if isinstance(other, int):
            return CyclotomicInteger(self.p, self.l, tuple(c * other for c in self.coeffs))
        self._check(other)
        n = self.p**self.l
        v = [0] * n
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    if b:
                        v[(i + j) % n] += a * b
        return CyclotomicInteger._reduce(self.p, self.l, v)

    __rmul__ = __mul__

    def divide_exact(self, n: int) -> "CyclotomicInteger":
        """The quotient by a nonzero integer n.  The power basis is
        integral, so the quotient lies in Z[zeta] exactly when n divides
        every coefficient; ArithmeticError otherwise."""
        out = []
        for c in self.coeffs:
            quo, rem = divmod(c, n)
            if rem:
                raise ArithmeticError(f"{self!r} is not divisible by {n}")
            out.append(quo)
        return CyclotomicInteger(self.p, self.l, out)

    def conjugate_power(self, t: int) -> "CyclotomicInteger":
        """Galois action zeta -> zeta^t, for t prime to p."""
        n = self.p**self.l
        v = [0] * n
        for i, c in enumerate(self.coeffs):
            if c:
                v[(i * t) % n] += c
        return CyclotomicInteger._reduce(self.p, self.l, v)

    # -- complex embedding

    def complex_value(self) -> complex:
        n = self.p**self.l
        return sum(
            c * cmath.exp(2j * cmath.pi * i / n) for i, c in enumerate(self.coeffs) if c
        )

    def abs_complex(self) -> float:
        return abs(self.complex_value())

    def __repr__(self):
        return f"Cyclotomic(p^l={self.p}^{self.l}, {list(self.coeffs)})"
