"""The array Laurent series against the scalar oracle they replaced.

`ScalarLaurentSeries` and `scalar_eval_poly_at_series` are the former
coefficient-by-coefficient implementation, kept here as the oracle: every
operation must give the same valuation, window and precision.  One line
differs from the former code: a window that starts at or past the
precision is cut to nothing (`max(0, prec - val)`); the former slice
`coeffs[:prec - val]` with a negative bound kept part of such a window and
left a "nonzero" series with val > prec.
"""

import random

import numpy as np
import pytest

from wittsums import get_field
from wittsums.series import LaurentSeries, PrecisionError, _convolve, eval_poly_at_series


class ScalarLaurentSeries:
    """The scalar series: a Python list window, schoolbook product and
    the term-by-term inverse recurrence."""

    __slots__ = ("field", "val", "coeffs", "prec")

    def __init__(self, field, val, coeffs, prec):
        coeffs = list(coeffs)
        while coeffs and coeffs[0] == 0:
            coeffs.pop(0)
            val += 1
        if val + len(coeffs) > prec:
            coeffs = coeffs[: max(0, prec - val)]
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        if not coeffs:
            val = prec
        self.field = field
        self.val = val
        self.coeffs = coeffs
        self.prec = prec

    @classmethod
    def zero(cls, field, prec):
        return cls(field, prec, [], prec)

    @classmethod
    def const(cls, field, c, prec):
        return cls(field, 0, [c], prec)

    def __add__(self, other):
        F = self.field
        prec = min(self.prec, other.prec)
        lo = min(self.val, other.val, prec)
        out = [0] * (prec - lo)
        for s in (self, other):
            for i, c in enumerate(s.coeffs):
                e = s.val + i
                if e < prec:
                    out[e - lo] = F.add(out[e - lo], c)
        return ScalarLaurentSeries(F, lo, out, prec)

    def __neg__(self):
        F = self.field
        return ScalarLaurentSeries(F, self.val, [F.neg(c) for c in self.coeffs], self.prec)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        F = self.field
        if not self.coeffs or not other.coeffs:
            prec = min(
                self.val + other.prec if not other.coeffs else other.val + self.prec,
                other.val + self.prec if not self.coeffs else self.val + other.prec,
            )
            return ScalarLaurentSeries.zero(F, prec)
        prec = min(self.val + other.prec, other.val + self.prec)
        lo = self.val + other.val
        out = [0] * (prec - lo)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    if b and i + j < len(out):
                        out[i + j] = F.add(out[i + j], F.mul(a, b))
        return ScalarLaurentSeries(F, lo, out, prec)

    def scale(self, c):
        F = self.field
        if c == 0:
            return ScalarLaurentSeries.zero(F, self.prec)
        return ScalarLaurentSeries(F, self.val, [F.mul(c, a) for a in self.coeffs], self.prec)

    def inverse(self):
        F = self.field
        if not self.coeffs:
            raise PrecisionError("inverting a zero-to-precision series")
        n = self.prec - self.val
        a = self.coeffs + [0] * (n - len(self.coeffs))
        inv0 = F.inv(a[0])
        out = [inv0] + [0] * (n - 1)
        for k in range(1, n):
            s = 0
            for j in range(1, k + 1):
                if j < len(a) and a[j] and out[k - j]:
                    s = F.add(s, F.mul(a[j], out[k - j]))
            out[k] = F.neg(F.mul(inv0, s))
        return ScalarLaurentSeries(F, -self.val, out, -self.val + n)

    def __pow__(self, n):
        if n < 0:
            return self.inverse() ** (-n)
        if n == 0:
            return ScalarLaurentSeries.const(
                self.field, 1, self.prec - self.val if self.coeffs else self.prec
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


def scalar_eval_poly_at_series(coeffs, s, emb=None):
    F = s.field
    coeffs = list(coeffs)
    if not coeffs:
        return ScalarLaurentSeries.zero(F, s.prec)
    acc = None
    for c in reversed(coeffs):
        cc = emb(c) if emb else c
        if acc is None:
            acc = ScalarLaurentSeries.const(F, cc, s.prec)
        else:
            acc = acc * s + ScalarLaurentSeries.const(F, cc, s.prec)
    return acc


FIELDS = [(2, 1), (3, 1), (5, 1), (2, 2), (3, 2)]  # F_2, F_3, F_5, F_4, F_9


def key(s):
    coeffs = s.coeffs.tolist() if isinstance(s.coeffs, np.ndarray) else list(s.coeffs)
    return s.val, coeffs, s.prec


def random_pair(F, rng, zero=False):
    """The same random series as an array series and as an oracle series;
    valuations range over [-4, 4], windows may carry zeros at either end
    and run past the precision, and `zero` gives one zero to precision."""
    val = rng.randint(-4, 4)
    n = rng.randint(0, 12)
    coeffs = [0] * n if zero else [rng.randrange(F.q) if rng.random() < 0.8 else 0 for _ in range(n)]
    prec = val + rng.randint(0, n + 2)
    return LaurentSeries(F, val, coeffs, prec), ScalarLaurentSeries(F, val, coeffs, prec)


def pairs(F, rng, count):
    for i in range(count):
        yield random_pair(F, rng, zero=i % 7 == 0)


@pytest.mark.parametrize("p, m", FIELDS)
def test_construction_matches_oracle(p, m):
    F = get_field(p, m)
    rng = random.Random(f"construct:{p}:{m}")
    for a, oa in pairs(F, rng, 200):
        assert key(a) == key(oa)
        assert a.is_zero() == (not oa.coeffs)


@pytest.mark.parametrize("p, m", FIELDS)
def test_ring_operations_match_oracle(p, m):
    F = get_field(p, m)
    rng = random.Random(f"ops:{p}:{m}")
    for i in range(150):
        (a, oa), (b, ob) = random_pair(F, rng, zero=i % 9 == 0), random_pair(F, rng, zero=i % 11 == 0)
        assert key(a + b) == key(oa + ob)
        assert key(a - b) == key(oa - ob)
        assert key(a * b) == key(oa * ob)
        assert key(-a) == key(-oa)
        c = rng.randrange(F.q)
        assert key(a.scale(c)) == key(oa.scale(c))


@pytest.mark.parametrize("p, m", FIELDS)
def test_inverse_and_powers_match_oracle(p, m):
    F = get_field(p, m)
    rng = random.Random(f"inv:{p}:{m}")
    for a, oa in pairs(F, rng, 150):
        for n in (0, 1, 2, 3, 5):
            assert key(a**n) == key(oa**n), n
        if not oa.coeffs:
            with pytest.raises(PrecisionError):
                a.inverse()
            continue
        assert key(a.inverse()) == key(oa.inverse())
        for n in (-1, -2, -3):
            assert key(a**n) == key(oa**n), n


@pytest.mark.parametrize("p, m", FIELDS)
def test_long_products_and_inverses_match_oracle(p, m):
    F = get_field(p, m)
    rng = random.Random(f"long:{p}:{m}")
    for _ in range(5):
        val = rng.randint(-3, 3)
        coeffs = [rng.randrange(1, F.q)] + [rng.randrange(F.q) for _ in range(60)]
        a, oa = LaurentSeries(F, val, coeffs, val + 70), ScalarLaurentSeries(F, val, coeffs, val + 70)
        assert key(a.inverse()) == key(oa.inverse())
        assert key(a * a.inverse()) == key(oa * oa.inverse())


@pytest.mark.parametrize("p, m", FIELDS)
def test_horner_matches_oracle(p, m):
    F = get_field(p, m)
    rng = random.Random(f"horner:{p}:{m}")
    for s, os_ in pairs(F, rng, 60):
        poly = [rng.randrange(F.q) for _ in range(rng.randint(0, 6))]
        assert key(eval_poly_at_series(poly, s)) == key(scalar_eval_poly_at_series(poly, os_))


def test_convolve_leaves_int64_when_it_could_overflow():
    a = np.array([2**40, 3, 2**41], dtype=np.int64)
    b = np.array([2**39, 5], dtype=np.int64)
    want = [2**79, 3 * 2**39 + 5 * 2**40, 15 + 2**80, 5 * 2**41]
    assert _convolve(a, b, 2**82).tolist() == want
    assert _convolve(a % 7, b % 7, 36).tolist() == np.convolve(a % 7, b % 7).tolist()


def test_window_past_the_precision_is_zero():
    F = get_field(3, 1)
    s = LaurentSeries(F, 6, [1, 2, 1], 5)
    assert s.is_zero() and (s.val, s.prec) == (5, 5)
    t = LaurentSeries(F, 2, [1, 1, 1], 9).truncate(2)
    assert t.is_zero() and (t.val, t.prec) == (2, 2) and t.coeff(1) == 0
