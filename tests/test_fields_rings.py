"""Finite fields, Galois rings, the digit isomorphism, traces, characters,
and exact cyclotomic integers."""

import cmath
import math
import random

import numpy as np
import pytest

from wittsums import (
    CyclotomicInteger,
    get_embedding,
    get_field,
    get_galois_ring,
    get_gr_embedding,
)
from wittsums.fields import (
    FIELD_SIZE_CAP,
    EnumerationCapError,
    FieldCapError,
    isprime,
    primefactors,
)
from wittsums.parsing import (
    _array_product,
    _IntPoly,
    _parse_int_poly,
    parse_curve,
    parse_gr_polynomial,
)
from wittsums.witt import WittParams, WittVector, _pmul

from power_oracles import oracle_frobenius
from teichmuller_oracle import additive_character


# -- finite fields ---------------------------------------------------------


def test_trial_division_helpers():
    for n in range(1, 2000):
        divisors = [d for d in range(2, n + 1) if n % d == 0]
        primes = [d for d in divisors if all(d % e for e in range(2, d))]
        assert primefactors(n) == primes
        assert isprime(n) == (divisors == [n])
    assert primefactors(FIELD_SIZE_CAP - 1) == [47, 178481]
    with pytest.raises(FieldCapError):
        isprime(10**24 + 7)


def test_field_axioms_f8_f9():
    for p, m in [(2, 3), (3, 2)]:
        F = get_field(p, m)
        els = list(F.elements())
        for a in els:
            assert F.add(a, F.neg(a)) == 0
            if a:
                assert F.mul(a, F.inv(a)) == 1
            assert F.pow(a, F.q) == a  # x^q = x
        rng = random.Random(0)
        for _ in range(50):
            a, b, c = (rng.randrange(F.q) for _ in range(3))
            assert F.mul(a, F.add(b, c)) == F.add(F.mul(a, b), F.mul(a, c))


def test_frobenius_and_pth_root():
    F = get_field(3, 2)
    for a in F.elements():
        fr = F.frobenius(a)
        assert fr == F.pow(a, 3)
        assert F.pth_root(fr) == a
        for b in F.elements():
            assert F.frobenius(F.add(a, b)) == F.add(fr, F.frobenius(b))


def test_trace_to_prime():
    """The field trace is the ring trace at l = 1."""
    F = get_field(2, 3)
    trace = get_galois_ring(2, 1, 3).absolute_trace
    values = set()
    for a in F.elements():
        t = trace(F.coeffs(a))
        values.add(t)
        assert trace(F.coeffs(F.frobenius(a))) == t
        assert F.add(F.add(a, F.frobenius(a)), F.frobenius(a, 2)) == t  # a + a^2 + a^4
    assert values == {0, 1}  # surjective onto F_p


def test_embedding_is_homomorphism():
    emb = get_embedding(2, 2, 4)
    F, big = get_field(2, 2), get_field(2, 4)
    assert emb(0) == 0 and emb(1) == 1
    for a in F.elements():
        assert big.pow(emb(a), F.q) == emb(a)  # lands in the subfield
        for b in F.elements():
            assert emb(F.add(a, b)) == big.add(emb(a), emb(b))
            assert emb(F.mul(a, b)) == big.mul(emb(a), emb(b))


# -- Galois rings ----------------------------------------------------------


def test_teichmuller_examples():
    Z9 = get_galois_ring(3, 2, 1)
    assert Z9.teichmuller(2) == (8,)
    Z4 = get_galois_ring(2, 2, 1)
    assert Z4.teichmuller(0) == (0,) and Z4.teichmuller(1) == (1,)
    assert {Z4.teichmuller(a) for a in Z4.residue_field.elements()} == {(0,), (1,)}


def test_teichmuller_set_multiplicative():
    R = get_galois_ring(2, 2, 2)
    T = [R.teichmuller(a) for a in R.residue_field.elements()]
    assert len(T) == 4
    for x in T:
        for y in T:
            assert R.mul(x, y) in T
            assert R.pow(x, R.residue_field.q) == x


def test_witt_digits_examples():
    Z9 = get_galois_ring(3, 2, 1)
    assert Z9.witt_digits((2,)) == (2, 1)
    R = get_galois_ring(2, 2, 2)
    for a in R.residue_field.elements():
        assert R.witt_digits(R.teichmuller(a)) == (a, 0)
    Z4 = get_galois_ring(2, 2, 1)
    for x in Z4.elements():
        assert Z4.from_digits(Z4.witt_digits(x)) == x


@pytest.mark.parametrize(
    "p,l,m,exhaustive",
    [(2, 2, 1, True), (3, 2, 1, True), (2, 2, 2, True), (2, 3, 2, False), (3, 2, 2, False)],
)
def test_digit_map_is_ring_isomorphism(p, l, m, exhaustive):
    R = get_galois_ring(p, l, m)
    els = list(R.elements())
    if exhaustive:
        pairs = [(x, y) for x in els for y in els]
    else:
        rng = random.Random(p * 100 + l * 10 + m)
        pairs = [(rng.choice(els), rng.choice(els)) for _ in range(60)]
    params = WittParams(p, l)
    for x, y in pairs:
        wx = WittVector(params, R.residue_field, R.witt_digits(x))
        wy = WittVector(params, R.residue_field, R.witt_digits(y))
        assert R.from_digits(wx.coords) == x
        assert (wx + wy).coords == R.witt_digits(R.add(x, y))
        assert (wx * wy).coords == R.witt_digits(R.mul(x, y))


def test_gr_trace_examples():
    R = get_galois_ring(2, 2, 2)
    alpha = R.element((0, 1))
    assert R.absolute_trace(alpha) == 3  # alpha + alpha^2 with alpha^2+alpha+1=0
    assert R.absolute_trace(R.zero()) == 0
    assert R.absolute_trace(R.from_int(1)) == 2  # trace of 1 over degree 2
    for x in R.elements():
        fx = oracle_frobenius(R, x)
        assert R.absolute_trace(fx) == R.absolute_trace(x)
        for y in R.elements():
            assert (
                R.absolute_trace(R.add(x, y))
                == (R.absolute_trace(x) + R.absolute_trace(y)) % 4
            )


def test_trace_surjective():
    R = get_galois_ring(3, 2, 2)
    assert {R.absolute_trace(x) for x in R.elements()} == set(range(9))


def test_additive_character_examples():
    Z4 = get_galois_ring(2, 2, 1)
    psi = additive_character(Z4)
    i = CyclotomicInteger.zeta_pow(2, 2, 1)
    assert psi(Z4.from_int(1)) == i
    assert psi(Z4.zero()) == CyclotomicInteger.one(2, 2)
    R = get_galois_ring(2, 2, 2)
    psi2 = additive_character(R)
    assert psi2(R.element((0, 1))) == CyclotomicInteger.zeta_pow(2, 2, 3)  # -i


def test_character_homomorphism_and_full_sum():
    R = get_galois_ring(3, 2, 1)
    psi = additive_character(R)
    for x in R.elements():
        for y in R.elements():
            assert psi(R.add(x, y)) == psi(x) * psi(y)
    total = CyclotomicInteger.zero(3, 2)
    for x in R.elements():
        total = total + psi(x)
    assert total.is_zero()


@pytest.mark.parametrize("p, l, m, md", [(2, 2, 1, 3), (2, 3, 2, 4), (3, 2, 2, 4), (5, 2, 1, 2)])
def test_gr_embedding_is_the_ring_map_lifting_the_field_embedding(p, l, m, md):
    """A ring map between Galois rings is determined by its residue-field
    map, so these properties pin the embedding down."""
    small, big = get_galois_ring(p, l, m), get_galois_ring(p, l, md)
    emb, field_emb = get_gr_embedding(p, l, m, md), get_embedding(p, m, md)
    xs = list(small.elements())
    rng = random.Random(p * 1000 + l * 100 + m * 10 + md)
    assert emb(small.one()) == big.one()
    for x in xs:
        assert big.witt_digits(emb(x))[0] == field_emb(small.witt_digits(x)[0])
    for _ in range(200):
        x, y = rng.choice(xs), rng.choice(xs)
        assert emb(small.add(x, y)) == big.add(emb(x), emb(y))
        assert emb(small.mul(x, y)) == big.mul(emb(x), emb(y))


def test_parse_gr_polynomial_reduces_integer_coefficients():
    Z4 = get_galois_ring(2, 2, 1)
    coeffs = [Z4.from_int(c) for c in (1, 0, 2, 0, 1)]
    assert parse_gr_polynomial("(T+1)^4-4*T", Z4) == coeffs
    # 4*T^5 vanishes in Z/4: no trailing zero coefficient is kept
    assert parse_gr_polynomial("4*T^5+T", Z4) == [Z4.zero(), Z4.one()]


def _reduced(terms, mod):
    return {e: c % mod for e, c in terms.items() if c % mod}


def _coefficient_array(terms):
    v = np.zeros(max(terms)[0] + 1, dtype=object)
    for (k, _), c in terms.items():
        v[k] = c
    return v


def test_array_product_matches_dict_product():
    """The parser's product on coefficient arrays, shifted adds of one
    factor at each nonzero entry of the other, against the dict product,
    reduced, in both orders: sparse and dense random polynomials in T, with
    moduli where int64 holds every sum and moduli where it cannot."""
    rng = random.Random(5)
    big = 8388593**4  # the largest prime under the field cap, to the fourth
    for mod in (4, 9, 27, 625, 2**31 - 1, big):
        for _ in range(20):
            a, b = (
                {(k, 0): rng.randrange(1, mod) for k in rng.sample(range(n), rng.randrange(1, n + 1))}
                for n in (rng.randrange(1, 60), rng.randrange(1, 60))
            )
            want = _reduced(_pmul(a, b), mod)
            u, v = _coefficient_array(a), _coefficient_array(b)
            for got in (_array_product(u, v, mod), _array_product(v, u, mod)):
                assert _IntPoly(got if len(got) else {}, mod).terms == want
    # a single product past 2^63 in int64 would wrap
    a = _coefficient_array({(k, 0): big - 1 for k in range(40)})
    assert _array_product(a, a, big).tolist() == [min(k + 1, 79 - k) % big for k in range(79)]


def test_dense_times_sparse_matches_dict_product():
    """A dense polynomial in T times one of a few terms far apart, the
    square-and-multiply step of a power such as (T+1)^65535, is formed on
    coefficient arrays; its terms agree with the dict product, reduced, in
    both orders, with a modulus where int64 is exact and a large prime
    where it is not."""
    rng = random.Random(11)
    for mod in (4, 27, 2**61 - 1):
        for _ in range(10):
            n = rng.randrange(200, 2000)
            dense = {(k, 0): rng.randrange(1, mod) for k in range(n)}
            sparse = {(k, 0): rng.randrange(1, mod) for k in rng.sample(range(n, 5 * n), rng.randrange(1, 5))}
            want = _reduced(_pmul(dense, sparse), mod)
            a, b = _IntPoly(dense, mod), _IntPoly(sparse, mod)
            for product in (a * b, b * a):
                assert product._coeffs is not None and product.terms == want
    want = {(k, 0): c for k in range(4096) if (c := math.comb(4095, k) % 4)}
    assert _parse_int_poly("(T+1)^4095", "T", 4) == want
    # a factor of high degree and few terms stays on the dict product: no
    # array of its length is built (a curve equation has no degree cap)
    got = _parse_int_poly("(x+1)^99*(x^1000000000+1)", "xy", 4)
    assert len(got) == 2 * sum(math.comb(99, k) % 4 != 0 for k in range(100))


def test_parse_gr_polynomial_reduces_as_it_goes():
    """Coefficients are reduced mod p^l after every operation, so a power
    costs what its reduced terms cost, and a power past the Teichmuller-sum
    cap is refused before it is taken."""
    Z4 = get_galois_ring(2, 2, 1)
    want = [Z4.from_int(math.comb(3000, k) % 4) for k in range(3001)]
    assert parse_gr_polynomial("(T+1)^3000", Z4) == want
    # (1 + T)^(2^k) = 1 + 2 T^(2^(k-1)) + T^(2^k) mod 4: three terms, where
    # the exact binomials would be 2^16 integers of up to 2^16 bits
    big = parse_gr_polynomial("(T+1)^65536", Z4)
    assert len(big) == 2**16 + 1
    assert [k for k, c in enumerate(big) if c != Z4.zero()] == [0, 2**15, 2**16]
    assert big[2**15] == Z4.from_int(2) and big[-1] == Z4.one()
    assert parse_gr_polynomial("3^10000001*T", Z4) == [Z4.zero(), Z4.from_int(3)]
    # over F_2 the cap q (d + 1) <= 10^7 admits degree 4999999 and no more
    with pytest.raises(EnumerationCapError):
        parse_gr_polynomial("(T+1)^5000000", Z4)
    with pytest.raises(EnumerationCapError):
        parse_gr_polynomial("(T^2500000)^2", Z4)


def test_parse_curve_reduces_mod_p():
    F2 = get_field(2, 1)
    E = parse_curve("y^2 + y = x^3", F2)
    assert parse_curve("3*y^2 + y = x^3 + 2*x^4 + 4", F2) == E
    assert parse_curve("y^2 + y = (x + 1)^3 - 3*x^2 - 3*x - 1", F2) == E


def test_gr_embedding_examples():
    emb = get_gr_embedding(2, 2, 1, 2)
    Z4 = get_galois_ring(2, 2, 1)
    R = get_galois_ring(2, 2, 2)
    assert emb(Z4.from_int(3)) == R.from_int(3)
    for x in Z4.elements():
        for y in Z4.elements():
            assert emb(Z4.add(x, y)) == R.add(emb(x), emb(y))
            assert emb(Z4.mul(x, y)) == R.mul(emb(x), emb(y))


# -- cyclotomic integers ---------------------------------------------------


def test_cyclotomic_examples():
    one = CyclotomicInteger.one(2, 2)
    z = CyclotomicInteger.zeta_pow(2, 2, 1)
    total = CyclotomicInteger.zero(2, 2)
    for t in range(4):
        total = total + CyclotomicInteger.zeta_pow(2, 2, t)
    assert total.is_zero()  # 1 + zeta + zeta^2 + zeta^3 = 0
    assert abs((one + z).abs_complex() - 2**0.5) < 1e-12
    assert z * z == CyclotomicInteger.from_int(2, 2, -1)


def test_cyclotomic_complex_embedding():
    for p, l in [(2, 2), (3, 2), (2, 3)]:
        n = p**l
        for t in range(n):
            z = CyclotomicInteger.zeta_pow(p, l, t)
            assert abs(z.complex_value() - cmath.exp(2j * cmath.pi * t / n)) < 1e-12


def test_cyclotomic_divide_exact():
    z = CyclotomicInteger.zeta_pow(2, 2, 1)
    three_z = z + z + z
    assert three_z.divide_exact(3) == z
    with pytest.raises(ArithmeticError):
        three_z.divide_exact(2)
