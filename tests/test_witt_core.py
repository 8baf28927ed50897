"""Witt vector ring arithmetic over finite fields."""

import itertools
import json
import os
import random
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import wittsums
from wittsums import WittParams, WittVector, get_field


def rand_vec(rng, params, F):
    return WittVector(params, F, tuple(rng.randrange(F.q) for _ in range(params.l)))


def test_length_one_is_the_field():
    F = get_field(3, 1)
    params = WittParams(3, 1)
    for a in range(3):
        for b in range(3):
            s = WittVector(params, F, (a,)) + WittVector(params, F, (b,))
            m = WittVector(params, F, (a,)) * WittVector(params, F, (b,))
            assert s.coords == ((a + b) % 3,)
            assert m.coords == ((a * b) % 3,)


def test_sum_poly_p2_l2():
    # second addition coordinate is X1 + Y1 + X0*Y0 in characteristic 2
    F = get_field(2, 2)
    params = WittParams(2, 2)
    for a0 in F.elements():
        for a1 in F.elements():
            for b0 in F.elements():
                for b1 in F.elements():
                    s = WittVector(params, F, (a0, a1)) + WittVector(params, F, (b0, b1))
                    expect = F.add(F.add(a1, b1), F.mul(a0, b0))
                    assert s.coords == (F.add(a0, b0), expect)


def test_product_poly_p2_l2():
    # second product coordinate is X0^2*Y1 + Y0^2*X1 in characteristic 2
    F = get_field(2, 2)
    params = WittParams(2, 2)
    for a0 in F.elements():
        for a1 in F.elements():
            for b0 in F.elements():
                for b1 in F.elements():
                    s = WittVector(params, F, (a0, a1)) * WittVector(params, F, (b0, b1))
                    expect = F.add(
                        F.mul(F.mul(a0, a0), b1), F.mul(F.mul(b0, b0), a1)
                    )
                    assert s.coords == (F.mul(a0, b0), expect)


def test_examples_f2_f3():
    F2 = get_field(2, 1)
    p22 = WittParams(2, 2)
    one = WittVector(p22, F2, (1, 0))
    assert (one + one).coords == (0, 1)  # 1 + 1 = 2 = V(1) in Z/4 digits
    v11 = WittVector(p22, F2, (1, 1))
    assert (v11 * v11).coords == (1, 0)  # 3^2 = 9 = 1 in Z/4
    F3 = get_field(3, 1)
    p32 = WittParams(3, 2)
    one3 = WittVector(p32, F3, (1, 0))
    assert (one3 + one3).coords == (2, 1)  # digits of 2 in Z/9


def test_verschiebung_frobenius_examples():
    F2 = get_field(2, 1)
    p22 = WittParams(2, 2)
    a = WittVector(p22, F2, (1, 1))
    assert a.verschiebung().coords == (0, 1)
    assert a.frobenius().coords == (1, 1)  # Frobenius fixes F_2
    one = WittVector(p22, F2, (1, 0))
    assert one.verschiebung().frobenius().coords == (0, 1)  # p * 1 = V F 1


@pytest.mark.parametrize("p,l,m", [(2, 2, 2), (2, 3, 1), (3, 2, 1), (5, 2, 1)])
def test_ring_axioms_random(p, l, m):
    F = get_field(p, m)
    params = WittParams(p, l)
    rng = random.Random(1234 + p * 10 + l)
    zero = WittVector.zero(params, F)
    one = WittVector.one(params, F)
    for _ in range(40):
        a, b, c = (rand_vec(rng, params, F) for _ in range(3))
        assert a + b == b + a
        assert a * b == b * a
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + zero == a
        assert a * one == a
        assert a + (-a) == zero
        assert a * zero == zero


@pytest.mark.parametrize("p,l,m", [(2, 3, 2), (3, 2, 2)])
def test_fv_vf_identities(p, l, m):
    F = get_field(p, m)
    params = WittParams(p, l)
    rng = random.Random(99)
    for _ in range(25):
        a = rand_vec(rng, params, F)
        pa = a.scalar(p)
        assert a.verschiebung().frobenius() == pa
        assert a.frobenius().verschiebung() == pa


def test_v_twist_identity():
    # V^a x * V^b y = V^(a+b)(F^b x * F^a y)
    F = get_field(2, 2)
    params = WittParams(2, 3)
    rng = random.Random(7)
    for _ in range(25):
        x = rand_vec(rng, params, F)
        y = rand_vec(rng, params, F)
        for a in range(3):
            for b in range(3 - a):
                lhs = x.verschiebung(a) * y.verschiebung(b)
                fx = x
                for _ in range(b):
                    fx = fx.frobenius()
                fy = y
                for _ in range(a):
                    fy = fy.frobenius()
                rhs = (fx * fy).verschiebung(a + b)
                assert lhs == rhs


def test_teichmuller_multiplicative():
    F = get_field(3, 2)
    params = WittParams(3, 2)
    for a in list(F.elements())[:5]:
        for b in list(F.elements())[:5]:
            ta = WittVector.teichmuller(params, F, a)
            tb = WittVector.teichmuller(params, F, b)
            assert ta * tb == WittVector.teichmuller(params, F, F.mul(a, b))


def test_scalar_matches_repeated_addition():
    F = get_field(2, 1)
    params = WittParams(2, 3)
    rng = random.Random(5)
    for _ in range(10):
        a = rand_vec(rng, params, F)
        acc = WittVector.zero(params, F)
        for n in range(9):
            assert a.scalar(n) == acc
            acc = acc + a


@settings(max_examples=50, deadline=None)
@given(
    st.tuples(st.integers(0, 3), st.integers(0, 3)),
    st.tuples(st.integers(0, 3), st.integers(0, 3)),
    st.tuples(st.integers(0, 3), st.integers(0, 3)),
)
def test_hypothesis_axioms_w2_f4(a, b, c):
    F = get_field(2, 2)
    params = WittParams(2, 2)
    x = WittVector(params, F, a)
    y = WittVector(params, F, b)
    z = WittVector(params, F, c)
    assert x + y == y + x
    assert (x + y) + z == x + (y + z)
    assert x * (y + z) == x * y + x * z


def _to_integer(coords, p):
    """W_4(F_p) -> Z/p^4: sum p^i T(a_i), with T(a) = a^(p^3) mod p^4 the
    Teichmuller lift (Frobenius is the identity on F_p)."""
    mod = p**4
    return sum(p**i * pow(a, p**3, mod) for i, a in enumerate(coords)) % mod


def _check_w4_against_integers(p, pairs):
    F = get_field(p, 1)
    params = WittParams(p, 4)
    mod = p**4
    for a, b in pairs:
        x, y = WittVector(params, F, a), WittVector(params, F, b)
        ia, ib = _to_integer(a, p), _to_integer(b, p)
        assert _to_integer((x + y).coords, p) == (ia + ib) % mod
        assert _to_integer((x * y).coords, p) == ia * ib % mod
        assert _to_integer((-x).coords, p) == -ia % mod


def test_w4_f2_is_z16_exhaustive():
    vecs = list(itertools.product(range(2), repeat=4))
    assert len({_to_integer(v, 2) for v in vecs}) == 16
    _check_w4_against_integers(2, itertools.product(vecs, repeat=2))


def test_w4_f3_is_z81_sampled():
    rng = random.Random(2024)
    pairs = [
        (tuple(rng.randrange(3) for _ in range(4)), tuple(rng.randrange(3) for _ in range(4)))
        for _ in range(500)
    ]
    _check_w4_against_integers(3, pairs)


def test_import_leaves_out_sympy():
    """`import wittsums` loads no top-level package outside the standard
    library but numpy and wittsums itself: sympy and every other one stays
    out of import time."""
    root = os.path.dirname(os.path.dirname(wittsums.__file__))
    env = dict(os.environ, PYTHONPATH=root)
    code = (
        "import json, sys; before = set(sys.modules); import wittsums; "
        "loaded = {name.partition('.')[0] for name in set(sys.modules) - before}; "
        "print(json.dumps(sorted(loaded - set(sys.stdlib_module_names))))"
    )
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert json.loads(out.stdout) == ["numpy", "wittsums"]
