"""The numpy table layer against the pure-Python builders it replaced.

The oracles below are the element-at-a-time builders the library used
before: field exp/log/Zech tables by repeated multiplication by the
generator, digit trace tables by one Galois-ring multiplication and one
basis-trace dot product per field element, and P^1 point sums by one
scalar evaluation per point.  Each fast path must agree with them exactly.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import numpy as np

from wittsums.asw import artin_reduce_at, candidate_pole_places, witt_function
from wittsums.charsums import (
    _digit_trace_tables,
    _exponent_counts_to_cyclotomic,
    sum_witt,
)
from wittsums.fields import (
    FiniteField,
    _code_to_coeffs,
    _linear_orbit,
    _coeffs_to_code,
    _poly_mul_mod,
    _poly_pow_mod,
    get_embedding,
    get_field,
    primefactors,
)
from wittsums.galois_rings import get_galois_ring, get_gr_embedding
from wittsums.poly import Poly
from wittsums.rational import (
    FinitePlace,
    InfinitePlace,
    RationalFunction,
    RationalFunctionField,
)
from wittsums.witt import WittVector

# -- oracles -------------------------------------------------------------------


def oracle_field_tables(F):
    """(generator, exp, log, zech) by one polynomial product per element."""
    p, m, q = F.p, F.m, F.q
    mod = list(F.modulus)
    factors = primefactors(q - 1) if q > 2 else []
    gen = None
    for cand in range(p if m > 1 else 2, q):
        cc = _code_to_coeffs(cand, p, m)
        ok = all(
            _poly_pow_mod(cc, (q - 1) // r, mod, p) != [1] + [0] * (m - 1)
            for r in factors
        )
        if ok:
            gen = cc
            break
    if gen is None:  # q == 2
        gen = [1]
    exp = [0] * (q - 1)
    log = [0] * q
    log[0] = -1
    cur = [1] + [0] * (m - 1)
    for k in range(q - 1):
        code = _coeffs_to_code(cur, p)
        exp[k] = code
        log[code] = k
        cur = _poly_mul_mod(cur, gen, mod, p)

    def plus1(code):
        c0 = code % p
        return code - c0 + (c0 + 1) % p

    zech = None if p == 2 else [log[plus1(e)] if plus1(e) else -1 for e in exp]
    return (exp[1] if q > 2 else 1), exp, log, zech


def oracle_trace_tables(p, l, m, d, twist_key):
    """contrib[i][a] by one Teichmuller lift and one trace per element."""
    md = m * d
    F = get_field(p, md)
    R = get_galois_ring(p, l, md)
    pl = p**l
    teich = [R.zero()] * F.q
    g = F.exp[1] if F.q > 2 else 1
    tg = R.teichmuller(g)
    cur = R.one()
    for k in range(F.q - 1):
        teich[F.exp[k]] = cur
        cur = R.mul(cur, tg)
    basis_tr = []
    for j in range(md):
        e = tuple(1 if t == j else 0 for t in range(md))
        basis_tr.append(R.absolute_trace(e))
    if twist_key is None:
        bb = R.one()
    else:
        b = tuple(twist_key)
        bb = b if d == 1 else get_gr_embedding(p, l, m, md)(b)
    contrib = []
    for i in range(l):
        row = [0] * F.q
        ppow = p**i
        for a in range(F.q):
            ai = F.pow(a, p ** ((md - 1) * i))  # inverse Frobenius, i times
            x = R.scalar_mul(ppow, R.mul(bb, teich[ai]))
            row[a] = sum(c * t for c, t in zip(x, basis_tr)) % pl
        contrib.append(row)
    return contrib


def oracle_sum_p1(fvec, d, exclusions, twist_key=None):
    """(value, term_count) of sum_witt on P^1, one scalar point at a time."""
    F = fvec.ring.field
    p, l = fvec.params.p, fvec.params.l
    pl_mod = p**l
    big = F if d == 1 else get_field(p, F.m * d)
    emb = None if d == 1 else get_embedding(p, F.m, F.m * d)
    contrib = oracle_trace_tables(p, l, F.m, d, twist_key)
    counts = [0] * pl_mod

    def tally(digits):
        counts[sum(contrib[i][a] for i, a in enumerate(digits)) % pl_mod] += 1

    def roots(place):
        pol = place.poly.map_field(emb) if emb else place.poly
        return {x0 for x0 in big.elements() if pol.eval(x0) == 0}

    excluded = set()
    for e in exclusions:
        if isinstance(e, FinitePlace):
            excluded |= roots(e)
    point_place = {}
    for pl_ in candidate_pole_places(fvec):
        if pl_ not in exclusions and isinstance(pl_, FinitePlace):
            for x0 in roots(pl_):
                point_place[x0] = pl_
    term_count = 0
    for x0 in big.elements():
        if x0 in excluded:
            continue
        pl_ = point_place.get(x0)
        coords = fvec.coords if pl_ is None else artin_reduce_at(fvec, pl_).reduced.coords
        rfield = coords[0].field
        remb = emb if rfield == F else get_embedding(p, rfield.m, big.m)
        tally(tuple(c.eval(x0, big, remb) if remb else c.eval(x0) for c in coords))
        term_count += 1
    if not any(isinstance(e, InfinitePlace) for e in exclusions):
        inf = InfinitePlace(F)
        coords = artin_reduce_at(fvec, inf).reduced.coords
        base = tuple(0 if c.is_zero() else c.laurent_at(inf, 1).coeff(0) for c in coords)
        tally(tuple(emb(a) for a in base) if emb else base)
        term_count += 1
    return _exponent_counts_to_cyclotomic(p, l, counts), term_count


# -- the orbit helper ----------------------------------------------------------


@settings(max_examples=40, deadline=None)
@given(
    dim=st.integers(1, 4),
    n=st.integers(1, 60),
    mod=st.sampled_from([2, 9, 125, 2**31 - 1, 2**70 + 25]),  # the last is object dtype
    data=st.data(),
)
def test_linear_orbit_matches_iteration(dim, n, mod, data):
    entries = st.integers(0, mod - 1)
    M = data.draw(st.lists(st.lists(entries, min_size=dim, max_size=dim), min_size=dim, max_size=dim))
    v = data.draw(st.lists(entries, min_size=dim, max_size=dim))
    got = [[int(c) for c in row] for block in _linear_orbit(M, v, n, mod) for row in block]
    want = []
    for _ in range(n):
        want.append(v)
        v = [sum(a * b for a, b in zip(r, v)) % mod for r in M]
    assert got == want


# -- field tables --------------------------------------------------------------

FIELD_GRID = (
    [(2, m) for m in range(1, 17)]
    + [(3, m) for m in range(1, 10)]
    + [(5, m) for m in range(1, 6)]
    + [(7, m) for m in range(1, 5)]
    + [(11, 1), (11, 2)]
)


@pytest.mark.parametrize("p, m", FIELD_GRID)
def test_field_tables_match_oracle(p, m):
    F = FiniteField(p, m)
    gen, exp, log, zech = oracle_field_tables(F)
    assert F.generator == gen
    assert F.exp == exp and F.log == log and F._zech == zech
    assert all(type(v) is int for v in F.exp[:3] + F.log[:3])


@settings(max_examples=60, deadline=None)
@given(
    pm=st.sampled_from([(2, 1), (2, 3), (2, 5), (3, 1), (3, 3), (5, 2), (7, 2)]),
    data=st.data(),
)
def test_array_ops_match_scalar_ops(pm, data):
    F = get_field(*pm)
    codes = st.lists(st.integers(0, F.q - 1), min_size=1, max_size=30)
    a = data.draw(codes)
    b = data.draw(st.lists(st.integers(0, F.q - 1), min_size=len(a), max_size=len(a)))
    A, B = np.array(a), np.array(b)
    assert F.add_array(A, B).tolist() == [F.add(x, y) for x, y in zip(a, b)]
    assert F.mul_array(A, B).tolist() == [F.mul(x, y) for x, y in zip(a, b)]
    assert F.add_array(A, b[0]).tolist() == [F.add(x, b[0]) for x in a]
    units = [x for x in a if x]
    if units:
        assert F.inv_array(np.array(units)).tolist() == [F.inv(x) for x in units]
    if 0 in a:
        with pytest.raises(ZeroDivisionError):
            F.inv_array(A)
    f = Poly(F, b)
    assert f.eval_array(A).tolist() == [f.eval(x) for x in a]


# -- trace tables --------------------------------------------------------------


def _twist(p, l, m, digits):
    return get_galois_ring(p, l, m).element(digits)


TRACE_CASES = [
    (2, 2, 1, 8, None),
    (3, 2, 1, 5, None),
    (2, 3, 2, 4, None),
    (5, 2, 1, 4, None),
    (2, 2, 1, 16, None),
    (3, 2, 2, 2, _twist(3, 2, 2, (2, 0))),  # twist in Z/p^l, embedded
    (2, 3, 2, 2, _twist(2, 3, 2, (3, 5))),  # twist off the prime subring
]


@pytest.mark.parametrize("p, l, m, d, twist", TRACE_CASES)
def test_trace_tables_match_oracle(p, l, m, d, twist):
    fast = _digit_trace_tables(p, l, m, d, twist)
    assert fast.shape == (l, p ** (m * d))
    assert fast.tolist() == oracle_trace_tables(p, l, m, d, twist)


def test_trace_table_cache_is_bounded():
    assert _digit_trace_tables.cache_info().maxsize >= 64


# -- P^1 point sums -----------------------------------------------------------


def _rf(F, terms):
    """sum c * x^e over (e, c) pairs, e of any sign."""
    x = RationalFunction.x(F)
    acc = RationalFunction.zero(F)
    for e, c in terms:
        acc = acc + RationalFunction.const(F, c) * x**e
    return acc


def _vector(p, m, coords):
    F = get_field(p, m)
    return witt_function(RationalFunctionField(F), [_rf(F, t) for t in coords])


POINT_CASES = [
    # (p, m, coordinate terms, d values)
    (2, 1, [[(3, 1), (-1, 1)], [(5, 1), (1, 1)]], (1, 3, 5)),
    (2, 2, [[(1, 2), (-1, 3)], [(3, 1)]], (1, 2, 3)),
    (3, 1, [[(2, 1), (-1, 2)], [(1, 1), (-2, 1)]], (1, 2, 4)),
    (3, 2, [[(1, 1), (-1, 5)], [(2, 3)]], (1, 2)),
    (5, 1, [[(1, 2), (-3, 1)]], (1, 2)),
]


@pytest.mark.parametrize("p, m, coords, ds", POINT_CASES)
def test_sum_witt_p1_matches_scalar_oracle(p, m, coords, ds):
    fvec = _vector(p, m, coords)
    for d in ds:
        res = sum_witt(fvec, d)
        value, count = oracle_sum_p1(fvec, d, list(res.excluded))
        assert (res.value, res.term_count) == (value, count)


@pytest.mark.parametrize("p, m, d", [(2, 1, 1), (2, 1, 3), (2, 2, 2), (3, 1, 2), (3, 2, 2)])
def test_sum_witt_p1_pole_place_not_excluded(p, m, d):
    """exclusions=[inf], as theorem12_check passes: the pole at 0 of
    (x, x^3) + P([1/x]) is removable, so its point is summed through the
    reduced form there."""
    F = get_field(p, m)
    K = RationalFunctionField(F)
    x = RationalFunction.x(F)
    g = x.inverse()
    base = witt_function(K, [x, x**3])
    teich = lambda h: WittVector.teichmuller(base.params, K, h)  # noqa: E731
    fvec = base + teich(g**p) - teich(g)
    assert any(isinstance(pl_, FinitePlace) for pl_ in candidate_pole_places(fvec))
    excl = [InfinitePlace(F)]
    res = sum_witt(fvec, d, exclusions=excl)
    assert (res.value, res.term_count) == oracle_sum_p1(fvec, d, excl)
    assert res.term_count == F.q**d
    assert res.value == sum_witt(base, d, exclusions=excl).value  # psi(P(W)) = 1


@pytest.mark.parametrize("p, place, ds", [(2, (1, 1, 1), (1, 2, 4)), (3, (1, 0, 1), (1, 2))])
def test_sum_witt_p1_degree2_pole_excluded(p, place, ds):
    """A pole at a degree-2 place: its two points appear over even d and
    are masked through the embedded place polynomial."""
    F = get_field(p, 1)
    h = RationalFunction.from_poly(Poly(F, place))
    x = RationalFunction.x(F)
    fvec = witt_function(RationalFunctionField(F), [x**2 + h.inverse(), x + h.inverse() ** 2])
    for d in ds:
        res = sum_witt(fvec, d)
        assert any(isinstance(e, FinitePlace) for e in res.excluded)
        assert (res.value, res.term_count) == oracle_sum_p1(fvec, d, list(res.excluded))


def test_sum_witt_p1_twisted_matches_oracle():
    R = get_galois_ring(3, 2, 2)
    twist = R.element((4, 0))
    fvec = _vector(3, 2, [[(1, 1)], [(2, 1)]])
    for d in (1, 2):
        res = sum_witt(fvec, d, twist=twist)
        value, count = oracle_sum_p1(fvec, d, list(res.excluded), tuple(twist))
        assert (res.value, res.term_count) == (value, count)


def test_sum_witt_p1_pole_outside_exclusions_raises():
    F = get_field(2, 1)
    fvec = _vector(2, 1, [[(1, 1), (-1, 1)]])
    with pytest.raises(ZeroDivisionError):
        sum_witt(fvec, 1, exclusions=[InfinitePlace(F)])
