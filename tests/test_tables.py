"""The numpy table layer against the pure-Python builders it replaced.

The oracles below are the element-at-a-time builders the library used
before: field exp/log/Zech tables by repeated multiplication by the
generator, digit trace tables by one Galois-ring multiplication and one
basis-trace dot product per field element, P^1 and elliptic point sums by
one scalar evaluation per point, elliptic points by one quadratic
solved per x, and the Kumar sweep by dense addition and multiplication
tables of the whole Galois ring.  `power_oracles` holds the builders that
the matrix powers replaced: Rabin's test, the modulus search and the
generator search by polynomial powers, and the Galois-ring trace as a sum
of Frobenius conjugates.  Each fast path must agree with them exactly.
"""

import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import numpy as np

from wittsums import charsums
from wittsums.asw import (
    conductor,
    witt_function,
    wp,
)
from wittsums.charsums import (
    _digit_trace_tables,
    _digits_at,
    _verdicts,
    l_function,
    sum_teichmuller,
    sum_witt,
    sweep_kumar,
)
from wittsums.cyclotomic import CyclotomicInteger
from wittsums.elliptic import (
    AffinePlace,
    EllipticCurve,
    EllipticFunction,
    EllipticFunctionField,
    OriginPlace,
)
from wittsums.fields import (
    FiniteField,
    _code_to_coeffs,
    _linear_orbit,
    _coeffs_to_code,
    _is_irreducible,
    _mul_matrix,
    _poly_mul_mod,
    get_embedding,
    get_field,
    smallest_irreducible,
)
from wittsums.galois_rings import get_galois_ring, get_gr_embedding
from wittsums.poly import Poly, irreducibles_of_degree
from wittsums.rational import (
    ENUMERATION_CAP,
    EnumerationCapError,
    FinitePlace,
    InfinitePlace,
    RationalFunction,
    RationalFunctionField,
)
from wittsums.witt import WittVector

from global_reduction import global_artin_reduce_at
from pole_places import candidate_pole_places
from power_oracles import (
    frobenius_trace,
    generator_by_powers,
    is_irreducible_by_powers,
    poly_pow_mod,
    smallest_irreducible_by_powers,
)

# -- oracles -------------------------------------------------------------------


def oracle_field_tables(F):
    """(generator, exp, log, zech) by one polynomial product per element."""
    p, m, q = F.p, F.m, F.q
    mod = list(F.modulus)
    gen = generator_by_powers(p, m, mod)
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
        basis_tr.append(frobenius_trace(R, e))
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


def oracle_kumar_counts(p, l, m, deg0, deg1):
    """counts[t, i] for every instance i of the coefficient grid (the
    all-constant ones too), by Horner evaluation of f_0 and f_1 at each
    Teichmuller point through dense index tables of GR(p^l, m)."""
    R = get_galois_ring(p, l, m)
    elems = list(R.elements())
    index = {e: i for i, e in enumerate(elems)}
    n = len(elems)
    add = np.zeros((n, n), dtype=np.int32)
    mul = np.zeros((n, n), dtype=np.int32)
    for i, a in enumerate(elems):
        for j, b in enumerate(elems):
            add[i, j] = index[R.add(a, b)]
            mul[i, j] = index[R.mul(a, b)]
    tr = np.array([frobenius_trace(R, e) for e in elems], dtype=np.int64)
    teich = np.array(
        [index[R.teichmuller(a)] for a in R.residue_field.elements()], dtype=np.int32
    )
    p_idx = index[R.from_int(p)]
    q = p**m
    n0, n1 = deg0 + 1, deg1 + 1
    grids = np.indices((q,) * (n0 + n1), dtype=np.int32).reshape(n0 + n1, -1)
    c0 = [teich[grids[k]] for k in range(n0)]
    c1 = [teich[grids[n0 + k]] for k in range(n1)]
    counts = np.zeros((p**l, grids.shape[1]), dtype=np.int64)
    for a in range(q):
        xi = int(teich[a])
        acc0 = c0[-1]
        for k in range(n0 - 2, -1, -1):
            acc0 = add[mul[acc0, xi], c0[k]]
        acc1 = c1[-1]
        for k in range(n1 - 2, -1, -1):
            acc1 = add[mul[acc1, xi], c1[k]]
        e = tr[add[acc0, mul[acc1, p_idx]]] % p**l
        for t in range(p**l):
            counts[t] += e == t
    return counts


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
        coords = fvec.coords if pl_ is None else global_artin_reduce_at(fvec, pl_).reduced.coords
        rfield = coords[0].field
        remb = emb if rfield == F else get_embedding(p, rfield.m, big.m)
        tally(tuple(c.eval(x0, big, remb) if remb else c.eval(x0) for c in coords))
        term_count += 1
    if not any(isinstance(e, InfinitePlace) for e in exclusions):
        inf = InfinitePlace(F)
        coords = global_artin_reduce_at(fvec, inf).reduced.coords
        base = tuple(0 if c.is_zero() else c.laurent_at(inf, 1).coeff(0) for c in coords)
        tally(tuple(emb(a) for a in base) if emb else base)
        term_count += 1
    return CyclotomicInteger._reduce(p, l, counts), term_count


def oracle_ys_above(E, big, emb, x0):
    """All y in big with (x0, y) on E, by one quadratic solved in scalars."""
    e = emb if emb else (lambda c: c)
    a1, a2, a3, a4, a6 = (e(c) for c in (E.a1, E.a2, E.a3, E.a4, E.a6))
    a = big.add(big.mul(a1, x0), a3)
    c = big.add(
        big.add(big.pow(x0, 3), big.mul(a2, big.mul(x0, x0))),
        big.add(big.mul(a4, x0), a6),
    )
    if big.p == 2:  # y^2 + a y = c
        if a == 0:
            return [big.pow(c, big.q // 2)]
        u = big.mul(c, big.inv(big.mul(a, a)))
        zs = [z for z in big.elements() if big.add(big.mul(z, z), z) == u]
        if not zs:
            return []
        y = big.mul(a, zs[0])
        return sorted({y, big.add(y, a)})
    disc = big.add(big.mul(a, a), big.mul(big.from_int(4), c))  # (2y + a)^2
    if disc and big.log[disc] % 2:
        return []
    s = big.exp[big.log[disc] // 2] if disc else 0
    inv2 = big.inv(big.from_int(2))
    return sorted({big.mul(big.sub(s, a), inv2), big.mul(big.sub(big.neg(s), a), inv2)})


def oracle_affine_points(E, d):
    """(big, emb, [(x, y), ...]) over F_{q^d}, one x at a time."""
    F = E.field
    big = F if d == 1 else get_field(F.p, F.m * d)
    emb = None if d == 1 else get_embedding(F.p, F.m, F.m * d)
    pts = [(x0, y0) for x0 in big.elements() for y0 in oracle_ys_above(E, big, emb, x0)]
    return big, emb, pts


def oracle_sum_elliptic(fvec, d, exclusions, twist_key=None):
    """(value, term_count) of sum_witt on an elliptic curve, one scalar
    point at a time.  A place's points are its orbit pushed up by
    get_embedding, right when the embeddings of the tower agree (as over a
    prime field); a pole place of degree > 1 outside the exclusions raises,
    as each conjugate point is evaluated on the form reduced at one root."""
    E = fvec.ring.curve
    F = E.field
    p, l = fvec.params.p, fvec.params.l
    pl_mod = p**l
    big, emb, pts = oracle_affine_points(E, d)
    contrib = oracle_trace_tables(p, l, F.m, d, twist_key)
    counts = [0] * pl_mod

    def tally(digits):
        counts[sum(contrib[i][a] for i, a in enumerate(digits)) % pl_mod] += 1

    def embedded_orbit(pl_):
        if pl_.big == big:
            return set(pl_.orbit)
        if big.m % pl_.big.m:
            return set()
        e2d = get_embedding(p, pl_.big.m, big.m)
        return {(e2d(x), e2d(y)) for (x, y) in pl_.orbit}

    excluded = set()
    for e in exclusions:
        if not isinstance(e, OriginPlace):
            excluded |= embedded_orbit(e)
    point_place = {}
    for pl_ in candidate_pole_places(fvec):
        if pl_ not in exclusions and not isinstance(pl_, OriginPlace):
            for pt in embedded_orbit(pl_):
                point_place[pt] = pl_
    term_count = 0
    for x0, y0 in pts:
        if (x0, y0) in excluded:
            continue
        pl_ = point_place.get((x0, y0))
        if pl_ is None:
            coords, remb = fvec.coords, emb
        else:
            reduced = global_artin_reduce_at(fvec, pl_).reduced
            rfield = reduced.ring.curve.field
            coords = reduced.coords
            remb = None if rfield == big else get_embedding(p, rfield.m, big.m)
        tally(tuple(c.eval_at_point(big, remb, x0, y0) for c in coords))
        term_count += 1
    if not any(isinstance(e, OriginPlace) for e in exclusions):
        O = OriginPlace(E)
        coords = global_artin_reduce_at(fvec, O).reduced.coords
        base = tuple(0 if c.is_zero() else c.laurent_at(O, 1).coeff(0) for c in coords)
        tally(tuple(emb(a) for a in base) if emb else base)
        term_count += 1
    return CyclotomicInteger._reduce(p, l, counts), term_count


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


def scalar_op_results(F, a, b):
    """Every scalar op of F at a and b (b nonzero)."""
    return [
        F.add(a, b), F.sub(a, b), F.neg(a), F.mul(a, b), F.inv(b), F.div(a, b),
        F.pow(a, 3), F.pow(b, -2), F.pth_root(a), F.frobenius(a),
    ]


@pytest.mark.parametrize("p, m", FIELD_GRID)
def test_field_tables_match_oracle(p, m):
    F = FiniteField(p, m)
    gen, exp, log, zech = oracle_field_tables(F)
    assert F.generator == gen and type(F.generator) is int
    assert F.exp.tolist() == exp and F.log.tolist() == log
    assert F.zech is None if zech is None else F.zech.tolist() == zech
    # the tables are shared through get_field's cache, so they are read-only
    for table in (F.exp, F.log) if F.zech is None else (F.exp, F.log, F.zech):
        with pytest.raises(ValueError):
            table[0] = 1
    # scalar ops read the same buffers, yet hand back Python ints
    for a, b in ((gen, exp[-1]), (exp[len(exp) // 2], gen), (0, 1)):
        assert all(type(v) is int for v in scalar_op_results(F, a, b))


@pytest.mark.parametrize("p, m", [(2, 16), (3, 10)])
def test_field_tables_are_kept_once(p, m):
    """A field retains its tables once: at most 8 bytes per table entry."""
    tracemalloc.start()
    try:
        F = FiniteField(p, m)
        retained, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    entries = sum(t.size for t in (F.exp, F.log, F.zech) if t is not None)
    assert retained <= 8 * entries + 64 * 1024


# -- matrix powers against polynomial powers ---------------------------------


def _monic(p, max_deg):
    """Every monic polynomial over F_p of degree 1..max_deg."""
    for m in range(1, max_deg + 1):
        for code in range(p**m):
            yield _code_to_coeffs(code, p, m) + [1]


@pytest.mark.parametrize("p, max_deg", [(2, 6), (3, 4), (5, 3), (7, 3)])
def test_irreducibility_matches_rabin_by_powers(p, max_deg):
    verdicts = [(f, _is_irreducible(f, p)) for f in _monic(p, max_deg)]
    assert [v for _, v in verdicts] == [is_irreducible_by_powers(f, p) for f, _ in verdicts]
    assert any(v for f, v in verdicts if len(f) > 2) and not all(v for _, v in verdicts)


SEARCH_GRID = [
    (p, m)
    for p, top in ((2, 16), (3, 10), (5, 7), (7, 5))
    for m in range(1, top + 1)
]


@pytest.mark.parametrize("p, m", SEARCH_GRID)
def test_modulus_and_generator_match_searches_by_powers(p, m):
    mod = smallest_irreducible(p, m)
    assert mod == smallest_irreducible_by_powers(p, m)
    F = get_field(p, m)
    assert F.modulus == mod
    assert F.generator == _coeffs_to_code(generator_by_powers(p, m, mod), p)


def _ring_elements(R, sample=None):
    if sample is None:
        return list(R.elements())
    rng = random.Random(R.size)
    return [R.element(rng.randrange(R.pl) for _ in range(R.m)) for _ in range(sample)]


@pytest.mark.parametrize(
    "p, l, m, sample",
    [(2, 2, 3, None), (2, 3, 2, None), (3, 2, 2, None), (2, 4, 2, None), (3, 3, 1, None),
     (2, 2, 12, 50)],
)
def test_absolute_trace_matches_frobenius_conjugates(p, l, m, sample):
    R = get_galois_ring(p, l, m)
    xs = _ring_elements(R, sample)
    assert [R.absolute_trace(x) for x in xs] == [frobenius_trace(R, x) for x in xs]


@pytest.mark.parametrize(
    "p, l, m, dtype",
    [(2, 2, 3, np.int64), (3, 2, 2, np.int64), (2, 4, 5, np.int64), (5, 3, 3, np.int64),
     (211, 4, 2, np.int64),  # 2 (211^4 - 1)^2 just below 2^63
     (223, 4, 2, object), (8191, 4, 1, object)],
)
def test_ring_powers_match_polynomial_powers(p, l, m, dtype):
    R = get_galois_ring(p, l, m)
    assert _mul_matrix(R.one(), R.modulus, R.pl).dtype == dtype
    xs = _ring_elements(R, 12)
    for n in (0, 1, 2, 5, R.residue_field.q ** (l - 1), 2**61 + 3):
        got = [R.pow(x, n) for x in xs]
        assert got == [tuple(poly_pow_mod(x, n, R.modulus, R.pl)) for x in xs]
        assert all(type(c) is int for y in got for c in y)


def test_sum_witt_copies_no_unmasked_point_set():
    """(x^11, x^3 + x^5) over F_2 at d = 16 excludes only infinity, so the
    affine points are summed as enumerated, not copied: a warm sum peaks
    below 7.5 int64 arrays as long as the point set (8.25 with the copy)."""
    F = get_field(2, 1)
    x = RationalFunction.x(F)
    fvec = witt_function(RationalFunctionField(F), [x**11, x**3 + x**5])
    d, q = 16, 2**16
    want = sum_witt(fvec, d).value  # builds the tables
    tracemalloc.start()
    try:
        got = sum_witt(fvec, d).value
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert got == want
    assert peak <= 7.5 * 8 * q


@pytest.mark.parametrize("p, l", [(8191, 2), (101, 4)])
def test_sums_refuse_exponent_counts_above_the_cap_before_allocating(p, l):
    """With p^l above the enumeration cap both sums raise before the p^l
    exponent counts (8 bytes each) are allocated."""
    R = get_galois_ring(p, l, 1)
    F = R.residue_field
    x, zero = RationalFunction.x(F), RationalFunction.zero(F)
    fvec = witt_function(RationalFunctionField(F), [x] + [zero] * (l - 1))
    tracemalloc.start()
    try:
        with pytest.raises(EnumerationCapError, match="exponent counts"):
            sum_teichmuller(R, [0, 1])
        with pytest.raises(EnumerationCapError, match="exponent counts"):
            sum_witt(fvec)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < ENUMERATION_CAP


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
    for x, y in zip(a, b):
        assert all(type(v) is int for v in scalar_op_results(F, x, y or 1))
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
    (2, 4, 4, 1, _twist(2, 4, 4, (3, 5, 1, 7))),  # slots 1-3 read at three inverse Frobenius powers
    (2, 4, 1, 2, _twist(2, 4, 1, (3,))),  # md = 2 < l: slot 3 reads at p^(-3 mod 2)
    (5, 3, 1, 1, _twist(5, 3, 1, (7,))),  # md = 1: every slot reads slot 0's row
    (2, 3, 1, 1, _twist(2, 3, 1, (3,))),  # q = 2: one nonzero digit
    (8191, 4, 1, 1, None),  # p^l near 2^52, on object-dtype ring matrices
]


@pytest.mark.parametrize("p, l, m, d, twist", TRACE_CASES)
def test_trace_tables_match_oracle(p, l, m, d, twist):
    fast = _digit_trace_tables(p, l, m, d, twist)
    assert fast.shape == (l, p ** (m * d))
    assert fast.tolist() == oracle_trace_tables(p, l, m, d, twist)


def test_trace_table_cache_is_bounded():
    assert _digit_trace_tables.cache_info().maxsize >= 64


# -- the Kumar sweep ----------------------------------------------------------


@pytest.mark.parametrize(
    "p, m, deg0, deg1",
    [(2, 1, 2, 2), (2, 2, 2, 1), (2, 3, 1, 1), (2, 3, 0, 2),
     (3, 1, 2, 2), (3, 2, 1, 1), (3, 2, 0, 1)],
)
def test_kumar_counts_match_ring_table_oracle(p, m, deg0, deg1):
    result = sweep_kumar(p, 2, m, deg0, deg1)
    want = oracle_kumar_counts(p, 2, m, deg0, deg1)
    assert np.array_equal(result.counts, want[:, result.index])
    # the skipped instances are exactly the q^2 with constant digits
    q = p**m
    assert want.shape[1] - len(result) == q * q
    assert ((result.deg0 > 0) | (result.deg1 > 0)).all()
    # |S|^2 against the oracle's exact sum, and the verdict |S|^2 <= B^2
    for i in range(0, len(result), max(1, len(result) // 40)):
        S = CyclotomicInteger._reduce(p, 2, want[:, result.index[i]].tolist())
        if p == 2:
            norm = S * S.conjugate_power(3)
            assert norm == CyclotomicInteger.from_int(2, 2, int(result.s2[i]))
        else:
            assert abs(result.s2[i] - abs(S.complex_value()) ** 2) < 1e-9
        assert result.passed[i] == (result.s2[i] <= result.b2[i])


# -- the exact verdict ----------------------------------------------------------


def _gauss_sum(p, l):
    """(g, e): exponent counts g of an element of norm p^e in Z[zeta_{p^l}],
    2 with e = 2 in Z, 1 + i with e = 1 for p = 2, l >= 2, and the quadratic
    Gauss sum over Z/p with e = 1 for p odd."""
    n = p**l
    g = np.zeros(n, dtype=np.int64)
    if n == 2:
        g[0] = 2
        return g, 2
    if p == 2:
        g[[0, n // 4]] = 1
    else:
        for x in range(p):
            g[x * x % p * (n // p)] += 1
    return g, 1


def _verdict_instances(p, l, rng):
    """(weights, c, e): sums exactly on the bound |S|^2 = c^2 p^e, zero sums
    under B = 0, random sums, some padded with K times the vanishing sum of
    all p^l-th roots of unity so that W grows but S does not, and S = 1
    under B = 0."""
    n = p**l
    g, e = _gauss_sum(p, l)
    cols, cs = [], []
    for _ in range(12):  # k zeta^t g has norm k^2 p^e
        k, t = rng.randrange(1, 6), rng.randrange(n)
        cols.append(k * np.roll(g, t))
        cs.append(k)
    for _ in range(4):  # S = 0 under B = 0
        cols.append(np.zeros(n, dtype=np.int64))
        cs.append(0)
    for _ in range(24):
        cols.append(np.array([rng.randrange(0, 4) for _ in range(n)]))
        cs.append(rng.randrange(0, 6))
    for i in range(16):  # pad the exact cases and leave the random ones lean
        cols[i] = cols[i] + rng.choice((1, 10, 1000))
    cols.append(np.eye(1, n, dtype=np.int64)[0])
    cs.append(0)
    return np.array(cols).T, cs, e


@pytest.mark.parametrize("reduced", [False, True])
@pytest.mark.parametrize("p, l", [(2, 1), (2, 2), (3, 1), (2, 3), (3, 2), (3, 3)])
def test_verdicts_margin_against_exact_test(p, l, reduced):
    """Each verdict path against the exact test in Z[zeta], integers at
    p^l = 2, 4 and floats with their margin elsewhere: |S|^2 = B^2 reads
    s2 == b2 exactly, every other verdict has the sign of |S|^2 - B^2, from
    exponent counts or reduced coefficients, and under B = 0 the ratio is
    inf for S != 0 and 0 for S = 0."""
    n = p**l
    weights, cs, e = _verdict_instances(p, l, random.Random(n))
    sums = [CyclotomicInteger._reduce(p, l, col.tolist()) for col in weights.T]
    if reduced:
        weights = np.array([S.coeffs for S in sums]).T
    got = _verdicts(p, l, weights, cs, e)
    on_bound, ratios = 0, set()
    for i, (S, c) in enumerate(zip(sums, cs)):
        gap = S * S.conjugate_power(n - 1) - CyclotomicInteger.from_int(p, l, c * c * p**e)
        if gap.is_zero():
            assert got["passed"][i] and got["s2"][i] == got["b2"][i] == c * c * p**e
            on_bound += 1
        else:
            diff = gap.complex_value().real
            assert abs(diff) > 1e-6  # the oracle's sign is beyond doubt
            assert got["passed"][i] == (diff < 0)
        assert got["measured"][i] == pytest.approx(abs(S.complex_value()), abs=1e-9)
        if c == 0:
            ratios.add(got["ratio"][i])
            assert got["ratio"][i] == (0.0 if S.is_zero() else np.inf)
    assert on_bound >= 16 and (got["s2"] == got["b2"]).sum() == on_bound
    assert ratios == {0.0, np.inf}


@pytest.mark.parametrize("p, l", [(2, 3), (3, 2), (3, 3)])
def test_verdicts_refuse_an_undecidable_instance(p, l):
    """S = 1 + zeta has |S|^2 = 2 + 2 cos(2 pi/p^l), off B^2 = 4 by less
    than 0.7; padded with 10^7 times the vanishing sum of all roots of
    unity, it falls inside the margin and fails the exact test."""
    n = p**l
    weights = np.full((n, 1), 10**7, dtype=np.int64)
    weights[:2] += 1
    with pytest.raises(ArithmeticError):
        _verdicts(p, l, weights, [2], 0)


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
    (2, 1, [[(-1, 1)], [(-3, 1)]], (1, 2, 3)),  # no pole at infinity
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


def test_sum_witt_base_place_pole_outside_exclusions_raises():
    """A pole that does not reduce away at the base place (infinity on P^1,
    the origin on an elliptic curve) raises when that place is summed, as
    at any other place."""
    F = get_field(2, 1)
    K = RationalFunctionField(F)
    fvec = witt_function(K, [RationalFunction.x(F), RationalFunction.zero(F)])
    with pytest.raises(ZeroDivisionError):
        sum_witt(fvec, 1, exclusions=[])
    E = EllipticCurve(F, 0, 0, 1, 0, 0)
    x, y = EllipticFunction.x(E), EllipticFunction.y(E)
    evec = witt_function(EllipticFunctionField(E), [x + y, EllipticFunction.zero(E)])
    assert OriginPlace(E) in conductor(evec).support
    with pytest.raises(ZeroDivisionError):
        sum_witt(evec, 1, exclusions=[])


def test_sum_witt_p1_removable_pole_at_degree2_place():
    """(x, x^3) + P((1/(x^2+x+1), 0)) is (x, x^3) up to P(W): the pole at
    the degree-2 place reduces away, so it is summed, once per closed point,
    and the L-polynomials agree."""
    F = get_field(2, 1)
    K = RationalFunctionField(F)
    x = RationalFunction.x(F)
    h = RationalFunction.from_poly(Poly(F, (1, 1, 1))).inverse()
    base = witt_function(K, [x, x**3])
    fvec = base + wp(witt_function(K, [h, RationalFunction.zero(F)]))
    assert FinitePlace(Poly(F, (1, 1, 1))) in candidate_pole_places(fvec)
    got, want = l_function(fvec), l_function(base)
    assert got.power_sums == want.power_sums
    assert got.coefficients == want.coefficients


# -- elliptic point sums -------------------------------------------------------

# the six curves of the benchmark's genus-1 workload
GENUS1_CURVES = [
    ((0, 0, 1, 0, 0), 2),  # y^2 + y = x^3
    ((0, 0, 1, 1, 0), 2),  # y^2 + y = x^3 + x
    ((1, 0, 0, 0, 1), 2),  # y^2 + xy = x^3 + 1
    ((1, 1, 0, 0, 1), 2),  # y^2 + xy = x^3 + x^2 + 1
    ((0, 1, 0, 0, 1), 3),  # y^2 = x^3 + x^2 + 1
    ((0, 0, 0, 2, 1), 3),  # y^2 = x^3 + 2x + 1
]


def _quadratic_place_poly(F):
    """The least monic irreducible quadratic over F."""
    return next(iter(irreducibles_of_degree(F, 2)))


@pytest.mark.parametrize("coeffs, p", GENUS1_CURVES)
def test_sum_witt_elliptic_matches_scalar_oracle(coeffs, p):
    F = get_field(p, 1)
    E = EllipticCurve(F, *coeffs)
    ring = EllipticFunctionField(E)
    x, y = EllipticFunction.x(E), EllipticFunction.y(E)
    zero = EllipticFunction.zero(E)
    rat = lambda f: EllipticFunction.from_rational(E, f)  # noqa: E731
    base = witt_function(ring, [x + y, x])
    # a pole of order 1 at the places over a degree-2 x: in the conductor
    h = rat(RationalFunction.from_poly(_quadratic_place_poly(F)).inverse())
    excluded2 = witt_function(ring, [x + h, zero])
    # P of a pole at the rational points over x = x0: reduced, not excluded
    x0 = int(E.affine_points(1)[2][0])
    g = rat((RationalFunction.x(F) - RationalFunction.const(F, x0)).inverse())
    removable1 = base + wp(witt_function(ring, [g, zero]))
    twist = get_galois_ring(p, 2, 1).from_int(p + 1)
    affine = witt_function(ring, [h, zero])  # the origin is summed
    cases = [(base, None), (base, twist), (excluded2, None), (removable1, None), (affine, None)]
    for fvec, tw in cases:
        excl = list(conductor(fvec).support)
        for d in range(1, 5):
            res = sum_witt(fvec, d, exclusions=excl, twist=tw)
            want = oracle_sum_elliptic(fvec, d, excl, tuple(tw) if tw else None)
            assert (res.value, res.term_count) == want
    assert any(pl_.degree >= 2 for pl_ in conductor(excluded2).support)
    assert OriginPlace(E) not in conductor(affine).support
    pole1 = [pl_ for pl_ in candidate_pole_places(removable1) if isinstance(pl_, AffinePlace)]
    assert pole1 and all(pl_.degree == 1 for pl_ in pole1)
    assert not set(pole1) & set(conductor(removable1).support)


def test_sum_witt_elliptic_removable_pole_at_degree2_places():
    """On y^2 + y = x^3 over F_2, x^2 + x + 1 splits into two places of
    degree 2; (x, 0) + P((1/(x^2+x+1), 0)) reduces there to (x, 0)."""
    F = get_field(2, 1)
    E = EllipticCurve(F, 0, 0, 1, 0, 0)
    ring = EllipticFunctionField(E)
    zero = EllipticFunction.zero(E)
    h = RationalFunction.from_poly(Poly(F, (1, 1, 1))).inverse()
    base = witt_function(ring, [EllipticFunction.x(E), zero])
    fvec = base + wp(witt_function(ring, [EllipticFunction.from_rational(E, h), zero]))
    assert [pl_.degree for pl_ in candidate_pole_places(fvec)] == [1, 2, 2]
    got, want = l_function(fvec), l_function(base)
    assert got.power_sums == want.power_sums
    assert got.coefficients == want.coefficients


def test_sum_witt_elliptic_regular_point_over_a_denominator():
    """y/x on y^2 + y = x^3 has a pole at (0, 1) but not at (0, 0), where
    its v = 1/x alone has one: that point is valued through its place.
    The L-polynomial then has exactly the claimed degree."""
    F = get_field(2, 1)
    E = EllipticCurve(F, 0, 0, 1, 0, 0)
    x, y = EllipticFunction.x(E), EllipticFunction.y(E)
    fvec = witt_function(EllipticFunctionField(E), [x + y / x, EllipticFunction.zero(E)])
    regular = AffinePlace.from_point(E, F, None, 0, 0)
    assert regular not in candidate_pole_places(fvec)
    assert (y / x).valuation_at(regular) > 0
    res = l_function(fvec)
    assert res.trailing_zero and res.claimed_degree == 7


POINT_CURVES = [(c, p, 1, 4 if p == 2 else 3) for c, p in GENUS1_CURVES] + [
    ((0, 0, 1, 0, 0), 2, 2, 3),
    ((0, 1, 0, 0, 1), 3, 2, 2),
]


@pytest.mark.parametrize("coeffs, p, m, dmax", POINT_CURVES)
def test_points_and_places_match_scalar_solver(coeffs, p, m, dmax):
    E = EllipticCurve(get_field(p, m), *coeffs)
    for d in range(1, dmax + 1):
        big, emb, xs, ys = E.affine_points(d)
        want = oracle_affine_points(E, d)[2]
        assert list(zip(xs.tolist(), ys.tolist())) == want
        assert E.count_points(d) == len(want) + 1
    want = [OriginPlace(E)]
    seen = set()
    for d in range(1, dmax + 1):
        big, emb, pts = oracle_affine_points(E, d)
        for x0, y0 in pts:
            pl_ = AffinePlace.from_point(E, big, emb, x0, y0)
            if pl_.degree == d and pl_ not in seen:
                seen.add(pl_)
                want.append(pl_)
    assert E.places_up_to_degree(dmax) == want
    # every place comes from exactly one x-polynomial, split, ramified or inert
    above = [
        pl_
        for e in range(1, dmax + 1)
        for pi in irreducibles_of_degree(E.field, e)
        for pl_ in E.places_above(pi)
        if pl_.degree <= dmax
    ]
    assert len(above) == len(set(above)) and set(above) == set(want[1:])


def test_place_points_over_f9_lie_over_their_polynomial():
    """The points of the places over pi, pushed from F_81 up to F_6561 over
    F_9, are exactly the points of the curve whose x is a root of pi.
    get_embedding picks each field's root on its own, and here the tower
    F_9 -> F_81 -> F_6561 does not agree with F_9 -> F_6561 on F_9."""
    i1, i2, direct = get_embedding(3, 2, 4), get_embedding(3, 4, 8), get_embedding(3, 2, 8)
    assert any(i2(i1(a)) != direct(a) for a in get_field(3, 2).elements())
    F = get_field(3, 2)
    E = EllipticCurve(F, 0, F.generator, 0, 0, 1)  # a2 off the prime field
    big, emb, xs, ys = E.affine_points(4)
    pts = list(zip(xs.tolist(), ys.tolist()))
    for pi in irreducibles_of_degree(F, 2):
        roots = pi.map_field(emb)
        want = {(x, y) for x, y in pts if roots.eval(x) == 0}
        got = [pl_.points_in(big) for pl_ in E.places_above(pi)]
        assert sorted(pt for g in got for pt in g) == sorted(want)


def _f9_curve_and_place():
    """A curve over F_9 with a2 off F_3, and a rational point of it with x
    off F_3.  F_9's modulus x^2 + 1 is not primitive, so
    get_embedding(3, 2, 2) is the Frobenius, not the identity."""
    F = get_field(3, 2)
    assert any(get_embedding(3, 2, 2)(a) != a for a in F.elements())
    E = EllipticCurve(F, 0, F.generator, 0, 0, 1)
    _, _, xs, ys = E.affine_points(1)
    x0, y0 = next((x, y) for x, y in zip(xs.tolist(), ys.tolist()) if F.pow(x, 3) != x)
    return E, AffinePlace.from_point(E, F, None, x0, y0)


@pytest.mark.parametrize("d", [2, 4])
def test_rational_place_points_over_f9(d):
    """A rational place's point goes up to F_{9^d} by get_embedding(3, 2,
    2d), not through get_embedding(3, 2, 2)."""
    E, _ = _f9_curve_and_place()
    big, emb, xs, ys = E.affine_points(d)
    for x0, y0 in zip(*(a.tolist() for a in E.affine_points(1)[2:])):
        pl_ = AffinePlace.from_point(E, E.field, None, x0, y0)
        assert pl_.points_in(big) == [(emb(x0), emb(y0))]


@pytest.mark.parametrize("d", [2, 4])
def test_sum_witt_elliptic_rational_places_off_f3(d):
    """Over F_9, with a rational place Q whose x lies off F_3: a pole at Q
    excluded, Q excluded where f is regular, and a removable pole at the
    places over x(Q) summed through their reduction, against the scalar
    oracle (right here, as every place involved is rational)."""
    E, Q = _f9_curve_and_place()
    F = E.field
    ring = EllipticFunctionField(E)
    x, y = EllipticFunction.x(E), EllipticFunction.y(E)
    zero = EllipticFunction.zero(E)
    x0 = Q.representative[0]
    g = EllipticFunction.from_rational(
        E, (RationalFunction.x(F) - RationalFunction.const(F, x0)).inverse()
    )
    base = witt_function(ring, [x + y, zero])
    pole = witt_function(ring, [x + g, zero])
    removable = base + wp(witt_function(ring, [g, zero]))
    assert Q in conductor(pole).support
    assert Q in candidate_pole_places(removable) and Q not in conductor(removable).support
    cases = [
        (pole, list(conductor(pole).support)),
        (base, [OriginPlace(E), Q]),
        (removable, list(conductor(removable).support)),
    ]
    for fvec, excl in cases:
        res = sum_witt(fvec, d, exclusions=excl)
        assert (res.value, res.term_count) == oracle_sum_elliptic(fvec, d, excl)


@pytest.mark.parametrize("d", [2, 4])
def test_sum_witt_p1_removable_pole_twisted_over_f9(d):
    """A removable pole at a degree-2 place over F_9, summed at d = 4
    through the tower above: the value over F_81 carries d/2 times its F_81
    exponent.  The twist lies in Z/9, where psi_b is trivial on P(W); a
    twist off it is not, as Tr(b P(z)) = Tr((F^-1(b) - b) z)."""
    F = get_field(3, 2)
    K = RationalFunctionField(F)
    x = RationalFunction.x(F)
    pi = _quadratic_place_poly(F)
    base = witt_function(K, [x, x**2])
    h = RationalFunction.from_poly(pi).inverse()
    fvec = base + wp(witt_function(K, [h, RationalFunction.zero(F)]))
    R = get_galois_ring(3, 2, 2)
    excl = [InfinitePlace(F)]
    for twist in (R.from_int(5), R.from_int(2)):
        res = sum_witt(fvec, d, exclusions=excl, twist=twist)
        assert res.term_count == F.q**d
        assert res.value == sum_witt(base, d, exclusions=excl, twist=twist).value
    # off Z/9 the reduced value at the pole place is not a value of the class
    with pytest.raises(ValueError):
        sum_witt(fvec, d, exclusions=excl, twist=R.element((1, 1)))
    assert sum_witt(base, d, exclusions=excl, twist=R.element((1, 1))).term_count == F.q**d


def _checked_places(monkeypatch) -> list:
    """The places whose reduced form every later sum_witt checks and reads
    digits from."""
    checked = []

    def recorded(place, rf, twist_key, pl_mod):
        checked.append(place)
        return _digits_at(place, rf, twist_key, pl_mod)

    monkeypatch.setattr(charsums, "_digits_at", recorded)
    return checked


def test_sum_witt_leaves_a_pole_without_k_d_points_unchecked(monkeypatch):
    """1/(x^2 + x + 1) over F_2, nothing excluded: its pole at a degree-2
    place has no k_d-points for odd d, so the conductor's reduced form
    there is walked but not summed, and raises nothing."""
    F = get_field(2, 1)
    pi = Poly(F, (1, 1, 1))
    h = RationalFunction.from_poly(pi).inverse()
    fvec = witt_function(RationalFunctionField(F), [h, RationalFunction.zero(F)])
    assert FinitePlace(pi) in conductor(fvec).support
    checked = _checked_places(monkeypatch)
    for d in (1, 3):
        checked.clear()
        res = sum_witt(fvec, d, exclusions=[])
        assert (res.value, res.term_count) == oracle_sum_p1(fvec, d, [])
        assert checked == [InfinitePlace(F)]
    with pytest.raises(ZeroDivisionError):
        sum_witt(fvec, 2, exclusions=[])


def test_sum_witt_leaves_a_twisted_removable_pole_without_k_d_points_unchecked(monkeypatch):
    """A removable pole at a degree-2 place over F_9 under a twist off Z/9:
    for odd d the place has no k_d-points, so its reduced form is not
    checked and no ValueError is raised."""
    F = get_field(3, 2)
    K = RationalFunctionField(F)
    x = RationalFunction.x(F)
    pi = _quadratic_place_poly(F)
    h = RationalFunction.from_poly(pi).inverse()
    fvec = witt_function(K, [x, x**2]) + wp(witt_function(K, [h, RationalFunction.zero(F)]))
    twist = get_galois_ring(3, 2, 2).element((1, 1))
    excl = [InfinitePlace(F)]
    assert FinitePlace(pi) in candidate_pole_places(fvec)
    checked = _checked_places(monkeypatch)
    for d in (1, 3):
        res = sum_witt(fvec, d, exclusions=excl, twist=twist)
        assert (res.value, res.term_count) == oracle_sum_p1(fvec, d, excl, tuple(twist))
    assert checked == []
