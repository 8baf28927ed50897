"""Artin reduction, reduced pole orders, conductors, nondegeneracy, and the
cover genus formula."""

import random
import sys

import pytest

from wittsums import (
    DegenerateInputError,
    EllipticCurve,
    EllipticFunction,
    EllipticFunctionField,
    FinitePlace,
    InfinitePlace,
    OriginPlace,
    Poly,
    RationalFunction,
    RationalFunctionField,
    artin_reduce_at,
    bound_thm31,
    conductor,
    denominator_places,
    genus_of_cover,
    is_nondegenerate,
    l_function,
    reduced_pole_order,
    sum_witt,
    witt_function,
    wp,
)
from wittsums import asw
from wittsums.elliptic import AffinePlace, _origin_xy_series
from wittsums.fields import extension, get_embedding_over, get_field
from wittsums.poly import factor, roots_in_field
from wittsums.series import LaurentSeries

from global_reduction import global_artin_reduce_at
from pole_places import candidate_pole_places


def p1_ring(p=2, m=1):
    return RationalFunctionField(get_field(p, m))


def fvec_p1(ring, *coord_builders):
    F = ring.field
    x = RationalFunction.x(F)
    zero = RationalFunction.zero(F)
    coords = [b(x) if callable(b) else (zero if b == 0 else b) for b in coord_builders]
    return witt_function(ring, coords)


def test_wp_examples():
    K = p1_ring()
    x = RationalFunction.x(K.field)
    zero = RationalFunction.zero(K.field)
    f = witt_function(K, (x, zero))
    pf = wp(f)
    assert pf.coords[0] == x * x + x
    assert pf.coords[1] == x**3 + x * x
    assert wp(witt_function(K, (zero, zero))).is_zero()
    # classical Artin-Schreier for l = 1
    g = witt_function(K, (x,))
    assert wp(g).coords[0] == x * x - x


def test_reduce_examples():
    K = p1_ring()
    F = K.field
    x = RationalFunction.x(F)
    zero = RationalFunction.zero(F)
    px = FinitePlace(Poly(F, (0, 1)))
    f = witt_function(K, (x ** (-2), zero))
    rf = global_artin_reduce_at(f, px)
    assert rf.check(f)
    assert rf.reduced.coords[0] == x ** (-1)
    assert rf.reduced.coords[1].is_zero()
    # valuations already prime to p: unchanged, witness zero
    g = witt_function(K, (x ** (-1), x ** (-3)))
    rg = global_artin_reduce_at(g, px)
    assert rg.reduced == g and rg.witness.is_zero()
    # exact classes of wp reduce to something with no pole at P
    rng = random.Random(2)
    for _ in range(5):
        h = witt_function(
            K,
            tuple(
                x ** (-rng.randrange(0, 4)) if rng.random() < 0.8 else zero
                for _ in range(2)
            ),
        )
        r = global_artin_reduce_at(wp(h), px)
        assert r.check(wp(h))
        for c in r.reduced.coords:
            assert c.is_zero() or c.valuation_at(px) >= 0


def test_reduced_pole_order_examples():
    K = p1_ring()
    F = K.field
    x = RationalFunction.x(F)
    zero = RationalFunction.zero(F)
    px = FinitePlace(Poly(F, (0, 1)))
    assert reduced_pole_order(witt_function(K, (x ** (-3), zero)), px) == 6
    assert reduced_pole_order(witt_function(K, (x ** (-1), x ** (-3))), px) == 3
    assert reduced_pole_order(witt_function(K, (x ** (-2), zero)), px) == 2


def test_conductor_examples():
    K = p1_ring()
    F = K.field
    x = RationalFunction.x(F)
    zero = RationalFunction.zero(F)
    f = witt_function(K, (x, zero))
    c = conductor(f)
    assert c.degree == 3
    assert len(c.entries) == 1 and isinstance(c.entries[0][0], InfinitePlace)
    assert conductor(witt_function(K, (x**3, zero))).degree == 7
    assert conductor(witt_function(K, (RationalFunction.one(F), zero))).degree == 0


def test_candidate_pole_places_order_p1():
    """Infinity first, then the finite places by degree and coefficients,
    each once."""
    K = p1_ring()
    F = K.field
    x = RationalFunction.x(F)
    h = RationalFunction.from_poly(Poly(F, (1, 1, 1))).inverse()
    f = witt_function(K, (x**3 + h, x.inverse() + (x + RationalFunction.one(F)).inverse() + h))
    want = [InfinitePlace(F)] + [FinitePlace(Poly(F, c)) for c in ((0, 1), (1, 1), (1, 1, 1))]
    assert candidate_pole_places(f) == want
    assert denominator_places(f) == want


def test_nondegeneracy_examples():
    K = p1_ring()
    F = K.field
    x = RationalFunction.x(F)
    zero = RationalFunction.zero(F)
    one = RationalFunction.one(F)
    assert is_nondegenerate(witt_function(K, (x, zero)))
    assert not is_nondegenerate(witt_function(K, (x * x + x, zero)))
    assert not is_nondegenerate(witt_function(K, (one, x)))


def test_rp_class_invariance_and_subadditivity():
    K = p1_ring()
    F = K.field
    x = RationalFunction.x(F)
    zero = RationalFunction.zero(F)
    px = FinitePlace(Poly(F, (0, 1)))
    rng = random.Random(4)

    def rand_f():
        return witt_function(
            K, tuple(x ** (-rng.randrange(0, 4)) for _ in range(2))
        )

    for _ in range(8):
        f = rand_f()
        g = rand_f()
        base = reduced_pole_order(f, px)
        assert reduced_pole_order(f + wp(g), px) == base
        ra, rb = base, reduced_pole_order(g, px)
        rsum = reduced_pole_order(f + g, px)
        assert rsum <= max(ra, rb)
        if ra != rb:
            assert rsum == max(ra, rb)


def test_rp_verschiebung_inequality():
    K = p1_ring()
    F = K.field
    x = RationalFunction.x(F)
    px = FinitePlace(Poly(F, (0, 1)))
    for n in (1, 3):
        a = witt_function(K, (x ** (-n), x ** (-n)))
        va = witt_function(K, (RationalFunction.zero(F), a.coords[0]))
        assert 2 * reduced_pole_order(va, px) <= reduced_pole_order(a, px) * 2
        # p^k rp(V^k a) <= rp(a) with p = 2, k = 1
        assert 2 * reduced_pole_order(va, px) <= 2 * reduced_pole_order(a, px)
        assert 2 * reduced_pole_order(va, px) <= reduced_pole_order(a, px) or (
            reduced_pole_order(va, px) <= 0
        )


def test_genus_examples():
    K3 = p1_ring(3, 1)
    x3 = RationalFunction.x(K3.field)
    assert genus_of_cover(witt_function(K3, (x3 * x3,)), 0) == 1
    K2 = p1_ring(2, 1)
    x2 = RationalFunction.x(K2.field)
    assert genus_of_cover(witt_function(K2, (x2**3,)), 0) == 1
    zero = RationalFunction.zero(K2.field)
    f = witt_function(K2, (x2, zero))
    # l=2: sum conductor degrees of the multiples n*f, n = 1..3
    total = 2 * 4 * (0 - 1)
    for n in range(1, 4):
        total += conductor(f.scalar(n)).degree
    assert genus_of_cover(f, 0) == total // 2 + 1


def test_elliptic_reduction_at_origin():
    F2 = get_field(2, 1)
    E = EllipticCurve(F2, 0, 0, 1, 0, 0)
    ring = EllipticFunctionField(E)
    x = EllipticFunction.x(E)
    y = EllipticFunction.y(E)
    zero = EllipticFunction.zero(E)
    O = OriginPlace(E)
    # x has even pole order 2 at O: reduction must leave valuation odd or >= 0
    f = witt_function(ring, (x, zero))
    rf = global_artin_reduce_at(f, O)
    assert rf.check(f)
    for c in rf.reduced.coords:
        if not c.is_zero():
            v = c.valuation_at(O)
            assert v >= 0 or (-v) % 2 == 1
    # y has pole order 3, already prime to p
    g = witt_function(ring, (y, zero))
    assert reduced_pole_order(g, O) == 6
    assert conductor(g).degree == 7


def test_degree2_place_reduction():
    # poles at the quadratic place of P^1/F_2 are handled by constant extension
    K = p1_ring()
    F = K.field
    x = RationalFunction.x(F)
    zero = RationalFunction.zero(F)
    pi = Poly(F, (1, 1, 1))
    place = FinitePlace(pi)
    quad = RationalFunction.from_poly(pi)
    f = witt_function(K, (RationalFunction.one(F) / (quad * quad), zero))
    rp = reduced_pole_order(f, place)
    assert rp == 2  # reduces from order 2p to order... exactly as at (x)
    c = conductor(f)
    assert c.degree == (rp + 1) * 2


def test_elliptic_degree2_place_conductor_and_genus():
    """x^2 + x + 1 splits on y^2 + y = x^3 over F_2 into two places of
    degree 2: reduction there works over F_4, through the ring's field."""
    E = EllipticCurve(get_field(2, 1), 0, 0, 1, 0, 0)
    ring = EllipticFunctionField(E)
    F = ring.field
    h = RationalFunction.from_poly(Poly(F, (1, 1, 1))).inverse()
    f = witt_function(
        ring, (EllipticFunction.x(E) + EllipticFunction.from_rational(E, h), EllipticFunction.zero(E))
    )
    c = conductor(f)
    assert [(pl.degree, n) for pl, n in c.entries] == [(1, 3), (2, 3), (2, 3)]
    assert c.entries[0][0] == OriginPlace(E) and c.degree == 15
    _check_cover_total(f, 1)
    assert genus_of_cover(f, 1) == 21


def test_reduction_at_a_rational_place_recorded_over_an_extension():
    """The rational point (0, 1) of y^2 + y = x^3, given by its codes in
    F_4, is reduced at the same place given over F_2."""
    E = EllipticCurve(get_field(2, 1), 0, 0, 1, 0, 0)
    ring = EllipticFunctionField(E)
    big, emb = extension(E.field, 2)
    up = AffinePlace.from_point(E, big, emb, 0, emb(1))
    down = AffinePlace.from_point(E, E.field, None, 0, 1)
    assert up.degree == 1 and up.ext_degree == 2 and up != down
    g = EllipticFunction.x(E).inverse()
    f = witt_function(ring, (g**2 + g**3, g))
    assert artin_reduce_at(f, up).place == down
    assert reduced_pole_order(f, up) == reduced_pole_order(f, down) > 0


@pytest.mark.parametrize(
    "p, m, coeffs",
    [(2, 1, (0, 0, 1, 0, 0)),  # y^2 + y = x^3 over F_2
     (3, 2, (0, 0, 0, 1, 3))],  # y^2 = x^3 + x + g over F_9: F_81 -> F_{3^8} is no composite
)
def test_reduction_at_a_place_recorded_over_a_larger_field(p, m, coeffs):
    """Every degree-2 place, given by its points over F_{q^2} and by the
    same points pushed up to F_{q^4}, reduces over F_{q^2} at one of its points
    with the same reduced pole orders.  Over F_9 the push-up, the embedding
    over F_9, is not get_embedding(3, 4, 8)."""
    E = EllipticCurve(get_field(p, m), *coeffs)
    ring = EllipticFunctionField(E)
    big, emb = extension(E.field, 4)
    push = get_embedding_over(p, m, 2 * m, 4 * m)
    x, y = EllipticFunction.x(E), EllipticFunction.y(E)
    fs = [witt_function(ring, c) for c in [(x,), (x, x - x), (y, x), (x * y, y), (x, y, x)]]
    downs = [pl for pl in E.places_up_to_degree(2) if pl.degree == 2]
    assert downs
    for down in downs:
        x0, y0 = down.representative
        up = AffinePlace.from_point(E, big, emb, push(x0), push(y0))
        assert up.degree == 2 and up.ext_degree == 4
        for f in fs:
            rf = artin_reduce_at(f, up)
            assert rf.k == 2 and rf.place.representative in down.orbit
            assert reduced_pole_order(f, up) == reduced_pole_order(f, down)


# -- reference implementations for the fast paths -----------------------------


def _cover_total_by_multiples(f, base_genus):
    """Reference for genus_of_cover: 2(g_L - 1) from the conductor-discriminant
    sum over every nontrivial multiple n*f, n = 1..p^l-1, each reduced in full."""
    n = f.params.p ** f.params.l
    total = 2 * n * (base_genus - 1)
    multiple = f
    for _ in range(1, n):
        total += conductor(multiple).degree
        multiple = multiple + f
    return total


def _check_cover_total(f, base_genus):
    """The truncation sum equals the reference total, and genus_of_cover
    returns its genus, or rejects f when f_0 gives a degenerate character."""
    p, l = f.params.p, f.params.l
    conds = [
        conductor(witt_function(f.ring, f.coords[:k])).degree for k in range(1, l + 1)
    ]
    total = 2 * p**l * (base_genus - 1) + sum(
        (p**k - p ** (k - 1)) * c for k, c in enumerate(conds, 1)
    )
    assert total == _cover_total_by_multiples(f, base_genus)
    if conds[0] == 0:
        with pytest.raises(DegenerateInputError):
            genus_of_cover(f, base_genus)
    else:
        assert genus_of_cover(f, base_genus) == total // 2 + 1


def _irreducible_quadratic(F):
    for c0 in range(1, F.q):
        for c1 in range(F.q):
            pi = Poly(F, (c0, c1, 1))
            if not roots_in_field(pi):
                return pi
    raise AssertionError("no irreducible quadratic")


def _random_p1_coord(rng, F, poles):
    """A sum of c * h^-e over the pole functions h, plus a constant."""
    acc = RationalFunction.const(F, rng.randrange(F.q))
    for h in poles:
        for e in range(1, 3):
            c = rng.randrange(F.q)
            if c:
                acc = acc + (h ** (-e)).scale(c)
    return acc


# (p, m, lengths): the reference sums p^l - 1 full reductions of ever larger
# multiples, which takes about 25 s for one vector at p = 5, l = 3
P1_GENUS_CASES = ((2, 1, (1, 2, 3)), (2, 2, (1, 2, 3)), (3, 1, (1, 2, 3)), (5, 1, (1, 2)))


@pytest.mark.parametrize("p, m, lengths", P1_GENUS_CASES)
def test_genus_truncations_match_multiples_p1(p, m, lengths):
    F = get_field(p, m)
    K = RationalFunctionField(F)
    x = RationalFunction.x(F)
    zero = RationalFunction.zero(F)
    inv_x = x ** (-1)  # h^-e has its pole at infinity for h = 1/x
    lin = x - RationalFunction.const(F, 1)
    quad = RationalFunction.from_poly(_irreducible_quadratic(F))
    rng = random.Random(f"genus-p1-{p}-{m}")
    for l in lengths:
        # degenerate first coordinates: zero, a constant, and an image of P
        _check_cover_total(witt_function(K, (zero,) * l), 0)
        _check_cover_total(witt_function(K, (RationalFunction.one(F),) + (x,) * (l - 1)), 0)
        _check_cover_total(witt_function(K, (x**p - x,) + (inv_x,) * (l - 1)), 0)
        # poles at infinity, at a rational place, at a degree-2 place, and
        # (where the reference is cheap) at all three
        cheap = p**l <= 9
        pole_sets = [[inv_x], [lin], [quad]] + ([[inv_x, lin, quad]] if cheap else [])
        for poles in pole_sets:
            coords = tuple(_random_p1_coord(rng, F, poles) for _ in range(l))
            _check_cover_total(witt_function(K, coords), 0)
        # p-divisible pole orders: reduction does work at the place
        for h in (inv_x, lin, quad) if cheap else (inv_x,):
            _check_cover_total(witt_function(K, (h ** (-p),) + (h ** (-1),) * (l - 1)), 0)


# (a1, a2, a3, a4, a6), p, lengths: the curves of the benchmark's genus-1
# workload; at l = 3 over F_3 one reference sum takes 5-55 s
GENUS1_CURVES = (
    ((0, 0, 1, 0, 0), 2, (2, 3)),
    ((0, 0, 1, 1, 0), 2, (2, 3)),
    ((1, 0, 0, 0, 1), 2, (2, 3)),
    ((1, 1, 0, 0, 1), 2, (2, 3)),
    ((0, 1, 0, 0, 1), 3, (2,)),
    ((0, 0, 0, 2, 1), 3, (2,)),
)


@pytest.mark.parametrize("coeffs, p, lengths", GENUS1_CURVES)
def test_genus_truncations_match_multiples_elliptic(coeffs, p, lengths):
    E = EllipticCurve(get_field(p, 1), *coeffs)
    ring = EllipticFunctionField(E)
    x = EllipticFunction.x(E)
    y = EllipticFunction.y(E)
    one = EllipticFunction.one(E)
    for l in lengths:
        _check_cover_total(witt_function(ring, (x, y, x + one)[:l]), 1)
        _check_cover_total(witt_function(ring, (y + x, x, y)[:l]), 1)


def _entries_place_by_place(f) -> tuple:
    """The conductor's entries from each pole place of f reduced on its
    own, with rp = max_i p^(l-1-i) * -v_i over the negative valuations."""
    p, l = f.params.p, f.params.l
    entries = []
    for pl in candidate_pole_places(f):
        terms = artin_reduce_at(f, pl).terms
        rp = max((p ** (l - 1 - i) * -t[0] for i, t in enumerate(terms) if t and t[0] < 0), default=0)
        if rp > 0:
            entries.append((pl, rp + 1))
    return tuple(entries)


def _check_one_walk(f):
    """conductor(f) against its pole places reduced one by one, and each
    truncation degree against the truncation reduced in full."""
    c = conductor(f)
    assert c.entries == _entries_place_by_place(f)
    assert len(c.truncation_degrees) == f.params.l and c.degree == c.truncation_degrees[-1]
    for k, degree in enumerate(c.truncation_degrees, 1):
        truncation = witt_function(f.ring, f.coords[:k])
        assert degree == conductor(truncation).degree
        assert degree == sum(n * pl.degree for pl, n in _entries_place_by_place(truncation))
    return c


# (p, m, lengths, vectors per length)
P1_WALK_CASES = ((2, 1, (1, 2, 3, 4), 4), (2, 2, (2, 3), 3), (3, 1, (1, 2, 3), 4), (5, 1, (1, 2), 4))


@pytest.mark.parametrize("p, m, lengths, count", P1_WALK_CASES)
def test_truncation_degrees_match_truncation_conductors_p1(p, m, lengths, count):
    """Random vectors with poles at infinity, at a rational place and at a
    degree-2 place, some of them made removable by adding P(g)."""
    F = get_field(p, m)
    K = RationalFunctionField(F)
    x = RationalFunction.x(F)
    zero = RationalFunction.zero(F)
    poles = [x ** (-1), x - RationalFunction.one(F), RationalFunction.from_poly(_irreducible_quadratic(F))]
    rng = random.Random(f"walk-p1-{p}-{m}")
    removed = 0
    for l in lengths:
        for _ in range(count):
            f = witt_function(K, [_random_p1_coord(rng, F, rng.sample(poles, 2)) for _ in range(l)])
            g = witt_function(K, [_random_p1_coord(rng, F, rng.sample(poles, 1))] + [zero] * (l - 1))
            for vec in (f, f + wp(g)):
                _check_one_walk(vec)
            removed += len(candidate_pole_places(f + wp(g))) > len(conductor(f + wp(g)).entries)
    assert removed


@pytest.mark.parametrize("coeffs, p", [(c, p) for c, p, _ in GENUS1_CURVES])
def test_truncation_degrees_match_truncation_conductors_elliptic(coeffs, p):
    """Random vectors with poles at the origin, above x = 0 and above an
    irreducible quadratic in x, some of them made removable by adding P(g)."""
    E = EllipticCurve(get_field(p, 1), *coeffs)
    ring = EllipticFunctionField(E)
    F = ring.field
    x, y = EllipticFunction.x(E), EllipticFunction.y(E)
    zero = EllipticFunction.zero(E)
    quad = EllipticFunction.from_rational(E, RationalFunction.from_poly(_irreducible_quadratic(F)).inverse())
    monomials = [x, y, x * y, x.inverse() ** p, y / x, quad]
    rng = random.Random(f"walk-elliptic-{coeffs}")
    for l in (1, 2, 3):
        for _ in range(3):
            coords = []
            for _ in range(l):
                acc = EllipticFunction.const(E, rng.randrange(F.q))
                for mono in rng.sample(monomials, 2):
                    acc = acc + mono.scale(rng.randrange(1, F.q))
                coords.append(acc)
            f = witt_function(ring, coords)
            g = witt_function(ring, [rng.choice([x.inverse(), quad])] + [zero] * (l - 1))
            for vec in (f, f + wp(g)):
                _check_one_walk(vec)


def test_one_walk_at_the_regular_point_of_y_over_x():
    """y/x on y^2 + y = x^3 has a pole at (0, 1) but not at (0, 0): both
    are walked, only (0, 1) is in the conductor."""
    E = EllipticCurve(get_field(2, 1), 0, 0, 1, 0, 0)
    ring = EllipticFunctionField(E)
    x, y = EllipticFunction.x(E), EllipticFunction.y(E)
    regular = AffinePlace.from_point(E, E.field, None, 0, 0)
    pole = AffinePlace.from_point(E, E.field, None, 0, 1)
    for coords in ((x + y / x, EllipticFunction.zero(E)), (x + y / x, y), (y / x, x, y / x)):
        f = witt_function(ring, coords)
        c = _check_one_walk(f)
        assert denominator_places(f) == [OriginPlace(E), regular, pole]
        assert pole in c.support and regular not in c.support


def _count_reductions(monkeypatch) -> list:
    """The places of every later call of artin_reduce_at, through asw or
    through any other module of the package that holds the name."""
    calls = []

    def counted(f, place):
        calls.append(place)
        return artin_reduce_at(f, place)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "wittsums" and hasattr(module, "artin_reduce_at"):
            monkeypatch.setattr(module, "artin_reduce_at", counted)
    return calls


def _count_factors(monkeypatch) -> list:
    """The polynomials of every later call of factor through asw, the one
    module that factors denominators."""
    calls = []

    def counted(pol):
        calls.append(pol)
        return factor(pol)

    monkeypatch.setattr(asw, "factor", counted)
    return calls


def _walk_cases():
    """Vectors of length >= 2 whose walked places are all poles: on P^1 at
    infinity and at 0, and on y^2 + y = x^3 at the origin and at the two
    places of degree 2 above x^2 + x + 1."""
    F = get_field(2, 1)
    K = RationalFunctionField(F)
    x = RationalFunction.x(F)
    E = EllipticCurve(F, 0, 0, 1, 0, 0)
    ex, ey = EllipticFunction.x(E), EllipticFunction.y(E)
    h = EllipticFunction.from_rational(E, RationalFunction.from_poly(Poly(F, (1, 1, 1))).inverse())
    return [
        (witt_function(K, (x**3, x)), 0),
        (witt_function(K, (x + x.inverse(), x**2, x.inverse() ** 3)), 0),
        (witt_function(EllipticFunctionField(E), (ey, ex)), 1),
        (witt_function(EllipticFunctionField(E), (ex + h, ey)), 1),
    ]


def test_genus_l_function_and_bound_reduce_once_per_walked_place(monkeypatch):
    """genus_of_cover, l_function and bound_thm31 each take one conductor:
    one Artin reduction at each walked place and none for the degeneracy
    test or for the truncations.  Here every walked place is excluded from
    the power sums, so they add none."""
    for f, base_genus in _walk_cases():
        walk = denominator_places(f)
        assert [pl for pl, _ in conductor(f).entries] == walk
        for run in (lambda: genus_of_cover(f, base_genus), lambda: l_function(f), lambda: bound_thm31(f)):
            calls = _count_reductions(monkeypatch)
            run()
            assert calls == walk


def _y_over_x_case():
    """(x + y/x, 0) on y^2 + y = x^3, with its regular walked place (0, 0)."""
    E = EllipticCurve(get_field(2, 1), 0, 0, 1, 0, 0)
    x, y = EllipticFunction.x(E), EllipticFunction.y(E)
    f = witt_function(EllipticFunctionField(E), (x + y / x, EllipticFunction.zero(E)))
    return f, AffinePlace.from_point(E, E.field, None, 0, 0)


def test_l_function_reduces_a_walked_place_without_a_pole_once(monkeypatch):
    """(x + y/x, 0) on y^2 + y = x^3: the conductor reduces once at each of
    the three walked places, and the 9 power sums read the digits at
    (0, 0), where f has no pole, from the conductor's reduced form."""
    f, regular = _y_over_x_case()
    walk = denominator_places(f)
    assert regular in walk
    calls = _count_reductions(monkeypatch)
    res = l_function(f)
    assert len(res.power_sums) == 9
    assert calls == walk


def test_denominators_are_factored_once_per_conductor(monkeypatch):
    """The conductor, l_function and sum_witt with default exclusions each
    factor the denominators once, in the conductor's walk: 4 calls, for the
    denominators of u and v in each coordinate u + v y; and each reduces
    once per walked place."""
    f, _ = _y_over_x_case()
    walk = denominator_places(f)
    assert len(walk) == 3
    factored = _count_factors(monkeypatch)
    for run in (lambda: conductor(f), lambda: l_function(f), lambda: sum_witt(f, 3)):
        factored.clear()
        reduced = _count_reductions(monkeypatch)
        run()
        assert len(factored) == 4
        assert reduced == walk


def _origin_xy_series_fixed_point(curve, prec):
    """Reference for _origin_xy_series: w = 1/y by fixed-point iteration of
    w = t^3 - a1*t*w - a3*w^2 + a2*t^2*w + a4*t*w^2 + a6*w^3."""
    F = curve.field
    wp = prec + 7
    t = LaurentSeries.t_power(F, 1, wp)
    a1, a2, a3, a4, a6 = curve.a1, curve.a2, curve.a3, curve.a4, curve.a6
    w = t**3
    for _ in range(wp):
        w = (
            t**3
            - (t * w).scale(a1)
            - (w * w).scale(a3)
            + (t * t * w).scale(a2)
            + (t * w * w).scale(a4)
            + (w * w * w).scale(a6)
        ).truncate(wp)
    x = (t * w.inverse()).truncate(prec)
    y = w.inverse().truncate(prec)
    return x, y


def _series_key(s):
    return s.val, tuple(s.coeffs.tolist()), s.prec


# (p, m, (a1, a2, a3, a4, a6)): each coefficient is nonzero on some curve
ORIGIN_CURVES = (
    (2, 1, (0, 0, 1, 0, 0)),
    (2, 1, (1, 0, 1, 1, 1)),
    (3, 1, (1, 1, 1, 1, 1)),
    (2, 2, (0, 0, 1, 2, 0)),
    (2, 2, (1, 3, 0, 0, 2)),
)


@pytest.mark.parametrize("p, m, coeffs", ORIGIN_CURVES)
def test_origin_series_matches_fixed_point(p, m, coeffs):
    E = EllipticCurve(get_field(p, m), *coeffs)
    top = 130
    # exact expansions truncate to exact expansions, so the reference at the
    # top precision also serves every precision above 16
    ref = _origin_xy_series_fixed_point(E, top)
    for prec in range(1, top + 1):
        if prec <= 16:
            want = _origin_xy_series_fixed_point(E, prec)
        else:
            want = tuple(s.truncate(prec) for s in ref)
        got = _origin_xy_series(E, prec)
        assert [_series_key(s) for s in got] == [_series_key(s) for s in want], prec
