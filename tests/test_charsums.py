"""Character sums, the affine-line identity, L-functions, and the bound
evaluators with their worked values."""

import random

import pytest

from wittsums import (
    BoundInputs,
    CyclotomicInteger,
    DegenerateInputError,
    EllipticCurve,
    EllipticFunction,
    EllipticFunctionField,
    InfinitePlace,
    PoleData,
    RationalFunction,
    RationalFunctionField,
    bound_cor52,
    bound_cor53,
    bound_kumar,
    bound_thm31,
    bound_thm51,
    gamma_s,
    gamma_s_rational,
    get_field,
    get_galois_ring,
    l_function,
    sum_teichmuller,
    sum_witt,
    theorem12_check,
    verify_sweep,
    witt_function,
)

from functional_equation import functional_equation_holds
from teichmuller_oracle import sum_teichmuller_pointwise


def p1_fvec(p, m, *powers):
    F = get_field(p, m)
    K = RationalFunctionField(F)
    x = RationalFunction.x(F)
    zero = RationalFunction.zero(F)
    coords = tuple(zero if n is None else x**n for n in powers)
    return witt_function(K, coords)


# -- affine-line section ------------------------------------------------------


def test_gamma_s_digits():
    R = get_galois_ring(2, 2, 1)
    w = gamma_s(R, [0, 1])  # f(T) = T
    assert w.coords[0].coeffs == (0, 1)  # x
    assert w.coords[1].is_zero()
    w2 = gamma_s(R, [1, 0, 1])  # f(T) = 1 + T^2
    assert w2.coords[0].coeffs == (1, 0, 1)


def test_sum_teichmuller_examples():
    Z4 = get_galois_ring(2, 2, 1)
    res = sum_teichmuller(Z4, [0, 1])  # f = T over {0, 1}
    i = CyclotomicInteger.zeta_pow(2, 2, 1)
    assert res.value == CyclotomicInteger.one(2, 2) + i
    assert abs(res.modulus - 2**0.5) < 1e-12
    # constant f = 0 sums the trivial character over the 2-element set
    res0 = sum_teichmuller(Z4, [0])
    assert res0.value == CyclotomicInteger.from_int(2, 2, 2)
    Z9 = get_galois_ring(3, 2, 1)
    res1 = sum_teichmuller(Z9, [1])
    assert abs(res1.modulus - 3.0) < 1e-12


def _assert_theorem12(R, coeffs):
    """Both sides of the identity read the same trace table, so the left
    side is also compared with the per-point oracle."""
    assert theorem12_check(R, coeffs)
    assert sum_teichmuller(R, coeffs).value == sum_teichmuller_pointwise(R, coeffs)


def test_theorem12_identity_examples():
    Z4 = get_galois_ring(2, 2, 1)
    _assert_theorem12(Z4, [0, 1])
    _assert_theorem12(Z4, [1, 1, 1])
    _assert_theorem12(Z4, [0])  # constant
    R = get_galois_ring(3, 2, 1)
    _assert_theorem12(R, [0, 1, 0, 2])


def test_theorem12_random():
    rng = random.Random(2024)
    for p, l, m in [(2, 2, 1), (2, 2, 2), (3, 2, 1), (2, 3, 1)]:
        R = get_galois_ring(p, l, m)
        for _ in range(6):
            deg = rng.randrange(0, 4)
            coeffs = [rng.randrange(p**l) for _ in range(deg + 1)]
            _assert_theorem12(R, coeffs)


DIFFERENTIAL_RINGS = [(2, 2, 1), (2, 2, 3), (2, 3, 2), (3, 2, 2), (3, 3, 1),
                      (5, 2, 1), (2, 4, 2), (2, 2, 4), (3, 4, 1)]


@pytest.mark.parametrize("p,l,m", DIFFERENTIAL_RINGS)
def test_sum_teichmuller_matches_pointwise_oracle(p, l, m):
    """Random coefficients anywhere in the ring, degrees past q - 1 (where
    x^(q-1) wraps to 1 off 0), and twists off Z/p^l."""
    R = get_galois_ring(p, l, m)
    q = p**m
    rng = random.Random(100 * p + 10 * l + m)
    for deg in [0, 1, q - 2, q - 1, q, 2 * q - 1] + [rng.randrange(3 * q + 3) for _ in range(8)]:
        coeffs = [R.element(rng.randrange(p**l) for _ in range(m)) for _ in range(deg + 1)]
        for twist in (None, R.element(rng.randrange(p**l) for _ in range(m))):
            res = sum_teichmuller(R, coeffs, twist=twist)
            assert res.value == sum_teichmuller_pointwise(R, coeffs, twist=twist)
            assert res.term_count == q


@pytest.mark.parametrize("p,l,m", DIFFERENTIAL_RINGS)
def test_sum_teichmuller_degenerate_inputs(p, l, m):
    """The empty list and all-zero lists sum to q, a constant c to
    q psi(c), against the oracle too."""
    R = get_galois_ring(p, l, m)
    q = p**m
    rng = random.Random(7 * p + l + 100 * m)
    for coeffs in ([], [0], [R.zero()] * (q + 2)):
        assert sum_teichmuller(R, coeffs).value == CyclotomicInteger.from_int(p, l, q)
    for _ in range(3):
        c = R.element(rng.randrange(p**l) for _ in range(m))
        twist = R.element(rng.randrange(p**l) for _ in range(m))
        for coeffs in ([c], [c] + [0] * q):
            res = sum_teichmuller(R, coeffs, twist=twist)
            assert res.value == sum_teichmuller_pointwise(R, coeffs, twist=twist)
            psi_c = CyclotomicInteger.zeta_pow(p, l, R.absolute_trace(R.mul(twist, c)))
            assert res.value == psi_c * q


def test_sum_teichmuller_high_powers_at_l4():
    """Length 4, where the digit of slot 3 is raised to k p^3: sparse
    polynomials of degree in the thousands."""
    rng = random.Random(44)
    for p, m, deg in [(2, 2, 3001), (3, 1, 2000), (5, 1, 1500)]:
        R = get_galois_ring(p, 4, m)
        coeffs = [R.zero()] * (deg + 1)
        for k in [deg, deg - 1, deg // 2 + 1] + [rng.randrange(deg) for _ in range(3)]:
            coeffs[k] = R.element(rng.randrange(p**4) for _ in range(m))
        twist = R.element(rng.randrange(p**4) for _ in range(m))
        assert sum_teichmuller(R, coeffs, twist=twist).value == sum_teichmuller_pointwise(
            R, coeffs, twist=twist)


def test_sum_witt_power_sums_of_x0():
    # S_1 = 1 + i and S_2 = -2i = -(1+i)^2 for f = (x, 0) on P^1/F_2
    fvec = p1_fvec(2, 1, 1, None)
    inf = [InfinitePlace(get_field(2, 1))]
    i = CyclotomicInteger.zeta_pow(2, 2, 1)
    one = CyclotomicInteger.one(2, 2)
    s1 = sum_witt(fvec, 1, exclusions=inf)
    s2 = sum_witt(fvec, 2, exclusions=inf)
    assert s1.value == one + i
    assert s2.value == CyclotomicInteger.zero(2, 2) - ((one + i) * (one + i))


def test_frobenius_orbit_invariance():
    # |S(f)| = |S(F f)|
    fvec = p1_fvec(2, 2, 3, 1)
    ffvec = fvec.frobenius()
    for d in (1, 2):
        a = sum_witt(fvec, d)
        b = sum_witt(ffvec, d)
        assert abs(a.modulus - b.modulus) < 1e-9


# -- L-functions --------------------------------------------------------------


def test_l_function_worked_case():
    fvec = p1_fvec(2, 1, 1, None)
    res = l_function(fvec, terms=4)
    assert res.claimed_degree == 1
    assert res.conductor_degree == 3
    one = CyclotomicInteger.one(2, 2)
    i = CyclotomicInteger.zeta_pow(2, 2, 1)
    assert res.coefficients[0] == one
    assert res.coefficients[1] == one + i
    assert res.trailing_zero
    assert abs(res.inverse_root_moduli[0] - 2**0.5) < 1e-9


def test_l_function_degenerate_rejected():
    F = get_field(2, 1)
    K = RationalFunctionField(F)
    x = RationalFunction.x(F)
    fvec = witt_function(K, (x * x + x, RationalFunction.zero(F)))
    with pytest.raises(DegenerateInputError):
        l_function(fvec)
    with pytest.raises(DegenerateInputError):
        l_function(witt_function(K, (RationalFunction.zero(F),) * 2))


@pytest.mark.parametrize("twist", [0, 2])
def test_l_function_refuses_a_twist_with_residue_zero(twist):
    """psi_b for b in 2 GR(4, 1) has order 2 or 1, so f's conductor 7 is not
    its own: l_function refuses it, while the point sums still take it."""
    fvec = p1_fvec(2, 1, 3, None)
    R = get_galois_ring(2, 2, 1)
    b = R.from_int(twist)
    with pytest.raises(ValueError, match="residue 0"):
        l_function(fvec, terms=7, twist=b)
    # psi_0 is trivial, and psi_2 = (-1)^Tr: the sum of f0 = x^3 alone
    for d in (1, 2, 3):
        E = get_field(2, d)
        trace = get_galois_ring(2, 1, d).absolute_trace  # the field trace is the ring trace at l = 1
        want = E.q if twist == 0 else sum((-1) ** trace(E.coeffs(E.pow(x, 3))) for x in E.elements())
        assert sum_witt(fvec, d, twist=b).value == CyclotomicInteger.one(2, 2) * want
    assert sum_teichmuller(R, [0, 0, 0, 1], twist=b).value == sum_teichmuller_pointwise(
        R, [0, 0, 0, 1], twist=b)
    assert l_function(fvec, terms=7, twist=R.from_int(3)).claimed_degree == 5


def test_l_function_degree5_riemann_hypothesis():
    fvec = p1_fvec(2, 1, 3, None)
    res = l_function(fvec)  # conductor 7, degree 5
    assert res.claimed_degree == 5
    assert res.trailing_zero
    for r in res.inverse_root_moduli:
        assert abs(r - 2**0.5) < 1e-6 * 2**0.5
    assert functional_equation_holds(res, 2)


@pytest.mark.parametrize(
    "p, coeffs, fn, degree, pinned",
    [
        # (y + x, y) on y^2 + xy = x^3 + 1 over F_2: conductor 7
        (2, (1, 0, 0, 0, 1), lambda x, y: (y + x, y), 7, None),
        # (y) on y^2 = x^3 + 2x + 1 over F_3: L(T) = 1 - 3T + 3T^2
        (3, (0, 0, 0, 2, 1), lambda x, y: (y,), 2, [(1, 0), (-3, 0), (3, 0)]),
    ],
)
def test_l_function_genus1(p, coeffs, fn, degree, pinned):
    E = EllipticCurve(get_field(p, 1), *coeffs)
    fvec = witt_function(EllipticFunctionField(E), fn(EllipticFunction.x(E), EllipticFunction.y(E)))
    res = l_function(fvec)
    assert res.claimed_degree == degree and res.trailing_zero
    for r in res.inverse_root_moduli:
        assert abs(r - p**0.5) < 1e-6 * p**0.5
    assert functional_equation_holds(res, p)
    if pinned:
        assert [c.coeffs for c in res.coefficients[: degree + 1]] == pinned


def power_sums_from_l(result, p: int, l: int):
    """Recompute S_d from the L-coefficients (log-derivative identity); used
    as a consistency oracle against the brute-force sums."""
    n_terms = len(result.power_sums)
    coeffs = result.coefficients
    sums = []
    for n in range(1, n_terms + 1):
        acc = n * coeffs[n] if n < len(coeffs) else CyclotomicInteger.zero(p, l)
        for d in range(1, n):
            c = coeffs[n - d] if n - d < len(coeffs) else CyclotomicInteger.zero(p, l)
            acc = acc - (sums[d - 1] * c)
        sums.append(acc)
    return tuple(sums)


def test_l_function_log_derivative_consistency():
    for fvec in [p1_fvec(2, 1, 3, None), p1_fvec(3, 1, 2, 1)]:
        p, l = fvec.params.p, fvec.params.l
        res = l_function(fvec)
        back = power_sums_from_l(res, p, l)
        assert back == res.power_sums


def test_conductor_sharpness_on_p1():
    # for pole orders prime to p, deg L = max(p^(l-1-i) deg f_i) - 1
    cases = [
        (p1_fvec(2, 1, 3, None), 2 * 3 - 1),
        (p1_fvec(2, 1, 1, 3), 3 - 1),
        (p1_fvec(2, 1, 3, 3), 2 * 3 - 1),
    ]
    for fvec, expect in cases:
        assert l_function(fvec).claimed_degree == expect


# -- bound evaluators ----------------------------------------------------------


def test_bound_kumar_worked_values():
    assert abs(bound_kumar(2, 2, 3, [3, 1]) - 5 * 2**1.5) < 1e-12
    assert abs(bound_kumar(2, 2, 3, [1, 0]) - 1 * 2**1.5) < 1e-12
    assert abs(bound_kumar(3, 1, 1, [2]) - 1 * 3**0.5) < 1e-12
    with pytest.raises(ValueError):
        bound_kumar(2, 2, 1, [0, 0])
    # a ring GR(p^l, m) that does not exist has no bound
    with pytest.raises(ValueError, match="not prime"):
        bound_kumar(4, 2, 3, [1, 1])
    for m in (0, -2):
        with pytest.raises(ValueError, match="m must be >= 1"):
            bound_kumar(2, 2, m, [1, 1])


def test_bound_thm31_worked_values():
    assert abs(bound_thm31(p1_fvec(2, 1, 3, None), 1) - 5 * 2**0.5) < 1e-12
    assert abs(bound_thm31(p1_fvec(2, 1, 1, None), 1) - 2**0.5) < 1e-12


@pytest.mark.parametrize("d", [0, -2])
def test_extension_degree_below_one_is_refused(d):
    fvec = p1_fvec(2, 1, 3, None)
    degenerate = witt_function(fvec.ring, (RationalFunction.zero(get_field(2, 1)),) * 2)
    calls = [
        lambda: bound_thm31(degenerate, d),  # refused before the degeneracy test
        lambda: sum_witt(fvec, d),
        lambda: verify_sweep("thm31-p1", p=2, l=2, m=1, max_a=3, max_b=3, d=d),
    ]
    for call in calls:
        with pytest.raises(ValueError, match="d must be >= 1"):
            call()


def test_bound_thm31_genus1_single_pole():
    F2 = get_field(2, 1)
    E = EllipticCurve(F2, 0, 0, 1, 0, 0)
    ring = EllipticFunctionField(E)
    y = EllipticFunction.y(E)
    fvec = witt_function(ring, (y, EllipticFunction.zero(E)))
    # rp = 6 at the origin, genus 1: bound is (rp + 1) p^(md/2)
    assert abs(bound_thm31(fvec, 1) - 7 * 2**0.5) < 1e-12


def test_bound_thm51_cor52_cor53_worked_values():
    i51 = BoundInputs(
        p=3, l=2, m=1, genus=1, poles=(PoleData(deg=1, pole_orders=(2, 5), v=1, v0=1),)
    )
    assert abs(bound_thm51(i51) - 13 * 3**0.5) < 1e-12
    i52 = BoundInputs(p=3, l=2, m=1, genus=1, poles=(PoleData(deg=1, pole_orders=(2, 0)),))
    assert abs(bound_cor52(i52) - 13 * 3**0.5) < 1e-12
    assert abs(bound_cor53(i52) - 13 * 3**0.5) < 1e-12
    with pytest.raises(ValueError):
        bound_cor52(BoundInputs(p=3, l=3, m=1, genus=0, poles=i52.poles))
    with pytest.raises(ValueError):
        bound_cor53(BoundInputs(p=2, l=2, m=1, genus=0, poles=i52.poles))


def test_bound_inputs_validation():
    bad = BoundInputs(
        p=3, l=2, m=1, genus=1, poles=(PoleData(deg=1, pole_orders=(2, 0), v=7),)
    )
    with pytest.raises(ValueError):
        bound_thm51(bad)
    poles = (PoleData(deg=1, pole_orders=(2, 0)),)
    for p, m, g, message in (
        (4, 1, 1, "not prime"),
        (3, 0, 1, "m must be >= 1"),
        (3, -2, 1, "m must be >= 1"),
        (3, 1, -1, "genus must be >= 0"),
    ):
        with pytest.raises(ValueError, match=message):
            BoundInputs(p=p, l=2, m=m, genus=g, poles=poles).validate()


@pytest.mark.parametrize("bound", [bound_thm51, bound_cor52, bound_cor53])
@pytest.mark.parametrize(
    "pole, message",
    [
        (PoleData(deg=1, pole_orders=(-5, 0)), "nonnegative"),
        (PoleData(deg=1, pole_orders=(2, -1)), "nonnegative"),
        (PoleData(deg=0, pole_orders=(2, 0)), "positive degree"),
        (PoleData(deg=1, pole_orders=(2, 0), v=5), "auxiliary divisor degree"),
    ],
)
def test_every_general_bound_validates_its_poles(bound, pole, message):
    """Theorem 5.1 and both corollaries refuse a negative pole order, a
    place of degree 0 and an auxiliary divisor of the wrong degree."""
    with pytest.raises(ValueError, match=message):
        bound(BoundInputs(p=3, l=2, m=1, genus=1, poles=(pole,)))


@pytest.mark.parametrize("max_a, max_b", [(0, 3), (-1, 3), (3, -1)])
def test_sweep_thm31_p1_empty_range_is_refused(max_a, max_b):
    with pytest.raises(ValueError, match="max_a >= 1 and max_b >= 0"):
        verify_sweep("thm31-p1", p=2, l=2, m=1, max_a=max_a, max_b=max_b, d=1)


@pytest.mark.parametrize(
    "family, params, message",
    [
        ("kumar", dict(p=2, l=2, m=0, deg0=1, deg1=1), "m must be >= 1"),
        ("kumar", dict(p=2, l=2, m=-1, deg0=1, deg1=1), "m must be >= 1"),
        ("kumar", dict(p=4, l=2, m=2, deg0=1, deg1=1), "not prime"),
        ("thm31-p1", dict(p=2, l=0, m=1, max_a=2, max_b=1), "length"),
        ("thm31-p1", dict(p=2, l=-1, m=1, max_a=2, max_b=1), "length"),
        ("thm31-p1", dict(p=4, l=2, m=1, max_a=2, max_b=1), "not prime"),
    ],
)
def test_sweeps_refuse_rings_that_do_not_exist(family, params, message):
    """A sweep over GR(p^l, m) needs a prime p, m >= 1 and a supported
    Witt length, as the bounds do; m = 0 summed nothing and passed."""
    with pytest.raises(ValueError, match=message):
        verify_sweep(family, **params)


# -- sweeps ---------------------------------------------------------------------


def test_sweep_kumar_small_clean():
    reports = verify_sweep("kumar", p=2, l=2, m=1, deg0=2, deg1=1)
    assert reports
    assert all(r.passed for r in reports)


def test_sweep_thm31_p1_clean():
    reports = verify_sweep("thm31-p1", p=2, l=2, m=1, max_a=3, max_b=2, d=1)
    assert reports
    assert all(r.passed for r in reports)


def test_sweep_thm31_p1_length_one_names_each_character_once():
    reports = verify_sweep("thm31-p1", p=2, l=1, m=1, max_a=3, max_b=3, d=1)
    assert [r.instance for r in reports] == ["(x^1)_d1", "(x^2)_d1", "(x^3)_d1"]
    assert all(r.passed for r in reports)


def test_sweep_empty():
    assert verify_sweep("empty") == []


def test_gamma_s_rational_matches_polynomials():
    R = get_galois_ring(2, 2, 1)
    w = gamma_s(R, [1, 1])
    wr = gamma_s_rational(R, [1, 1])
    for a, b in zip(w.coords, wr.coords):
        assert RationalFunction.from_poly(a) == b
