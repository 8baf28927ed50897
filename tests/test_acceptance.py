"""Acceptance suite: ten end-to-end checks, one pass/fail line each.

Each test prints a single summary line and enforces its stated time budget.
"""

import random
import time

import numpy as np

from wittsums import (
    BoundInputs,
    CyclotomicInteger,
    EllipticCurve,
    EllipticFunction,
    EllipticFunctionField,
    FinitePlace,
    OriginPlace,
    PoleData,
    Poly,
    RationalFunction,
    RationalFunctionField,
    WittParams,
    WittVector,
    bound_cor52,
    bound_thm31,
    conductor,
    genus_of_cover,
    get_embedding,
    get_field,
    get_galois_ring,
    is_nondegenerate,
    l_function,
    reduced_pole_order,
    sum_teichmuller,
    sum_witt,
    sweep_kumar,
    theorem12_check,
    witt_function,
    wp,
)
from wittsums.charsums import _thm31_coefficient, _verdicts

from functional_equation import functional_equation_holds
from teichmuller_oracle import additive_character, sum_teichmuller_pointwise


def _report(n, label, elapsed, budget, detail):
    assert elapsed < budget, f"criterion {n} exceeded its {budget}s budget ({elapsed:.1f}s)"
    print(f"criterion {n:2d} PASS ({elapsed:5.1f}s): {label} - {detail}")


# -- 1: Witt ring axioms -------------------------------------------------------


def test_criterion_01_witt_ring_axioms():
    t0 = time.time()
    checked = 0
    for p in (2, 3, 5):
        m = 2 if p < 5 else 1
        F = get_field(p, m)
        for l in (1, 2, 3):
            params = WittParams(p, l)
            rng = random.Random(1000 * p + l)
            for _ in range(500):
                a, b, c = (
                    WittVector(params, F, tuple(rng.randrange(F.q) for _ in range(l)))
                    for _ in range(3)
                )
                assert a + b == b + a
                assert (a + b) + c == a + (b + c)
                assert a * (b + c) == a * b + a * c
                pa = a.scalar(p)
                assert a.verschiebung().frobenius() == pa
                assert a.frobenius().verschiebung() == pa
                for va in range(l):
                    for vb in range(l - va):
                        fx = a
                        for _ in range(vb):
                            fx = fx.frobenius()
                        fy = b
                        for _ in range(va):
                            fy = fy.frobenius()
                        assert a.verschiebung(va) * b.verschiebung(vb) == (
                            fx * fy
                        ).verschiebung(va + vb)
                checked += 1
    _report(1, "Witt ring axiom suite", time.time() - t0, 30, f"{checked} random triples")


# -- 2: digit-map isomorphism ---------------------------------------------------


def test_criterion_02_galois_ring_isomorphism():
    t0 = time.time()
    pairs_checked = 0
    for p, l, m, exhaustive in [
        (2, 2, 1, True),
        (3, 2, 1, True),
        (2, 2, 2, True),
        (2, 3, 2, False),
        (3, 2, 2, False),
    ]:
        R = get_galois_ring(p, l, m)
        els = list(R.elements())
        if exhaustive:
            pairs = [(x, y) for x in els for y in els]
        else:
            rng = random.Random(p + l + m)
            pairs = [(rng.choice(els), rng.choice(els)) for _ in range(100)]
        params = WittParams(p, l)
        for x, y in pairs:
            wx = WittVector(params, R.residue_field, R.witt_digits(x))
            wy = WittVector(params, R.residue_field, R.witt_digits(y))
            assert R.from_digits(wx.coords) == x
            assert (wx + wy).coords == R.witt_digits(R.add(x, y))
            assert (wx * wy).coords == R.witt_digits(R.mul(x, y))
            pairs_checked += 1
    _report(
        2, "Galois-ring digit isomorphism", time.time() - t0, 30,
        f"{pairs_checked} pairs (exhaustive on Z/4, Z/9, 16-element ring)",
    )


# -- 3: the affine-line summation identity --------------------------------------


def test_criterion_03_teichmuller_identity():
    t0 = time.time()
    rng = random.Random(12)
    combos = [
        (p, l, m) for p in (2, 3) for l in (2, 3) for m in (1, 2)
    ]
    count = 0
    for p, l, m in combos:
        R = get_galois_ring(p, l, m)
        for _ in range(25):
            deg = rng.randrange(0, 5)
            coeffs = [rng.randrange(p**l) for _ in range(deg + 1)]
            assert theorem12_check(R, coeffs)
            # both sides read one trace table: the per-point oracle checks it
            assert sum_teichmuller(R, coeffs).value == sum_teichmuller_pointwise(R, coeffs)
            count += 1
    _report(
        3, "Teichmuller-sum = point-sum identity", time.time() - t0, 60,
        f"{count} random polynomials, exact cyclotomic equality",
    )


# -- 4: exhaustive digit-degree bound sweep --------------------------------------


def test_criterion_04_kumar_sweep():
    t0 = time.time()
    reports = sweep_kumar(2, 2, 3, 3, 1)
    # S lies in Z[i]: |S|^2 and B^2 are integers, compared with no tolerance
    assert reports.s2.dtype.kind == "i" and reports.b2.dtype.kind == "i"
    assert (reports.s2 <= reports.b2).all()
    violations = [r for r in reports if not r.passed]
    assert not violations
    max_ratio = max(r.ratio for r in reports)
    _report(
        4, "digit-degree bound sweep p=2,l=2,m=3", time.time() - t0, 120,
        f"{len(reports)} instances, 0 violations, max ratio {max_ratio:.4f}",
    )


# -- 5: reduced pole order vs brute-force witness search --------------------------


def _sq_bits(mask):
    out = 0
    k = 0
    while mask:
        if mask & 1:
            out |= 1 << (2 * k)
        mask >>= 1
        k += 1
    return out


def _mul_bits(a, b):
    out = 0
    k = 0
    while a:
        if a & 1:
            out ^= b << k
        a >>= 1
        k += 1
    return out


def _deg_weight(mask, weight):
    d = mask.bit_length() - 1
    return weight * d if d > 0 else 0


def test_criterion_05_reduction_vs_brute_force():
    # Functions are F_2 polynomials in u = 1/x, stored as bit masks.  At the
    # place (x), v = -deg_u.  For p = 2, l = 2 the Witt operations reduce to
    # carry-less polynomial algebra:
    #   wp(g0, g1) = (g0^2 + g0,  g1^2 + g1 + g0^2 + g0^3)
    #   f - (W0, W1) = (f0 + W0,  f1 + W1 + W0^2 + f0*W0)
    t0 = time.time()
    F = get_field(2, 1)
    K = RationalFunctionField(F)
    x = RationalFunction.x(F)
    px = FinitePlace(Poly(F, (0, 1)))

    def to_rf(mask):
        acc = RationalFunction.zero(F)
        for k in range(mask.bit_length()):
            if mask >> k & 1:
                acc = acc + x ** (-k)
        return acc

    # cross-check the closed-form wp against the library on a few witnesses
    rng = random.Random(55)
    for _ in range(3):
        g0 = rng.randrange(1, 16) << 1
        g1 = rng.randrange(1, 16) << 1
        lib = wp(witt_function(K, (to_rf(g0), to_rf(g1))))
        w0 = _sq_bits(g0) ^ g0
        w1 = _sq_bits(g1) ^ g1 ^ _sq_bits(g0) ^ _mul_bits(g0, _sq_bits(g0))
        assert lib.coords[0] == to_rf(w0)
        assert lib.coords[1] == to_rf(w1)

    # witness tables over g_i = combinations of u^1..u^8
    gs = [G << 1 for G in range(256)]
    A = [_sq_bits(g) ^ g for g in gs]                       # first coord of wp
    C = np.array([_sq_bits(g) ^ g for g in gs], dtype=np.int64)
    D = [
        _sq_bits(g) ^ _mul_bits(g, _sq_bits(g)) ^ _sq_bits(a)
        for g, a in zip(gs, A)
    ]

    def brute_min(f0, f1):
        best = None
        for a, dterm in zip(A, D):
            h0 = f0 ^ a
            e0 = _deg_weight(h0, 2)
            base = f1 ^ dterm ^ _mul_bits(f0, a)
            arr = np.bitwise_xor(np.int64(base), C)
            with np.errstate(all="ignore"):
                degs = np.frexp(arr.astype(np.float64))[1] - 1
            contrib = np.where(degs > 0, degs, 0)
            m = int(np.maximum(e0, contrib).min())
            best = m if best is None else min(best, m)
            if best == 0:
                break
        return best

    rng = random.Random(77)
    done = 0
    while done < 50:
        f0 = rng.randrange(32)
        f1 = rng.randrange(32)
        if f0 | f1 == 0:
            continue
        fvec = witt_function(K, (to_rf(f0), to_rf(f1)))
        rp = reduced_pole_order(fvec, px)
        assert max(rp, 0) == brute_min(f0, f1)
        done += 1
    _report(
        5, "reduced pole order vs witness search", time.time() - t0, 120,
        f"{done} instances, 65536 witnesses each, exact agreement",
    )


# -- 6: L-polynomial degree and Riemann hypothesis --------------------------------


def _random_p1_fvec(rng, F, K, x):
    coords = []
    for _ in range(2):
        if rng.random() < 0.15:
            coords.append(RationalFunction.zero(F))
            continue
        num = Poly(F, tuple(rng.randrange(F.q) for _ in range(rng.randrange(1, 6))))
        k = rng.randrange(0, 3)
        f = RationalFunction(num) * x ** (-k) if not num.is_zero() else RationalFunction.zero(F)
        coords.append(f)
    return witt_function(K, tuple(coords))


def test_criterion_06_l_polynomial_checks():
    t0 = time.time()
    # the exact worked case first: L(T) = 1 + (1 + zeta_4) T for f = (x, 0)
    F2 = get_field(2, 1)
    K2 = RationalFunctionField(F2)
    x2 = RationalFunction.x(F2)
    res = l_function(witt_function(K2, (x2, RationalFunction.zero(F2))))
    one = CyclotomicInteger.one(2, 2)
    zeta = CyclotomicInteger.zeta_pow(2, 2, 1)
    assert res.claimed_degree == 1
    assert res.coefficients[0] == one and res.coefficients[1] == one + zeta
    assert functional_equation_holds(res, 2)
    checked = 0
    for p, m, count in [(2, 1, 20), (2, 2, 10), (3, 1, 14), (3, 2, 6)]:
        F = get_field(p, m)
        K = RationalFunctionField(F)
        x = RationalFunction.x(F)
        rng = random.Random(600 + 10 * p + m)
        produced = 0
        while produced < count:
            fvec = _random_p1_fvec(rng, F, K, x)
            if not is_nondegenerate(fvec):
                continue
            deg = conductor(fvec).degree - 2
            if deg < 1 or F.q ** (deg + 2) > 200000:
                continue
            result = l_function(fvec)
            assert result.trailing_zero, "trailing L-coefficients must vanish"
            target = p ** (m / 2)
            for r in result.inverse_root_moduli:
                assert abs(r - target) <= 1e-6 * target
            assert functional_equation_holds(result, F.q)
            produced += 1
            checked += 1
    _report(
        6, "L-polynomial degree, inverse-root moduli, functional equation", time.time() - t0, 300,
        f"{checked + 1} nondegenerate instances incl. the exact worked case",
    )


# -- 7: the conductor bound at genus 1 ---------------------------------------------


def test_criterion_07_genus1_bound():
    t0 = time.time()
    curves = [
        EllipticCurve(get_field(2, 1), 0, 0, 1, 0, 0),   # y^2 + y = x^3
        EllipticCurve(get_field(3, 1), 0, 1, 0, 0, 1),   # y^2 = x^3 + x^2 + 1, ordinary
    ]
    # the second curve is ordinary: trace of Frobenius is nonzero mod 3
    E3 = curves[1]
    assert (3 + 1 - E3.count_points(1)) % 3 != 0
    instances = 0
    for E in curves:
        F = E.field
        ring = EllipticFunctionField(E)
        xf = EllipticFunction.x(E)
        yf = EllipticFunction.y(E)
        zero = EllipticFunction.zero(E)
        O = OriginPlace(E)
        for f0 in (xf, yf, xf + yf):
            for f1 in (zero, xf, yf):
                fvec = witt_function(ring, (f0, f1))
                if not is_nondegenerate(fvec):
                    continue
                rp = reduced_pole_order(fvec, O)
                if rp > 9:
                    continue
                c = _thm31_coefficient(fvec, conductor(fvec))
                for d in (1, 2, 3):
                    weights = np.array([sum_witt(fvec, d).value.coeffs]).T
                    verdict = _verdicts(F.p, 2, weights, [c], F.m * d)
                    assert verdict["passed"][0]
                    assert verdict["bound"][0] == bound_thm31(fvec, d)
                # the closed-form l=2 bound dominates the conductor bound;
                # both are an integer times the same float p^(m/2), and
                # rounding that product is monotone in the integer
                n0 = max(0, -fvec.coords[0].valuation_at(O))
                inputs = BoundInputs(
                    p=F.p, l=2, m=F.m, genus=1,
                    poles=(PoleData(deg=1, pole_orders=(n0, 0)),),
                )
                assert bound_cor52(inputs) >= bound_thm31(fvec, 1)
                instances += 1
    assert instances >= 10
    _report(
        7, "conductor bound on elliptic curves", time.time() - t0, 300,
        f"{instances} instances, d <= 3, 0 violations; closed form dominates",
    )


# -- 8: stability of rp under constant-field extension ------------------------------


def test_criterion_08_rp_extension_stability():
    t0 = time.time()
    F = get_field(2, 1)
    K = RationalFunctionField(F)
    x = RationalFunction.x(F)
    pi = Poly(F, (1, 1, 1))
    place = FinitePlace(pi)
    quad = RationalFunction.from_poly(pi)
    emb = get_embedding(2, 1, 2)
    F4 = emb.big
    K4 = RationalFunctionField(F4)
    root = min(
        r for r in F4.elements() if F4.add(F4.add(F4.mul(r, r), r), 1) == 0
    )
    place4 = FinitePlace(Poly(F4, (F4.neg(root), 1)))
    rng = random.Random(88)
    done = 0
    while done < 20:
        coords = []
        for _ in range(2):
            num = Poly(F, tuple(rng.randrange(2) for _ in range(rng.randrange(1, 5))))
            k = rng.randrange(0, 3)
            coords.append(RationalFunction(num) / quad**k if not num.is_zero() else RationalFunction.zero(F))
        fvec = witt_function(K, tuple(coords))
        rp = reduced_pole_order(fvec, place)
        if rp <= 0:
            continue
        fvec4 = witt_function(K4, tuple(c.map_field(emb) for c in coords))
        assert reduced_pole_order(fvec4, place4) == rp
        done += 1
    _report(
        8, "rp stability under constant extension", time.time() - t0, 30,
        f"{done} instances at a degree-2 place, exact",
    )


# -- 9: the classical cover genus ----------------------------------------------------


def test_criterion_09_genus_formula():
    t0 = time.time()
    cases = 0
    for p in (2, 3, 5):
        F = get_field(p, 1)
        K = RationalFunctionField(F)
        x = RationalFunction.x(F)
        for n in range(2, 8):
            if n % p == 0:
                continue
            g = genus_of_cover(witt_function(K, (x**n,)), 0)
            assert g == (p - 1) * (n - 1) // 2
            cases += 1
    _report(
        9, "cyclic cover genus formula", time.time() - t0, 30,
        f"{cases} single-pole instances match (p-1)(n-1)/2",
    )


# -- 10: triviality of the character on the image of wp ------------------------------


def test_criterion_10_psi_wp_triviality():
    t0 = time.time()
    rng = random.Random(101)
    done = 0
    while done < 100:
        p = rng.choice((2, 3))
        l = rng.choice((2, 3))
        m = rng.choice((1, 2))
        F = get_field(p, m)
        K = RationalFunctionField(F)
        x = RationalFunction.x(F)
        coords = []
        for _ in range(l):
            num = Poly(F, tuple(rng.randrange(F.q) for _ in range(rng.randrange(1, 4))))
            coords.append(RationalFunction(num) if not num.is_zero() else RationalFunction.zero(F))
        g = witt_function(K, tuple(coords))
        h = wp(g)
        x0 = rng.randrange(F.q)
        try:
            digits = tuple(c.eval(x0) for c in h.coords)
        except ZeroDivisionError:
            continue
        R = get_galois_ring(p, l, m)
        psi = additive_character(R)
        assert psi(R.from_digits(digits)) == CyclotomicInteger.one(p, l)
        done += 1
    _report(
        10, "additive character trivial on wp-image", time.time() - t0, 30,
        f"{done} random (g, P) pairs, exact",
    )
