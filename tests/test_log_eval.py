"""Log-domain array evaluation against the scalar evaluators.

`Poly.eval_array` (and through it `RationalFunction.eval_array`,
`EllipticFunction.eval_array` and the elliptic point solver) reads each
monomial off the field's log table; the scalar `Poly.eval` is Horner's rule
one point at a time and is the oracle.  The cases cover F_2, F_4, F_3, F_9
and F_25 with coefficients carried into F_{q^d}, d <= 4, by the field
embedding: sparse and dense polynomials, degrees at and past q^d - 1 (where
x^i wraps around the multiplicative group), the zero and constant
polynomials, the point x = 0 (whose log is -1), poles of rational functions
and points of elliptic curves.
"""

import random

import numpy as np
import pytest

from wittsums.elliptic import EllipticCurve, EllipticFunction
from wittsums.fields import extension, get_field
from wittsums.poly import Poly
from wittsums.rational import RationalFunction

# (p, m, d): the coefficient field F_{p^m} and the evaluation field F_{p^(m d)}
FIELDS = [(2, 1, d) for d in (1, 2, 3, 4)] + [(2, 2, d) for d in (1, 2, 3, 4)] + [
    (3, 1, d) for d in (1, 2, 3, 4)] + [(3, 2, d) for d in (1, 2, 3)] + [(5, 2, 1), (5, 2, 2)]

# points checked per case: every point of a small field, else a sample with 0
MAX_POINTS = 100


def _points(big, rng):
    if big.q <= MAX_POINTS:
        return np.arange(big.q)
    return np.array([0, 1] + rng.sample(range(2, big.q), MAX_POINTS - 2))


def _polys(F, n, rng):
    """Polynomials over F for an evaluation field with n = q^d - 1 units."""
    unit = lambda: rng.randrange(1, F.q)  # noqa: E731
    sparse = lambda degs: Poly(F, [unit() if i in degs else 0 for i in range(max(degs) + 1)])  # noqa: E731
    return [
        Poly.zero(F),
        Poly.const(F, unit()),
        Poly.x(F),
        Poly(F, [rng.randrange(F.q) for _ in range(7)] + [unit()]),  # dense
        sparse({0, 3}),
        sparse({1, 5}),  # no constant term
        sparse({n}),  # x^n = 1 off 0
        sparse({0, n, n + 1}),
        sparse({2, 2 * n + 3}),
    ]


@pytest.mark.parametrize("p, m, d", FIELDS)
def test_poly_eval_array_matches_horner(p, m, d):
    F = get_field(p, m)
    big, emb = extension(F, d)
    rng = random.Random(f"poly:{p}:{m}:{d}")
    xs = _points(big, rng)
    for f in _polys(F, big.q - 1, rng):
        got = f.eval_array(xs, big, emb)
        assert got.dtype == np.int64 and got.shape == xs.shape
        assert got.tolist() == [f.eval(x, big, emb) for x in xs.tolist()], f


@pytest.mark.parametrize("p, m, d", FIELDS)
def test_rational_eval_array_matches_scalar(p, m, d):
    F = get_field(p, m)
    big, emb = extension(F, d)
    rng = random.Random(f"rational:{p}:{m}:{d}")
    xs = _points(big, rng)
    a = rng.randrange(1, F.q)
    x = RationalFunction.x(F)
    c = RationalFunction.const(F, a)
    funcs = [
        (x**3 + c) / (x - c),  # a pole at x = a
        c / x**2,  # a pole at 0
        (x**4 + x * c + RationalFunction.one(F)) / (x**2 + c),  # poles off F or in F_{q^2}
        RationalFunction.zero(F),
        c,
    ]
    for f in funcs:
        want = []
        for xv in xs.tolist():
            try:
                want.append(f.eval(xv, big, emb))
            except ZeroDivisionError:
                want.append(None)
        poles = np.array([w is None for w in want])
        regular = xs[~poles]
        assert f.eval_array(regular, big, emb).tolist() == [w for w in want if w is not None]
        if poles.any():
            with pytest.raises(ZeroDivisionError):
                f.eval_array(xs, big, emb)


# (p, m, (a1, a2, a3, a4, a6)) smooth over F_{p^m}, a code 2 of F_4 or F_9 not in F_p
CURVES = [
    (2, 1, (0, 0, 1, 0, 0)),
    (2, 2, (1, 0, 0, 0, 2)),
    (3, 1, (0, 1, 0, 0, 1)),
    (3, 2, (0, 0, 0, 2, 3)),
    (5, 2, (0, 0, 0, 1, 1)),
]


@pytest.mark.parametrize("p, m, coeffs", CURVES)
def test_elliptic_eval_array_matches_scalar(p, m, coeffs):
    F = get_field(p, m)
    E = EllipticCurve(F, *coeffs)
    X, Y = EllipticFunction.x(E), EllipticFunction.y(E)
    c = EllipticFunction.const(E, 2 % F.q)
    funcs = [X, Y, X**3 * Y + c, (X + Y) * (X + Y), Y.inverse(), EllipticFunction.zero(E)]
    for d in (1, 2, 3) if F.q**3 <= 2000 else (1, 2):
        big, emb, xs, ys = E.affine_points(d)
        # the solver's points are exactly the solutions of the equation
        G = E.map_field(emb) if emb else E
        on_curve = {
            (xv, yv)
            for xv in range(big.q)
            for yv in range(big.q)
            if big.add(big.mul(yv, big.add(yv, big.add(big.mul(G.a1, xv), G.a3))),
                       big.neg(Poly(big, (G.a6, G.a4, G.a2, 1)).eval(xv))) == 0
        } if big.q <= 81 else None
        pts = list(zip(xs.tolist(), ys.tolist()))
        assert on_curve is None or sorted(on_curve) == pts
        for f in funcs:
            want, keep = [], []
            for k, (xv, yv) in enumerate(pts):
                try:
                    want.append(f.eval_at_point(big, emb, xv, yv))
                    keep.append(k)
                except ZeroDivisionError:
                    pass
            got = f.eval_array(xs[keep], ys[keep], big, emb)
            assert got.tolist() == want, (f, d)
            if len(keep) < len(pts):
                with pytest.raises(ZeroDivisionError):
                    f.eval_array(xs, ys, big, emb)
