"""Exponential sums, L-functions, and explicit bound evaluators.

Two sum shapes are supported: sums over the Teichmuller subset of a Galois
ring GR(p^l, m), and sums over the k_d-points of a curve (P^1 or an
elliptic model) of an additive character applied to the trace of a Witt
vector of functions.  Sums are accumulated exactly as cyclotomic integers,
from counts of character exponents mod p^l.

A point's exponent is a sum of table lookups, one per Witt digit: the
per-extension trace table (`_digit_trace_tables`, a numpy array) holds the
exponent of every digit in every slot, built as the orbit of 1 under
multiplication by a Teichmuller generator, block by block.  One engine sums
over P^1 and elliptic curves alike: a small curve adapter gives the affine
points over F_{q^d} as code arrays (x alone on P^1, x and y on an elliptic
curve), masks for the points of a place, and the base place (infinity or the
origin).  Each coordinate is evaluated over all points at once through the
field's array operations and the exponents are counted with one bincount.
The base place and the places above a denominator's factor are summed once
per closed point, from one local Artin reduction each.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .asw import (
    DegenerateInputError,
    artin_reduce_at,
    conductor,
    is_nondegenerate,
    witt_function,
)
from .cyclotomic import CyclotomicInteger
from .elliptic import OriginPlace
from .fields import _linear_orbit, extension, get_field
from .galois_rings import GaloisRing, get_galois_ring, get_gr_embedding
from .poly import Poly, PolynomialRing, factor
from .rational import (
    ENUMERATION_CAP,
    EnumerationCapError,
    FinitePlace,
    InfinitePlace,
    RationalFunction,
    RationalFunctionField,
)
from .witt import WittParams, WittVector


# -- the affine-line section --------------------------------------------


def gamma_s(R: GaloisRing, coeffs) -> WittVector:
    """Image of a polynomial over GR(p^l, m) under the affine-line section:
    coefficients map through the Witt isomorphism and the variable maps to
    the Teichmuller vector (T, 0, ..., 0).  Returns a Witt vector whose
    coordinates are polynomials over F_{p^m}."""
    F = R.residue_field
    ring = PolynomialRing(F)
    params = WittParams(R.p, R.l)
    T = WittVector.teichmuller(params, ring, Poly.x(F))
    acc = WittVector.zero(params, ring)
    power = WittVector.one(params, ring)
    for k, c in enumerate(coeffs):
        if isinstance(c, int):
            c = R.from_int(c)
        if k:
            power = power * T
        digits = R.witt_digits(c)
        wc = WittVector(params, ring, [Poly.const(F, d) for d in digits])
        acc = acc + wc * power
    return acc


def gamma_s_rational(R: GaloisRing, coeffs) -> WittVector:
    """gamma_s with coordinates injected into the rational function field."""
    w = gamma_s(R, coeffs)
    ring = RationalFunctionField(R.residue_field)
    return witt_function(ring, [RationalFunction.from_poly(c) for c in w.coords])


# -- sums over the Teichmuller subset ------------------------------------


@dataclass
class CharSumResult:
    value: CyclotomicInteger
    modulus: float
    term_count: int
    excluded: tuple

    @classmethod
    def from_value(cls, value, term_count, excluded=()):
        return cls(
            value=value,
            modulus=value.abs_complex(),
            term_count=term_count,
            excluded=tuple(excluded),
        )


def sum_teichmuller(R: GaloisRing, coeffs, twist=None) -> CharSumResult:
    """Exact sum of psi_b(f(x)) over the Teichmuller subset of R."""
    if R.residue_field.q > ENUMERATION_CAP:
        raise EnumerationCapError("Teichmuller set exceeds the enumeration cap")
    coeffs = [R.from_int(c) if isinstance(c, int) else c for c in coeffs]
    psi = R.additive_character(twist)
    acc = CyclotomicInteger.zero(R.p, R.l)
    count = 0
    for x in R.teichmuller_set():
        val = R.zero()
        for c in reversed(coeffs):
            val = R.add(R.mul(val, x), c)
        acc = acc + psi(val)
        count += 1
    return CharSumResult.from_value(acc, count)


# -- trace tables for point sums -----------------------------------------


@lru_cache(maxsize=128)
def _digit_trace_tables(p: int, l: int, m: int, d: int, twist_key):
    """contrib[i, a] = character exponent contributed by Witt digit a in
    slot i, for points with coordinates in F_{p^(m*d)}; exponents add mod
    p^l across slots because the trace is additive.

    Digit a in slot i stands for p^i [a^(p^-i)], so by Frobenius invariance
    of the trace its exponent is p^i Tr(sigma^i(b) [a]), b the twist.  With
    a = g^k, [a] = [g]^k is the orbit of 1 under multiplication by [g], a
    linear map over Z/p^l, and Tr(c y) is linear in the coordinates of y:
    each block of the orbit reduces to its l exponents at once.
    """
    md = m * d
    F = get_field(p, md)
    R = get_galois_ring(p, l, md)
    pl = p**l
    if twist_key is None:
        bb = R.one()
    else:
        b = tuple(twist_key)
        bb = b if d == 1 else get_gr_embedding(p, l, m, md)(b)
    basis = [tuple(int(t == j) for t in range(md)) for j in range(md)]
    basis_tr = [R.absolute_trace(e) for e in basis]
    # weights[j, i] = p^i Tr(sigma^i(b) e_j), through the basis traces
    weights = []
    for e in basis:
        row, bi = [], bb
        for i in range(l):
            if i:
                bi = R.frobenius(bi)
            x = R.mul(bi, e)
            row.append(p**i * sum(c * t for c, t in zip(x, basis_tr)) % pl)
        weights.append(row)
    g = F.exp[1] if F.q > 2 else 1
    tg = R.teichmuller(g)
    mul_g = [R.mul(tg, e) for e in basis]  # columns of the linear map
    W = np.array(weights)
    contrib = np.zeros((l, F.q), dtype=np.int64)
    k = 0
    for block in _linear_orbit(list(zip(*mul_g)), R.one(), F.q - 1, pl):
        contrib[:, F._exp_a[k : k + len(block)]] = (block @ W % pl).T
        k += len(block)
    contrib.flags.writeable = False
    return contrib


def _exponent_counts_to_cyclotomic(p, l, counts):
    acc = CyclotomicInteger.zero(p, l)
    for t, c in enumerate(counts):
        if c:
            acc = acc + c * CyclotomicInteger.zeta_pow(p, l, t)
    return acc


# -- point sums over curves ----------------------------------------------


def _curve_points(fvec, big, emb):
    """The curve adapter: the affine points over `big` as a tuple of code
    arrays, the arguments of the coordinates' eval_array ((xs,) on P^1,
    (xs, ys) on an elliptic curve); a map from a finite place to the mask
    of its points; the base place (infinity, or the origin); and the places
    above the irreducible factors of the denominators, where an array
    evaluation could divide by zero (every pole of f is among them)."""
    ring = fvec.ring
    p1 = isinstance(ring, RationalFunctionField)
    pis = {}
    for c in fvec.coords:
        for r in (c,) if p1 else (c.u, c.v):
            for pi, _ in factor(r.den):
                pis[(pi.degree, pi.coeffs)] = pi
    pis = [pi for _, pi in sorted(pis.items())]
    if p1:
        xs = np.arange(big.q)

        def on(place):
            pol = place.poly.map_field(emb) if emb else place.poly
            return pol.eval_array(xs) == 0

        return (xs,), on, InfinitePlace(ring.field), [FinitePlace(pi) for pi in pis]
    E = ring.curve
    xs, ys = E.points_above(big, emb, np.arange(big.q))
    keys = xs * big.q + ys

    def on(place):
        return np.isin(keys, [x * big.q + y for x, y in place.points_in(big)])

    return (xs, ys), on, OriginPlace(E), [pl for pi in pis for pl in E.places_above(pi)]


def _digits_at(fvec, place):
    """The Witt digits of f at a place, after reduction at a rational
    place above it, so that a removable pole is gone; with the degree k of
    their field F_{q^k} over the base field.  Raises ZeroDivisionError
    where a pole remains."""
    rf = artin_reduce_at(fvec, place)
    digits = []
    for c in rf.reduced.coords:
        s = None if c.is_zero() else c.laurent_at(rf.place, 1)
        if s is not None and s.val < 0:
            raise ZeroDivisionError(f"a pole at {place!r} outside the exclusions")
        digits.append(0 if s is None else s.coeff(0))
    return digits, rf.reduced.ring.field.m // fvec.ring.field.m


def sum_witt(fvec: WittVector, d: int = 1, exclusions=None, twist=None) -> CharSumResult:
    """Exact sum of psi(Tr(f(P))) over the k_d-points of the curve outside
    the excluded places.

    Exclusions default to the pole support (places with rp > 0).  The
    affine points off the places above the denominators' factors are
    evaluated at once, as arrays.  The base place and those places outside
    the exclusions are summed once per closed point: f is reduced at one
    rational point of the place, and its value there counts for every
    point, since P-shifts have character value 1 and the trace is constant
    on Frobenius orbits.  A value in F_{q^k} has d/k times its exponent
    over F_{q^k}.
    """
    ring = fvec.ring
    F = ring.field
    p, l = fvec.params.p, fvec.params.l
    m = F.m
    if F.q**d > ENUMERATION_CAP:
        raise EnumerationCapError(
            f"point enumeration size {F.q}^{d} exceeds cap {ENUMERATION_CAP}"
        )
    if exclusions is None:
        exclusions = [pl_ for pl_, _ in conductor(fvec).entries]
    exclusions = list(exclusions)
    big, emb = extension(F, d)
    twist_key = tuple(twist) if twist is not None else None
    pl_mod = p**l
    counts = np.zeros(pl_mod, dtype=np.int64)
    points, on, base, special = _curve_points(fvec, big, emb)
    free = np.ones(len(points[0]), dtype=bool)
    for e in exclusions:
        if e != base:
            free &= ~on(e)
    summed = [] if base in exclusions else [(base, 1)]
    for pl_ in special:
        if pl_ in exclusions or d % pl_.degree:
            continue  # a place of degree e has k_d-points only when e | d
        at = free & on(pl_)
        if at.any():
            free &= ~at
            summed.append((pl_, int(at.sum())))
    for pl_, n in summed:
        digits, k = _digits_at(fvec, pl_)
        contrib_k = _digit_trace_tables(p, l, m, k, twist_key)
        t = sum(int(contrib_k[i, a]) for i, a in enumerate(digits))
        counts[t * (d // k) % pl_mod] += n
    rest = [a[free] for a in points]
    contrib = _digit_trace_tables(p, l, m, d, twist_key)
    t = np.zeros(len(rest[0]), dtype=np.int64)
    for i, c in enumerate(fvec.coords):
        if not c.is_zero():  # digit 0 contributes exponent 0
            t += contrib[i][c.eval_array(*rest, big, emb)]
    counts += np.bincount(t % pl_mod, minlength=pl_mod)
    value = _exponent_counts_to_cyclotomic(p, l, counts.tolist())
    return CharSumResult.from_value(value, int(counts.sum()), exclusions)


# -- the affine-line identity ---------------------------------------------


def theorem12_check(R: GaloisRing, coeffs, twist=None) -> bool:
    """Exact equality of the Teichmuller-set sum of f and the point sum of
    its Witt image over the affine line."""
    lhs = sum_teichmuller(R, coeffs, twist=twist)
    fvec = gamma_s_rational(R, coeffs)
    inf = InfinitePlace(R.residue_field)
    rhs = sum_witt(fvec, 1, exclusions=[inf], twist=twist)
    return lhs.value == rhs.value


# -- L-functions -----------------------------------------------------------


@dataclass
class LFunctionResult:
    coefficients: tuple  # exact CyclotomicInteger, degree 0..N
    claimed_degree: int
    conductor_degree: int
    trailing_zero: bool
    inverse_root_moduli: tuple
    power_sums: tuple

    def complex_coefficients(self):
        return [c.complex_value() for c in self.coefficients]


def l_function(fvec: WittVector, terms: int | None = None, twist=None) -> LFunctionResult:
    """The L-polynomial of the character attached to fvec, from exact power
    sums S_d via the Newton recursion n*c_n = sum_d S_d c_(n-d).

    Coefficients are exact cyclotomic integers (integrality of the recursion
    output is asserted); the claimed degree is deg D + 2g - 2 and trailing
    coefficients beyond it are checked to vanish exactly.
    """
    if not is_nondegenerate(fvec):
        raise DegenerateInputError("the first coordinate lies in k + P(K)")
    p, l = fvec.params.p, fvec.params.l
    g = fvec.ring.genus
    cond = conductor(fvec)
    degree = cond.degree + 2 * g - 2
    n_terms = terms if terms is not None else degree + 2
    if n_terms < degree:
        raise ValueError(f"need at least {degree} terms to determine the polynomial")
    excl = [pl_ for pl_, _ in cond.entries]
    power_sums = [sum_witt(fvec, d, exclusions=excl, twist=twist).value for d in range(1, n_terms + 1)]
    coeffs = [CyclotomicInteger.one(p, l)]
    for n in range(1, n_terms + 1):
        acc = CyclotomicInteger.zero(p, l)
        for d in range(1, n + 1):
            acc = acc + power_sums[d - 1] * coeffs[n - d]
        coeffs.append(acc.divide_exact(n))
    exact = []
    for c in coeffs:
        if not c.is_integral():
            raise ArithmeticError("L-polynomial coefficient is not an algebraic integer")
        exact.append(c.to_integral())
    trailing_zero = all(exact[n].is_zero() for n in range(degree + 1, n_terms + 1))
    # inverse-root moduli from the complex embedding of the claimed polynomial
    cpoly = [exact[k].complex_value() for k in range(degree + 1)]
    if degree > 0:
        roots = np.roots(list(reversed(cpoly)))
        moduli = tuple(sorted(float(1.0 / abs(r)) for r in roots))
    else:
        moduli = ()
    return LFunctionResult(
        coefficients=tuple(exact),
        claimed_degree=degree,
        conductor_degree=cond.degree,
        trailing_zero=trailing_zero,
        inverse_root_moduli=moduli,
        power_sums=tuple(power_sums),
    )


def power_sums_from_l(result: LFunctionResult, p: int, l: int):
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


# -- bound evaluators -------------------------------------------------------


def bound_kumar(p: int, l: int, m: int, degrees) -> float:
    """(max_i p^(l-1-i) deg f_i - 1) * p^(m/2) for f = f_0 + p f_1 + ...."""
    degrees = list(degrees)
    weighted = [p ** (l - 1 - i) * dg for i, dg in enumerate(degrees) if dg > 0]
    if not weighted:
        raise ValueError("all components constant: the bound is undefined")
    return (max(weighted) - 1) * p ** (m / 2)


def bound_thm31(fvec: WittVector, d: int = 1, base_genus: int | None = None) -> float:
    """(2(g-1) + conductor degree) * p^(m d / 2)."""
    if not is_nondegenerate(fvec):
        raise DegenerateInputError("the first coordinate lies in k + P(K)")
    g = base_genus if base_genus is not None else fvec.ring.genus
    F = fvec.ring.field
    cond = conductor(fvec)
    return (2 * (g - 1) + cond.degree) * fvec.params.p ** (F.m * d / 2)


@dataclass
class PoleData:
    deg: int                    # degree of the pole place
    pole_orders: tuple          # n_{ij} for 0 <= j <= l-1
    v: int = 0                  # multiplicity of the auxiliary divisor D
    v0: int = 0                 # multiplicity of the hyperplane divisor D_0


@dataclass
class BoundInputs:
    p: int
    l: int
    m: int
    genus: int
    poles: tuple  # of PoleData

    def validate(self):
        import math

        if any(pd.deg <= 0 or pd.v < 0 or pd.v0 < 0 for pd in self.poles):
            raise ValueError("pole entries must be nonnegative with positive degree")
        if any(len(pd.pole_orders) != self.l for pd in self.poles):
            raise ValueError("each pole needs l pole orders")
        target = 2 * self.genus - 2 + math.ceil((2 * self.genus - 1) / self.p)
        total = sum(pd.v * pd.deg for pd in self.poles)
        if any(pd.v for pd in self.poles) and total != target:
            raise ValueError(
                f"auxiliary divisor degree {total} != 2g-2+ceil((2g-1)/p) = {target}"
            )


def bound_thm51(inputs: BoundInputs) -> float:
    """General bound: (sum (A_i + 1) deg P_i + 2g - 2) * p^(m/2), where A_i
    weighs each digit's pole order against the divisor multiplicities."""
    inputs.validate()
    p, l = inputs.p, inputs.l
    total = 2 * inputs.genus - 2
    for pd in inputs.poles:
        cands = [pd.pole_orders[l - 1]]
        for j in range(l - 1):
            nij = pd.pole_orders[j]
            cands.append(p ** (l - 1 - j) * (nij + 1 + pd.v))
            cands.append(p ** (l - 2 - j) * (nij + 1 + pd.v0 + 2 * pd.v))
        total += (max(cands) + 1) * pd.deg
    return total * p ** (inputs.m / 2)


def bound_cor52(inputs: BoundInputs) -> float:
    """l = 2 specialization with the divisor degrees eliminated:
    B_f = sum (p(n_i+1)+1) deg P_i + (2g-2)(p+1) + p*ceil((2g-1)/p)."""
    import math

    if inputs.l != 2:
        raise ValueError("this bound requires l = 2")
    p, g = inputs.p, inputs.genus
    B = sum((p * (pd.pole_orders[0] + 1) + 1) * pd.deg for pd in inputs.poles)
    B += (2 * g - 2) * (p + 1) + p * math.ceil((2 * g - 1) / p)
    return B * p ** (inputs.m / 2)


def bound_cor53(inputs: BoundInputs) -> float:
    """Canonical / complete-intersection case, p odd:
    B_f = sum (p^(l-1)(n_i+1)+1) deg P_i + (2g-2)(p^(l-1)+1)
          + p^(l-1)*ceil((2g-1)/p)."""
    import math

    if inputs.p == 2:
        raise ValueError("this bound requires p odd")
    p, l, g = inputs.p, inputs.l, inputs.genus
    B = sum((p ** (l - 1) * (pd.pole_orders[0] + 1) + 1) * pd.deg for pd in inputs.poles)
    B += (2 * g - 2) * (p ** (l - 1) + 1) + p ** (l - 1) * math.ceil((2 * g - 1) / p)
    return B * p ** (inputs.m / 2)


# -- sweeps -----------------------------------------------------------------


@dataclass
class BoundReport:
    instance: str
    measured: float
    bound: float
    ratio: float
    passed: bool

    @classmethod
    def make(cls, instance, measured, bound):
        ratio = measured / bound if bound else (0.0 if measured <= 1e-9 else float("inf"))
        return cls(
            instance=instance,
            measured=measured,
            bound=bound,
            ratio=ratio,
            passed=measured <= bound + 1e-9,
        )


@lru_cache(maxsize=None)
def _ring_tables(p: int, l: int, m: int):
    """Dense index tables for GR(p^l, m): addition, multiplication, trace
    exponents and Teichmuller indices, for vectorized sweeps."""
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
    tr = np.array([R.absolute_trace(e) for e in elems], dtype=np.int64)
    teich = np.array(
        [index[R.teichmuller(a)] for a in R.residue_field.elements()], dtype=np.int32
    )
    p_idx = index[R.from_int(p)]
    zero_idx = index[R.zero()]
    return add, mul, tr, teich, p_idx, zero_idx, elems, index


def sweep_kumar(p: int, l: int, m: int, deg0: int, deg1: int) -> list[BoundReport]:
    """Exhaustive check of the Teichmuller-digit bound for f = f_0 + p f_1,
    deg f_0 <= deg0, deg f_1 <= deg1, coefficients in the Teichmuller set.
    All-constant instances are skipped (the bound is undefined there)."""
    if l != 2:
        raise ValueError("the sweep is wired for two digits (l = 2)")
    q = p**m
    n0, n1 = deg0 + 1, deg1 + 1
    if q ** (n0 + n1) > ENUMERATION_CAP:
        raise EnumerationCapError(
            f"sweep size {q}^{n0 + n1} exceeds cap {ENUMERATION_CAP}"
        )
    if p ** (2 * l * m) > ENUMERATION_CAP:
        raise EnumerationCapError(
            f"ring tables of size {p ** (l * m)}^2 exceed cap {ENUMERATION_CAP}"
        )
    add, mul, tr, teich, p_idx, zero_idx, elems, index = _ring_tables(p, l, m)
    shape = (q,) * (n0 + n1)
    grids = np.indices(shape, dtype=np.int32).reshape(n0 + n1, -1)
    c0 = [teich[grids[k]] for k in range(n0)]           # f_0 coefficients
    c1 = [teich[grids[n0 + k]] for k in range(n1)]      # f_1 coefficients
    total = grids.shape[1]
    pl_mod = p**l
    zeta = np.exp(2j * np.pi * np.arange(pl_mod) / pl_mod)
    S = np.zeros(total, dtype=np.complex128)
    for a in range(q):
        xi = int(teich[a])
        acc0 = c0[-1]
        for k in range(n0 - 2, -1, -1):
            acc0 = add[mul[acc0, xi], c0[k]]
        acc1 = c1[-1]
        for k in range(n1 - 2, -1, -1):
            acc1 = add[mul[acc1, xi], c1[k]]
        f = add[acc0, mul[acc1, p_idx]]
        S += zeta[tr[f]]
    measured = np.abs(S)
    # true digit degrees (indices of highest non-zero coefficient)
    def degrees(cs):
        deg = np.full(total, -1, dtype=np.int32)
        for k, arr in enumerate(cs):
            deg = np.where(arr != zero_idx, k, deg)
        return deg
    d0 = degrees(c0)
    d1 = degrees(c1)
    w = np.maximum(p * np.maximum(d0, 0) * (d0 > 0), np.maximum(d1, 0) * (d1 > 0))
    reports = []
    mq = p ** (m / 2)
    for i in range(total):
        if w[i] <= 0:
            continue  # constant instance, bound undefined
        bound = (float(w[i]) - 1.0) * mq
        name = f"f0deg{d0[i]}_f1deg{d1[i]}_{i}"
        reports.append(BoundReport.make(name, float(measured[i]), bound))
    return reports


def sweep_thm31_p1(p: int, l: int, m: int, max_a: int, max_b: int, d: int = 1) -> list[BoundReport]:
    """Conductor-bound check for fvec = (x^a, x^b) on P^1."""
    F = get_field(p, m)
    K = RationalFunctionField(F)
    x = RationalFunction.x(F)
    zero = RationalFunction.zero(F)
    reports = []
    for a in range(1, max_a + 1):
        for b in range(0, max_b + 1):
            coords = (x**a, x**b if b else zero)
            if l == 1:
                coords = (x**a,)
            fvec = witt_function(K, coords)
            if not is_nondegenerate(fvec):
                continue
            bound = bound_thm31(fvec, d)
            res = sum_witt(fvec, d)
            reports.append(BoundReport.make(f"(x^{a},x^{b})_d{d}", res.modulus, bound))
    return reports


def verify_sweep(family: str, **params) -> list[BoundReport]:
    """Dispatch a named verification family; returns one report per instance."""
    if family == "kumar":
        return sweep_kumar(**params)
    if family == "thm31-p1":
        return sweep_thm31_p1(**params)
    if family == "empty":
        return []
    raise ValueError(f"unknown sweep family {family!r}")
