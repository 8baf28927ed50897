"""Exponential sums, L-functions, and explicit bound evaluators.

Two sum shapes are supported, and both go through the trace tables: sums
over the Teichmuller subset of a Galois ring GR(p^l, m), and sums over the
k_d-points of a curve (P^1 or an elliptic model) of an additive character
applied to the trace of a Witt vector of functions.  Sums are accumulated
exactly as cyclotomic integers, from counts of character exponents mod p^l.

A point's exponent is a sum of table lookups, one per Witt digit: the
per-extension trace table (`_digit_trace_tables`, a numpy array) holds the
exponent of every digit in every slot.  It is built from one trace row,
Tr(b [g]^k) along the orbit of 1 under multiplication by a Teichmuller
generator [g], block by block; every other slot gathers that row at the
inverse Frobenius powers of its digits.

A Teichmuller sum folds its coefficients into exponent classes mod q - 1
and looks up the digits of c [x]^k, (c_i x^(k p^i))_i, in the table of
GR(p^l, m), at all points at once.  One engine sums over P^1 and elliptic
curves alike, through the curve adapter that each function-field ring
carries: the affine points over F_{q^d} as code arrays (x alone on P^1, x
and y on an elliptic curve), the mask of a place's points, the places above
a denominator's factor, and the base place (infinity or the origin).  Each
coordinate is evaluated over all points at once through the field's array
operations and the exponents are counted with one bincount.  The places
`asw.conductor` walks (the base place and the places above a denominator's
factor) are summed once per closed point, from the reduced form of f that
the conductor keeps for each: this module reduces and factors nothing.

The Kumar sweep uses the same trace table: at a Teichmuller point x the
exponent of f = sum [a_k] T^k + p sum [b_k] T^k is a sum of table lookups,
one per coefficient, so the exponents of every instance at x are one
broadcast sum of lookup rows.  Every sweep (Kumar, Theorem 3.1 on P^1,
empty) is decided by one exact verdict, `_verdicts`, from integer weights
of the powers of zeta in each sum (Kumar's exponent counts, the exact
coefficients of a Theorem 3.1 sum) and the integer B^2.  Sweeps return a
columnar `SweepResult` (one array per field) that reads as a sequence of
`BoundReport` rows, built on access.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .asw import DegenerateInputError, conductor, witt_function
from .cyclotomic import CyclotomicInteger
from .fields import _linear_orbit, _mul_matrix, extension, get_field, isprime
from .galois_rings import GaloisRing, get_galois_ring, get_gr_embedding
from .poly import Poly, PolynomialRing
from .rational import (
    ENUMERATION_CAP,
    EnumerationCapError,
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
    """Exact sum of psi_b(f(x)) over the Teichmuller subset of R, on the
    trace table of R.

    On the Teichmuller set x^k = x^r for k > 0 and r = (k-1) mod (q-1) + 1,
    since [0]^k = 0 and [a]^(q-1) = 1 for a != 0, so the coefficients are
    first folded into at most q exponent classes.  The lift is
    multiplicative, so c [a]^r has Witt digits (c_i a^(r p^i))_i, (c_i)
    those of c, and the exponent at [a] is sum_r sum_i C[i, c_i a^(r p^i)]
    mod p^l, C the trace table: one array over the nonzero a = g^L per
    digit, read through the field's log table (r p^i is reduced mod q - 1
    first).  At a = 0 only the constant term counts.
    """
    F = R.residue_field
    q = F.q
    if q > ENUMERATION_CAP:
        raise EnumerationCapError("Teichmuller set exceeds the enumeration cap")
    p, l, pl_mod = R.p, R.l, R.pl
    if pl_mod > ENUMERATION_CAP:  # the exponent counts, one per residue mod p^l
        raise EnumerationCapError(f"exponent counts mod {p}^{l} exceed cap {ENUMERATION_CAP}")
    folded = {}
    for k, c in enumerate(coeffs):
        if isinstance(c, int):
            c = R.from_int(c)
        r = (k - 1) % (q - 1) + 1 if k else 0
        folded[r] = R.add(folded.get(r, R.zero()), c)
    C = _digit_trace_tables(p, l, F.m, 1, None if twist is None else R.element(twist))
    by_log = C[:, F.exp]  # by_log[i, L] = C[i, g^L]
    logs = np.arange(q - 1, dtype=np.int64)
    t = np.zeros(q - 1, dtype=np.int64)  # the exponents at g^0, ..., g^(q-2)
    t0 = 0  # the exponent at 0
    for r, c in folded.items():
        for i, a in enumerate(R.witt_digits(c)):
            if not a:
                continue  # digit 0 contributes exponent 0
            if not r:
                t0 += int(C[i, a])
                continue
            e = r * pow(p, i, q - 1) % (q - 1)
            t += by_log[i][(F.log[a] + e * logs) % (q - 1)]
    counts = np.bincount((t + t0) % pl_mod, minlength=pl_mod)
    counts[t0 % pl_mod] += 1
    value = CyclotomicInteger._reduce(p, l, counts.tolist())
    return CharSumResult.from_value(value, q)


# -- trace tables for point sums -----------------------------------------


@lru_cache(maxsize=128)
def _digit_trace_tables(p: int, l: int, m: int, d: int, twist_key):
    """contrib[i, a] = character exponent contributed by Witt digit a in
    slot i, for points with coordinates in F_{p^(m*d)}; exponents add mod
    p^l across slots because the trace is additive.

    Digit a in slot i stands for p^i [a^(p^-i)], so its exponent is
    p^i Tr(b [a^(p^-i)]), b the twist: one trace row tr[k] = Tr(b [g]^k)
    serves every slot, read at k p^(-i) for a = g^k.  [g]^k is the orbit of
    1 under multiplication by [g], a linear map over Z/p^l, and Tr(b y) is
    the dot product of y's coordinates with w[j] = Tr(b x^j): each block of
    the orbit reduces to its traces at once.
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
    # column j of the multiplication matrix of b is b x^j
    mul_b = _mul_matrix(bb, R.modulus, pl)
    w = np.array([R.absolute_trace(col) for col in mul_b.T.tolist()], dtype=mul_b.dtype)
    mul_g = _mul_matrix(R.teichmuller(F.generator), R.modulus, pl)
    n = F.q - 1
    tr = np.empty(n, dtype=np.int64)
    k = 0
    for block in _linear_orbit(mul_g, R.one(), n, pl):
        tr[k : k + len(block)] = block @ w % pl
        k += len(block)
    contrib = np.zeros((l, F.q), dtype=np.int64)
    logs = np.arange(n, dtype=np.int64)
    for i in range(l):
        # reduced mod p^(l-i) first, so p^i times it stays below p^l
        contrib[i, F.exp] = p**i * (tr[logs * pow(p, -i % md, n) % n] % p ** (l - i))
    contrib.flags.writeable = False
    return contrib


# -- point sums over curves ----------------------------------------------


def _digits_at(place, rf, twist_key, pl_mod):
    """The Witt digits of f at a place, from its reduced form `rf` there,
    so that a removable pole is gone.  Raises ZeroDivisionError where a
    pole remains, and ValueError where a pole was removed but the twist b
    lies off Z/p^l: then psi_b is not trivial on P(W), since
    Tr(b P(z)) = Tr((F^-1(b) - b) z), and the reduced value is not a value
    of f's class."""
    if twist_key is not None and any(twist_key[1:]) and rf.stepped:
        raise ValueError(
            f"a removable pole at {place!r} outside the exclusions, with a "
            f"twist off Z/{pl_mod}"
        )
    if any(t and t[0] < 0 for t in rf.terms):
        raise ZeroDivisionError(f"a pole at {place!r} outside the exclusions")
    return rf.digits


def sum_witt(fvec: WittVector, d: int = 1, exclusions=None, twist=None, *, _cond=None) -> CharSumResult:
    """Exact sum of psi(Tr(f(P))) over the k_d-points of the curve outside
    the excluded places.

    Exclusions default to the pole support (places with rp > 0).  The
    affine points off the places above the denominators' factors are
    evaluated at once, as arrays.  The places the conductor walks (the
    base place and those places) outside the exclusions are summed once
    per closed point, from the conductor's reduced form of f there: its
    value at one rational point above the place counts for every point,
    since P-shifts have character value 1 and the trace is constant on
    Frobenius orbits.  A value in F_{q^k} has d/k times its exponent over
    F_{q^k}.  A twist off Z/p^l does not kill P-shifts, so a pole removed
    there raises ValueError.  `_cond`: conductor(fvec).
    """
    _check_degree(d)
    ring = fvec.ring
    F = ring.field
    p, l = fvec.params.p, fvec.params.l
    m = F.m
    if F.q**d > ENUMERATION_CAP:
        raise EnumerationCapError(f"point enumeration size {F.q}^{d} exceeds cap {ENUMERATION_CAP}")
    if p**l > ENUMERATION_CAP:  # the exponent counts, one per residue mod p^l
        raise EnumerationCapError(f"exponent counts mod {p}^{l} exceed cap {ENUMERATION_CAP}")
    cond = conductor(fvec) if _cond is None else _cond
    exclusions = list(cond.support if exclusions is None else exclusions)
    big, emb = extension(F, d)
    twist_key = tuple(twist) if twist is not None else None
    pl_mod = p**l
    counts = np.zeros(pl_mod, dtype=np.int64)
    points = ring.points_over(big, emb)
    base = ring.base_place
    free = np.ones(len(points[0]), dtype=bool)
    for e in exclusions:
        if e != base:
            free &= ~ring.place_mask(e, points, big, emb)
    for pl_, rf in cond.reductions:
        if pl_ in exclusions or d % pl_.degree:
            continue  # a place of degree e has k_d-points only when e | d
        n = 1  # the base place: one point, off the affine ones
        if pl_ != base:
            at = free & ring.place_mask(pl_, points, big, emb)
            free &= ~at
            n = int(at.sum())
        if n:
            digits = _digits_at(pl_, rf, twist_key, pl_mod)
            contrib_k = _digit_trace_tables(p, l, m, rf.k, twist_key)
            t = sum(int(contrib_k[i, a]) for i, a in enumerate(digits))
            counts[t * (d // rf.k) % pl_mod] += n
    if not free.all():
        points = [a[free] for a in points]
    contrib = _digit_trace_tables(p, l, m, d, twist_key)
    t = np.zeros(len(points[0]), dtype=np.int64)
    for i, c in enumerate(fvec.coords):
        if not c.is_zero():  # digit 0 contributes exponent 0
            t += contrib[i][c.eval_array(*points, big, emb)]
    counts += np.bincount(t % pl_mod, minlength=pl_mod)
    value = CyclotomicInteger._reduce(p, l, counts.tolist())
    return CharSumResult.from_value(value, int(counts.sum()), exclusions)


# -- the affine-line identity ---------------------------------------------


def theorem12_check(R: GaloisRing, coeffs, twist=None) -> bool:
    """Exact equality of the Teichmuller-set sum of f and the point sum of
    its Witt image over the affine line."""
    lhs = sum_teichmuller(R, coeffs, twist=twist)
    fvec = gamma_s_rational(R, coeffs)
    rhs = sum_witt(fvec, 1, exclusions=[fvec.ring.base_place], twist=twist)
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


def l_function(fvec: WittVector, terms: int | None = None, twist=None) -> LFunctionResult:
    """The L-polynomial of the character attached to fvec, from exact power
    sums S_d via the Newton recursion n*c_n = sum_d S_d c_(n-d).

    Coefficients are exact cyclotomic integers: each n*c_n is divided by n
    coefficient by coefficient, and a remainder raises ArithmeticError,
    since c_n is then not an algebraic integer.  The claimed degree is
    deg D + 2g - 2 and trailing coefficients beyond it are checked to vanish
    exactly.

    A twist b in p GR (residue 0) raises DegenerateInputError: psi_b then
    has order below p^l (it is trivial at b = 0), so the character's
    conductor and degree are not f's.
    """
    p, l = fvec.params.p, fvec.params.l
    if twist is not None and not any(c % p for c in twist):
        raise DegenerateInputError(f"the twist has residue 0: its character has order below {p**l}")
    g = fvec.ring.genus
    cond = conductor(fvec)
    if cond.truncation_degrees[0] == 0:
        raise DegenerateInputError("the first coordinate lies in k + P(K)")
    degree = cond.degree + 2 * g - 2
    n_terms = terms if terms is not None else degree + 2
    if n_terms < degree:
        raise ValueError(f"need at least {degree} terms to determine the polynomial")
    q = fvec.ring.field.q
    if q**n_terms > ENUMERATION_CAP:  # the largest sum, refused before the first
        raise EnumerationCapError(f"point enumeration size {q}^{n_terms} exceeds cap {ENUMERATION_CAP}")
    power_sums = [sum_witt(fvec, d, twist=twist, _cond=cond).value for d in range(1, n_terms + 1)]
    coeffs = [CyclotomicInteger.one(p, l)]
    for n in range(1, n_terms + 1):
        acc = CyclotomicInteger.zero(p, l)
        for d in range(1, n + 1):
            acc = acc + power_sums[d - 1] * coeffs[n - d]
        try:
            coeffs.append(acc.divide_exact(n))
        except ArithmeticError:
            raise ArithmeticError("L-polynomial coefficient is not an algebraic integer") from None
    trailing_zero = all(coeffs[n].is_zero() for n in range(degree + 1, n_terms + 1))
    # inverse-root moduli from the complex embedding of the claimed polynomial
    cpoly = [coeffs[k].complex_value() for k in range(degree + 1)]
    if degree > 0:
        roots = np.roots(list(reversed(cpoly)))
        moduli = tuple(sorted(float(1.0 / abs(r)) for r in roots))
    else:
        moduli = ()
    return LFunctionResult(
        coefficients=tuple(coeffs),
        claimed_degree=degree,
        conductor_degree=cond.degree,
        trailing_zero=trailing_zero,
        inverse_root_moduli=moduli,
        power_sums=tuple(power_sums),
    )


# -- bound evaluators -------------------------------------------------------


def bound_kumar(p: int, l: int, m: int, degrees) -> float:
    """(max_i p^(l-1-i) deg f_i - 1) * p^(m/2) for f = f_0 + p f_1 + ...
    over GR(p^l, m); raises ValueError for a p that is not prime or m < 1."""
    _check_ring(p, m)
    degrees = list(degrees)
    weighted = [p ** (l - 1 - i) * dg for i, dg in enumerate(degrees) if dg > 0]
    if not weighted:
        raise ValueError("all components constant: the bound is undefined")
    return (max(weighted) - 1) * p ** (m / 2)


def _check_ring(p: int, m: int):
    if not isprime(p):
        raise ValueError(f"p = {p} is not prime")
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")


def _check_degree(d: int):
    if d < 1:
        raise ValueError(f"the extension degree d must be >= 1, got {d}")


def _thm31_coefficient(fvec: WittVector, cond) -> int:
    """The integer c of the Theorem 3.1 bound c p^(m d / 2)."""
    return 2 * (fvec.ring.genus - 1) + cond.degree


def bound_thm31(fvec: WittVector, d: int = 1) -> float:
    """(2(g-1) + conductor degree) * p^(m d / 2), g the genus of the base
    curve."""
    _check_degree(d)
    cond = conductor(fvec)
    if cond.truncation_degrees[0] == 0:
        raise DegenerateInputError("the first coordinate lies in k + P(K)")
    return _thm31_coefficient(fvec, cond) * fvec.params.p ** (fvec.ring.field.m * d / 2)


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

        if not isprime(self.p):
            raise ValueError(f"p = {self.p} is not prime")
        if self.m < 1:
            raise ValueError(f"m must be >= 1, got {self.m}")
        if self.genus < 0:
            raise ValueError(f"genus must be >= 0, got {self.genus}")
        if any(pd.deg <= 0 or min(pd.v, pd.v0, *pd.pole_orders) < 0 for pd in self.poles):
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
    inputs.validate()
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
    inputs.validate()
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


@dataclass(frozen=True, eq=False)
class SweepResult(Sequence):
    """A sweep's reports as columns, one entry per instance.

    Instance i is named `label % (column[i] for column in label_columns)`.
    `measured` is |S| (the JSON's "abs").  The object is also a read-only
    sequence of BoundReport rows, each built when it is read.  Sweeps fill
    the exact |S|^2 and B^2; the Kumar sweep also fills grid index, digit
    degrees and exponent counts (counts[t, i] points of instance i have
    exponent t), which other families leave None.
    """

    label: str
    label_columns: tuple
    measured: np.ndarray
    bound: np.ndarray
    ratio: np.ndarray
    passed: np.ndarray
    index: np.ndarray | None = None
    deg0: np.ndarray | None = None
    deg1: np.ndarray | None = None
    counts: np.ndarray | None = None
    s2: np.ndarray | None = None
    b2: np.ndarray | None = None

    def instances(self, rows=slice(None)) -> list[str]:
        """The names of the instances in a row slice, by default all."""
        cols = [np.asarray(c[rows]).tolist() for c in self.label_columns]
        return list(map(self.label.__mod__, zip(*cols)))

    @property
    def violations(self) -> int:
        return int(np.count_nonzero(~self.passed))

    @property
    def max_ratio(self) -> float:
        return float(self.ratio.max()) if len(self) else 0.0

    def __len__(self):
        return len(self.passed)

    def __getitem__(self, i):
        name = self.label % tuple(c[i] for c in self.label_columns)
        return BoundReport(name, float(self.measured[i]), float(self.bound[i]),
                           float(self.ratio[i]), bool(self.passed[i]))

    def __iter__(self):
        cols = (self.measured.tolist(), self.bound.tolist(), self.ratio.tolist(),
                self.passed.tolist())
        for row in zip(self.instances(), *cols):
            yield BoundReport(*row)

    def __eq__(self, other):
        if isinstance(other, (list, tuple, SweepResult)):
            return list(self) == list(other)
        return NotImplemented


def _kumar_counts(p: int, m: int, n0: int, n1: int):
    """counts[t, i]: the Teichmuller points x at which instance i of the
    coefficient grid has character exponent t.

    Instance i has digits a_k (f_0) and b_k (f_1), in C order of the grid
    with the constant a_0 most significant.  Since [a][x]^k = [a x^k], its
    exponent at x is sum_k C[0, a_k x^k] + sum_k C[1, b_k x^k] mod p^2, C
    the trace table of GR(p^2, m): a broadcast sum of one row per
    coefficient.
    """
    F = get_field(p, m)
    q, pl_mod = F.q, p**2
    C = _digit_trace_tables(p, 2, m, 1, None)
    codes = np.arange(q)
    dtype = np.min_scalar_type((n0 + n1) * (pl_mod - 1))
    counts = np.zeros((pl_mod, q ** (n0 + n1)), dtype=np.uint16)
    # the broadcast sums alternate between two buffers and every exponent
    # mask reuses one, so a sweep allocates no array per point
    sums = np.empty((2, counts.shape[1]), dtype=dtype)
    hit = np.empty(counts.shape[1], dtype=bool)
    for x in range(q):
        rows = [C[i][F.mul_array(codes, F.pow(x, k))].astype(dtype)
                for i, n in ((0, n0), (1, n1)) for k in range(n)]
        e = rows[0]
        for j, row in enumerate(rows[1:]):
            out = sums[j % 2, : len(e) * q]
            np.add(e[:, None], row, out=out.reshape(len(e), q))
            e = out
        e %= pl_mod
        for t in range(pl_mod):
            counts[t] += np.equal(e, t, out=hit)
    return counts


def _digit_degree(q: int, n: int):
    """The degree of each polynomial of the coefficient grid (q,)*n, -1 for 0."""
    deg = np.array([-1])
    for k in range(n):
        deg = np.maximum(deg[:, None], np.where(np.arange(q) != 0, k, -1)).ravel()
    return deg


def _verdicts(p: int, l: int, weights, c, e: int) -> dict:
    """The columns `measured` |S|, `bound` B, `ratio` |S|/B, `passed`, `s2`
    |S|^2 and `b2` B^2 of a sweep, for S = sum_t weights[t, i] zeta^t,
    zeta = exp(2 pi i/p^l), B = c[i] p^(e/2), weights and c integers, absent
    rows 0.  |S|^2 <= B^2 is decided in integers where S is in Z[i] (p^l = 2, 4).

    Otherwise |S|^2 is summed in floats.  Let n = p^l, W = sum_t |w_t| and
    u = eps/2.  The angle 2 pi t/n carries three roundings, an error below
    2 pi 3u < 10u, and cos and sin add a few ulp, so each is within 32 eps.
    The product with w_t rounds once more and a sum of at most n products
    adds (n - 1)u times their magnitudes, so Re S and Im S are each within
    a = W (32 + n) eps.  Then |Re^2 + Im^2 - |S|^2| <= 2a(2W + a) from the
    inputs, plus 3u (W + 2a)^2 from two squares and a sum: below
    4 W^2 (n + 34) eps, half of `margin`, outside which the float
    comparison has the sign of the exact one.  Inside it the exact test
    S conj(S) = B^2 in Z[zeta] (S = 0 when B = 0) decides; if it fails,
    |S|^2 - B^2 is a nonzero algebraic number too small for double
    precision to tell its sign, and ArithmeticError is raised.
    """
    n = p**l
    c = np.asarray(c, dtype=np.int64)
    b2 = c * c * p**e
    near = ()
    if n in (2, 4):  # zeta = -1 or i: Re S and Im S are integers
        w = list(weights) + [0] * (n - len(weights))
        re = w[0].astype(np.int64) - w[n // 2]
        im = w[1].astype(np.int64) - w[3] if n == 4 else 0
        s2 = re * re + im * im
        del re, im  # not kept beside the columns
    else:
        re, im, norm = np.zeros((3, weights.shape[1]))
        for t, row in enumerate(weights):
            re += np.cos(2 * np.pi * t / n) * row
            im += np.sin(2 * np.pi * t / n) * row
            norm += np.abs(row)
        s2 = re * re + im * im
        margin = norm * norm * (8 * (n + 34) * np.finfo(np.float64).eps)
        near = np.flatnonzero(np.abs(s2 - b2) <= margin)
    passed = s2 <= b2
    for i in near:
        S = CyclotomicInteger._reduce(p, l, weights[:, i].tolist() + [0] * (n - len(weights)))
        if S * S.conjugate_power(n - 1) != CyclotomicInteger.from_int(p, l, int(b2[i])):
            raise ArithmeticError(f"|S|^2 of instance {i} is within {margin[i]:.1e} of B^2 but not equal")
        s2[i], passed[i] = b2[i], True
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(b2 > 0, np.sqrt(s2 / b2), np.where(s2 > 0, np.inf, 0.0))
    return dict(measured=np.sqrt(s2.astype(np.float64)), bound=c * p ** (e / 2),
                ratio=ratio, passed=passed, s2=s2, b2=b2)


def sweep_kumar(p: int, l: int, m: int, deg0: int, deg1: int) -> SweepResult:
    """Exhaustive check of the Teichmuller-digit bound for f = f_0 + p f_1,
    deg f_0 <= deg0, deg f_1 <= deg1, coefficients in the Teichmuller set.
    All-constant instances are skipped (the bound is undefined there).

    |S| <= B = (w - 1) p^(m/2), w = max(p deg f_0, deg f_1) over the
    non-constant digits, is decided exactly (see `_verdicts`).
    """
    if l != 2:
        raise ValueError("the sweep is wired for two digits (l = 2)")
    _check_ring(p, m)
    if deg0 < 0 or deg1 < 0:
        raise ValueError("digit degrees must be nonnegative")
    q = p**m
    n0, n1 = deg0 + 1, deg1 + 1
    total = q ** (n0 + n1)
    if total > ENUMERATION_CAP:
        raise EnumerationCapError(
            f"sweep size {q}^{n0 + n1} exceeds cap {ENUMERATION_CAP}"
        )
    # the uint16 count table holds p^2 entries per instance; at p^2 = 4 the
    # instance cap alone binds
    if total * p**l > 4 * ENUMERATION_CAP:
        raise EnumerationCapError(
            f"exponent counts for {total} instances mod {p**l} exceed {4 * ENUMERATION_CAP}"
        )
    d0 = np.repeat(_digit_degree(q, n0), q**n1)
    d1 = np.tile(_digit_degree(q, n1), q**n0)
    c = np.maximum(np.where(d0 > 0, p * d0, 0), np.where(d1 > 0, d1, 0))
    c -= 1  # w - 1; all-constant instances have w = 0
    index = np.flatnonzero(c >= 0)
    d0, d1, c = d0[index], d1[index], c[index]
    if len(index):
        counts = _kumar_counts(p, m, n0, n1)[:, index]
    else:  # constant digits only: nothing to sum
        counts = np.zeros((p**l, 0), dtype=np.uint16)
    return SweepResult(
        label="f0deg%d_f1deg%d_%d",
        label_columns=(d0, d1, index),
        **_verdicts(p, l, counts, c, m),
        index=index, deg0=d0, deg1=d1, counts=counts,
    )


def sweep_thm31_p1(p: int, l: int, m: int, max_a: int, max_b: int, d: int = 1) -> SweepResult:
    """Conductor-bound check for fvec = (x^a, x^b, 0, ..., 0) of length l
    on P^1, or (x^a) when l = 1; an instance is named by its coordinates,
    as in `(x^2,x^1,0)_d1`."""
    WittParams(p, l)  # refuses a p that is not prime and an unsupported l
    _check_degree(d)
    if max_a < 1 or max_b < 0:
        raise ValueError(f"need max_a >= 1 and max_b >= 0, got {max_a} and {max_b}")
    F = get_field(p, m)
    K = RationalFunctionField(F)
    x = RationalFunction.x(F)
    zero = RationalFunction.zero(F)
    if l == 1:
        cases = [((x**a,), f"(x^{a})") for a in range(1, max_a + 1)]
    else:
        pad = (zero,) * (l - 2)
        cases = [((x**a, x**b if b else zero) + pad, f"(x^{a},x^{b}{',0' * (l - 2)})")
                 for a in range(1, max_a + 1) for b in range(max_b + 1)]
    names, sums, coefficients = [], [], []
    for coords, name in cases:
        fvec = witt_function(K, coords)
        cond = conductor(fvec)
        if cond.truncation_degrees[0] == 0:
            continue
        coefficients.append(_thm31_coefficient(fvec, cond))
        sums.append(sum_witt(fvec, d, _cond=cond).value.coeffs)
        names.append(f"{name}_d{d}")
    weights = np.array(sums, dtype=np.int64).reshape(-1, p ** (l - 1) * (p - 1)).T
    return SweepResult("%s", (names,), **_verdicts(p, l, weights, coefficients, m * d))


def verify_sweep(family: str, **params) -> SweepResult:
    """Dispatch a named verification family; returns one report per instance."""
    if family == "kumar":
        return sweep_kumar(**params)
    if family == "thm31-p1":
        return sweep_thm31_p1(**params)
    if family == "empty":
        return SweepResult("%s", ([],), **_verdicts(2, 1, np.zeros((1, 0), dtype=np.int64), [], 0))
    raise ValueError(f"unknown sweep family {family!r}")
