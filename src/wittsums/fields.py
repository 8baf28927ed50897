"""Finite fields F_{p^m} with integer-coded elements.

Elements are encoded as integers in [0, p^m): the code sum(c_i * p^i)
stands for the residue class of sum(c_i * x^i) modulo the field's
irreducible modulus.  All arithmetic goes through exp/log (Zech) tables,
so individual operations are O(1) after a one-time O(q) table build.  Each
table is kept once, as a read-only int64 array that `get_field` shares: the
`*_array` operations gather from it, and scalar operations index a
memoryview of the same buffer, which returns Python ints.

Every power on the way to the tables is a power of a multiplication
matrix: y -> a*y on Z/n[x]/(f) is an m x m matrix (`_mul_matrix`), raised
by `_mat_pow_mod` and orbited by `_linear_orbit`.  The modulus is the
first candidate without a root in F_p that passes Rabin's test, run on
the F_p-linear Frobenius matrix; the generator is the first candidate c
with c^((q-1)/r) != 1 for every prime r | q - 1, read off the first column
of a matrix power.

The log table maps 0 to -1.  Array evaluation of polynomials works in the
log domain: with n = q - 1 and lx = log[x], a monomial c x^i (i >= 1) is
the gather exp[(log c + (i mod n) lx) mod n], entries where lx = -1 (the
point 0) are replaced by the constant term, and terms are added with
`add_array` (XOR at p = 2, Zech logarithms at odd p).
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

#: hard ceiling on field size; table construction is O(q) in memory.
FIELD_SIZE_CAP = 1 << 23


class FieldCapError(ValueError):
    """Requested field exceeds the desk-scale enumeration cap."""


class EnumerationCapError(RuntimeError):
    """A requested enumeration would exceed the configured size cap."""


def primefactors(n: int) -> list[int]:
    """Distinct prime factors of n >= 1, ascending, by trial division
    (enough here: every n factored is below the field cap)."""
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out.append(n)
    return out


def isprime(n: int) -> bool:
    """Trial division; a characteristic above the field cap is refused
    rather than factored, since no field of it can be built."""
    if n > FIELD_SIZE_CAP:
        raise FieldCapError(f"characteristic {n} exceeds cap {FIELD_SIZE_CAP}")
    return n >= 2 and primefactors(n) == [n]


def _code_to_coeffs(code: int, p: int, m: int) -> list[int]:
    out = []
    for _ in range(m):
        out.append(code % p)
        code //= p
    return out


def _coeffs_to_code(coeffs, p: int) -> int:
    code = 0
    for c in reversed(list(coeffs)):
        code = code * p + (c % p)
    return code


def _dtype_for(m: int, n: int):
    """int64 while an m-term dot product of residues mod n fits in it, else
    Python ints (`object`)."""
    return np.int64 if m * (n - 1) ** 2 < 2**63 else object


def _mat_pow_mod(M, n: int, mod: int):
    res = np.eye(len(M), dtype=M.dtype)
    while n:
        if n & 1:
            res = res @ M % mod
        M = M @ M % mod
        n >>= 1
    return res


def _linear_orbit(M, v, n: int, mod: int):
    """Yield the vectors M^k v mod `mod`, k = 0..n-1, as consecutive row
    blocks of about sqrt(n) rows: sqrt(n) matrix-vector steps give the
    first block, and each later block is the previous one times M^s.  A
    caller reduces each block before asking for the next, so no more than
    one block is held at a time."""
    dtype = _dtype_for(len(v), mod)
    M = np.array(M, dtype=dtype)
    s = math.isqrt(n - 1) + 1  # s * s >= n
    block = np.empty((s, len(v)), dtype=dtype)
    block[0] = v
    for k in range(1, s):
        block[k] = M @ block[k - 1] % mod
    step = _mat_pow_mod(M, s, mod).T
    for start in range(0, n, s):
        yield block[: n - start]
        block = block @ step % mod


def _mul_matrix(a, mod, n: int):
    """The matrix of y -> a*y on Z/n[x]/(mod), for mod monic of degree m
    and a of degree < m with coefficients in [0, n): column j is a*x^j, one
    companion step (multiply by x, reduce the x^m term) from the column
    before."""
    m = len(mod) - 1
    dtype = _dtype_for(m, n)
    low = np.array(mod[:m], dtype=dtype)
    M = np.zeros((m, m), dtype=dtype)
    M[: len(a), 0] = a
    for j in range(1, m):
        M[1:, j] = M[:-1, j - 1]
        M[:, j] = (M[:, j] - M[m - 1, j - 1] * low) % n
    return M


def _poly_mul_mod(a: list[int], b: list[int], mod: list[int], p: int) -> list[int]:
    # mod is monic of degree m; a, b of degree < m; coefficients are taken
    # mod p, which Galois rings pass as p^l
    m = len(mod) - 1
    res = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                res[i + j] = (res[i + j] + ai * bj) % p
    for d in range(len(res) - 1, m - 1, -1):
        c = res[d]
        if c:
            res[d] = 0
            for j in range(m):
                res[d - m + j] = (res[d - m + j] - c * mod[j]) % p
    res = res[:m]
    while len(res) < m:
        res.append(0)
    return res


def _is_irreducible(coeffs: list[int], p: int) -> bool:
    """Rabin's test for a monic f of degree m over F_p (coeffs[i] is the
    coefficient of x^i): x^(p^m) = x mod f, and gcd(x^(p^(m/r)) - x, f) = 1
    for each prime r | m.  Frobenius y -> y^p is F_p-linear on F_p[x]/(f),
    with matrix Q whose column j is x^(pj), so x^(p^k) = Q^k x takes k
    matrix-vector steps."""
    m = len(coeffs) - 1
    if m == 1:
        return True
    X = _mul_matrix([0, 1], coeffs, p)
    x = X[:, 0]
    mul_xp = _mul_matrix(_mat_pow_mod(X, p, p)[:, 0], coeffs, p)
    Q = np.zeros_like(X)
    Q[0, 0] = 1
    for j in range(1, m):
        Q[:, j] = mul_xp @ Q[:, j - 1] % p
    powers = [x]  # x^(p^k), k = 0..m
    for _ in range(m):
        powers.append(Q @ powers[-1] % p)
    if (powers[m] != x).any():
        return False
    for r in primefactors(m):
        # gcd(x^(p^(m/r)) - x, f) must be 1
        diff = ((powers[m // r] - x) % p).tolist()
        if _poly_gcd_is_nonconst(diff, coeffs, p):
            return False
    return True


def _poly_gcd_is_nonconst(a: list[int], f: list[int], p: int) -> bool:
    def trim(u):
        u = list(u)
        while u and u[-1] == 0:
            u.pop()
        return u

    def pmod(u, v):
        u = list(u)
        inv = pow(v[-1], -1, p)
        while len(u) >= len(v):
            c = u[-1] * inv % p
            if c:
                for j in range(len(v)):
                    u[len(u) - len(v) + j] = (u[len(u) - len(v) + j] - c * v[j]) % p
            u.pop()
            u = trim(u)
            if not u:
                return u
        return u

    a, b = trim(f), trim(a)
    while b:
        a, b = b, pmod(a, b)
    return len(a) > 1


@lru_cache(maxsize=128)
def smallest_irreducible(p: int, m: int) -> tuple[int, ...]:
    """Monic irreducible of degree m over F_p, minimal in the base-p
    integer encoding of its non-leading coefficients.  A candidate with a
    root in F_p is reducible, so Rabin's test runs only on the others."""
    if m == 1:
        return (0, 1)
    xs = np.arange(p, dtype=np.int64)
    for code in range(p**m):
        coeffs = _code_to_coeffs(code, p, m) + [1]
        values = np.zeros(p, dtype=np.int64)
        for c in reversed(coeffs):
            values = (values * xs + c) % p
        if values.all() and _is_irreducible(coeffs, p):
            return tuple(coeffs)
    raise RuntimeError("no irreducible found")  # pragma: no cover


class FiniteField:
    """F_{p^m}; also usable directly as a Witt coefficient ring.

    Ring-protocol methods (add, mul, neg, pow, ...) act on integer codes.
    """

    def __init__(self, p: int, m: int, modulus: tuple[int, ...] | None = None):
        if not isprime(p):
            raise ValueError(f"p={p} is not prime")
        if m < 1:
            raise ValueError("m must be >= 1")
        q = p**m
        if q > FIELD_SIZE_CAP:
            raise FieldCapError(f"field size {q} exceeds cap {FIELD_SIZE_CAP}")
        self.p = p
        self.m = m
        self.q = q
        self.char = p
        if modulus is None:
            modulus = smallest_irreducible(p, m)
        else:
            modulus = tuple(c % p for c in modulus)
            if len(modulus) != m + 1 or modulus[-1] != 1:
                raise ValueError("modulus must be monic of degree m")
            if not _is_irreducible(list(modulus), p):
                raise ValueError("modulus is reducible")
        self.modulus = modulus
        self._build_tables()

    # -- table construction ------------------------------------------------

    def _build_tables(self):
        p, m, q = self.p, self.m, self.q
        mod = self.modulus
        # find a generator of the multiplicative group: c is one when
        # c^((q-1)/r) != 1 for every prime r | q - 1, the power read off the
        # first column of a power of c's multiplication matrix
        factors = primefactors(q - 1) if q > 2 else []
        one = [1] + [0] * (m - 1)
        mul_gen = None
        for cand in range(p if m > 1 else 2, q):
            M = _mul_matrix(_code_to_coeffs(cand, p, m), mod, p)
            if all((_mat_pow_mod(M, (q - 1) // r, p)[:, 0] != one).any() for r in factors):
                mul_gen = M
                break
        if mul_gen is None:  # q == 2
            mul_gen = _mul_matrix([1], mod, p)
        # powers of the generator as the orbit of 1 under x -> gen * x,
        # a linear map on coefficient vectors (column j = gen * x^j)
        weights = p ** np.arange(m, dtype=np.int64)
        exp = np.empty(q - 1, dtype=np.int64)
        k = 0
        for block in _linear_orbit(mul_gen, one, q - 1, p):
            exp[k : k + len(block)] = block @ weights
            k += len(block)
        log = np.full(q, -1, dtype=np.int64)
        log[exp] = np.arange(q - 1)
        exp.flags.writeable = log.flags.writeable = False
        self.exp, self.log = exp, log
        # scalar views of the same buffers: indexing one gives a Python int
        self._expv, self._logv = memoryview(exp), memoryview(log)
        self.generator = self._expv[1] if q > 2 else 1
        self.zech = self._zechv = None
        if p != 2:
            # zech[k] = log(1 + g^k); -1 where 1 + g^k == 0, since log[0] == -1
            c0 = exp % p
            self.zech = log[exp - c0 + (c0 + 1) % p]
            self.zech.flags.writeable = False
            self._zechv = memoryview(self.zech)
            self._half = (q - 1) // 2

    # -- ring protocol on integer codes ------------------------------------

    def zero(self) -> int:
        return 0

    def one(self) -> int:
        return 1

    def from_int(self, n: int) -> int:
        return n % self.p

    def is_zero(self, a: int) -> bool:
        return a == 0

    def eq(self, a: int, b: int) -> bool:
        return a == b

    def add(self, a: int, b: int) -> int:
        if self.p == 2:
            return a ^ b
        if a == 0:
            return b
        if b == 0:
            return a
        i, j = self._logv[a], self._logv[b]
        d = (j - i) % (self.q - 1)
        z = self._zechv[d]
        if z < 0:
            return 0
        return self._expv[(i + z) % (self.q - 1)]

    def neg(self, a: int) -> int:
        if self.p == 2 or a == 0:
            return a
        return self._expv[(self._logv[a] + self._half) % (self.q - 1)]

    def sub(self, a: int, b: int) -> int:
        return self.add(a, self.neg(b))

    def mul(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        return self._expv[(self._logv[a] + self._logv[b]) % (self.q - 1)]

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("inverse of 0")
        return self._expv[-self._logv[a] % (self.q - 1)]

    def div(self, a: int, b: int) -> int:
        return self.mul(a, self.inv(b))

    # -- the same operations on numpy arrays of codes (or one scalar code)

    def add_array(self, a, b):
        a, b = np.asarray(a), np.asarray(b)
        if self.p == 2:
            return a ^ b
        n = self.q - 1
        la, lb = self.log[a], self.log[b]
        z = self.zech[(lb - la) % n]
        s = np.where(z < 0, 0, self.exp[(la + z) % n])
        return np.where(a == 0, b, np.where(b == 0, a, s))

    def mul_array(self, a, b):
        a, b = np.asarray(a), np.asarray(b)
        prod = self.exp[(self.log[a] + self.log[b]) % (self.q - 1)]
        return np.where((a == 0) | (b == 0), 0, prod)

    def pow(self, a: int, n: int) -> int:
        if a == 0:
            if n == 0:
                return 1
            if n < 0:
                raise ZeroDivisionError("0 to a negative power")
            return 0
        return self._expv[(self._logv[a] * n) % (self.q - 1)]

    def pth_root(self, a: int) -> int:
        """Unique b with b^p == a."""
        return self.pow(a, self.p ** (self.m - 1))

    def frobenius(self, a: int, times: int = 1) -> int:
        return self.pow(a, self.p**times)

    def elements(self):
        return range(self.q)

    def coeffs(self, a: int) -> list[int]:
        return _code_to_coeffs(a, self.p, self.m)

    def encode(self, coeffs) -> int:
        return _coeffs_to_code(coeffs, self.p)

    def __repr__(self):
        return f"FiniteField({self.p}, {self.m})"

    def __eq__(self, other):
        return (
            isinstance(other, FiniteField)
            and (self.p, self.m, self.modulus) == (other.p, other.m, other.modulus)
        )

    def __hash__(self):
        return hash((self.p, self.m, self.modulus))


class FieldEmbedding:
    """The embedding F_{p^m} -> F_{p^(m*d)} fixing F_p, determined by a
    chosen root of the small field's modulus in the big field."""

    def __init__(self, small: FiniteField, big: FiniteField):
        if small.p != big.p or big.m % small.m != 0:
            raise ValueError("no embedding: degree mismatch")
        self.small = small
        self.big = big
        self._root = self._find_root()
        self._powers = [1]
        for _ in range(small.m - 1):
            self._powers.append(big.mul(self._powers[-1], self._root))

    def _find_root(self) -> int:
        small, big = self.small, self.big
        if small.m == 1:
            return 1  # unused
        # roots of the small modulus lie in the subfield of order small.q,
        # i.e. among 0 and the powers of h = g^((Q-1)/(q-1))
        h = big._expv[(big.q - 1) // (small.q - 1)]
        cand = 1
        mod_codes = [c for c in small.modulus]  # prime-field codes
        for _ in range(small.q - 1):
            acc = 0
            for c in reversed(mod_codes):
                acc = big.add(big.mul(acc, cand), c)
            if acc == 0:
                return cand
            cand = big.mul(cand, h)
        raise RuntimeError("modulus has no root in extension")  # pragma: no cover

    def __call__(self, a: int) -> int:
        small, big = self.small, self.big
        if small.m == 1:
            return a
        acc = 0
        for c, rp in zip(small.coeffs(a), self._powers):
            if c:
                acc = big.add(acc, big.mul(c, rp))
        return acc


@lru_cache(maxsize=128)
def get_field(p: int, m: int) -> FiniteField:
    return FiniteField(p, m)


@lru_cache(maxsize=128)
def get_embedding(p: int, m: int, md: int) -> FieldEmbedding:
    return FieldEmbedding(get_field(p, m), get_field(p, md))


def extension(F: FiniteField, d: int):
    """(F_{q^d}, the embedding of F = F_q into it, or None when d = 1)."""
    if d == 1:
        return F, None
    emb = get_embedding(F.p, F.m, F.m * d)
    return emb.big, emb


@lru_cache(maxsize=128)
def get_embedding_over(p: int, m: int, mk: int, md: int):
    """An embedding F_{p^mk} -> F_{p^md} over F_{p^m}: on F_{p^m}, taken up
    by get_embedding(p, m, mk) (by nothing when mk = m), it agrees with
    get_embedding(p, m, md).  get_embedding(p, mk, md) need not, as each
    embedding picks its root on its own; the two differ by a power of
    Frobenius, found on a generator."""
    if mk == m:
        # get_embedding(p, m, m) need not be the identity: it sends x to the
        # first root of the modulus among the generator's powers
        return get_embedding(p, m, md)
    outer = get_embedding(p, mk, md)
    big = outer.big
    g = get_field(p, m).generator
    a, target = outer(get_embedding(p, m, mk)(g)), get_embedding(p, m, md)(g)
    j = next(j for j in range(m) if big.frobenius(a, j) == target)
    return lambda c: big.frobenius(outer(c), j)
