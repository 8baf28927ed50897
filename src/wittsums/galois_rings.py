"""Galois rings GR(p^l, m), Teichmuller lifts, traces and additive characters.

Elements are tuples of m integers modulo p^l (coefficients of the residue
polynomial).  The modulus is the coefficient-wise integer lift of the
residue field's irreducible modulus, so reduction mod p and the Witt-digit
isomorphism are compatible by construction.
"""

from __future__ import annotations

from functools import lru_cache

from .cyclotomic import CyclotomicInteger
from .fields import FieldEmbedding, FiniteField, get_embedding, get_field
from .witt import WittParams, WittVector


class GaloisRing:
    def __init__(self, p: int, l: int, m: int):
        WittParams(p, l)  # validates p prime, 1 <= l <= cap
        self.p = p
        self.l = l
        self.m = m
        self.pl = p**l
        self.size = p ** (l * m)
        self.residue_field: FiniteField = get_field(p, m)
        self.modulus = tuple(c % self.pl for c in self.residue_field.modulus)
        self._teich_cache: dict[int, tuple[int, ...]] = {}
        self._frob_basis = None  # images of the basis powers, built on first use

    # -- element helpers

    def zero(self):
        return (0,) * self.m

    def one(self):
        return (1,) + (0,) * (self.m - 1)

    def from_int(self, n: int):
        return (n % self.pl,) + (0,) * (self.m - 1)

    def element(self, coeffs):
        c = [x % self.pl for x in coeffs]
        if len(c) > self.m:
            raise ValueError("too many coefficients")
        c += [0] * (self.m - len(c))
        return tuple(c)

    def is_zero(self, x) -> bool:
        return all(c == 0 for c in x)

    def eq(self, x, y) -> bool:
        return x == y

    # -- ring operations

    def add(self, x, y):
        return tuple((a + b) % self.pl for a, b in zip(x, y))

    def sub(self, x, y):
        return tuple((a - b) % self.pl for a, b in zip(x, y))

    def neg(self, x):
        return tuple(-a % self.pl for a in x)

    def mul(self, x, y):
        pl, m = self.pl, self.m
        res = [0] * (2 * m - 1)
        for i, a in enumerate(x):
            if a:
                for j, b in enumerate(y):
                    res[i + j] = (res[i + j] + a * b) % pl
        for d in range(2 * m - 2, m - 1, -1):
            c = res[d]
            if c:
                res[d] = 0
                for j in range(m):
                    res[d - m + j] = (res[d - m + j] - c * self.modulus[j]) % pl
        return tuple(res[:m])

    def pow(self, x, n: int):
        if n < 0:
            return self.pow(self.inv(x), -n)
        res = self.one()
        base = x
        while n:
            if n & 1:
                res = self.mul(res, base)
            base = self.mul(base, base)
            n >>= 1
        return res

    def inv(self, x):
        """Inverse of a unit (reduction mod p nonzero), by Hensel lifting."""
        F = self.residue_field
        a0 = self.reduce_mod_p(x)
        if a0 == 0:
            raise ZeroDivisionError("element is not a unit")
        z = self.element(F.coeffs(F.inv(a0)))
        # z <- z(2 - xz) doubles p-adic precision each round
        two = self.from_int(2)
        k = 1
        while k < self.l:
            z = self.mul(z, self.sub(two, self.mul(x, z)))
            k *= 2
        return z

    def scalar_mul(self, n: int, x):
        return tuple(n * a % self.pl for a in x)

    # -- reduction, Teichmuller, Witt digits

    def reduce_mod_p(self, x) -> int:
        """Image in the residue field, as a field code."""
        return self.residue_field.encode(a % self.p for a in x)

    def teichmuller(self, a: int):
        """The unique lift of field element a fixed by x -> x^(p^m)."""
        t = self._teich_cache.get(a)
        if t is not None:
            return t
        x = self.element(self.residue_field.coeffs(a))
        q = self.residue_field.q
        for _ in range(2 * self.l):
            nxt = self.pow(x, q)
            if nxt == x:
                break
            x = nxt
        else:
            raise RuntimeError("Teichmuller iteration did not stabilize")  # pragma: no cover
        self._teich_cache[a] = x
        return x

    def teichmuller_set(self):
        """All p^m fixed points of x -> x^(p^m), ordered by field code."""
        return [self.teichmuller(a) for a in self.residue_field.elements()]

    def witt_digits(self, x) -> tuple[int, ...]:
        """Witt coordinates (a_0, ..., a_{l-1}) of x under the canonical
        isomorphism w: GR(p^l, m) -> W_l(F_{p^m}).

        The naive Teichmuller digit d_i (from x = sum p^i [d_i]) carries a
        Frobenius twist: a_i = d_i^(p^i).  Without it, w fails to be a ring
        homomorphism for m > 1.
        """
        F = self.residue_field
        v = list(x)
        digits = []
        mod = self.pl
        for i in range(self.l):
            d = F.encode(c % self.p for c in v)
            digits.append(F.frobenius(d, times=i))
            if i == self.l - 1:
                break
            t = self.teichmuller(d)
            v = [((c - tc) % mod) // self.p for c, tc in zip(v, t)]
            mod //= self.p
        return tuple(digits)

    def from_digits(self, digits):
        F = self.residue_field
        acc = self.zero()
        ppow = 1
        for i, a in enumerate(digits):
            d = F.pow(a, F.p ** ((F.m - 1) * i))  # inverse Frobenius, i times
            acc = self.add(acc, self.scalar_mul(ppow, self.teichmuller(d)))
            ppow *= self.p
        return acc

    def to_witt(self, x) -> WittVector:
        return WittVector(WittParams(self.p, self.l), self.residue_field, self.witt_digits(x))

    def from_witt(self, w: WittVector):
        if w.ring != self.residue_field:
            raise ValueError("Witt vector over a different residue field")
        return self.from_digits(w.coords)

    # -- Frobenius and traces

    def frobenius(self, x, times: int = 1):
        """The Frobenius generating Gal(GR/Z_{p^l}): p-th power on digits.

        It fixes Z/p^l, so it is the Z/p^l-linear map sending the basis
        power x^j to phi^j, phi the image of x; phi is found once, on the
        digits of x."""
        if self._frob_basis is None:
            F = self.residue_field
            gen = self.element([0, 1]) if self.m > 1 else self.one()
            phi = self.from_digits(F.frobenius(a) for a in self.witt_digits(gen))
            basis = [self.one()]
            for _ in range(self.m - 1):
                basis.append(self.mul(basis[-1], phi))
            self._frob_basis = basis
        pl = self.pl
        for _ in range(times % self.m):  # the Frobenius has order m
            acc = [0] * self.m
            for c, image in zip(x, self._frob_basis):
                if c:
                    acc = [(a + c * b) % pl for a, b in zip(acc, image)]
            x = tuple(acc)
        return x

    def absolute_trace(self, x) -> int:
        """Trace down to Z/p^l, returned as an int in [0, p^l)."""
        acc = self.zero()
        cur = x
        for _ in range(self.m):
            acc = self.add(acc, cur)
            cur = self.frobenius(cur)
        if any(acc[1:]):
            raise ArithmeticError("trace left the prime subring")
        return acc[0]

    def additive_character(self, b=None):
        """psi_b(x) = zeta^(Tr(b*x)); b defaults to 1."""
        if b is None:
            b = self.one()

        def psi(x):
            t = self.absolute_trace(self.mul(b, x))
            return CyclotomicInteger.zeta_pow(self.p, self.l, t)

        return psi

    def elements(self):
        """Iterate all p^(lm) elements (desk scale only)."""
        import itertools

        return (
            tuple(t) for t in itertools.product(range(self.pl), repeat=self.m)
        )

    def __eq__(self, other):
        return isinstance(other, GaloisRing) and (self.p, self.l, self.m) == (
            other.p,
            other.l,
            other.m,
        )

    def __hash__(self):
        return hash(("GaloisRing", self.p, self.l, self.m))

    def __repr__(self):
        return f"GaloisRing(p={self.p}, l={self.l}, m={self.m})"


class GaloisRingEmbedding:
    """GR(p^l, m) -> GR(p^l, m*d), compatible with Teichmuller digits and
    with the chosen residue-field embedding."""

    def __init__(self, small: GaloisRing, big: GaloisRing):
        if (small.p, small.l) != (big.p, big.l) or big.m % small.m != 0:
            raise ValueError("no embedding between these rings")
        self.small = small
        self.big = big
        self.field_embedding: FieldEmbedding = get_embedding(small.p, small.m, big.m)
        self._root = self._hensel_root()
        self._powers = [big.one()]
        for _ in range(small.m - 1):
            self._powers.append(big.mul(self._powers[-1], self._root))
        self._trace_solver = None

    def _hensel_root(self):
        small, big = self.small, self.big
        if small.m == 1:
            return big.one()  # unused
        # lift the residue-field root of the small modulus into the big ring
        r = big.element(big.residue_field.coeffs(self.field_embedding._root))
        M = list(small.modulus)  # integer coefficients

        def evalM(x):
            acc = big.zero()
            for c in reversed(M):
                acc = big.add(big.mul(acc, x), big.from_int(c))
            return acc

        def evalMprime(x):
            acc = big.zero()
            for i in range(len(M) - 1, 0, -1):
                acc = big.add(big.mul(acc, x), big.from_int(i * M[i]))
            return acc

        for _ in range(small.l + 1):
            fx = evalM(r)
            if big.is_zero(fx):
                return r
            r = big.sub(r, big.mul(fx, big.inv(evalMprime(r))))
        if not big.is_zero(evalM(r)):
            raise ArithmeticError("Hensel lifting did not converge to a root")
        return r

    def __call__(self, x):
        big = self.big
        if self.small.m == 1:
            return big.from_int(x[0])
        acc = big.zero()
        for c, rp in zip(x, self._powers):
            if c:
                acc = big.add(acc, big.scalar_mul(c, rp))
        return acc

    def relative_frobenius(self, y):
        """Generator of Gal(big/small): p^m-th power on Teichmuller digits."""
        return self.big.frobenius(y, times=self.small.m)

    def trace(self, y):
        """Trace from the big ring down to the small one."""
        d = self.big.m // self.small.m
        acc = self.big.zero()
        cur = y
        for _ in range(d):
            acc = self.big.add(acc, cur)
            cur = self.relative_frobenius(cur)
        return self.section(acc)

    def section(self, y):
        """Express an element of the image back in small-ring coordinates."""
        if self.small.m == 1:
            if any(y[1:]):
                raise ArithmeticError("element not in the prime subring")
            return (y[0],)
        if self._trace_solver is None:
            self._trace_solver = _LinearSection(
                [self(e) for e in _standard_basis(self.small)], self.big
            )
        coords = self._trace_solver.solve(y)
        return tuple(coords)


def _standard_basis(ring: GaloisRing):
    out = []
    for i in range(ring.m):
        v = [0] * ring.m
        v[i] = 1
        out.append(tuple(v))
    return out


class _LinearSection:
    """Solve A c = y over Z/p^l where A's columns are the embedded basis."""

    def __init__(self, columns, big: GaloisRing):
        self.big = big
        self.pl = big.pl
        self.p = big.p
        rows = big.m
        cols = len(columns)
        # row-reduce [A | I] choosing unit pivots
        A = [[columns[j][i] for j in range(cols)] for i in range(rows)]
        self.A = [row[:] for row in A]
        ops = [[1 if i == j else 0 for j in range(rows)] for i in range(rows)]
        piv = []
        r = 0
        for c in range(cols):
            sel = None
            for i in range(r, rows):
                if A[i][c] % self.p != 0:
                    sel = i
                    break
            if sel is None:
                raise ArithmeticError("embedding matrix not full rank")
            A[r], A[sel] = A[sel], A[r]
            ops[r], ops[sel] = ops[sel], ops[r]
            inv = pow(A[r][c], -1, self.pl)
            A[r] = [a * inv % self.pl for a in A[r]]
            ops[r] = [a * inv % self.pl for a in ops[r]]
            for i in range(rows):
                if i != r and A[i][c]:
                    f = A[i][c]
                    A[i] = [(a - f * b) % self.pl for a, b in zip(A[i], A[r])]
                    ops[i] = [(a - f * b) % self.pl for a, b in zip(ops[i], ops[r])]
            piv.append(c)
            r += 1
        self.ops = ops
        self.ncols = cols

    def solve(self, y):
        pl = self.pl
        sol = []
        for r in range(self.ncols):
            sol.append(sum(o * yy for o, yy in zip(self.ops[r], y)) % pl)
        # consistency: remaining rows must vanish
        for r in range(self.ncols, len(self.ops)):
            v = sum(o * yy for o, yy in zip(self.ops[r], y)) % pl
            if v:
                raise ArithmeticError("element not in the embedded subring")
        return sol


@lru_cache(maxsize=128)
def get_galois_ring(p: int, l: int, m: int) -> GaloisRing:
    return GaloisRing(p, l, m)


@lru_cache(maxsize=128)
def get_gr_embedding(p: int, l: int, m: int, md: int) -> GaloisRingEmbedding:
    return GaloisRingEmbedding(get_galois_ring(p, l, m), get_galois_ring(p, l, md))
