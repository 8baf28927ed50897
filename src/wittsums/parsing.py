"""Input grammars for the command line: arithmetic expressions over named
variables, Witt-vector component lists, polynomials in T over a Galois
ring, and Weierstrass curve specifications.

Expressions use `^` or `**` for powers and the usual +, -, *, / and
parentheses; integer literals are mapped into the target ring.  Polynomials
in T and curve equations have integer coefficients, so both are read as
integer polynomials (`_IntPoly`), which refuse division, and then mapped
into their ring or field.
"""

from __future__ import annotations

import ast
from itertools import repeat
from operator import itemgetter

import numpy as np

from .elliptic import EllipticCurve, EllipticFunction
from .fields import FiniteField
from .galois_rings import GaloisRing
from .rational import ENUMERATION_CAP, EnumerationCapError, RationalFunction
from .poly import power
from .witt import _padd, _pmul


class ParseError(ValueError):
    pass


def _eval_node(node, env, from_int):
    if isinstance(node, ast.Expression):
        return _eval_node(node.body, env, from_int)
    if isinstance(node, ast.Constant):
        if isinstance(node.value, int):
            return from_int(node.value)
        raise ParseError(f"unsupported literal {node.value!r}")
    if isinstance(node, ast.Name):
        try:
            return env[node.id]
        except KeyError:
            raise ParseError(f"unknown variable {node.id!r}") from None
    if isinstance(node, ast.UnaryOp):
        v = _eval_node(node.operand, env, from_int)
        if isinstance(node.op, ast.USub):
            return -v
        if isinstance(node.op, ast.UAdd):
            return v
        raise ParseError("unsupported unary operator")
    if isinstance(node, ast.BinOp):
        if isinstance(node.op, ast.Pow):
            base = _eval_node(node.left, env, from_int)
            if not (isinstance(node.right, ast.Constant) and isinstance(node.right.value, int)) and not (
                isinstance(node.right, ast.UnaryOp)
                and isinstance(node.right.op, ast.USub)
                and isinstance(node.right.operand, ast.Constant)
            ):
                raise ParseError("exponents must be integer literals")
            if isinstance(node.right, ast.UnaryOp):
                exp = -node.right.operand.value
            else:
                exp = node.right.value
            return base**exp
        a = _eval_node(node.left, env, from_int)
        b = _eval_node(node.right, env, from_int)
        if isinstance(node.op, ast.Add):
            return a + b
        if isinstance(node.op, ast.Sub):
            return a - b
        if isinstance(node.op, ast.Mult):
            return a * b
        if isinstance(node.op, ast.Div):
            return a / b
        raise ParseError("unsupported binary operator")
    raise ParseError(f"unsupported syntax element {type(node).__name__}")


def parse_expression(text: str, env: dict, from_int):
    """Evaluate an arithmetic expression with the given variable bindings."""
    src = text.replace("^", "**").strip()
    if not src:
        raise ParseError("empty expression")
    try:
        tree = ast.parse(src, mode="eval")
    except SyntaxError as exc:
        raise ParseError(f"cannot parse {text!r}: {exc}") from None
    try:
        return _eval_node(tree, env, from_int)
    except ZeroDivisionError:
        raise ParseError(f"division by zero in {text!r}") from None


def split_components(text: str) -> list[str]:
    """Split a parenthesized comma-separated vector into component strings."""
    s = text.strip()
    if not (s.startswith("(") and s.endswith(")")):
        raise ParseError(f"expected a parenthesized vector, got {text!r}")
    body = s[1:-1]
    parts, depth, cur = [], 0, []
    for ch in body:
        if ch == "," and depth == 0:
            parts.append("".join(cur))
            cur = []
            continue
        if ch in "([":
            depth += 1
        elif ch in ")]":
            depth -= 1
        cur.append(ch)
    parts.append("".join(cur))
    if any(not part.strip() for part in parts):
        raise ParseError(f"empty component in {text!r}")
    return parts


def parse_rational_vector(text: str, field: FiniteField) -> list[RationalFunction]:
    env = {"x": RationalFunction.x(field)}

    def from_int(n):
        return RationalFunction.const(field, field.from_int(n))

    return [parse_expression(c, env, from_int) for c in split_components(text)]


def parse_elliptic_vector(text: str, curve: EllipticCurve) -> list[EllipticFunction]:
    env = {"x": EllipticFunction.x(curve), "y": EllipticFunction.y(curve)}

    def from_int(n):
        return EllipticFunction.const(curve, curve.field.from_int(n))

    return [parse_expression(c, env, from_int) for c in split_components(text)]


def parse_field_vector(text: str, field: FiniteField) -> list[int]:
    """Witt coordinates given as integer field codes."""
    out = []
    for part in split_components(text):
        try:
            code = int(part.strip())
        except ValueError:
            raise ParseError(f"expected an integer field code, got {part!r}") from None
        if not 0 <= code < field.q:
            raise ParseError(f"field code {code} out of range for F_{field.q}")
        out.append(code)
    return out


def _array_product(u: np.ndarray, v: np.ndarray, mod: int) -> np.ndarray:
    """u * v mod `mod` for coefficient arrays reduced mod `mod`, of either
    dtype: u times each nonzero entry of v, added at its exponent, with
    trailing zeros cut.  A coefficient of the product sums at most n
    products of reduced coefficients, n the nonzero entries of v, so int64
    holds it exactly while n (mod - 1)^2 is below 2^63; past that the
    arrays hold Python ints."""
    exponents = np.flatnonzero(v)
    dtype = np.int64 if len(exponents) * (mod - 1) ** 2 < 2**63 else object
    u = u.astype(dtype, copy=False)
    out = np.zeros(len(u) + len(v) - 1, dtype=dtype)
    for k, c in zip(exponents.tolist(), v[exponents].tolist()):
        out[k:k + len(u)] += c * u
    out %= mod
    return np.trim_zeros(out, "b")


class _IntPoly:
    """Integer polynomial in x, y, reduced mod `mod` after every operation,
    for reading curve equations and, with T in place of x, polynomials over
    a Galois ring.  Its terms are a dict from (deg_x, deg_y) to an int.  A
    product in the first variable alone that numpy forms is kept as its
    coefficient array, and the dict is built when the terms are read, so a
    power such as (T+1)^65535 builds one dict, not one per step.  A power
    of degree past `max_deg` is refused before it is taken."""

    __slots__ = ("_terms", "_coeffs", "mod", "max_deg")

    def __init__(self, terms, mod: int, max_deg: float = float("inf")):
        """terms: a dict, or a coefficient array in the first variable
        alone, reduced mod `mod` and without trailing zeros."""
        if isinstance(terms, np.ndarray):
            self._terms, self._coeffs = None, terms
        else:
            self._terms, self._coeffs = {e: c % mod for e, c in terms.items() if c % mod}, None
        self.mod, self.max_deg = mod, max_deg

    @property
    def terms(self) -> dict:
        if self._terms is None:
            nonzero = np.flatnonzero(self._coeffs)
            self._terms = dict(zip(zip(nonzero.tolist(), repeat(0)), self._coeffs[nonzero].tolist()))
        return self._terms

    def _size(self):
        """(nonzero terms, degree) when the polynomial is nonzero and in
        the first variable alone, else None."""
        if self._coeffs is not None:
            return int(np.count_nonzero(self._coeffs)), len(self._coeffs) - 1
        t = self._terms
        if t and not any(map(itemgetter(1), t)):
            return len(t), max(t)[0]
        return None

    def _array(self) -> np.ndarray:
        """The coefficient array; built from the dict in Python ints, since
        `_array_product` picks the dtype of a product."""
        if self._coeffs is None:
            t = self._terms
            self._coeffs = np.zeros(max(t)[0] + 1, dtype=object)
            self._coeffs[[k for k, _ in t]] = list(t.values())
        return self._coeffs

    def __add__(self, other):
        return _IntPoly(_padd(self.terms, other.terms), self.mod, self.max_deg)

    def __sub__(self, other):
        return _IntPoly(_padd(self.terms, other.terms, -1), self.mod, self.max_deg)

    def __neg__(self):
        return _IntPoly(_padd({}, self.terms, -1), self.mod, self.max_deg)

    def __mul__(self, other):
        """On coefficient arrays when both factors are in the first
        variable alone and the shifted adds, (deg u + 1) steps per term of
        the factor v of fewer terms plus one per entry of the product, take
        fewer numpy steps than 64 times the Python steps of the dict
        product, one per pair of terms.  No array is built past that."""
        a, b = self._size(), other._size()
        if a and b:
            u, v = (self, other) if a >= b else (other, self)
            (nu, du), (nv, dv) = max(a, b), min(a, b)
            if nv * (du + 1) + du + dv + 1 <= 64 * nu * nv:
                product = _array_product(u._array(), v._array(), self.mod)
                return _IntPoly(product if len(product) else {}, self.mod, self.max_deg)
        return _IntPoly(_pmul(self.terms, other.terms), self.mod, self.max_deg)

    def __pow__(self, n):
        if n < 0:
            raise ParseError("negative powers are not polynomials")
        if n * max(map(sum, self.terms), default=0) > self.max_deg:
            raise EnumerationCapError(f"a power of degree above the cap {self.max_deg}")
        return power(self, n, _IntPoly({(0, 0): 1}, self.mod, self.max_deg))

    def __truediv__(self, other):
        raise ParseError("division is not allowed in a polynomial")


def _parse_int_poly(text: str, names: str, mod: int, max_deg: float = float("inf")) -> dict:
    """The terms of an integer polynomial in one or two variables, mod `mod`."""
    env = {v: _IntPoly({e: 1}, mod, max_deg) for v, e in zip(names, ((1, 0), (0, 1)))}
    return parse_expression(text, env, lambda n: _IntPoly({(0, 0): n}, mod, max_deg)).terms


def parse_gr_polynomial(text: str, ring: GaloisRing) -> list:
    """Coefficient list (constant first) of a polynomial in T over GR, with
    its integer coefficients mapped into the prime subring Z/p^l.

    The list has degree + 1 entries: when q * (degree + 1) passes
    ENUMERATION_CAP the polynomial is refused before the list is built."""
    q = ring.residue_field.q
    terms = _parse_int_poly(text, "T", ring.pl, ENUMERATION_CAP // q - 1)
    deg = max((k for k, _ in terms), default=0)
    if q * (deg + 1) > ENUMERATION_CAP:
        raise EnumerationCapError(
            f"Teichmuller sum of degree {deg} over F_{q} "
            f"exceeds the enumeration cap {ENUMERATION_CAP}"
        )
    return [ring.from_int(terms.get((k, 0), 0)) for k in range(deg + 1)]


def parse_curve(text: str, field: FiniteField) -> EllipticCurve:
    """A long Weierstrass equation, e.g. 'y^2 + y = x^3 + x + 1'."""
    if "=" not in text:
        raise ParseError("curve specification needs '='")
    lhs, rhs = text.split("=", 1)
    p = field.p
    coeff = _padd(_parse_int_poly(lhs, "xy", p), _parse_int_poly(rhs, "xy", p), -1)
    allowed = {(0, 2), (1, 1), (0, 1), (3, 0), (2, 0), (1, 0), (0, 0)}
    if set(coeff) - allowed:
        raise ParseError("not a Weierstrass equation")
    if coeff.get((0, 2), 0) % p != 1 or (-coeff.get((3, 0), 0)) % p != 1:
        raise ParseError("equation must be monic in y^2 and x^3")
    a1 = coeff.get((1, 1), 0) % p
    a3 = coeff.get((0, 1), 0) % p
    a2 = (-coeff.get((2, 0), 0)) % p
    a4 = (-coeff.get((1, 0), 0)) % p
    a6 = (-coeff.get((0, 0), 0)) % p
    return EllipticCurve(
        field,
        field.from_int(a1),
        field.from_int(a2),
        field.from_int(a3),
        field.from_int(a4),
        field.from_int(a6),
    )


def parse_ints(text: str, n: int, option: str) -> list[int]:
    """The n comma-separated integers of an option's text (None if not given)."""
    parts = text.split(",") if text else []
    if len(parts) != n:
        raise ParseError(f"{option} needs {n} comma-separated integers, got {text!r}")
    try:
        return [int(t) for t in parts]
    except ValueError:
        raise ParseError(f"{option} needs integers, got {text!r}") from None
