"""Artin reduction, conductors, and L-functions.

A Witt vector of rational functions defines a character on the points of the
projective line.  Local Artin reduction normalizes its pole orders, the
conductor collects them, and the resulting L-function is a polynomial whose
inverse roots all have modulus p^(m/2).
"""

from wittsums import (
    FinitePlace,
    Poly,
    RationalFunction,
    RationalFunctionField,
    artin_reduce_at,
    conductor,
    get_field,
    l_function,
    reduced_pole_order,
    witt_function,
)

F2 = get_field(2, 1)
K = RationalFunctionField(F2)
x = RationalFunction.x(F2)
zero = RationalFunction.zero(F2)
px = FinitePlace(Poly(F2, (0, 1)))

print("Artin reduction at the place (x) over F_2(x), length 2, in t = x:")
f = witt_function(K, (x ** (-2), zero))
rf = artin_reduce_at(f, px)
lead = ["O(t)" if t is None or t[0] > 0 else f"{t[1]}*t^{t[0]} + ..." for t in rf.terms]
print(f"  (x^-2, 0)  reduces to  ({', '.join(lead)})")
print(f"  a pole was removed: {rf.stepped}")
print(f"  reduced pole order rp = {reduced_pole_order(f, px)}")
print()

print("Conductors (pole orders weighted by p-powers, plus one):")
for coords, name in [
    ((x, zero), "(x, 0)"),
    ((x**3, zero), "(x^3, 0)"),
    ((x, x**3), "(x, x^3)"),
]:
    c = conductor(witt_function(K, coords))
    print(f"  f = {name:10s} conductor degree {c.degree}")
print()

print("L-function of f = (x, 0): degree = conductor degree - 2 = 1")
res = l_function(witt_function(K, (x, zero)))
print(f"  coefficients: {[str(c) for c in res.coefficients[: res.claimed_degree + 1]]}")
print(f"  trailing coefficients vanish exactly: {res.trailing_zero}")
print(f"  inverse root moduli: {[float(round(r, 6)) for r in res.inverse_root_moduli]}")
print()

print("A degree-5 example, f = (x^3, 0): all inverse roots on |z| = sqrt 2")
res5 = l_function(witt_function(K, (x**3, zero)))
print(f"  degree {res5.claimed_degree}, conductor degree {res5.conductor_degree}")
for r in res5.inverse_root_moduli:
    print(f"  |inverse root| = {r:.8f}")
