"""Witt vectors and Galois rings.

Walks through length-2 Witt arithmetic over F_2, shows that it reproduces
integer arithmetic in Z/4 through the digit isomorphism, and demonstrates
Teichmuller lifts and additive characters.
"""

from wittsums import CyclotomicInteger, WittParams, WittVector, get_field, get_galois_ring

F2 = get_field(2, 1)
params = WittParams(2, 2)

one = WittVector(params, F2, (1, 0))
print("Witt vectors of length 2 over F_2 encode the ring Z/4:")
print(f"  (1,0) + (1,0) = {(one + one).coords}   (the digits of 2 = V(1))")
three = WittVector(params, F2, (1, 1))
print(f"  (1,1) * (1,1) = {(three * three).coords}   (3 * 3 = 9 = 1 mod 4)")
print(f"  V(1,1) = {three.verschiebung().coords},  F(1,1) = {three.frobenius().coords}")
print(f"  p*(1,0) = VF(1,0) = {one.verschiebung().frobenius().coords}")
print()

Z4 = get_galois_ring(2, 2, 1)
print("The digit map w: GR(4,1) = Z/4 -> W_2(F_2) is a ring isomorphism:")
for x in Z4.elements():
    print(f"  w({x[0]}) = {Z4.witt_digits(x)}")
print()

R = get_galois_ring(2, 2, 2)
print("GR(4,2) = Z/4[x]/(x^2+x+1): Teichmuller lifts satisfy t^4 = t:")
for a in R.residue_field.elements():
    t = R.teichmuller(a)
    print(f"  [{a}] = {t},  [{a}]^4 = {R.pow(t, 4)}")
print()

alpha = R.element((0, 1))
tr = R.absolute_trace(alpha)
psi_alpha = CyclotomicInteger.zeta_pow(2, 2, tr)  # psi(x) = i^Tr(x)
print(f"Absolute trace of alpha in GR(4,2): {tr}")
print(f"psi(alpha) as an exact cyclotomic integer: {psi_alpha}")
print(f"  complex value: {psi_alpha.complex_value():.4f}  (= -i)")
