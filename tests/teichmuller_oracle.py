"""The per-point Teichmuller-set sum: the oracle for `sum_teichmuller`.

It evaluates f at every Teichmuller point by Horner's rule in the Galois
ring and applies the additive character psi_b(x) = zeta^Tr(b x) to each
value, with no trace table and no folding of exponents.
"""

from wittsums import CyclotomicInteger


def additive_character(R, b=None):
    """psi_b(x) = zeta^(Tr(b*x)) on R = GR(p^l, m); b defaults to 1."""
    if b is None:
        b = R.one()

    def psi(x):
        t = R.absolute_trace(R.mul(b, x))
        return CyclotomicInteger.zeta_pow(R.p, R.l, t)

    return psi


def sum_teichmuller_pointwise(R, coeffs, twist=None) -> CyclotomicInteger:
    """Exact sum of psi_b(f(x)) over the Teichmuller subset of R, one point
    at a time."""
    coeffs = [R.from_int(c) if isinstance(c, int) else c for c in coeffs]
    psi = additive_character(R, twist)
    acc = CyclotomicInteger.zero(R.p, R.l)
    for x in (R.teichmuller(a) for a in R.residue_field.elements()):
        val = R.zero()
        for c in reversed(coeffs):
            val = R.add(R.mul(val, x), c)
        acc = acc + psi(val)
    return acc
