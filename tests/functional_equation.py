"""The functional equation of an L-polynomial, as a test-only oracle.

Let L(T) = sum_j c_j T^j have degree D over F_q, with every inverse root of
modulus sqrt(q).  Then conj(alpha) = q/alpha for each inverse root alpha,
and q^j c_(D-j) = c_D conj(c_j) for 0 <= j <= D, exactly in Z[zeta_(p^l)]
(Rosen, Number Theory in Function Fields, GTM 210).  The identity does not
imply |alpha| = sqrt(q), so the float moduli checks stay beside it.
"""


def functional_equation_holds(result, q: int) -> bool:
    """Whether the claimed L-polynomial of an `LFunctionResult` satisfies
    q^j c_(D-j) = c_D conj(c_j) for every j, conj being zeta -> zeta^-1."""
    D = result.claimed_degree
    c = result.coefficients
    n = c[0].p ** c[0].l
    return all(c[D - j] * q**j == c[D] * c[j].conjugate_power(n - 1) for j in range(D + 1))
