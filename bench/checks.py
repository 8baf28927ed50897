"""Output oracles.

Every check here is an independent computation or a property the
mathematics forces; none compares against a stored copy of earlier output,
and none imports `wittsums`.  Each returns None when the output is right and
a short reason when it is not.
"""

from __future__ import annotations

import numpy as np

# -- exact arithmetic in Z[zeta_n], n = p^l ----------------------------------------
#
# Elements are integer coefficient lists in the power basis 1, z, ...,
# z^(phi-1), phi = p^(l-1)(p-1), as `CyclotomicInteger.coeffs` stores them.


def _cyclotomic_poly(p: int, l: int) -> list:
    """Phi_{p^l}(X) = sum_{i<p} X^(i p^(l-1)), lowest degree first."""
    step = p ** (l - 1)
    out = [0] * ((p - 1) * step + 1)
    for i in range(p):
        out[i * step] = 1
    return out


def _reduce(v: list, p: int, l: int) -> list:
    """Remainder of the polynomial v modulo the monic Phi_{p^l}."""
    phi_poly = _cyclotomic_poly(p, l)
    deg = len(phi_poly) - 1
    v = list(v)
    for top in range(len(v) - 1, deg - 1, -1):
        c = v[top]
        if c:
            shift = top - deg
            for j, a in enumerate(phi_poly):
                if a:
                    v[shift + j] -= c * a
    out = v[:deg] + [0] * max(0, deg - len(v))
    return out


def norm_to_real(c: list, p: int, l: int) -> list:
    """c * conj(c) in Z[zeta], conj sending zeta to zeta^(-1)."""
    n = p**l
    prod = [0] * n
    for i, a in enumerate(c):
        if not a:
            continue
        for j, b in enumerate(c):
            if b:
                prod[(i - j) % n] += a * b
    return _reduce(prod, p, l)


def _is_int(v: list, k: int) -> bool:
    return v[0] == k and not any(v[1:])


def check_l_polynomial(coeffs: list, p: int, l: int, q: int, degree: int):
    """coeffs[n] are the exact L-coefficients c_0 .. c_N.  The inverse roots
    of a pure L-polynomial of degree D have modulus sqrt(q), as do those of
    every Galois conjugate, so c_D * conj(c_D) = q^D exactly in Z[zeta];
    every coefficient past D is exactly 0."""
    if len(coeffs) < degree + 1:
        return f"only {len(coeffs)} coefficients for degree {degree}"
    if not _is_int(coeffs[0], 1):
        return "c_0 != 1"
    if any(any(c) for c in coeffs[degree + 1:]):
        return f"a coefficient past degree {degree} is nonzero"
    if not _is_int(norm_to_real(coeffs[degree], p, l), q**degree):
        return f"c_D * conj(c_D) != q^D for D = {degree}"
    return None


def last_nonzero(coeffs: list) -> int:
    """Degree read off the computed coefficients, i.e. from point counts."""
    return max(n for n, c in enumerate(coeffs) if any(c))


# -- lfun-p1 ---------------------------------------------------------------------------


def check_lfun_p1(job: dict, out: dict):
    p, m, D = job["p"], job["m"], job["D"]
    coeffs = out["coefficients"]
    if out["claimed_degree"] != D:
        return f"claimed degree {out['claimed_degree']} != {D}"
    if len(coeffs) != D + 3:
        return f"expected D + 2 = {D + 2} terms, got {len(coeffs) - 1}"
    return check_l_polynomial(coeffs, p, 2, p**m, D)


# -- genus1 ----------------------------------------------------------------------------


def cover_genus(p: int, truncation_conductors: list) -> int:
    """Conductor-discriminant formula over a genus-1 base.  The characters
    psi^t with v_p(t) = l - k are exactly those of the length-k truncation,
    and there are p^k - p^(k-1) of them."""
    total = sum(
        (p**k - p ** (k - 1)) * c for k, c in enumerate(truncation_conductors, 1)
    )
    if total % 2:
        return -1
    return total // 2 + 1


def check_genus1(job: dict, out: dict):
    p, l, k = job["p"], job["l"], job["lfun_len"]
    conds = out["conductors"]
    if len(conds) != l:
        return "missing truncation conductors"
    if out["genus"] != cover_genus(p, conds):
        return f"genus {out['genus']} != conductor-discriminant {cover_genus(p, conds)}"
    coeffs = out["coefficients"]
    D = last_nonzero(coeffs)
    # g = 1: the L-degree is the conductor degree
    if D != out["claimed_degree"] or D != conds[k - 1]:
        return (f"degree from point counts {D} != claimed {out['claimed_degree']}"
                f" / conductor {conds[k - 1]}")
    return check_l_polynomial(coeffs, p, k, p, D)


# -- sweep-kumar -----------------------------------------------------------------------


def kumar_degrees(index, q: int, n0: int, n1: int):
    """True degrees of f0 and f1 (-1 for zero) from grid indices, in C order
    of the coefficient grid (the first f0 coefficient is the most
    significant digit)."""
    d0 = np.full(index.shape, -1)
    d1 = np.full(index.shape, -1)
    for k in range(n0 + n1):
        digit = (index // q ** (n0 + n1 - 1 - k)) % q
        if k < n0:
            d0 = np.where(digit != 0, k, d0)
        else:
            d1 = np.where(digit != 0, k - n0, d1)
    return d0, d1


def kumar_bound_sq(p: int, m: int, d0, d1):
    """B^2 for B = (max(p deg f0, deg f1) - 1) p^(m/2), counting only
    non-constant parts; on ints or numpy arrays."""
    w = np.maximum(np.where(d0 > 0, p * d0, 0), np.where(d1 > 0, d1, 0))
    return (w - 1) ** 2 * p**m


def check_kumar_reports(p: int, m: int, degs, names, measured) -> tuple:
    """names, measured: the sweep's instance names and |S| values.  Returns
    (reason or None, {index: |S|^2}) for the sample checks.  At p^l = 4, S
    lies in Z[i], so |S|^2 and B^2 are integers and compare exactly."""
    q = p**m
    n0, n1 = degs[0] + 1, degs[1] + 1
    expected = q ** (n0 + n1) - q**2
    if len(names) != expected:
        return f"{len(names)} instances, expected q^(n0+n1) - q^2 = {expected}", {}
    index = np.array([int(n[n.rindex("_") + 1:]) for n in names], dtype=np.int64)
    d0, d1 = kumar_degrees(index, q, n0, n1)
    want = [f"f0deg{a}_f1deg{b}_{i}"
            for a, b, i in zip(d0.tolist(), d1.tolist(), index.tolist())]
    if want != list(names):
        return "instance names disagree with their grid indices", {}
    s2 = np.asarray(measured, dtype=np.float64) ** 2
    s2_int = np.rint(s2)
    if np.any(np.abs(s2 - s2_int) >= 1e-6 * np.maximum(1.0, s2)):
        return "some |S|^2 is not an integer", {}
    s2_int = s2_int.astype(np.int64)
    bad = np.nonzero(s2_int > kumar_bound_sq(p, m, d0, d1))[0]
    if bad.size:
        return f"instance {names[bad[0]]} violates the bound", {}
    return None, dict(zip(index.tolist(), s2_int.tolist()))


def check_kumar_sample(sample_value: list, sweep_sq: dict, index: int):
    """sum_teichmuller's exact S = a + b*i against the sweep's |S|^2."""
    if len(sample_value) != 2:
        return "sample sum is not in Z[i]"
    a, b = sample_value
    if index not in sweep_sq:
        return f"sample instance {index} missing from the sweep"
    if a * a + b * b != sweep_sq[index]:
        return f"instance {index}: exact |S|^2 = {a * a + b * b} != sweep {sweep_sq[index]}"
    return None


# -- cli-oneshot -----------------------------------------------------------------------


def _teich_z81(a: int) -> int:
    return pow(a, 27, 81)


def witt_to_z81(digits) -> int:
    """W_4(F_3) = Z/81: (a_0, ..., a_3) -> sum 3^i T(a_i), T the Teichmuller lift."""
    return sum(3**i * _teich_z81(a) for i, a in enumerate(digits)) % 81


def check_cli(spec: dict, payload):
    kind = spec["check"]
    if kind == "none":
        return None
    if payload is None:
        return "no JSON output"
    if kind == "bound_kumar":
        d0, d1 = spec["degs"]
        b2 = payload["bound"] ** 2
        want = int(kumar_bound_sq(spec["p"], spec["m"], d0, d1))
        return None if abs(b2 - want) <= 1e-9 * want else f"bound^2 {b2} != {want}"
    if kind == "witt_add_z81":
        res = [int(t) for t in payload["result"].strip("()").split(",")]
        if len(res) != 4 or not all(0 <= t < 3 for t in res):
            return f"witt add {res} is not a vector of 4 codes in F_3"
        want = (witt_to_z81(spec["a"]) + witt_to_z81(spec["b"])) % 81
        return None if witt_to_z81(res) == want else f"witt add {res} is not {want} in Z/81"
    if kind == "lfun_x0":
        # L(T) = 1 + (1 + zeta_4) T for (x, 0) over F_2
        if payload["degree"] != 1 or payload["coefficients"] != [[1, 0], [1, 1]]:
            return f"lfun (x,0): {payload['coefficients']}"
        return None
    if kind == "genus_l1":
        p, n = spec["p"], spec["n"]
        want = (p - 1) * (n - 1) // 2
        return None if payload["genus"] == want else f"genus {payload['genus']} != {want}"
    if kind == "verify_kumar":
        if payload["violations"] or not payload["pass"]:
            return "verify kumar reported violations"
        if payload["instances"] != len(payload["reports"]):
            return "instance count disagrees with the report list"
        reports = payload["reports"]
        reason, _ = check_kumar_reports(
            spec["p"], spec["m"], spec["degs"],
            [r["instance"] for r in reports], [r["abs"] for r in reports])
        return reason
    raise ValueError(f"unknown check {kind!r}")
