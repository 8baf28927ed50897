"""Seeded job lists for every workload.

Everything here is plain data (ints, lists, dicts) built from a seed with
`random.Random`; nothing imports `wittsums`, so the program only ever sees
the generated inputs.  One list is the unit of timing: the cold list is the
first list a fresh worker runs, and every warm list has the same shape as it
(same fields, rings, curves and (p, l)) with new random coefficients.
"""

from __future__ import annotations

import random

# -- lfun-p1 --------------------------------------------------------------------
#
# Witt vectors (f0, f1) of Laurent polynomials on P^1 over F_q whose monomial
# exponents are all prime to p, with a pole at infinity and possibly at 0.
# Such a vector is already Artin-reduced at both places, so its Swan
# conductor at a place is max(p * ord f0, ord f1) and the L-polynomial degree
# is D = sum over poles of (sw + 1) - 2.  A slot fixes the field and the pole
# orders, hence D and the degrees of every numerator and denominator, so only
# coefficients are random and the cost per job hardly varies.  Per field, D
# is the same in every slot and the enumeration size q^(D+2) lies in
# [4096, 6561]: (F_2, 10), (F_4, 4), (F_3, 6), (F_9, 2).  A pole at 0 costs a
# second scan of every F_{q^d}; over F_9, D = 2 leaves no room for one.

# (p, m, pole orders at infinity (f0, f1), pole orders at 0 (f0, f1), jobs)
LFUN_SLOTS = (
    (2, 1, (5, 11), (0, 0), 1),
    (2, 1, (3, 7), (1, 3), 1),
    (2, 2, (1, 5), (0, 0), 1),
    (2, 2, (1, 1), (1, 1), 1),
    (3, 1, (2, 7), (0, 0), 1),
    (3, 1, (1, 2), (1, 2), 1),
    (3, 2, (1, 2), (0, 0), 2),
)


def lfun_degree(p: int, pole_inf, pole_zero) -> int:
    """D for a reduced length-2 vector with these pole orders."""
    sw_inf = max(p * pole_inf[0], pole_inf[1])
    sw_zero = max(p * pole_zero[0], pole_zero[1])
    return (sw_inf + 1) + (sw_zero + 1 if sw_zero else 0) - 2


def _lfun_job(rng: random.Random, p: int, m: int, n, k) -> dict:
    q = p**m
    comps = []
    for i in range(2):
        terms = []
        for e in range(-k[i], n[i] + 1):
            if e % p == 0 and e != 0:
                continue
            lead = e != 0 and e in (n[i], -k[i])
            c = rng.randrange(1, q) if lead else rng.randrange(q)
            if c:
                terms.append([e, c])
        comps.append(terms)
    return {"kind": "lfun_p1", "p": p, "m": m, "D": lfun_degree(p, n, k),
            "comps": comps}


def lfun_list(rng: random.Random) -> list:
    return [
        _lfun_job(rng, p, m, n, k)
        for (p, m, n, k, count) in LFUN_SLOTS
        for _ in range(count)
    ]


# -- genus1 ----------------------------------------------------------------------
#
# Witt vectors of polynomials in x, y on elliptic curves over F_2 and F_3
# (poles only at the origin).  Each job asks for the conductor of every
# truncation (f0), (f0, f1), ..., the genus of the cyclic cover, and one
# L-polynomial: of f itself over F_2, where at most 2^9 points are summed,
# and of the truncation (f0) over F_3, where at most 3^5 are.
#
# Every list has the same slots, and a slot fixes the curve, the length, the
# lead monomial of f0 and whether y appears in f1; that fixes the
# L-polynomial degree, so warm lists reuse exactly the curves, extension
# fields and point sets the cold list built.  The first coordinate never
# gives a degenerate character: x is in k + P(K) on the ordinary curves over
# F_2, and y is on y^2 = x^3+x^2+1 over F_3 unless x appears beside it.
# Lead "x" costs little Artin reduction at the origin; lead "y" (pole order
# 3 = p over F_3) costs much more.

# (curve a1..a6, p, l, lead of f0, y in f1, L-polynomial truncation length)
GENUS_SLOTS = (
    ((0, 0, 1, 0, 0), 2, 2, "x", False, 2),   # y^2+y=x^3, D = 3
    ((0, 0, 1, 1, 0), 2, 2, "x", True, 2),    # y^2+y=x^3+x, D = 4
    ((1, 0, 0, 0, 1), 2, 2, "y", True, 2),    # y^2+xy=x^3+1, D = 7
    ((1, 1, 0, 0, 1), 2, 2, "y", False, 2),   # y^2+xy=x^3+x^2+1, D = 7
    ((0, 0, 1, 0, 0), 2, 3, "x", False, 3),   # D = 6
    ((0, 1, 0, 0, 1), 3, 2, "x", False, 1),   # y^2=x^3+x^2+1, D = 3
    ((0, 0, 0, 2, 1), 3, 2, "y", False, 1),   # y^2=x^3+2x+1, D = 3
)


def _genus_job(rng: random.Random, slot) -> dict:
    curve, p, l, lead, y_in_f1, lfun_len = slot
    # monomials as [a, b, c] for c * x^a * y^b
    if lead == "x":
        f0 = [[1, 0, 1]]
    else:
        a = rng.randrange(1, p) if p == 3 else rng.randrange(p)
        f0 = [[0, 1, 1]] + ([[1, 0, a]] if a else [])
    c = rng.randrange(p)
    if c:
        f0.append([0, 0, c])
    coords = [f0]
    for i in range(1, l):
        comp = [[a, 0, c] for a in (0, 1) if (c := rng.randrange(p))]
        if i == 1 and y_in_f1:
            comp.append([0, 1, rng.randrange(1, p)])
        coords.append(comp)
    return {"kind": "genus1", "p": p, "curve": list(curve), "l": l,
            "coords": coords, "lfun_len": lfun_len}


def genus_list(rng: random.Random) -> list:
    return [_genus_job(rng, s) for s in GENUS_SLOTS]


# -- sweep-kumar ----------------------------------------------------------------
#
# The exhaustive sweep over the Teichmuller digits of GR(4, 3) (residue field
# F_8): 8^6 - 8^2 = 262,080 non-constant instances in both families.  The
# cold family (3, 1) is acceptance criterion 4; the warm family (4, 0) has
# constant f1, so every instance meets the bound's non-degeneracy hypothesis.
# Each list also recomputes a seeded sample of its instances exactly with
# sum_teichmuller.

KUMAR_RING = (2, 2, 3)
KUMAR_COLD_FAMILY = (3, 1)
KUMAR_WARM_FAMILY = (4, 0)
KUMAR_SAMPLES = 200


def kumar_digits(index: int, q: int, n0: int, n1: int):
    """Field codes of f0 and f1 for sweep instance `index` (C order of the
    coefficient grid: the first f0 coefficient is the most significant)."""
    digits = []
    for _ in range(n0 + n1):
        digits.append(index % q)
        index //= q
    digits.reverse()
    return digits[:n0], digits[n0:]


def kumar_list(rng: random.Random, family) -> list:
    p, l, m = KUMAR_RING
    q = p**m
    deg0, deg1 = family
    n0, n1 = deg0 + 1, deg1 + 1
    jobs = [{"kind": "kumar_sweep", "ring": list(KUMAR_RING), "degs": [deg0, deg1]}]
    total = q ** (n0 + n1)
    while len(jobs) < KUMAR_SAMPLES + 1:
        index = rng.randrange(total)
        a, b = kumar_digits(index, q, n0, n1)
        if not any(a[1:]) and not any(b[1:]):
            continue  # constant instance: the sweep skips it
        jobs.append({"kind": "kumar_sample", "ring": list(KUMAR_RING),
                     "degs": [deg0, deg1], "index": index, "a": a, "b": b})
    return jobs


# -- cli-oneshot -----------------------------------------------------------------


def cli_script(rng: random.Random) -> list:
    """README-style invocations; each is run in a fresh process and writes
    through --out.  `check` names the oracle in checks.py."""
    d0 = rng.randrange(1, 6)
    d1 = rng.randrange(0, 6)
    va = [rng.randrange(3) for _ in range(4)]
    vb = [rng.randrange(3) for _ in range(4)]
    p = rng.choice((2, 3, 5))
    n = rng.choice([k for k in range(2, 9) if k % p])
    return [
        {"args": ["bound", "kumar", "--ring", "2,2,3", "--degs", f"{d0},{d1}"],
         "rc": 0, "check": "bound_kumar", "p": 2, "m": 3, "degs": [d0, d1]},
        {"args": ["witt", "add", "--p", "3", "--l", "4", "--over", "f3",
                  "(" + ",".join(map(str, va)) + ")",
                  "(" + ",".join(map(str, vb)) + ")"],
         "rc": 0, "check": "witt_add_z81", "a": va, "b": vb},
        {"args": ["lfun", "--ring", "2,2,1", "--f-witt", "(x,0)", "--terms", "4"],
         "rc": 0, "check": "lfun_x0"},
        {"args": ["genus", "--ring", f"{p},1,1", "--f-witt", f"(x^{n})"],
         "rc": 0, "check": "genus_l1", "p": p, "n": n},
        {"args": ["bound", "kumar", "--ring", "2,2,3", "--degs", "0,0"],
         "rc": 4, "check": "none"},
        {"args": ["verify", "kumar", "--ring", "2,2,3", "--degs", "3,1"],
         "rc": 0, "check": "verify_kumar", "p": 2, "m": 3, "degs": [3, 1]},
    ]


# the cheapest invocation: it builds no table, so it times CLI cold start
CLI_SETUP_ARGS = ["bound", "kumar", "--ring", "2,2,3", "--degs", "3,1"]
