"""Fast self-test of the benchmark's output checks (about a second).

    python3 bench/selftest.py

For every check it feeds one right output, which must pass, and at least
one deliberately corrupted copy of it, which must fail.  Right outputs come
from small runs of the program itself, except for `witt add` at (3, 4),
whose answer is built from the Z/81 oracle to save the 7 s the program
needs for the universal polynomials.
"""

from __future__ import annotations

import copy
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import checks  # noqa: E402
import jobs  # noqa: E402
import worker  # noqa: E402

FAILURES = []


def expect(label, reason, should_pass):
    ok = (reason is None) == should_pass
    print(f"{'ok  ' if ok else 'FAIL'} {label}: {reason or 'passes'}")
    if not ok:
        FAILURES.append(label)


def bump(c):
    """A Z[zeta] coefficient list plus 1."""
    return [c[0] + 1] + c[1:]


def test_lfun_p1(ws):
    job = {"kind": "lfun_p1", "p": 2, "m": 1, "D": 1, "comps": [[[1, 1]], []]}
    out = worker._out_lfun(worker._lfun_p1(ws, job))
    expect("lfun-p1 right output", checks.check_lfun_p1(job, out), True)
    bad = copy.deepcopy(out)
    bad["coefficients"][1] = bump(bad["coefficients"][1])
    expect("lfun-p1 corrupted c_D", checks.check_lfun_p1(job, bad), False)
    bad = copy.deepcopy(out)
    bad["coefficients"][2] = bump(bad["coefficients"][2])
    expect("lfun-p1 nonzero past D", checks.check_lfun_p1(job, bad), False)
    bad = dict(out, claimed_degree=2)
    expect("lfun-p1 wrong degree", checks.check_lfun_p1(job, bad), False)


def test_genus1(ws):
    job = {"kind": "genus1", "p": 2, "curve": [0, 0, 1, 0, 0],
           "l": 2, "coords": [[[1, 0, 1]], [[0, 1, 1]]], "lfun_len": 2}
    conds, genus, lf = worker._genus1(ws, job)
    out = worker._out_lfun(lf)
    out.update(conductors=conds, genus=genus)
    expect("genus1 right output", checks.check_genus1(job, out), True)
    expect("genus1 corrupted genus",
           checks.check_genus1(job, dict(out, genus=genus + 1)), False)
    expect("genus1 corrupted conductor",
           checks.check_genus1(job, dict(out, conductors=[conds[0], conds[1] + 1])),
           False)
    bad = copy.deepcopy(out)
    bad["coefficients"][-3] = bump(bad["coefficients"][-3])
    expect("genus1 corrupted c_D", checks.check_genus1(job, bad), False)


def test_kumar(ws):
    p, l, m, degs = 2, 2, 2, (2, 1)
    reports = ws.sweep_kumar(p, l, m, *degs)
    names = [r.instance for r in reports]
    measured = [r.measured for r in reports]
    reason, sq = checks.check_kumar_reports(p, m, degs, names, measured)
    expect("sweep right output", reason, True)
    expect("sweep missing instance",
           checks.check_kumar_reports(p, m, degs, names[1:], measured[1:])[0], False)
    worst = max(range(len(reports)), key=lambda i: reports[i].ratio)
    inflated = list(measured)
    inflated[worst] = (measured[worst] ** 2 + 1) ** 0.5
    expect("sweep bound exceeded by |S|^2 + 1",
           checks.check_kumar_reports(p, m, degs, names, inflated)[0], False)
    renamed = list(names)
    renamed[0] = renamed[0].replace("f0deg", "f0deg1")
    expect("sweep wrong degrees in a name",
           checks.check_kumar_reports(p, m, degs, renamed, measured)[0], False)
    # one sampled instance through GaloisRing arithmetic
    index = int(names[worst].rsplit("_", 1)[1])
    a, b = jobs.kumar_digits(index, p**m, degs[0] + 1, degs[1] + 1)
    job = {"ring": [p, l, m], "index": index, "a": a, "b": b}
    value = list(worker._kumar_sample(ws, job).value.coeffs)
    expect("sample right output", checks.check_kumar_sample(value, sq, index), True)
    expect("sample corrupted sum",
           checks.check_kumar_sample(bump(value), sq, index), False)


def _z81_digits(x):
    """Inverse of checks.witt_to_z81: Teichmuller digits of x in Z/81."""
    out = []
    for i in range(4):
        a = x % 3
        out.append(a)
        x = (x - pow(a, 27, 81)) // 3
    return out


def _cli_payload(ws, args):
    path = os.path.join(HERE, "runs", "selftest.json")
    os.makedirs(os.path.dirname(path), exist_ok=True)
    rc = ws.cli.main([*args, "--out", path])
    with open(path) as fh:
        payload = json.load(fh)
    os.remove(path)
    return rc, payload


def test_cli(ws):
    import wittsums.cli  # noqa: F401  (ws.cli)

    spec = {"check": "bound_kumar", "p": 2, "m": 3, "degs": [3, 1]}
    rc, payload = _cli_payload(ws, ["bound", "kumar", "--ring", "2,2,3", "--degs", "3,1"])
    expect("cli bound kumar right", checks.check_cli(spec, payload), True)
    expect("cli bound kumar corrupted",
           checks.check_cli(spec, dict(payload, bound=payload["bound"] * 1.01)), False)

    va, vb = [2, 1, 0, 2], [2, 2, 1, 1]
    spec = {"check": "witt_add_z81", "a": va, "b": vb}
    s = _z81_digits((checks.witt_to_z81(va) + checks.witt_to_z81(vb)) % 81)
    right = {"result": "(" + ",".join(map(str, s)) + ")"}
    expect("cli witt add right", checks.check_cli(spec, right), True)
    wrong = [s[0], s[1], s[2], (s[3] + 1) % 3]
    expect("cli witt add corrupted last digit",
           checks.check_cli(spec, {"result": "(" + ",".join(map(str, wrong)) + ")"}),
           False)

    spec = {"check": "lfun_x0"}
    rc, payload = _cli_payload(
        ws, ["lfun", "--ring", "2,2,1", "--f-witt", "(x,0)", "--terms", "4"])
    expect("cli lfun right", checks.check_cli(spec, payload), True)
    bad = dict(payload, coefficients=[[1, 0], [1, -1]])
    expect("cli lfun corrupted", checks.check_cli(spec, bad), False)

    spec = {"check": "genus_l1", "p": 3, "n": 4}
    rc, payload = _cli_payload(ws, ["genus", "--ring", "3,1,1", "--f-witt", "(x^4)"])
    expect("cli genus right", checks.check_cli(spec, payload), True)
    expect("cli genus corrupted",
           checks.check_cli(spec, dict(payload, genus=payload["genus"] - 1)), False)

    spec = {"check": "verify_kumar", "p": 2, "m": 2, "degs": [2, 1]}
    rc, payload = _cli_payload(ws, ["verify", "kumar", "--ring", "2,2,2", "--degs", "2,1"])
    expect("cli verify kumar right", checks.check_cli(spec, payload), True)
    bad = copy.deepcopy(payload)
    worst = max(bad["reports"], key=lambda r: r["ratio"])
    worst["abs"] = (worst["abs"] ** 2 + 1) ** 0.5
    expect("cli verify kumar |S|^2 + 1 on the tightest instance",
           checks.check_cli(spec, bad), False)
    expect("cli verify kumar violation flag",
           checks.check_cli(spec, dict(payload, violations=1, **{"pass": False})), False)


def main() -> int:
    import wittsums as ws

    test_lfun_p1(ws)
    test_genus1(ws)
    test_kumar(ws)
    test_cli(ws)
    print(f"{len(FAILURES)} self-test failures")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
