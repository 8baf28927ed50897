"""Command-line front end.

Subcommands: sum, lfun, bound, verify, witt, genus.  Output is deterministic
JSON (or CSV for `verify` sweeps), optionally written to a file with --out.

Exit codes: 0 success (and, for `verify`, zero violations), 1 verification
violations found, 2 usage or parse error, 3 enumeration cap exceeded,
4 mathematical precondition violated, 5 out of memory or an unexpected
internal error (one `error:` line on stderr, never a traceback).  A
`verify` document is written as it is built, so after exit 5 the output
may be truncated; only exit 0 or 1 means it is complete.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from json.encoder import encode_basestring_ascii

import numpy as np

from .asw import genus_of_cover, witt_function
from .charsums import (
    BoundInputs,
    DegenerateInputError,
    PoleData,
    bound_cor52,
    bound_cor53,
    bound_kumar,
    bound_thm31,
    bound_thm51,
    l_function,
    sum_teichmuller,
    verify_sweep,
)
from .elliptic import EllipticFunctionField
from .fields import FieldCapError, get_field, isprime
from .galois_rings import get_galois_ring
from .parsing import (
    ParseError,
    parse_curve,
    parse_elliptic_vector,
    parse_field_vector,
    parse_gr_polynomial,
    parse_rational_vector,
    parse_ints,
)
from .rational import EnumerationCapError, RationalFunctionField
from .series import PrecisionError
from .witt import WittParams, WittVector

EXIT_OK = 0
EXIT_VIOLATIONS = 1
EXIT_USAGE = 2
EXIT_CAP = 3
EXIT_MATH = 4
EXIT_INTERNAL = 5


def _write(args, pieces):
    """Write the text pieces, one at a time, to --out or to stdout."""
    if args.out:
        with open(args.out, "w") as fh:
            fh.writelines(pieces)
    else:
        sys.stdout.writelines(pieces)


def _emit(args, payload):
    """Write the JSON payload with a trailing newline, deterministically."""
    _write(args, [json.dumps(payload, sort_keys=True, indent=2) + "\n"])


# rows of a `verify` report per piece the writers yield
_CHUNK = 16384


def _spelled(column, spell) -> list[str]:
    """spell(v) for each float v of a column; each distinct value (by its
    bits, so -0.0 stays apart from 0.0) is spelled once."""
    bits, inverse = np.unique(column.view(np.int64), return_inverse=True)
    words = [spell(v) for v in bits.view(np.float64).tolist()]
    return np.array(words, dtype=object)[inverse].tolist()


def _chunks(result):
    """The row slices of the result, _CHUNK rows each."""
    return (slice(i, i + _CHUNK) for i in range(0, len(result), _CHUNK))


def _json_label_columns(result, rows) -> list[list]:
    """The label columns of the rows, each value as the row template
    substitutes it: integers as they are, strings JSON-escaped without
    their quotes."""
    cols = []
    for column in result.label_columns:
        values = np.asarray(column[rows])
        if values.dtype.kind in "biu":
            cols.append(values.tolist())
        else:
            cols.append([encode_basestring_ascii(v)[1:-1] for v in values.tolist()])
    return cols


def _sweep_json(family: str, result):
    """The `verify` payload in pieces of _CHUNK reports, byte for byte as
    json.dumps(payload, sort_keys=True, indent=2) + newline writes it: the
    header through json, each report one `%` of a row template that holds
    the instance label, escaped once (JSON escapes character by
    character)."""
    payload = {
        "family": family,
        "instances": len(result),
        "violations": result.violations,
        "max_ratio": result.max_ratio,
        "pass": not result.violations,
        "reports": [],
    }
    text = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    if not len(result):
        yield text
        return
    head, _, tail = text.partition('"reports": []')
    row = (
        '    {\n      "abs": %s,\n      "bound": %s,\n      "instance": '
        + encode_basestring_ascii(result.label)
        + ',\n      "passed": %s,\n      "ratio": %s\n    }'
    )
    yield head + '"reports": [\n'
    sep = ""
    for rows in _chunks(result):
        cols = (
            _spelled(result.measured[rows], json.dumps),
            _spelled(result.bound[rows], json.dumps),
            *_json_label_columns(result, rows),
            np.where(result.passed[rows], "true", "false").tolist(),
            _spelled(result.ratio[rows], json.dumps),
        )
        yield sep + ",\n".join(map(row.__mod__, zip(*cols)))
        sep = ",\n"
    yield "\n  ]" + tail


def _sweep_csv(result):
    """The `verify` rows as CSV in pieces of _CHUNK rows, floats spelled
    by repr."""
    yield "instance,abs,bound,ratio\n"
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    for rows in _chunks(result):
        floats = [_spelled(c[rows], repr) for c in (result.measured, result.bound, result.ratio)]
        writer.writerows(zip(result.instances(rows), *floats))
        yield buf.getvalue()
        buf.seek(0)
        buf.truncate()


def _build_witt_function(args, p, l, m):
    """Parse --f-witt (and optional --curve) into a Witt vector of functions."""
    F = get_field(p, m)
    if getattr(args, "curve", None):
        curve = parse_curve(args.curve, F)
        coords = parse_elliptic_vector(args.f_witt, curve)
        ring = EllipticFunctionField(curve)
    else:
        coords = parse_rational_vector(args.f_witt, F)
        ring = RationalFunctionField(F)
    if len(coords) != l:
        raise ParseError(f"--f-witt has {len(coords)} components, but l = {l}")
    return witt_function(ring, coords)


def at_least(least: int):
    """An argparse type: an integer option that must be >= least."""

    def integer(text: str) -> int:
        n = int(text)
        if n < least:
            raise argparse.ArgumentTypeError(f"must be >= {least}, got {n}")
        return n

    return integer


def prime(text: str) -> int:
    """An argparse type: a prime characteristic."""
    p = int(text)
    if not isprime(p):
        raise argparse.ArgumentTypeError(f"must be a prime, got {p}")
    return p


def _parse_poles(text: str, l: int):
    """Pole descriptors 'deg:n0,n1,...[:v[:v0]]' separated by ';'."""
    poles = []
    for chunk in text.split(";"):
        parts = chunk.strip().split(":")
        if len(parts) < 2 or len(parts) > 4:
            raise ParseError(f"bad pole descriptor {chunk!r}")
        try:
            deg = int(parts[0])
            orders = tuple(int(t) for t in parts[1].split(","))
            v = int(parts[2]) if len(parts) > 2 else 0
            v0 = int(parts[3]) if len(parts) > 3 else 0
        except ValueError:
            raise ParseError(f"bad pole descriptor {chunk!r}") from None
        if len(orders) > l:
            raise ParseError(f"pole descriptor {chunk!r} has more than l = {l} orders")
        orders = orders + (0,) * (l - len(orders))
        poles.append(PoleData(deg=deg, pole_orders=orders, v=v, v0=v0))
    return tuple(poles)


# -- subcommands ------------------------------------------------------------


def cmd_sum(args) -> int:
    p, l, m = parse_ints(args.ring, 3, "--ring")
    R = get_galois_ring(p, l, m)
    coeffs = parse_gr_polynomial(args.f, R)
    twist = R.from_int(args.twist) if args.twist is not None else None
    res = sum_teichmuller(R, coeffs, twist=twist)
    payload = {
        "ring": {"p": p, "l": l, "m": m},
        "f": args.f,
        "sum": {"coeffs": list(res.value.coeffs), "abs": res.modulus},
        "terms": res.term_count,
    }
    _emit(args, payload)
    return EXIT_OK


def cmd_lfun(args) -> int:
    p, l, m = parse_ints(args.ring, 3, "--ring")
    fvec = _build_witt_function(args, p, l, m)
    R = get_galois_ring(p, l, m)
    twist = R.from_int(args.twist) if args.twist is not None else None
    try:
        result = l_function(fvec, terms=args.terms, twist=twist)
    except ValueError as exc:
        if isinstance(exc, DegenerateInputError):
            raise
        # too few terms to determine the polynomial: a usage error
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    payload = {
        "ring": {"p": p, "l": l, "m": m},
        "f": args.f_witt,
        "curve": args.curve,
        "degree": result.claimed_degree,
        "conductor_degree": result.conductor_degree,
        "coefficients": [
            list(c.coeffs) for c in result.coefficients[: result.claimed_degree + 1]
        ],
        "trailing_zero": result.trailing_zero,
        "inverse_root_moduli": list(result.inverse_root_moduli),
        "power_sums_abs": [s.abs_complex() for s in result.power_sums],
    }
    _emit(args, payload)
    return EXIT_OK


def cmd_bound(args) -> int:
    family = args.family
    if family == "kumar":
        p, l, m = parse_ints(args.ring, 3, "--ring")
        degrees = parse_ints(args.degs, l, "--degs")
        value = bound_kumar(p, l, m, degrees)
        payload = {"family": "kumar", "ring": {"p": p, "l": l, "m": m},
                   "degs": degrees, "bound": value}
    elif family == "thm31":
        if not args.ring or not args.f_witt:
            raise ParseError("bound thm31 needs --ring and --f-witt")
        p, l, m = parse_ints(args.ring, 3, "--ring")
        fvec = _build_witt_function(args, p, l, m)
        value = bound_thm31(fvec, args.d)
        payload = {"family": "thm31", "ring": {"p": p, "l": l, "m": m},
                   "f": args.f_witt, "curve": args.curve, "d": args.d,
                   "bound": value}
    elif family in ("thm51", "cor52", "cor53"):
        if args.g is None or not args.poles:
            raise ParseError(f"bound {family} needs --g and --poles")
        p = args.p
        l = args.l
        m = args.m
        inputs = BoundInputs(
            p=p, l=l, m=m, genus=args.g, poles=_parse_poles(args.poles, l)
        )
        fn = {"thm51": bound_thm51, "cor52": bound_cor52, "cor53": bound_cor53}[family]
        value = fn(inputs)
        payload = {
            "family": family,
            "p": p, "l": l, "m": m, "g": args.g, "poles": args.poles,
            "bound": value,
            "coefficient": value / p ** (m / 2),
        }
    else:  # pragma: no cover - argparse restricts choices
        raise ParseError(f"unknown bound family {family!r}")
    _emit(args, payload)
    return EXIT_OK


def cmd_verify(args) -> int:
    family = args.family
    params: dict = {}
    if family == "kumar":
        p, l, m = parse_ints(args.ring, 3, "--ring")
        degrees = parse_ints(args.degs, 2, "--degs")
        params = {"p": p, "l": l, "m": m, "deg0": degrees[0], "deg1": degrees[1]}
    elif family == "thm31-p1":
        p, l, m = parse_ints(args.ring, 3, "--ring")
        params = {"p": p, "l": l, "m": m, "max_a": args.max_a,
                  "max_b": args.max_b, "d": args.d}
    elif family != "empty":  # pragma: no cover - argparse restricts choices
        raise ParseError(f"unknown verify family {family!r}")
    result = verify_sweep(family, **params)
    _write(args, _sweep_csv(result) if args.format == "csv" else _sweep_json(family, result))
    return EXIT_VIOLATIONS if result.violations else EXIT_OK


def cmd_witt(args) -> int:
    name = args.over.strip().lower()
    if not name.startswith("f"):
        raise ParseError("--over expects a field name like f2, f4, f9")
    try:
        q = int(name[1:])
    except ValueError:
        raise ParseError(f"bad field name {args.over!r}") from None
    p, m = args.p, 0
    qq = 1
    while qq < q:
        qq *= p
        m += 1
    if qq != q or m == 0:
        raise ParseError(f"{q} is not a power of p = {p}")
    F = get_field(p, m)
    params = WittParams(p, args.l)

    def vec(text):
        codes = parse_field_vector(text, F)
        if len(codes) != args.l:
            raise ParseError(f"vector {text!r} needs {args.l} components")
        return WittVector(params, F, tuple(codes))

    op = args.op
    if op in ("add", "mul"):
        if len(args.vectors) != 2:
            raise ParseError(f"witt {op} needs two vectors")
        a, b = vec(args.vectors[0]), vec(args.vectors[1])
        out = a + b if op == "add" else a * b
    elif op in ("neg", "frobenius", "verschiebung"):
        if len(args.vectors) != 1:
            raise ParseError(f"witt {op} needs one vector")
        a = vec(args.vectors[0])
        if op == "neg":
            out = -a
        elif op == "frobenius":
            out = a.frobenius()
        else:
            out = a.verschiebung()
    else:  # pragma: no cover - argparse restricts choices
        raise ParseError(f"unknown witt operation {op!r}")
    text = "(" + ",".join(str(c) for c in out.coords) + ")"
    payload = {"op": op, "p": p, "l": args.l, "over": name,
               "inputs": list(args.vectors), "result": text}
    if not args.out:
        sys.stdout.write(text + "\n")
        return EXIT_OK
    _emit(args, payload)
    return EXIT_OK


def cmd_genus(args) -> int:
    p, l, m = parse_ints(args.ring, 3, "--ring")
    fvec = _build_witt_function(args, p, l, m)
    base_genus = fvec.ring.genus
    payload = {
        "ring": {"p": p, "l": l, "m": m},
        "f": args.f_witt,
        "curve": args.curve,
        "base_genus": base_genus,
        "genus": genus_of_cover(fvec, base_genus),
    }
    _emit(args, payload)
    return EXIT_OK


# -- parser -------------------------------------------------------------------


def _add_common(sp):
    sp.add_argument("--out", default=None, help="write output to a file")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="wittsums",
        description="Exponential sums over Galois rings and curves: exact "
        "character sums, conductors, L-functions, and bound verification.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("sum", help="character sum over the Teichmuller subset")
    sp.add_argument("--ring", required=True, metavar="p,l,m")
    sp.add_argument("--f", required=True, help='polynomial in T, e.g. "T^3+2*T"')
    sp.add_argument("--twist", type=int, default=None)
    _add_common(sp)
    sp.set_defaults(func=cmd_sum)

    sp = sub.add_parser("lfun", help="L-polynomial of a Witt-function character")
    sp.add_argument("--ring", required=True, metavar="p,l,m")
    sp.add_argument("--f-witt", required=True, help='e.g. "(x,0)" or "(x^3,0)"')
    sp.add_argument("--curve", default=None, help='e.g. "y^2+y=x^3"')
    sp.add_argument("--terms", type=int, required=True)
    sp.add_argument("--twist", type=int, default=None)
    _add_common(sp)
    sp.set_defaults(func=cmd_lfun)

    sp = sub.add_parser("bound", help="evaluate an explicit sum bound")
    sp.add_argument("family", choices=["kumar", "thm31", "thm51", "cor52", "cor53"])
    sp.add_argument("--ring", default=None, metavar="p,l,m")
    sp.add_argument("--degs", default=None, help="digit degrees, e.g. 3,1")
    sp.add_argument("--f-witt", default=None)
    sp.add_argument("--curve", default=None)
    sp.add_argument("--d", type=at_least(1), default=1)
    sp.add_argument("--p", type=prime, default=2)
    sp.add_argument("--l", type=int, default=2)
    sp.add_argument("--m", type=at_least(1), default=1)
    sp.add_argument("--g", type=at_least(0), default=None, help="base genus")
    sp.add_argument("--poles", default=None, help='e.g. "1:2" or "1:2,5:1:1"')
    _add_common(sp)
    sp.set_defaults(func=cmd_bound)

    sp = sub.add_parser("verify", help="sweep a bound family; exit 0 iff clean")
    sp.add_argument("family", choices=["kumar", "thm31-p1", "empty"])
    sp.add_argument("--ring", default=None, metavar="p,l,m")
    sp.add_argument("--degs", default=None)
    sp.add_argument("--max-a", type=at_least(1), default=3)
    sp.add_argument("--max-b", type=at_least(0), default=3)
    sp.add_argument("--d", type=at_least(1), default=1)
    sp.add_argument("--format", choices=["json", "csv"], default="json")
    _add_common(sp)
    sp.set_defaults(func=cmd_verify)

    sp = sub.add_parser("witt", help="Witt vector arithmetic over a finite field")
    sp.add_argument("op", choices=["add", "mul", "neg", "frobenius", "verschiebung"])
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--l", type=int, required=True)
    sp.add_argument("--over", required=True, help="field name, e.g. f2")
    sp.add_argument("vectors", nargs="+", help='vectors of field codes, e.g. "(1,0)"')
    _add_common(sp)
    sp.set_defaults(func=cmd_witt)

    sp = sub.add_parser("genus", help="genus of the induced cyclic cover")
    sp.add_argument("--ring", required=True, metavar="p,l,m")
    sp.add_argument("--f-witt", required=True)
    sp.add_argument("--curve", default=None)
    _add_common(sp)
    sp.set_defaults(func=cmd_genus)

    return ap


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        # argparse uses exit code 2 for usage errors already
        return int(exc.code or 0)
    try:
        return args.func(args)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (EnumerationCapError, FieldCapError, PrecisionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAP
    except (ValueError, ArithmeticError) as exc:
        # DegenerateInputError is a ValueError, ZeroDivisionError an ArithmeticError
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MATH
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return EXIT_INTERNAL
    except Exception as exc:
        message = " ".join(str(exc).split())
        print(f"error: internal error ({type(exc).__name__}): {message}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
