"""Command-line interface: grammars, output schemas, and exit codes."""

import csv
import dataclasses
import io
import json
import math
import re

import numpy as np
import pytest

import wittsums.cli
from wittsums.charsums import SweepResult, verify_sweep
from wittsums.cli import _sweep_csv, _sweep_json, main


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out


def test_sum_worked_case(capsys):
    code, out = run(capsys, ["sum", "--ring", "2,2,1", "--f", "T"])
    assert code == 0
    data = json.loads(out)
    assert data["ring"] == {"p": 2, "l": 2, "m": 1}
    assert abs(data["sum"]["abs"] - 2**0.5) < 1e-9
    assert data["sum"]["coeffs"] == [1, 1]  # 1 + i


def test_sum_of_a_large_power(capsys):
    """A power in --f gives the sum of its reduced expansion."""
    code, out = run(capsys, ["sum", "--ring", "2,2,1", "--f", "(T+1)^3000"])
    assert code == 0
    expanded = "+".join(f"{c}*T^{k}" for k in range(3001) if (c := math.comb(3000, k) % 4))
    code2, out2 = run(capsys, ["sum", "--ring", "2,2,1", "--f", expanded])
    assert code2 == 0
    data, data2 = json.loads(out), json.loads(out2)
    assert data.pop("f") == "(T+1)^3000" and data2.pop("f") == expanded
    assert data == data2


def test_sum_constants(capsys):
    code, out = run(capsys, ["sum", "--ring", "2,2,1", "--f", "0"])
    assert code == 0 and json.loads(out)["sum"]["abs"] == 2.0
    code, out = run(capsys, ["sum", "--ring", "3,2,1", "--f", "1"])
    assert code == 0 and abs(json.loads(out)["sum"]["abs"] - 3.0) < 1e-9


def test_sum_takes_a_twist_with_residue_zero(capsys):
    """Unlike lfun, sum takes a twist in p GR: psi_0 is trivial and psi_2
    is (-1)^Tr on GR(4, 1), whose Teichmuller set is {0, 1}."""
    for twist, coeffs in (("0", [2, 0]), ("2", [0, 0])):
        code, out = run(capsys, ["sum", "--ring", "2,2,1", "--f", "T^3", "--twist", twist])
        assert code == 0 and json.loads(out)["sum"]["coeffs"] == coeffs


def test_lfun_worked_case(capsys):
    code, out = run(
        capsys, ["lfun", "--ring", "2,2,1", "--f-witt", "(x,0)", "--terms", "4"]
    )
    assert code == 0
    data = json.loads(out)
    assert data["degree"] == 1
    assert data["coefficients"] == [[1, 0], [1, 1]]
    assert data["trailing_zero"] is True


def test_lfun_degenerate_exit4(capsys):
    code, _ = run(
        capsys, ["lfun", "--ring", "2,2,1", "--f-witt", "(x^2+x,0)", "--terms", "4"]
    )
    assert code == 4


def test_lfun_too_few_terms_exit2(capsys):
    code, _ = run(
        capsys, ["lfun", "--ring", "2,2,1", "--f-witt", "(x^3,0)", "--terms", "2"]
    )
    assert code == 2


def test_parse_error_exit2(capsys):
    code, _ = run(capsys, ["sum", "--ring", "2,2,1", "--f", "T +"])
    assert code == 2
    code, _ = run(capsys, ["sum", "--ring", "2,2", "--f", "T"])
    assert code == 2


def test_cap_exit3(capsys):
    code, _ = run(capsys, ["sum", "--ring", "2,2,30", "--f", "T"])
    assert code == 3


def test_bound_examples(capsys):
    code, out = run(capsys, ["bound", "kumar", "--ring", "2,2,3", "--degs", "3,1"])
    assert code == 0
    assert abs(json.loads(out)["bound"] - 5 * 2**1.5) < 1e-9
    code, out = run(
        capsys, ["bound", "cor52", "--p", "3", "--g", "1", "--poles", "1:2"]
    )
    assert code == 0
    assert json.loads(out)["coefficient"] == 13.0
    code, out = run(
        capsys,
        ["bound", "thm51", "--p", "3", "--l", "2", "--g", "1", "--poles", "1:2,5:1:1"],
    )
    assert code == 0
    assert json.loads(out)["coefficient"] == 13.0


def test_bound_precondition_exit4(capsys):
    code, _ = run(capsys, ["bound", "cor53", "--p", "2", "--g", "0", "--poles", "1:1"])
    assert code == 4


def test_witt_examples(capsys):
    code, out = run(
        capsys, ["witt", "add", "--p", "2", "--l", "2", "--over", "f2", "(1,0)", "(1,0)"]
    )
    assert code == 0 and out.strip() == "(0,1)"
    code, out = run(
        capsys, ["witt", "mul", "--p", "2", "--l", "2", "--over", "f2", "(1,1)", "(1,1)"]
    )
    assert code == 0 and out.strip() == "(1,0)"
    code, out = run(
        capsys, ["witt", "verschiebung", "--p", "2", "--l", "2", "--over", "f2", "(1,1)"]
    )
    assert code == 0 and out.strip() == "(0,1)"


def test_genus_command(capsys):
    code, out = run(capsys, ["genus", "--ring", "2,2,1", "--f-witt", "(x,0)"])
    assert code == 0
    data = json.loads(out)
    assert data["base_genus"] == 0 and data["genus"] >= 0


def test_verify_exit_codes(capsys):
    code, out = run(capsys, ["verify", "empty"])
    assert code == 0 and json.loads(out)["pass"] is True
    code, out = run(
        capsys, ["verify", "kumar", "--ring", "2,2,1", "--degs", "2,1"]
    )
    assert code == 0
    data = json.loads(out)
    assert data["violations"] == 0 and data["instances"] > 0


def test_verify_csv_format(capsys):
    code, out = run(
        capsys,
        ["verify", "kumar", "--ring", "2,2,1", "--degs", "1,1", "--format", "csv"],
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "instance,abs,bound,ratio"
    assert len(lines) > 1


def test_verify_constant_digits_is_empty(capsys):
    # GR(4,8) with constant digits only: every instance is skipped
    code, out = run(capsys, ["verify", "kumar", "--ring", "2,2,8", "--degs", "0,0"])
    assert code == 0
    data = json.loads(out)
    assert data["instances"] == 0 and data["reports"] == [] and data["pass"] is True


def _dumps_reports(family, result):
    reports = [
        {"instance": r.instance, "abs": r.measured, "bound": r.bound,
         "ratio": r.ratio, "passed": r.passed}
        for r in result
    ]
    violations = sum(not r.passed for r in result)
    payload = {
        "family": family,
        "instances": len(reports),
        "violations": violations,
        "max_ratio": max((r["ratio"] for r in reports), default=0.0),
        "pass": not violations,
        "reports": reports,
    }
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


@pytest.mark.parametrize(
    "family, params",
    [
        ("kumar", dict(p=2, l=2, m=1, deg0=2, deg1=1)),
        ("kumar", dict(p=2, l=2, m=2, deg0=1, deg1=2)),  # with violations
        ("kumar", dict(p=3, l=2, m=1, deg0=2, deg1=1)),
        ("thm31-p1", dict(p=2, l=2, m=1, max_a=3, max_b=2, d=1)),
        ("empty", {}),
    ],
)
def test_sweep_writer_matches_json_dumps(family, params):
    result = verify_sweep(family, **params)
    assert "".join(_sweep_json(family, result)) == _dumps_reports(family, result)


def _rows(names, measured, bound, ratio, passed):
    """A one-label-column sweep result built from its columns."""
    return SweepResult("%s", (names,), *map(np.array, (measured, bound, ratio, passed)))


# a nonzero sum over a zero bound, an exact zero, and a negative zero
_ESCAPES = (['a"b\\c', "d\u00e9\n", "e"], [1.5, 0.0, -0.0], [0.0, 0.0, 2.0],
            [math.inf, 0.0, -0.0], [False, True, True])


def test_sweep_writer_infinite_ratio_and_escapes():
    result = _rows(*_ESCAPES)
    assert result.ratio[0] == float("inf")
    text = "".join(_sweep_json("thm31-p1", result))
    assert text == _dumps_reports("thm31-p1", result)
    assert '"max_ratio": Infinity' in text and '"ratio": Infinity' in text
    assert '"abs": -0.0' in text
    lines = "".join(_sweep_csv(result)).splitlines()
    assert lines[0] == "instance,abs,bound,ratio"
    assert lines[1] == '"a""b\\c",1.5,0.0,inf'


def _csv_rows(result):
    """The `verify` CSV row by row, header first: csv.writer over the
    result's reports, floats spelled by repr."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    rows = []
    for row in [("instance", "abs", "bound", "ratio")] + [
        (r.instance, repr(r.measured), repr(r.bound), repr(r.ratio)) for r in result
    ]:
        writer.writerow(row)
        rows.append(buf.getvalue())
        buf.seek(0)
        buf.truncate()
    return rows


def _json_rows(text):
    """The `verify` JSON cut into the text up to the reports' open
    bracket, each report, and the text after the last one."""
    head, bracket, rest = text.partition('"reports": [\n')
    if not bracket:
        return [text]
    body, _, tail = rest.rpartition("\n  ]")
    return [head + bracket, *re.split(r",\n(?=    \{)", body), "\n  ]" + tail]


_CHUNKED_SWEEPS = {
    "kumar-221-21": lambda: ("kumar", verify_sweep("kumar", p=2, l=2, m=1, deg0=2, deg1=1)),
    "kumar-222-12": lambda: ("kumar", verify_sweep("kumar", p=2, l=2, m=2, deg0=1, deg1=2)),
    "kumar-321-21": lambda: ("kumar", verify_sweep("kumar", p=3, l=2, m=1, deg0=2, deg1=1)),
    "thm31-p1": lambda: ("thm31-p1", verify_sweep("thm31-p1", p=2, l=2, m=1, max_a=3, max_b=2, d=1)),
    "empty": lambda: ("empty", verify_sweep("empty")),
    "escapes": lambda: ("thm31-p1", _rows(*_ESCAPES)),
    # a literal %% in the label, around integer and string columns
    "percent-int": lambda: ("kumar", dataclasses.replace(
        verify_sweep("kumar", p=2, l=2, m=1, deg0=2, deg1=1), label='%%"%d_%d%%_%d\\%%')),
    "percent-str": lambda: ("thm31-p1", dataclasses.replace(
        _rows(["a%b", "%%", "%s", '"'], [1.0, 2.0, 3.0, 4.0], [2.0] * 4,
              [0.5, 1.0, 1.5, 2.0], [True, True, False, False]),
        label="100%%_%s")),
}


@pytest.mark.parametrize("chunk", [1, 2, 3, 7])
@pytest.mark.parametrize("name", list(_CHUNKED_SWEEPS))
def test_sweep_writers_in_chunks(monkeypatch, name, chunk):
    """At every chunk size the pieces join to the documents csv and
    json.dumps write, and no piece is longer than `chunk` rows and their
    separators, so neither writer builds the whole document."""
    family, result = _CHUNKED_SWEEPS[name]()
    monkeypatch.setattr(wittsums.cli, "_CHUNK", chunk)
    want = _dumps_reports(family, result)
    pieces = list(_sweep_json(family, result))
    assert "".join(pieces) == want
    longest = max(map(len, _json_rows(want)))
    assert max(map(len, pieces)) <= chunk * (longest + 2)
    rows = _csv_rows(result)
    pieces = list(_sweep_csv(result))
    assert "".join(pieces) == "".join(rows)
    assert max(map(len, pieces)) <= chunk * (max(map(len, rows)) + 2)


def test_verify_failure_while_writing_exit5(capsys, monkeypatch):
    """A writer that fails after its first piece: exit 5 with one
    `error:` line and no traceback; the output holds the truncated
    document."""
    def failing(family, result):
        yield "{\n"
        raise MemoryError

    monkeypatch.setattr(wittsums.cli, "_sweep_json", failing)
    code = main(["verify", "empty"])
    captured = capsys.readouterr()
    assert code == 5 and captured.out == "{\n"
    assert captured.err.splitlines() == ["error: out of memory"]


@pytest.mark.parametrize("exc", [MemoryError, RuntimeError])
def test_unexpected_failure_exit5(capsys, monkeypatch, exc):
    def boom(args):
        raise exc("boom\nsecond line")

    monkeypatch.setattr(wittsums.cli, "cmd_sum", boom)
    code = main(["sum", "--ring", "2,2,1", "--f", "T"])
    captured = capsys.readouterr()
    assert code == 5 and captured.out == ""
    err = captured.err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")


def test_deterministic_output(capsys):
    argv = ["lfun", "--ring", "2,2,1", "--f-witt", "(x^3,0)", "--terms", "7"]
    _, out1 = run(capsys, argv)
    _, out2 = run(capsys, argv)
    assert out1 == out2


def test_out_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out = run(
        capsys, ["sum", "--ring", "2,2,1", "--f", "T", "--out", str(target)]
    )
    assert code == 0 and out == ""
    assert json.loads(target.read_text())["sum"]["coeffs"] == [1, 1]


def test_elliptic_curve_input(capsys):
    code, out = run(
        capsys,
        [
            "lfun", "--ring", "2,2,1", "--f-witt", "(y,0)",
            "--curve", "y^2+y=x^3", "--terms", "9",
        ],
    )
    assert code == 0
    data = json.loads(out)
    assert data["conductor_degree"] == 7
    assert data["degree"] == 7  # deg D + 2g - 2 with g = 1
    for r in data["inverse_root_moduli"]:
        assert abs(r - 2**0.5) < 1e-6 * 2


def test_singular_curve_exit4(capsys):
    code, _ = run(
        capsys,
        ["genus", "--ring", "2,2,1", "--f-witt", "(x,0)", "--curve", "y^2=x^3"],
    )
    assert code == 4


@pytest.mark.parametrize(
    "argv, expected",
    [
        # a variable other than x, y in the curve: parse error
        (["genus", "--ring", "2,2,1", "--f-witt", "(x,0)", "--curve", "y^2+y=x^3+z"], 2),
        # division in the curve is refused, not truncated to an integer
        (["genus", "--ring", "2,2,1", "--f-witt", "(x,0)", "--curve", "y^2+y=x^3+x/2"], 2),
        # 27^8 instances: refused before any table or grid is built
        (["verify", "kumar", "--ring", "3,2,3", "--degs", "3,3"], 3),
        # 256^4 instances: refused before any table or count is built
        (["verify", "kumar", "--ring", "2,2,8", "--degs", "1,1"], 3),
        # all-constant digits: the bound is undefined
        (["bound", "kumar", "--ring", "2,2,3", "--degs", "0,0"], 4),
        # a characteristic beyond the field cap is refused, not trial-divided
        (["sum", "--ring", "1000000000000000000000007,2,1", "--f", "T"], 3),
        # f0 = 0 and f0 = 1 + 1/x^2 = 1 + P(1/x) give degenerate characters
        (["genus", "--ring", "2,2,1", "--f-witt", "(0,x^3)"], 4),
        (["genus", "--ring", "2,2,1", "--f-witt", "(1,1+1/x^2)"], 4),
        # universal Witt polynomials too costly to build: refused at once
        (["witt", "add", "--p", "7", "--l", "4", "--over", "f7", "(1,0,0,0)", "(1,0,0,0)"], 3),
        # only `verify` has CSV rows: --format is refused elsewhere
        (["sum", "--ring", "2,2,1", "--f", "T", "--format", "csv"], 2),
        # a polynomial in T has no division
        (["sum", "--ring", "2,2,1", "--f", "T/2"], 2),
        # a sum of 2 * (10^8 + 1) Horner steps: refused before any coefficient is built
        (["sum", "--ring", "2,2,1", "--f", "T^100000000"], 3),
        # S_15 would enumerate 3^15 points: refused before S_1 is summed
        (["lfun", "--ring", "3,2,1", "--f-witt", "(x^5,0)", "--terms", "15"], 3),
        # a digit degree that is not an integer is a parse error
        (["verify", "kumar", "--ring", "2,2,3", "--degs", "3,x"], 2),
        (["bound", "kumar", "--ring", "2,2,3", "--degs", "a,1"], 2),
        # an extension degree below 1 is a usage error, not a bound
        (["bound", "thm31", "--ring", "2,2,1", "--f-witt", "(x^3,0)", "--d", "0"], 2),
        (["bound", "thm31", "--ring", "2,2,1", "--f-witt", "(x^3,0)", "--d", "-2"], 2),
        (["verify", "thm31-p1", "--ring", "2,2,1", "--d", "-1"], 2),
        # a bound needs a prime p and m >= 1
        (["bound", "cor52", "--p", "4", "--g", "1", "--poles", "1:2"], 2),
        (["bound", "cor52", "--p", "3", "--m", "-2", "--g", "1", "--poles", "1:2"], 2),
        (["bound", "thm51", "--p", "9", "--g", "1", "--poles", "1:2"], 2),
        (["bound", "cor53", "--p", "3", "--m", "0", "--g", "1", "--poles", "1:2"], 2),
        # an empty exponent range would verify nothing
        (["verify", "thm31-p1", "--ring", "2,2,1", "--max-a", "0"], 2),
        (["verify", "thm31-p1", "--ring", "2,2,1", "--max-a", "-1"], 2),
        (["verify", "thm31-p1", "--ring", "2,2,1", "--max-b", "-1"], 2),
        # a genus below 0 is a usage error, not a bound
        (["bound", "cor52", "--p", "3", "--g", "-1", "--poles", "1:2"], 2),
        (["bound", "thm51", "--p", "3", "--g", "-2", "--poles", "1:2"], 2),
        # a Kumar bound for a ring GR(p^l, m) that does not exist
        (["bound", "kumar", "--ring", "4,2,3", "--degs", "1,1"], 4),
        (["bound", "kumar", "--ring", "2,2,0", "--degs", "1,1"], 4),
        (["bound", "kumar", "--ring", "2,2,-2", "--degs", "1,1"], 4),
        # a negative pole order, a place of degree 0, or an auxiliary divisor
        # of the wrong degree: refused by every general bound
        (["bound", "cor53", "--p", "3", "--g", "1", "--poles", "1:-5"], 4),
        (["bound", "cor52", "--p", "3", "--g", "1", "--poles", "0:2"], 4),
        (["bound", "thm51", "--p", "3", "--g", "1", "--poles", "1:-5,0"], 4),
        (["bound", "cor52", "--p", "3", "--g", "1", "--poles", "1:2:5"], 4),
        # a sweep over a ring GR(p^l, m) or Witt length that does not exist
        (["verify", "kumar", "--ring", "2,2,0", "--degs", "1,1"], 4),
        (["verify", "kumar", "--ring", "2,2,-1", "--degs", "1,1"], 4),
        (["verify", "thm31-p1", "--ring", "2,0,1"], 4),
        (["verify", "thm31-p1", "--ring", "2,-1,1"], 4),
        # a twist with residue 0: psi_b has order below p^l, so f's conductor
        # and degree are not its own
        (["lfun", "--ring", "2,2,1", "--f-witt", "(x^3,0)", "--terms", "7", "--twist", "2"], 4),
        (["lfun", "--ring", "2,2,1", "--f-witt", "(x^3,0)", "--terms", "7", "--twist", "0"], 4),
        (["lfun", "--ring", "3,2,1", "--f-witt", "(x,0)", "--terms", "3", "--twist", "6"], 4),
        # exponent counts mod p^l above the enumeration cap: refused before
        # the p^l counts are allocated
        (["sum", "--ring", "8191,4,1", "--f", "T"], 3),
        (["sum", "--ring", "8191,2,1", "--f", "T"], 3),
        (["sum", "--ring", "101,4,1", "--f", "T"], 3),
        (["verify", "thm31-p1", "--ring", "8191,2,1", "--max-a", "1", "--max-b", "0"], 3),
    ],
)
def test_exit_code_table(capsys, argv, expected):
    code, out = run(capsys, argv)
    assert code == expected and out == ""


@pytest.mark.parametrize(
    "argv, option",
    [
        (["verify", "kumar", "--ring", "2,2,3", "--degs", "3,x"], "--degs"),
        (["bound", "thm31", "--ring", "2,2,1", "--f-witt", "(x^3,0)", "--d", "0"], "--d"),
        (["verify", "thm31-p1", "--ring", "2,2,1", "--d", "x"], "--d"),
        (["bound", "cor52", "--p", "4", "--g", "1", "--poles", "1:2"], "--p"),
        (["bound", "cor52", "--p", "3", "--m", "-2", "--g", "1", "--poles", "1:2"], "--m"),
        (["verify", "thm31-p1", "--ring", "2,2,1", "--max-a", "0"], "--max-a"),
        (["verify", "thm31-p1", "--ring", "2,2,1", "--max-b", "-1"], "--max-b"),
        (["bound", "cor52", "--p", "3", "--g", "-1", "--poles", "1:2"], "--g"),
    ],
)
def test_degree_errors_name_their_option(capsys, argv, option):
    assert main(argv) == 2
    err = capsys.readouterr().err.splitlines()
    assert option in err[-1]


# stdout of `genus`, pinned byte for byte
GENUS_GOLDEN = [
    (
        ["--ring", "2,2,1", "--f-witt", "(x^3,0)"],
        (
            '{\n'
            '  "base_genus": 0,\n'
            '  "curve": null,\n'
            '  "f": "(x^3,0)",\n'
            '  "genus": 6,\n'
            '  "ring": {\n'
            '    "l": 2,\n'
            '    "m": 1,\n'
            '    "p": 2\n'
            '  }\n'
            '}\n'
        ),
    ),
    (
        ["--ring", "2,3,1", "--curve", "y^2+y=x^3", "--f-witt", "(x,y,x)"],
        (
            '{\n'
            '  "base_genus": 1,\n'
            '  "curve": "y^2+y=x^3",\n'
            '  "f": "(x,y,x)",\n'
            '  "genus": 20,\n'
            '  "ring": {\n'
            '    "l": 3,\n'
            '    "m": 1,\n'
            '    "p": 2\n'
            '  }\n'
            '}\n'
        ),
    ),
    (
        ["--ring", "3,2,1", "--curve", "y^2=x^3+x^2+1", "--f-witt", "(x,y)"],
        (
            '{\n'
            '  "base_genus": 1,\n'
            '  "curve": "y^2=x^3+x^2+1",\n'
            '  "f": "(x,y)",\n'
            '  "genus": 25,\n'
            '  "ring": {\n'
            '    "l": 2,\n'
            '    "m": 1,\n'
            '    "p": 3\n'
            '  }\n'
            '}\n'
        ),
    ),
    (
        # poles at two degree-2 places; the genus is checked against the sum
        # over all multiples in test_asw.py
        ["--ring", "2,2,1", "--curve", "y^2+y=x^3", "--f-witt", "(x+1/(x^2+x+1),0)"],
        (
            '{\n'
            '  "base_genus": 1,\n'
            '  "curve": "y^2+y=x^3",\n'
            '  "f": "(x+1/(x^2+x+1),0)",\n'
            '  "genus": 21,\n'
            '  "ring": {\n'
            '    "l": 2,\n'
            '    "m": 1,\n'
            '    "p": 2\n'
            '  }\n'
            '}\n'
        ),
    ),
]


@pytest.mark.parametrize("args, expected", GENUS_GOLDEN)
def test_genus_golden_output(capsys, args, expected):
    code, out = run(capsys, ["genus"] + args)
    assert code == 0 and out == expected


# stdout of `lfun` with d > 1 embedding and a twist, pinned byte for byte
LFUN_GOLDEN = [
    (
        ["--ring", "3,2,2", "--f-witt", "(x,x^2)", "--terms", "4", "--twist", "2"],
        (
            '{\n'
            '  "coefficients": [\n'
            '    [\n'
            '      1,\n'
            '      0,\n'
            '      0,\n'
            '      0,\n'
            '      0,\n'
            '      0\n'
            '    ],\n'
            '    [\n'
            '      -1,\n'
            '      1,\n'
            '      -3,\n'
            '      -2,\n'
            '      -1,\n'
            '      -3\n'
            '    ],\n'
            '    [\n'
            '      0,\n'
            '      -9,\n'
            '      0,\n'
            '      0,\n'
            '      -9,\n'
            '      0\n'
            '    ]\n'
            '  ],\n'
            '  "conductor_degree": 4,\n'
            '  "curve": null,\n'
            '  "degree": 2,\n'
            '  "f": "(x,x^2)",\n'
            '  "inverse_root_moduli": [\n'
            '    2.999999999999998,\n'
            '    3.000000000000001\n'
            '  ],\n'
            '  "power_sums_abs": [\n'
            '    5.226681596905678,\n'
            '    9.318200515432482,\n'
            '    1.66313277813686,\n'
            '    75.1711391541938\n'
            '  ],\n'
            '  "ring": {\n'
            '    "l": 2,\n'
            '    "m": 2,\n'
            '    "p": 3\n'
            '  },\n'
            '  "trailing_zero": true\n'
            '}\n'
        ),
    ),
    (
        ["--ring", "2,2,2", "--f-witt", "(x^3,x)", "--terms", "6", "--twist", "3"],
        (
            '{\n'
            '  "coefficients": [\n'
            '    [\n'
            '      1,\n'
            '      0\n'
            '    ],\n'
            '    [\n'
            '      2,\n'
            '      0\n'
            '    ],\n'
            '    [\n'
            '      4,\n'
            '      -2\n'
            '    ],\n'
            '    [\n'
            '      4,\n'
            '      -8\n'
            '    ],\n'
            '    [\n'
            '      0,\n'
            '      -16\n'
            '    ],\n'
            '    [\n'
            '      0,\n'
            '      -32\n'
            '    ]\n'
            '  ],\n'
            '  "conductor_degree": 7,\n'
            '  "curve": null,\n'
            '  "degree": 5,\n'
            '  "f": "(x^3,x)",\n'
            '  "inverse_root_moduli": [\n'
            '    1.9999999999999978,\n'
            '    1.9999999999999991,\n'
            '    1.9999999999999991,\n'
            '    2.0000000000000004,\n'
            '    2.000000000000002\n'
            '  ],\n'
            '  "power_sums_abs": [\n'
            '    2.0,\n'
            '    5.65685424949238,\n'
            '    12.649110640673518,\n'
            '    8.0,\n'
            '    82.365041127896,\n'
            '    217.6235281397671\n'
            '  ],\n'
            '  "ring": {\n'
            '    "l": 2,\n'
            '    "m": 2,\n'
            '    "p": 2\n'
            '  },\n'
            '  "trailing_zero": true\n'
            '}\n'
        ),
    ),
]


@pytest.mark.parametrize("args, expected", LFUN_GOLDEN, ids=["3,2,2", "2,2,2"])
def test_lfun_golden_output(capsys, args, expected):
    code, out = run(capsys, ["lfun"] + args)
    assert code == 0 and out == expected


def test_verify_thm31_length_three_pads_the_vectors(capsys):
    names = {}
    for l in (2, 3):
        argv = ["verify", "thm31-p1", "--ring", f"2,{l},1", "--max-a", "2", "--max-b", "1"]
        code, out = run(capsys, argv)
        assert code == 0
        names[l] = [r["instance"] for r in json.loads(out)["reports"]]
    assert names[2] == ["(x^1,x^0)_d1", "(x^1,x^1)_d1", "(x^2,x^0)_d1", "(x^2,x^1)_d1"]
    assert names[3] == [n.replace(")_", ",0)_") for n in names[2]]


def test_verify_thm31_cube_roots_on_the_bound(capsys):
    """At p^l = 3 the sums lie in Z[zeta_3], not Z[i]: (x^2) has
    S = 1 + 2 zeta_3 with |S|^2 = 3 = B^2, on the bound and passing."""
    code, out = run(capsys, ["verify", "thm31-p1", "--ring", "3,1,1"])
    assert code == 0
    doc = json.loads(out)
    assert doc["violations"] == 0 and doc["max_ratio"] == 1.0
    assert [(r["instance"], r["passed"], r["bound"]) for r in doc["reports"]] == [
        ("(x^1)_d1", True, 0.0), ("(x^2)_d1", True, 3**0.5), ("(x^3)_d1", True, 0.0)]
    assert doc["reports"][1]["abs"] == doc["reports"][1]["bound"]
