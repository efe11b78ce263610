"""CLI contract tests: exit statuses, JSON round-trips, table formats."""
import argparse
import ast
import getopt
import inspect
import itertools
import json
import re
from fractions import Fraction
from types import MappingProxyType

import pytest
from hypothesis import given, strategies as st

from stringydet import cli, exactalg, groth, oracle, report, stringy
from stringydet.cli import EXIT_BUDGET, EXIT_FAIL, EXIT_OK, EXIT_USAGE, main
from stringydet.report import compute_record, table_rows
from stringydet.exactalg import ONE, LaurentPoly, q_pow

from test_stringy import wrong_discrepancy


# ``table --rmax 4 --variety both --format latex``, byte for byte.
LATEX_RMAX_4_BOTH = r"""\begin{tabular}{lllll}
$r$ & $k$ & variety & $E_{st}$ & Euler \\ \hline
2 & 1 & affine & $(uv)^{2} + (uv)^{3}$ & 2 \\
2 & 1 & projective & $1 + 2(uv) + (uv)^{2}$ & 4 \\
3 & 1 & affine & $(uv)^{3} + (uv)^{4} + (uv)^{5}$ & 3 \\
3 & 1 & projective & $1 + 2(uv) + 3(uv)^{2} + 2(uv)^{3} + (uv)^{4}$ & 9 \\
3 & 2 & affine & $(uv)^{6} + (uv)^{7} + (uv)^{8}$ & 3 \\
3 & 2 & projective & $1 + 2(uv) + 3(uv)^{2} + 3(uv)^{3} + 3(uv)^{4} + 3(uv)^{5} + 2(uv)^{6} + (uv)^{7}$ & 18 \\
4 & 1 & affine & $(uv)^{4} + (uv)^{5} + (uv)^{6} + (uv)^{7}$ & 4 \\
4 & 1 & projective & $1 + 2(uv) + 3(uv)^{2} + 4(uv)^{3} + 3(uv)^{4} + 2(uv)^{5} + (uv)^{6}$ & 16 \\
4 & 2 & affine & $(uv)^{8} + (uv)^{9} + 2(uv)^{10} + (uv)^{11} + (uv)^{12}$ & 6 \\
4 & 2 & projective & $1 + 2(uv) + 4(uv)^{2} + 5(uv)^{3} + 6(uv)^{4} + 6(uv)^{5} + 6(uv)^{6} + 6(uv)^{7} + 5(uv)^{8} + 4(uv)^{9} + 2(uv)^{10} + (uv)^{11}$ & 48 \\
4 & 3 & affine & $(uv)^{12} + (uv)^{13} + (uv)^{14} + (uv)^{15}$ & 4 \\
4 & 3 & projective & $1 + 2(uv) + 3(uv)^{2} + 4(uv)^{3} + 4(uv)^{4} + 4(uv)^{5} + 4(uv)^{6} + 4(uv)^{7} + 4(uv)^{8} + 4(uv)^{9} + 4(uv)^{10} + 4(uv)^{11} + 3(uv)^{12} + 2(uv)^{13} + (uv)^{14}$ & 48 \\
\end{tabular}
"""

# ``oracle --p 2 --rmax 2``, byte for byte: the check order and detail strings.
ORACLE_P2_RMAX_2 = """estimated candidates: 22
pass  gl(1) at q=2  (1)
pass  gl(2) at q=2  (6)
pass  grassmannian(0,1) at q=2  (1)
pass  independent_tuples(0,1) at q=2  (1)
pass  grassmannian(1,1) at q=2  (1)
pass  independent_tuples(1,1) at q=2  (1)
pass  grassmannian(0,2) at q=2  (1)
pass  independent_tuples(0,2) at q=2  (1)
pass  grassmannian(1,2) at q=2  (3)
pass  independent_tuples(1,2) at q=2  (3)
pass  grassmannian(2,2) at q=2  (1)
pass  independent_tuples(2,2) at q=2  (6)
pass  rank_stratum(1,1,0) at q=2  (1)
pass  rank_stratum(1,1,1) at q=2  (1)
pass  rank_bounded(1,1,<= 0) at q=2  (1)
pass  rank_bounded(1,1,<= 1) at q=2  (2)
pass  rank_stratum(1,2,0) at q=2  (1)
pass  rank_stratum(1,2,1) at q=2  (3)
pass  rank_bounded(1,2,<= 0) at q=2  (1)
pass  rank_bounded(1,2,<= 1) at q=2  (4)
pass  rank_stratum(2,2,0) at q=2  (1)
pass  rank_stratum(2,2,1) at q=2  (9)
pass  rank_stratum(2,2,2) at q=2  (6)
pass  rank_bounded(2,2,<= 0) at q=2  (1)
pass  rank_bounded(2,2,<= 1) at q=2  (10)
pass  rank_bounded(2,2,<= 2) at q=2  (16)
pass  rank_identity(1,1) at q=2  (2)
pass  rank_identity(2,1) at q=2  (4)
pass  rank_identity(2,2) at q=2  (16)
"""


def run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCompute:
    def test_affine_3_2_json(self, capsys):
        code, out, _ = run(["compute", "--r", "3", "--k", "2",
                            "--variety", "affine", "--format", "json"], capsys)
        assert code == EXIT_OK
        record = json.loads(out)
        assert record["stringyE"] == [[6, "1"], [7, "1"], [8, "1"]]
        assert record["eulerNumber"] == "3"

    def test_projective_2_1(self, capsys):
        code, out, _ = run(["compute", "--r", "2", "--k", "1",
                            "--variety", "projective"], capsys)
        assert code == EXIT_OK
        assert "euler = 4" in out
        assert "1*q^0 + 2*q^1 + 1*q^2" in out

    def test_trivial_point(self, capsys):
        code, out, _ = run(["compute", "--r", "1", "--k", "0"], capsys)
        assert code == EXIT_OK
        assert "1*q^0" in out

    def test_usage_error(self, capsys):
        code, _, err = run(["compute", "--r", "2", "--k", "3"], capsys)
        assert code == EXIT_USAGE
        assert "error" in err

    @pytest.mark.parametrize("argv,message", [
        ("--r 0 --k 0", "need 0 <= k <= r-1, got r=0, k=0"),
        ("--r 2 --k 2", "need 0 <= k <= r-1, got r=2, k=2"),
        ("--r 2 --k 0 --variety projective", "need 1 <= k <= r-1, got r=2, k=0"),
    ], ids=["r0", "k_equals_r", "projective_k0"])
    def test_bad_rank_bound_is_a_usage_error(self, argv, message, capsys):
        code, out, err = run(["compute", *argv.split()], capsys)
        assert code == EXIT_USAGE
        assert out == ""
        assert err.splitlines() == [f"error: {message}"]


class TestJsonRoundTrip:
    def test_round_trip(self, capsys):
        # the printed JSON reads back as the record it was written from
        for r, k, variety in [(4, 2, "affine"), (4, 2, "projective"), (2, 1, "affine"),
                              (1, 0, "affine")]:
            code, out, _ = run(["compute", "--r", str(r), "--k", str(k),
                                "--variety", variety, "--format", "json"], capsys)
            assert code == EXIT_OK
            assert json.loads(out) == compute_record(r, k, variety)

    def test_coefficients_are_strings(self):
        record = compute_record(3, 1, "projective")
        assert all(isinstance(c, str) for _, c in record["stringyE"])

    @pytest.mark.parametrize("argv", [
        "compute --r 7 --k 6 --variety affine --format json",
        "compute --r 7 --k 6 --variety projective --format json",
        "table --rmax 6 --variety both --format json",
        "zeta --r 3 --order 4 --format json",
    ], ids=["compute_affine", "compute_projective", "table", "zeta"])
    def test_every_coefficient_is_an_integer_string(self, argv, capsys):
        # a float coefficient would print as "1.0"
        code, out, _ = run(argv.split(), capsys)
        assert code == EXIT_OK
        payload = json.loads(out)
        if argv.startswith("compute"):
            strings = [c for _, c in payload["stringyE"]] + [payload["eulerNumber"]]
        elif argv.startswith("table"):
            strings = [c for row in payload for _, c in row["coefficients"]]
            strings += [row["euler"] for row in payload]
        else:
            strings = [c for pairs in payload["coefficients"].values() for _, c in pairs]
        assert strings
        assert all(re.fullmatch(r"-?\d+", c) for c in strings), strings


    def test_compute_json_is_pinned(self, capsys):
        code, out, _ = run("compute --r 2 --k 1 --format json".split(), capsys)
        assert code == EXIT_OK
        assert out == COMPUTE_2_1_JSON

    def test_zeta_json_is_pinned(self, capsys):
        code, out, _ = run("zeta --r 1 --order 1 --format json".split(), capsys)
        assert code == EXIT_OK
        assert out == ZETA_1_1_JSON


COMPUTE_2_1_JSON = """\
{
  "checks": [
    [
      "closed_equals_orbit_sum",
      true,
      "exact polynomial comparison of the two routes"
    ]
  ],
  "discrepancies": [
    [
      0,
      2
    ]
  ],
  "eulerNumber": "2",
  "hodgeDiagonal": {
    "2": 1,
    "3": 1
  },
  "k": 1,
  "nonNegative": true,
  "r": 2,
  "stringyE": [
    [
      2,
      "1"
    ],
    [
      3,
      "1"
    ]
  ],
  "variety": "affine"
}
"""

ZETA_1_1_JSON = """\
{
  "r": 1,
  "order": 1,
  "coefficients": {
    "0": [
      [
        0,
        "-1"
      ],
      [
        1,
        "1"
      ]
    ],
    "1": [
      [
        -1,
        "-1"
      ],
      [
        0,
        "1"
      ]
    ]
  }
}
"""


class TestVerify:
    def test_identities_small(self, capsys):
        code, out, _ = run(["verify", "--suite", "identities", "--rmax", "3"], capsys)
        assert code == EXIT_OK
        assert "FAIL" not in out
        assert "pass" in out

    def test_zeta_suite(self, capsys):
        code, out, _ = run(["verify", "--suite", "zeta", "--rmax", "2",
                            "--order", "3"], capsys)
        assert code == EXIT_OK

    def test_oracle_suite(self, capsys):
        code, out, _ = run(["verify", "--suite", "oracle", "--p", "2",
                            "--rmax", "2"], capsys)
        assert code == EXIT_OK

    def test_orbits_suite(self, capsys):
        code, out, err = run(["verify", "--suite", "orbits", "--rmax", "3"], capsys)
        assert code == EXIT_OK
        assert err == ""

    def test_orbit_cap_is_the_least_with_a_negative_bound(self, monkeypatch):
        def least_cap(r, k):  # the loop the integer formula replaced
            cap = 0
            while stringy.orbit_tail_degree_bound(r, k, cap) >= 0:
                cap += 1
            return cap

        monkeypatch.setattr(stringy, "truncated_orbit_sum", lambda r, k, cap, variety: ONE)
        names = [name for name, _, _ in report.suite_orbits(12)]
        assert names == [f"orbit_convergence_{variety}({r},{k},cap={least_cap(r, k)})"
                         for r in range(2, 13) for k in range(1, r)
                         for variety in report.VARIETIES]

    def test_clamped_rmax_is_noted(self, capsys):
        code, out, err = run(["verify", "--suite", "zeta", "--rmax", "5",
                              "--order", "1"], capsys)
        assert code == EXIT_OK
        assert err.splitlines() == [
            "note: the zeta suite runs up to r = 3, not --rmax 5"]
        assert [line.split()[0] for line in out.splitlines()] == ["pass"] * 3

    def test_wrong_route_names_its_first_difference(self, monkeypatch, capsys):
        monkeypatch.setattr(stringy, "grassmannian_recursive",
                            lambda r, k: groth.gauss_binomial(k, r) + q_pow(3))
        code, out, _ = run(["verify", "--suite", "identities", "--rmax", "3"], capsys)
        assert code == EXIT_FAIL
        lines = out.splitlines()
        failed = [line for line in lines if line.startswith("FAIL")]
        assert failed == [
            f"FAIL  recursion_is_grassmannian({r},{k})  "
            "(first difference at q^3: route 1, reference 0)"
            for r, k in ((2, 1), (3, 1), (3, 2))]
        assert len(lines) > len(failed)
        assert all(line.startswith("pass") for line in lines if line not in failed)

    def test_wrong_orbit_measure_names_its_first_difference(self, monkeypatch, capsys):
        measure = stringy.orbit_measure
        monkeypatch.setattr(stringy, "orbit_measure",  # times q on every tail of size 2
                            lambda r, k, tail: measure(r, k, tail).shift(sum(tail) == 2))
        code, out, _ = run(["verify", "--suite", "orbits", "--rmax", "3"], capsys)
        assert code == EXIT_FAIL
        assert [line for line in out.splitlines() if line.startswith("FAIL")] == [
            f"FAIL  orbit_convergence_{variety}(3,2,cap=4)  "
            "(first difference at q^-1: route 3, reference 0)" for variety in report.VARIETIES]

    def test_wrong_zeta_series_names_its_first_difference(self, monkeypatch, capsys):
        expansion = stringy.zeta_closed_expansion
        monkeypatch.setattr(stringy, "zeta_closed_expansion", lambda r, order: tuple(
            c + q_pow(-4) * (n == 3) for n, c in enumerate(expansion(r, order))))
        code, out, _ = run(["verify", "--suite", "zeta", "--rmax", "2"], capsys)
        assert code == EXIT_FAIL
        assert out.splitlines() == [
            f"FAIL  zeta_consistency(r={r},order=4)  "
            "(first difference at T^3 q^-4: route 1, reference 0)" for r in (1, 2)]

    @pytest.mark.parametrize("extra,detail", [(1, "route has an extra T^5"),
                                              (-1, "route is missing T^4")])
    def test_zeta_series_of_another_length_names_its_first_term(self, extra, detail,
                                                                 monkeypatch, capsys):
        # the shared prefix agrees: the lengths decide
        expansion = stringy.zeta_closed_expansion
        monkeypatch.setattr(stringy, "zeta_closed_expansion",
                            lambda r, order: expansion(r, order + extra))
        code, out, _ = run(["verify", "--suite", "zeta", "--rmax", "2"], capsys)
        assert code == EXIT_FAIL
        assert out.splitlines() == [
            f"FAIL  zeta_consistency(r={r},order=4)  ({detail})" for r in (1, 2)]

    @pytest.mark.parametrize("at", [0, 1])
    def test_wrong_discrepancy_fails_the_resolution_checks(self, at, monkeypatch, capsys):
        argv = ["verify", "--suite", "identities", "--rmax", "5"]
        code, out, _ = run(argv, capsys)
        assert code == EXIT_OK
        names = [line.split("  ")[1] for line in out.splitlines()]
        wrong_discrepancy(monkeypatch, at)
        code, out, err = run(argv, capsys)
        assert code == EXIT_FAIL and err == ""
        lines = [line.split("  ") for line in out.splitlines()]
        assert [name for _, name, *_ in lines] == names
        failed = {name for status, name, *_ in lines if status == "FAIL"}
        assert all(name.startswith(("resolution_", "rank_one_resolution(")) for name in failed)
        # every affine case that reads a_at fails; the projective sum never reads a_0
        assert {f"resolution_affine({r},{k})"
                for r in range(2, 6) for k in range(at + 1, r)} <= failed
        assert any(name.startswith("resolution_projective(") for name in failed) == (at > 0)

    def test_orbit_routes_share_one_chain_sum(self, capsys):
        stringy.grassmannian_subset_sum.cache_clear()
        code, _, _ = run(["verify", "--suite", "identities", "--rmax", "6"], capsys)
        assert code == EXIT_OK
        # both orbit routes of each (r, k), 1 <= k < r <= 6, read one cached chain sum:
        # 15 misses, and asking for each (r, k) again misses no more
        grid = [(r, k) for r in range(2, 7) for k in range(1, r)]
        assert stringy.grassmannian_subset_sum.cache_info().misses == len(grid) == 15
        for r, k in grid:
            stringy.grassmannian_subset_sum(r, k)
        assert stringy.grassmannian_subset_sum.cache_info().misses == len(grid)

    def test_identities_compute_each_closed_form_once(self, monkeypatch, capsys):
        calls = []

        def counted(name):
            closed_form = getattr(stringy, name)

            def wrapped(r, k):
                calls.append((name, r, k))
                return closed_form(r, k)
            return wrapped

        for name in ("stringy_e_affine", "stringy_e_projective"):
            monkeypatch.setattr(stringy, name, counted(name))
        code, _, _ = run(["verify", "--suite", "identities", "--rmax", "6"], capsys)
        assert code == EXIT_OK
        assert len(calls) == 30
        assert sorted(calls) == [(name, r, k)
                                 for name in ("stringy_e_affine", "stringy_e_projective")
                                 for r in range(2, 7) for k in range(1, r)]

    def test_bad_prime_is_a_usage_error(self, capsys):
        code, out, err = run(["verify", "--suite", "oracle", "--p", "11"], capsys)
        assert code == EXIT_USAGE
        assert out == ""
        assert err.splitlines() == ["error: 11 is above the cap 7"]


class TestEmptyGrid:
    @pytest.mark.parametrize("argv,message", [
        ("verify --suite identities --rmax 1", "--suite identities --rmax 1"),
        ("verify --suite orbits --rmax 0", "--suite orbits --rmax 0"),
        ("oracle --p 2 --rmax 0", "--rmax 0"),
    ], ids=["identities", "orbits", "oracle"])
    def test_no_check_is_a_usage_error(self, argv, message, capsys):
        code, out, err = run(argv.split(), capsys)
        assert code == EXIT_USAGE
        assert out == ""
        assert err.splitlines() == [f"error: no check to run: {message}"]

    def test_all_at_rmax_1_runs_zeta_and_oracle(self, capsys):
        code, out, err = run(["verify", "--suite", "all", "--rmax", "1"], capsys)
        assert code == EXIT_OK
        assert err == ""
        names = [line.split(None, 1)[1] for line in out.splitlines()]
        assert names[0] == "zeta_consistency(r=1,order=4)"
        assert "gl(1) at q=2  (1)" in names
        assert all(line.startswith("pass") for line in out.splitlines())


class TestTable:
    def test_csv_rows_rmax_3(self, capsys):
        code, out, _ = run(["table", "--rmax", "3", "--format", "csv"], capsys)
        assert code == EXIT_OK
        lines = out.strip().splitlines()
        assert lines[0] == "r,k,variety,dim,degree,euler,nonneg,coefficients"
        assert len(lines) == 1 + 3  # (2,1), (3,1), (3,2)

    def test_empty_grid(self, capsys):
        # a grid with no row is a usage error in every format, as for verify and oracle
        for rmax, fmt in [("1", "csv"), ("1", "json"), ("0", "latex"), ("-3", "csv")]:
            code, out, err = run(["table", "--rmax", rmax, "--format", fmt], capsys)
            assert code == EXIT_USAGE
            assert out == ""
            assert err.splitlines() == [f"error: no row to tabulate: --rmax {rmax}"]

    def test_json_has_one_row_per_line(self, capsys):
        code, out, _ = run("table --rmax 6 --variety both --format json".split(), capsys)
        assert code == EXIT_OK
        # a row carries its Hodge diagonal, printed as [exponent, "coefficient"] pairs
        rows = [{**row, "coefficients": [[e, str(c)] for e, c in row["coefficients"].items()]}
                for row in table_rows(6, ["affine", "projective"])]
        lines = out.splitlines()
        assert lines[0] == "[" and lines[-1] == "]"
        assert len(lines) == len(rows) + 2 == 32
        assert [json.loads(line.rstrip(",")) for line in lines[1:-1]] == rows
        assert json.loads(out) == json.loads(json.dumps(rows, indent=2))

    def test_euler_column_4_2(self):
        rows = {(row["r"], row["k"], row["variety"]): row
                for row in list(table_rows(4, ["affine", "projective"]))}
        assert rows[(4, 2, "affine")]["euler"] == "6"
        assert rows[(4, 2, "projective")]["euler"] == "48"

    def test_latex_uses_uv(self, capsys):
        code, out, _ = run(["table", "--rmax", "2", "--format", "latex"], capsys)
        assert code == EXIT_OK
        assert "(uv)^{3}" in out
        assert "q" not in out.replace("tabular", "").replace("Euler", "")

    def test_latex_rmax_4_both_is_pinned(self, capsys):
        code, out, err = run("table --rmax 4 --variety both --format latex".split(), capsys)
        assert (code, err) == (EXIT_OK, "")
        assert out == LATEX_RMAX_4_BOTH

    def test_deterministic(self, capsys):
        first = run(["table", "--rmax", "4", "--format", "json"], capsys)
        second = run(["table", "--rmax", "4", "--format", "json"], capsys)
        assert first == second


def printed_euler_numbers(capsys, rmax: int) -> dict:
    """(r, k, variety) -> the Euler numbers that ``table`` and ``compute`` print, and the
    exit status of ``compute``."""
    code, out, _ = run(f"table --rmax {rmax} --variety both --format json".split(), capsys)
    assert code == EXIT_OK
    printed = {}
    for row in json.loads(out):
        r, k, variety = row["r"], row["k"], row["variety"]
        code, out, _ = run(f"compute --r {r} --k {k} --variety {variety}".split(), capsys)
        euler = re.search(r"^euler = (\S+)", out, re.M).group(1)
        printed[r, k, variety] = (row["euler"], euler, code)
    return printed


class TestPrintedEulerNumber:
    """The printed Euler number is the sum of a Hodge diagonal; ``closed.evaluate(1)``,
    the value at q = 1 that it replaced, is kept here as its oracle."""

    def test_equals_the_value_at_one(self, capsys):
        printed = printed_euler_numbers(capsys, 13)
        assert len(printed) == 2 * 78
        for (r, k, variety), numbers in printed.items():
            closed = report._routes(variety)[0](r, k)
            euler = str(closed.evaluate(1))
            assert numbers == (euler, euler, EXIT_OK), (r, k, variety)

    @pytest.mark.parametrize("variety", report.VARIETIES)
    def test_a_patched_coefficient_moves_it_and_fails_the_check(self, variety, capsys,
                                                                monkeypatch):
        name = report.VARIETIES[variety][0]
        closed_form = getattr(stringy, name)

        def patched(r, k):  # one more at the middle exponent
            closed = closed_form(r, k)
            return closed + q_pow((closed.order() + closed.degree()) // 2)
        monkeypatch.setattr(stringy, name, patched)
        for (r, k, printed), numbers in printed_euler_numbers(capsys, 5).items():
            # the patched closed form also fails compute's comparison with the orbit route
            closed = getattr(stringy, report.VARIETIES[printed][0])(r, k)
            euler, code = str(closed.evaluate(1)), EXIT_OK
            if printed == variety:
                assert euler == str(closed_form(r, k).evaluate(1) + 1)
                code = EXIT_FAIL
            assert numbers == (euler, euler, code), (r, k, printed)
        code, out, _ = run("verify --suite identities --rmax 5".split(), capsys)
        assert code == EXIT_FAIL
        verdicts = {line.split()[1]: line.split()[0] for line in out.splitlines()}
        for r in range(2, 6):
            for k in range(1, r):
                for checked in report.VARIETIES:
                    expected = "FAIL" if checked == variety else "pass"
                    assert verdicts[f"euler_{checked}({r},{k})"] == expected, (checked, r, k)

    @pytest.mark.parametrize("variety", report.VARIETIES)
    def test_a_closed_form_with_no_diagonal_fails_its_checks(self, variety, capsys,
                                                             monkeypatch):
        # every check is still listed and run, and those read off the diagonal say why
        names = [name for name, _, _ in report.suite_identities(4)]
        name = report.VARIETIES[variety][0]
        closed_form = getattr(stringy, name)

        def patched(r, k):  # a half at the lowest exponent
            closed = closed_form(r, k)
            return closed + LaurentPoly({closed.order(): Fraction(1, 2)})
        monkeypatch.setattr(stringy, name, patched)
        code, out, err = run("verify --suite identities --rmax 4".split(), capsys)
        assert (code, err) == (EXIT_FAIL, "")
        assert [line.split()[1] for line in out.splitlines()] == names
        failing = {f"euler_{variety}"} | ({"nonnegativity"} if variety == "projective" else set())
        for line in out.splitlines():
            verdict, check = line.split()[:2]
            kind = check.split("(")[0]
            if kind in failing:
                assert verdict == "FAIL" and "(non-integer coefficient " in line, line
            elif kind in ("euler_affine", "euler_projective", "nonnegativity"):
                assert verdict == "pass", line


class TestZetaAndOracle:
    def test_zeta_json(self, capsys):
        code, out, _ = run(["zeta", "--r", "1", "--order", "2",
                            "--format", "json"], capsys)
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["coefficients"]["0"] == [[0, "-1"], [1, "1"]]

    def test_oracle_pass(self, capsys):
        code, out, _ = run(["oracle", "--p", "3", "--rmax", "2"], capsys)
        assert code == EXIT_OK
        assert out.startswith("estimated candidates:")

    def test_oracle_p2_rmax_2_is_pinned(self, capsys):
        code, out, err = run("oracle --p 2 --rmax 2".split(), capsys)
        assert (code, err) == (EXIT_OK, "")
        assert out == ORACLE_P2_RMAX_2

    def test_non_prime_is_a_usage_error(self, capsys):
        code, out, err = run(["oracle", "--p", "4", "--rmax", "2"], capsys)
        assert code == EXIT_USAGE
        assert out == ""
        assert err.splitlines() == ["error: 4 is not prime"]

    def test_budget_exit(self, capsys):
        code, _, err = run(["oracle", "--p", "2", "--rmax", "6",
                            "--budget", "1000"], capsys)
        assert code == EXIT_BUDGET
        assert "budget" in err

    @pytest.mark.parametrize("argv", [
        "oracle --p 2 --rmax 3 --budget -1",
        "verify --suite oracle --rmax 3 --budget -1",
        "verify --suite all --rmax 5 --budget -5",
        "verify --suite identities --rmax 3 --budget -1",
    ], ids=["oracle", "verify_oracle", "verify_all", "verify_identities"])
    def test_negative_budget_is_a_usage_error(self, argv, capsys):
        code, out, err = run(argv.split(), capsys)
        budget = argv.split()[-1]
        assert code == EXIT_USAGE
        assert out == ""
        assert err.splitlines() == [f"error: --budget must be nonnegative, got {budget}"]

    def test_budget_gates_the_whole_run(self, capsys):
        # the censuses up to 4 x 4 fit 10^8 one by one; their sum with the
        # larger ones is checked before any of them is enumerated
        code, out, err = run(["oracle", "--p", "3", "--rmax", "5",
                              "--budget", "100000000"], capsys)
        assert code == EXIT_BUDGET
        assert out == "estimated candidates: 850833407379\n"
        assert err == "error: 850833407379 candidates exceed the budget 100000000\n"

    @pytest.mark.parametrize("argv", [
        "oracle --p 2305843009213693951 --rmax 2",
        "verify --suite oracle --p 2305843009213693951 --rmax 2",
        f"oracle --p {10 ** 400} --rmax 2",
        f"verify --suite oracle --p {10 ** 400} --rmax 2",
    ], ids=["oracle_mersenne", "verify_mersenne", "oracle_huge", "verify_huge"])
    def test_huge_prime_is_refused_by_the_cap(self, argv, capsys):
        # the cap comes before any trial division or square root of p
        code, out, err = run(argv.split(), capsys)
        assert code == EXIT_USAGE
        assert out == ""
        assert err.splitlines() == [f"error: {argv.split()[-3]} is above the cap 7"]

    @pytest.mark.parametrize("rmax", [300, 3000])
    def test_huge_rmax_is_over_budget_by_its_exponent(self, rmax, capsys):
        # p^(rmax^2) is not summed, let alone printed, before the budget refuses it
        code, out, err = run(["oracle", "--p", "2", "--rmax", str(rmax)], capsys)
        assert code == EXIT_BUDGET
        assert out == ""
        assert err.splitlines() == [f"error: the {rmax} x {rmax} census alone has "
                                    f"2^{rmax * rmax} candidates, above the budget 200000000"]

    def test_wrong_class_fails_and_lists_every_check(self, monkeypatch, capsys):
        monkeypatch.setattr(oracle, "class_gl",
                            lambda d: groth.class_gl(d) + ONE)
        code, out, _ = run(["oracle", "--p", "2", "--rmax", "2"], capsys)
        assert code == EXIT_FAIL
        lines = out.splitlines()[1:]
        failed = [line for line in lines if line.startswith("FAIL")]
        assert failed == ["FAIL  gl(1) at q=2  (class value 2 != count 1)",
                          "FAIL  gl(2) at q=2  (class value 7 != count 6)"]
        assert len(lines) > len(failed)
        assert all(line.startswith("pass") for line in lines if line not in failed)


class TestCommandErrors:
    """The errors that end a command are defined once, in groth; main maps each
    class to its exit status, whether or not the oracle is loaded."""

    @pytest.mark.parametrize("name", ["UnsupportedPrime", "BudgetExceeded", "InvalidInput"])
    def test_oracle_raises_the_groth_class(self, name):
        assert getattr(oracle, name) is getattr(groth, name)

    def test_unsupported_prime_is_a_usage_error_class(self):
        assert issubclass(groth.UnsupportedPrime, groth.InvalidInput)

    def test_main_names_the_classes(self):
        assert not hasattr(cli, "_oracle_error")
        assert "sys.modules" not in inspect.getsource(cli)
        # the command's try has one clause per ending: usage error, budget, an exact
        # division that failed outside any check and a standard output closed by its reader
        tries = [node for node in ast.walk(ast.parse(inspect.getsource(cli.main)))
                 if isinstance(node, ast.Try)]
        assert [[ast.unparse(h.type) for h in node.handlers] for node in tries] == [
            ["InvalidInput", "BudgetExceeded", "NotPolynomial", "BrokenPipeError"]]

    def test_cli_reaches_no_private_oracle_name(self):
        names = {node.attr for node in ast.walk(ast.parse(inspect.getsource(cli)))
                 if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                 and node.value.id == "oracle"}
        assert "check_budget" in names
        assert not {name for name in names if name.startswith("_")}

    def test_main_admits_the_oracle_once(self):
        # one candidate count and one budget check serve oracle and verify alike;
        # census_candidates checks p itself
        calls = [ast.unparse(node.func) for node in ast.walk(ast.parse(inspect.getsource(cli)))
                 if isinstance(node, ast.Call)]
        assert calls.count("oracle.census_candidates") == calls.count("oracle.check_budget") == 1
        assert "oracle.check_prime" not in calls

    def test_every_error_is_one_of_two_kinds(self):
        # bad input ends a command with exit 2 and an exhausted budget with exit 3;
        # the kernel's errors are arithmetic, a bug and not bad input
        defined = {obj: module for module in (exactalg, groth, stringy, oracle, cli)
                   for obj in vars(module).values()
                   if isinstance(obj, type) and issubclass(obj, Exception)
                   and obj.__module__ == module.__name__}
        assert sorted(cls.__name__ for cls in defined) == [
            "BudgetExceeded", "DivisionByZero", "EvalAtZeroWithNegativeExponent",
            "InvalidInput", "NotPolynomial", "UnsupportedPrime"]
        for cls, module in defined.items():
            kinds = ArithmeticError if module is exactalg else (groth.InvalidInput,
                                                                 groth.BudgetExceeded)
            assert issubclass(cls, kinds), cls

    @pytest.mark.parametrize("function,args,message", [
        (groth.class_gl, (-1,), "d must be nonnegative"),
        (groth.gauss_binomial, (3, 2), "need 0 <= d <= k, got d=3, k=2"),
        (groth.rank_stratum_class, (2, 3, 3), "need 0 <= j <= min(r, s), got j=3"),
        (oracle.rank_census, (2, -1, 3), "need r >= 0 and s >= 0, got r=-1, s=3"),
        (stringy.hodge_table, (q_pow(-1),), "stringy Hodge numbers need a polynomial"),
        (stringy.hodge_table, (LaurentPoly({0: Fraction(1, 2)}),),
         "non-integer coefficient 1/2 at q^0"),
        (groth.factor_ratio, (q_pow(1) - 1, (), [-1]), "exponents must be positive, got -1"),
        (groth.factor_ratio, (ONE, [-1]), "exponents must be positive, got -1"),
    ], ids=["gl", "gauss_binomial", "rank_stratum", "rank_census", "hodge_laurent",
            "hodge_fraction", "factor_quotient", "factor_product"])
    def test_bad_parameters_are_invalid_input(self, function, args, message):
        with pytest.raises(groth.InvalidInput) as raised:
            function(*args)
        assert str(raised.value) == message

    def test_layers_raise_only_the_command_and_kernel_errors(self):
        # a bare ValueError or ArithmeticError from a layer would end a command in a
        # traceback; every raise names one of these classes
        allowed = {"InvalidInput", "UnsupportedPrime", "BudgetExceeded", "NotPolynomial",
                   "DivisionByZero"}
        for module in (groth, stringy, oracle):
            raised = [node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                      for node in ast.walk(ast.parse(inspect.getsource(module)))
                      if isinstance(node, ast.Raise)]
            assert raised, module
            assert {ast.unparse(exc) for exc in raised} <= allowed, module

    @pytest.mark.parametrize("argv,code,message", [
        ("verify --suite all --rmax 12 --order -1", EXIT_USAGE,
         "--order must be nonnegative, got -1"),
        ("verify --suite all --rmax 5 --budget 0", EXIT_BUDGET,
         "the 4 x 4 census alone has 2^16 candidates, above the budget 0"),
        ("verify --suite all --rmax 5 --p 3 --budget 40000000", EXIT_BUDGET,
         "43605336 candidates exceed the budget 40000000"),
    ], ids=["order", "budget_exponent", "budget_total"])
    def test_verify_refuses_bad_arguments_before_any_suite(self, argv, code, message,
                                                           monkeypatch, capsys):
        # the oracle budget is checked on the clamped r_max, 4, with no note
        def suite(*args):
            raise AssertionError("a suite ran")

        for name in ("suite_identities", "suite_orbits", "suite_zeta"):
            monkeypatch.setattr(report, name, suite)
        monkeypatch.setattr(oracle, "verify_classes", suite)
        assert run(argv.split(), capsys) == (code, "", f"error: {message}\n")

    def test_mismatch_ends_the_oracle_command(self, monkeypatch, capsys):
        out = self.check_wrong_census(["oracle"], monkeypatch, capsys)
        assert out.splitlines()[0] == "estimated candidates: 22"

    @pytest.mark.parametrize("argv", [["verify", "--suite", "oracle"]], ids=["verify"])
    def test_wrong_census_fails_exactly_its_dependents(self, argv, monkeypatch, capsys):
        out = self.check_wrong_census(argv, monkeypatch, capsys)
        assert not out.startswith("estimated")

    @staticmethod
    def check_wrong_census(argv, monkeypatch, capsys) -> str:
        # 4 invertible 1 x 1 matrices over F_2: the 3 ordered bases of lines in
        # F_2^2 over 4 base changes is a failing check, not the end of the run
        rank_census = oracle.rank_census

        def census(p, r, s, budget):
            if (p, r, s) == (2, 1, 1):
                return oracle.RankCensus(MappingProxyType({0: 1, 1: 4}))
            return rank_census(p, r, s, budget)

        monkeypatch.setattr(oracle, "rank_census", census)
        code, out, err = run(argv + ["--p", "2", "--rmax", "2"], capsys)
        assert (code, err) == (EXIT_FAIL, "")
        lines = [line for line in out.splitlines() if not line.startswith("estimated")]
        failed = [line for line in lines if not line.startswith("pass")]
        assert failed == [
            "FAIL  gl(1) at q=2  (class value 1 != count 4)",
            "FAIL  independent_tuples(1,1) at q=2  (class value 1 != count 4)",
            "FAIL  grassmannian(1,2) at q=2  (class value 3 != count 3/4)",
            "FAIL  rank_stratum(1,1,1) at q=2  (class value 1 != count 4)",
            "FAIL  rank_bounded(1,1,<= 1) at q=2  (class value 2 != count 5)",
        ]
        # every other check is listed as it is on a correct census, in its place
        failed_names = [line.split("  ")[1] for line in failed]
        assert [line for line in lines if line not in failed] == [
            line for line in ORACLE_P2_RMAX_2.splitlines()[1:]
            if line.split("  ")[1] not in failed_names]
        return out


# Command lines that no command accepts: each ends with one ``error:`` line.
MALFORMED_ARGV = [
    [],                                                    # no command
    ["frobnicate", "--r", "3"],                            # an unknown command
    ["compute", "--r", "2", "--k", "1", "--bogus", "1"],   # an unknown flag
    ["compute", "--r", "2", "--k"],                        # a flag missing its value
    ["oracle", "--p", "2"],                                # a missing required flag
    ["zeta", "--r", "two"],                                # a non-integer
    ["table", "--rmax", "3", "--format", "xml"],           # a bad choice
    ["zeta", "--r", "2", "stray"],                         # a stray positional
]


def bad_input_grid():
    """Small, zero and negative arguments over every command and suite, and
    malformed command lines."""
    yield from MALFORMED_ARGV
    small = [str(n) for n in range(-1, 4)]
    for r, k, variety in itertools.product(small, small, report.VARIETIES):
        yield ["compute", "--r", r, "--k", k, "--variety", variety]
    for suite in ("identities", "oracle", "orbits", "zeta", "all"):
        for rmax, p in itertools.product(small, ["-1", "0", "1", "2", "4", "9"]):
            yield ["verify", "--suite", suite, "--rmax", rmax, "--p", p]
        for flag, value in [("--budget", "-1"), ("--budget", "0"), ("--budget", "1"),
                            ("--order", "-1"), ("--order", "0")]:
            yield ["verify", "--suite", suite, "--rmax", "2", flag, value]
    for rmax, fmt in itertools.product(small, ["json", "csv", "latex"]):
        yield ["table", "--rmax", rmax, "--format", fmt]
    for r, order in itertools.product(small, small[:4]):
        yield ["zeta", "--r", r, "--order", order]
    for p, rmax in itertools.product(["-1", "0", "1", "2", "3", "4", "9", "11"], small):
        yield ["oracle", "--p", p, "--rmax", rmax]
    for budget in ("-1", "0", "1", "21"):
        yield ["oracle", "--p", "2", "--rmax", "2", "--budget", budget]


def test_bad_input_never_ends_in_a_traceback(capsys):
    runs = 0
    for argv in bad_input_grid():
        code, _, err = run(argv, capsys)
        assert code in (EXIT_OK, EXIT_FAIL, EXIT_USAGE, EXIT_BUDGET), argv
        errors = [line for line in err.splitlines() if not line.startswith("note:")]
        assert len(errors) <= 1, (argv, err)
        assert all(line.startswith("error: ") for line in errors), (argv, err)
        runs += 1
    assert runs == 312


@pytest.mark.parametrize("argv", MALFORMED_ARGV, ids=" ".join)
def test_malformed_argv_is_one_error_line(argv, capsys):
    code, out, err = run(argv, capsys)
    assert (code, out) == (EXIT_USAGE, "")
    assert len(err.splitlines()) == 1 and err.startswith("error: "), err


# -- the argparse parser the flag table replaced, kept as the reference --

def reference_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stringy-det",
        description="Exact stringy invariants of rank-bounded matrix varieties.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_compute = sub.add_parser("compute", help="compute invariants for one (r, k)")
    p_compute.add_argument("--r", type=int, required=True)
    p_compute.add_argument("--k", type=int, required=True)
    p_compute.add_argument("--variety", choices=["affine", "projective"],
                           default="affine")
    p_compute.add_argument("--format", choices=["json", "text"], default="text")

    p_verify = sub.add_parser("verify", help="run verification suites")
    p_verify.add_argument("--suite",
                          choices=["identities", "oracle", "orbits", "zeta", "all"],
                          default="all")
    p_verify.add_argument("--rmax", type=int, default=5)
    p_verify.add_argument("--p", type=int, default=2)
    p_verify.add_argument("--order", type=int, default=4)
    p_verify.add_argument("--budget", type=int)

    p_table = sub.add_parser("table", help="tabulate invariants up to rmax")
    p_table.add_argument("--rmax", type=int, required=True)
    p_table.add_argument("--format", choices=["json", "csv", "latex"], default="csv")
    p_table.add_argument("--variety", choices=["affine", "projective", "both"],
                         default="affine")

    p_zeta = sub.add_parser("zeta", help="motivic zeta series of the determinant")
    p_zeta.add_argument("--r", type=int, required=True)
    p_zeta.add_argument("--order", type=int, default=4)
    p_zeta.add_argument("--format", choices=["json", "text"], default="text")

    p_oracle = sub.add_parser("oracle", help="finite-field point-count certification")
    p_oracle.add_argument("--p", type=int, required=True)
    p_oracle.add_argument("--rmax", type=int, required=True)
    p_oracle.add_argument("--budget", type=int)

    return parser


VALID_ARGV = [
    "compute --r 3 --k 2",
    "compute --r 4 --k 2 --variety projective --format json",
    "compute --r=4 --k=2 --variety=projective --format=json",
    "compute --var projective --for json --r 5 --k 1",
    "compute --r -1 --k -3",
    "compute --r 2 --k 1 --r 3 --format json --format text",
    "verify",
    "verify --suite oracle --p 3 --rmax 2 --budget 1000",
    "verify --s zeta --r 2 --o -1 --b -5",
    "verify --suite=identities --rmax=-2 --order=0",
    "verify --rmax 9 --rmax 3 --suite zeta --suite all",
    "table --rmax 3",
    "table --rmax 13 --variety both --format json",
    "table --rm=-3 --f latex --v projective",
    "zeta --r 3",
    "zeta --r 7 --order 10 --format json",
    "zeta --r=-2 --o -1 --order 3",
    "oracle --p 3 --rmax 3",
    "oracle --p 2 --rmax 4 --budget -1",
    "oracle --p=2 --r 2 --b 21 --budget 22",
    "oracle --rmax 2 --p 11",
]


@pytest.mark.parametrize("argv", VALID_ARGV)
def test_parser_agrees_with_the_reference(argv):
    assert vars(cli.parse_args(argv.split())) == vars(reference_parser().parse_args(argv.split()))


@pytest.mark.parametrize("argv", MALFORMED_ARGV + [
    ["--r", "3"], ["compute", "--r=", "--k", "1"], ["verify", "--rmax", "1.5"],
    ["table", "--rmax", "3", "--help=x"], ["compute", "--r", "2", "--k", "1", "-5"],
    ["oracle", "--p", "2", "--rmax", "2", "--budget", "1e3"], ["compute"],
    ["verify", "--suite", "orbit"], ["verify", "--budget", "2", "-", "--p", "3"],
], ids=" ".join)
def test_parser_refuses_what_the_reference_refuses(argv, capsys):
    with pytest.raises(SystemExit) as refused:
        reference_parser().parse_args(argv)
    assert refused.value.code == EXIT_USAGE
    capsys.readouterr()
    with pytest.raises(groth.InvalidInput):
        cli.parse_args(argv)
    assert main(argv) == EXIT_USAGE


@pytest.mark.parametrize("argv,usage", [
    (["compute", "--help"], "usage: stringy-det compute --r N --k N "
                            "[--variety {affine,projective}] [--format {json,text}]"),
    (["oracle", "--p", "x", "-h"], "usage: stringy-det oracle --p N --rmax N [--budget N]"),
    (["table", "--he"], "usage: stringy-det table --rmax N [--format {json,csv,latex}] "
                        "[--variety {affine,projective,both}]"),
], ids=["compute", "oracle", "prefix"])
def test_command_help_is_its_usage_line(argv, usage, capsys):
    assert run(argv, capsys) == (EXIT_OK, usage + "\n", "")


@pytest.mark.parametrize("flag", ["-h", "--help"])
def test_tool_help_lists_every_command(flag, capsys):
    code, out, err = run([flag], capsys)
    assert (code, err) == (EXIT_OK, "")
    assert [line.split()[2] for line in out.splitlines()] == list(cli.COMMANDS)
    for line in out.splitlines():
        assert run([line.split()[2], "-h"], capsys) == (EXIT_OK, line + "\n", "")


def test_variety_choices_are_the_report_varieties():
    assert cli.COMMANDS["compute"]["variety"][0] == tuple(report.VARIETIES)


# -- getopt, which the flag reader replaced, kept as its reference --

def getopt_reference(args: list, flags) -> tuple:
    return getopt.getopt(args, "h", [f"{flag}=" for flag in flags] + ["help"])


def assert_reads_as_getopt(args: list, flags) -> None:
    try:
        expected = getopt_reference(args, flags)
    except getopt.GetoptError as exc:
        with pytest.raises(groth.InvalidInput) as raised:
            cli._read_flags(args, flags)
        assert str(raised.value) == str(exc)
    else:
        assert cli._read_flags(args, flags) == expected


@st.composite
def command_words(draw):
    """A command, and words built from its flags, their prefixes and stray values."""
    command = draw(st.sampled_from(list(cli.COMMANDS)))
    name = st.sampled_from([*cli.COMMANDS[command], "help", "x"])
    prefix = st.builds(lambda n, i: "--" + n[:i], name, st.integers(1, 8))
    value = st.sampled_from(["3", "0", "-1", "-5", "", "json", "both", "stray", "-", "--",
                             "-h", "--r"])
    word = st.one_of(prefix, st.builds(lambda p, v: f"{p}={v}", prefix, value), value,
                     st.sampled_from(["-h", "-hh", "-hx", "-x", "--help=1", "--=3"]))
    return command, draw(st.lists(word, max_size=7))


@given(command_words())
def test_flag_reader_agrees_with_getopt(command_and_words):
    command, words = command_and_words
    assert_reads_as_getopt(words, cli.COMMANDS[command])


@pytest.mark.parametrize("command,args,message", [
    ("compute", ["--x", "1"], "option --x not recognized"),
    ("compute", ["--k", "1", "--r"], "option --r requires argument"),
    ("table", ["--r"], "option --rmax requires argument"),
    ("zeta", ["--=3"], "option -- not a unique prefix"),
    ("oracle", ["--help=1"], "option --help must not have an argument"),
    ("verify", ["--he=", "--p", "2"], "option --help must not have an argument"),
    ("table", ["-hx"], "option -x not recognized"),
    ("zeta", ["-5"], "option -5 not recognized"),
    ("compute", ["--r", "1", "--k", "2"], None),
    ("verify", ["--s=zeta", "--o", "-1", "-hh", "--", "--p", "3"], None),
    ("oracle", ["--p", "2", "-", "--rmax", "2"], None),
    ("table", ["--rmax", "--format", "stray", "--v"], None),
], ids=lambda value: value if isinstance(value, str) else None)
def test_flag_reader_keeps_getopt_wording(command, args, message):
    flags = cli.COMMANDS[command]
    assert_reads_as_getopt(args, flags)
    if message is not None:
        with pytest.raises(groth.InvalidInput, match=f"^{re.escape(message)}$"):
            cli._read_flags(args, flags)


@pytest.mark.parametrize("args", [["--r", "1"], ["--rm=2", "--r=3", "--rmax", "4"]])
def test_flag_reader_prefers_an_exact_name_as_getopt_does(args):
    # no command has a flag that begins another, so the tables do not reach this
    assert_reads_as_getopt(args, ("r", "rmax"))
