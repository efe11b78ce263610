"""``table`` computes, renders and writes one row at a time.

The list-building ``table_rows`` and ``_render_table`` that the streamed ones
replaced are kept here as the reference, with the sorted coefficient pairs,
``evaluate(1)`` and the coefficient scan that the rows now read off one Hodge
diagonal: the streamed output must match them byte for byte, its first row must
be written before the second closed form is computed, and it must never hold
more than a fraction of its output. A JSON row is written without ``json``,
which stays here as its oracle.
"""
import io
import json
import sys
import tracemalloc

import pytest
from hypothesis import given, strategies as st

from stringydet import report, stringy
from stringydet.cli import EXIT_OK, main

FORMATS = ["json", "csv", "latex"]
VARIETIES = {"affine": ["affine"], "projective": ["projective"],
             "both": ["affine", "projective"]}


# -- the list-building table, kept as the reference -----------------------------

def reference_table_rows(rmax: int, varieties) -> list:
    rows = []
    for r in range(2, rmax + 1):
        for k in range(1, r):
            for variety in varieties:
                poly = report._routes(variety)[0](r, k)
                dim = k * (2 * r - k) - (variety == "projective")
                rows.append({
                    "r": r,
                    "k": k,
                    "variety": variety,
                    "dim": dim,
                    "degree": poly.degree(),
                    "euler": str(poly.evaluate(1)),
                    "nonneg": all(c >= 0 for c in poly.terms.values()),
                    "coefficients": [[e, str(c)] for e, c in sorted(poly.terms.items())],
                })
    return rows


def reference_render_uv(pairs: list) -> str:
    parts = []
    for exp, c in pairs:
        coeff = "" if c == "1" else c
        if exp == 0:
            parts.append(c)
        elif exp == 1:
            parts.append(f"{coeff}(uv)")
        else:
            parts.append(f"{coeff}(uv)^{{{exp}}}")
    return " + ".join(parts) or "0"


def reference_render_table(rows: list, fmt: str) -> str:
    if fmt == "json":
        return "[\n" + ",\n".join(json.dumps(row) for row in rows) + "\n]"
    if fmt == "csv":
        lines = ["r,k,variety,dim,degree,euler,nonneg,coefficients"]
        for row in rows:
            coeffs = ";".join(f"{e}:{c}" for e, c in row["coefficients"])
            lines.append(f"{row['r']},{row['k']},{row['variety']},{row['dim']},"
                         f"{row['degree']},{row['euler']},{row['nonneg']},{coeffs}")
        return "\n".join(lines)
    if fmt == "latex":
        lines = [r"\begin{tabular}{lllll}",
                 r"$r$ & $k$ & variety & $E_{st}$ & Euler \\ \hline"]
        for row in rows:
            lines.append(f"{row['r']} & {row['k']} & {row['variety']} & "
                         f"${reference_render_uv(row['coefficients'])}$ & {row['euler']} \\\\")
        lines.append(r"\end{tabular}")
        return "\n".join(lines)
    raise ValueError(f"unknown format {fmt!r}")


def reference_stdout(rmax: int, variety: str, fmt: str) -> str:
    """What ``print`` wrote of the reference table."""
    return reference_render_table(reference_table_rows(rmax, VARIETIES[variety]), fmt) + "\n"


def table(capsys, rmax: int, variety: str, fmt: str) -> str:
    argv = ["table", "--rmax", str(rmax), "--variety", variety, "--format", fmt]
    assert main(argv) == EXIT_OK
    out, err = capsys.readouterr()
    assert err == ""
    return out


@pytest.mark.parametrize("variety", VARIETIES)
@pytest.mark.parametrize("fmt", FORMATS)
def test_streamed_table_matches_the_reference(fmt, variety, capsys):
    for rmax in range(2, 10):
        assert table(capsys, rmax, variety, fmt) == reference_stdout(rmax, variety, fmt), rmax


def test_benchmark_table_matches_the_reference(capsys):
    assert table(capsys, 13, "both", "json") == reference_stdout(13, "both", "json")


# the integers a row can hold: small, negative, and beyond 64 bits
INTS = st.integers() | st.integers(min_value=-2**200, max_value=2**200)
# a row's keys in the order ``table_rows`` gives them, which json.dumps keeps; its
# coefficients are a Hodge diagonal, {exponent: int}
JSON_ROWS = st.tuples(
    INTS, INTS, st.sampled_from(["affine", "projective"]), INTS, INTS, INTS.map(str),
    st.booleans(), st.dictionaries(INTS, INTS, max_size=6),
).map(lambda values: dict(zip(
    ["r", "k", "variety", "dim", "degree", "euler", "nonneg", "coefficients"], values)))


@given(JSON_ROWS)
def test_json_row_is_json_dumps(row):
    # the diagonal is printed as its [exponent, "coefficient"] pairs, in its order
    pairs = [[e, str(c)] for e, c in row["coefficients"].items()]
    printed = json.dumps({**row, "coefficients": pairs})
    assert list(report._render_table([row], "json")) == ["[\n" + printed, "\n]\n"]


# -- one row at a time ------------------------------------------------------------

class Discard(io.TextIOBase):
    """A stdout that keeps nothing; ``writelines`` is io's, one ``write`` per chunk."""

    def __init__(self):
        self.written = 0

    def write(self, text: str) -> int:
        self.written += len(text)
        return len(text)


@pytest.mark.parametrize("fmt", FORMATS)
def test_first_row_is_written_after_one_closed_form(fmt, monkeypatch):
    calls = []
    for name in ("stringy_e_affine", "stringy_e_projective"):
        def counted(r, k, route=getattr(stringy, name)):
            calls.append((r, k))
            return route(r, k)
        monkeypatch.setattr(stringy, name, counted)

    class FirstWrite(Discard):
        calls_before = None

        def write(self, text: str) -> int:
            if self.calls_before is None:
                self.calls_before = len(calls)
            return super().write(text)

    sink = FirstWrite()
    monkeypatch.setattr(sys, "stdout", sink)
    assert main(["table", "--rmax", "6", "--variety", "both", "--format", fmt]) == EXIT_OK
    assert sink.calls_before == 1
    assert len(calls) == 2 * 15


def test_table_holds_less_than_its_output(monkeypatch):
    # what stays allocated after the call (the gauss_binomial cache) is not held
    # for the table; the peak above it is, and must stay below the output's size
    sink = Discard()
    monkeypatch.setattr(sys, "stdout", sink)
    tracemalloc.start()
    try:
        status = main(["table", "--rmax", "16", "--variety", "both", "--format", "json"])
        current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert status == EXIT_OK
    assert sink.written == 216522
    assert peak - current < sink.written, (peak - current, sink.written)
