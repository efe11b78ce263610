"""``compute`` and ``zeta`` write their JSON without ``json``.

``report._json`` renders what they print as ``json.dumps(indent=2)`` would, and
``zeta`` writes one coefficient at a time. The ``json.dumps`` paths they replaced
are kept here as the reference: the output must match them byte for byte.
"""
import io
import json
import sys

import pytest
from hypothesis import given, strategies as st

from stringydet import report, stringy
from stringydet.cli import EXIT_OK, main


# -- the json.dumps paths, kept as the reference --------------------------------

def reference_compute(r: int, k: int, variety: str) -> str:
    return json.dumps(report.compute_record(r, k, variety), indent=2, sort_keys=True) + "\n"


def reference_zeta(r: int, order: int) -> str:
    series = stringy.zeta_closed_expansion(r, order)
    payload = {str(n): report._poly_pairs(c) for n, c in enumerate(series)}
    return json.dumps({"r": r, "order": order, "coefficients": payload}, indent=2) + "\n"


def printed(capsys, *argv: str) -> str:
    assert main(list(argv)) == EXIT_OK
    out, err = capsys.readouterr()
    assert err == ""
    return out


def test_compute_matches_the_reference(capsys):
    for r in range(1, 8):
        for variety, k_min in [("affine", 0), ("projective", 1)]:
            for k in range(k_min, r):
                out = printed(capsys, "compute", "--r", str(r), "--k", str(k),
                              "--variety", variety, "--format", "json")
                assert out == reference_compute(r, k, variety), (r, k, variety)


def test_zeta_matches_the_reference(capsys):
    for r in range(1, 6):
        for order in range(7):
            out = printed(capsys, "zeta", "--r", str(r), "--order", str(order),
                          "--format", "json")
            assert out == reference_zeta(r, order), (r, order)


# -- the renderer against json.dumps ----------------------------------------------

# printable ASCII without the two characters that json.dumps escapes; lists and
# dicts are drawn empty too
TEXT = st.text(st.characters(min_codepoint=32, max_codepoint=126, exclude_characters='"\\'))
SCALARS = st.booleans() | st.integers() | st.integers(-2**200, 2**200) | TEXT
VALUES = st.recursive(
    SCALARS, lambda inner: st.lists(inner, max_size=4) | st.dictionaries(TEXT, inner, max_size=4),
    max_leaves=20)


@given(VALUES)
def test_json_is_json_dumps(value):
    assert report._json(value) == json.dumps(value, indent=2, sort_keys=True)


# -- one coefficient at a time ----------------------------------------------------

class Chunks(io.TextIOBase):
    """A stdout that keeps each chunk; ``writelines`` is io's, one ``write`` per chunk."""

    def __init__(self):
        self.chunks = []

    def write(self, text: str) -> int:
        self.chunks.append(text)
        return len(text)


@pytest.mark.parametrize("order", [0, 1, 6])
def test_zeta_writes_one_chunk_per_coefficient(order, monkeypatch):
    sink = Chunks()
    monkeypatch.setattr(sys, "stdout", sink)
    assert main(["zeta", "--r", "3", "--order", str(order), "--format", "json"]) == EXIT_OK
    assert len(sink.chunks) == order + 2
    assert "".join(sink.chunks) == reference_zeta(3, order)
