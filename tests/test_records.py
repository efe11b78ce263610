"""Record contracts, and an import path that leaves out dataclasses and inspect."""
import os
import pathlib
import subprocess
import sys
from types import MappingProxyType

import pytest

from stringydet.oracle import InvariantReport, RankCensus, UnsupportedPrime, check_prime
from stringydet.stringy import InvalidInput, orbit_measure

ROOT = pathlib.Path(__file__).resolve().parent.parent


def frozen_records():
    """Two equal, separately built copies of every frozen record; each holds a mapping
    or a list, so none is hashable."""
    def build():
        return [
            RankCensus(counts=MappingProxyType({0: 1, 1: 1})),
            InvariantReport(checks=[("gl(1) at q=2", True, "1")]),
        ]
    return list(zip(build(), build()))


def test_cold_import_leaves_out_dataclasses_and_inspect():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    code = ("import sys, stringydet.cli; "
            "print(sorted({'dataclasses', 'inspect'} & sys.modules.keys()))")
    proc = subprocess.run([sys.executable, "-S", "-c", code], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


class TestFrozenRecords:
    def test_equal_copies_compare_equal(self):
        for a, b in frozen_records():
            assert a == b and a is not b

    def test_records_that_hold_a_dict_are_unhashable(self):
        for a, _ in frozen_records():
            with pytest.raises(TypeError):
                hash(a)

    def test_unequal_fields_compare_unequal(self):
        assert RankCensus(MappingProxyType({0: 1})) != RankCensus(MappingProxyType({0: 2}))
        assert InvariantReport([("x", True, "")]) != InvariantReport([("x", False, "")])

    def test_assignment_raises(self):
        for a, _ in frozen_records():
            for name in a.__match_args__:
                with pytest.raises(AttributeError):
                    setattr(a, name, None)
            with pytest.raises(AttributeError):
                a.extra = 1

    def test_repr(self):
        assert repr(RankCensus(MappingProxyType({0: 1}))) \
            == "RankCensus(counts=mappingproxy({0: 1}))"
        assert repr(InvariantReport([("x", True, "")])) \
            == "InvariantReport(checks=[('x', True, '')])"

    @pytest.mark.parametrize("build,error,message", [
        (lambda: orbit_measure(3, 2, (1,)), InvalidInput, "expected 2 entries, got 1"),
        (lambda: orbit_measure(3, 2, (1, -1)), InvalidInput,
         "entries must be nonnegative integers"),
        (lambda: orbit_measure(3, 2, (1, 2)), InvalidInput,
         "entries must be weakly decreasing"),
        (lambda: orbit_measure(1, 2, (1, 0)), InvalidInput, "need 1 <= k <= r"),
        (lambda: check_prime(6), UnsupportedPrime, "6 is not prime"),
        (lambda: check_prime(11), UnsupportedPrime, "11 is above the cap 7"),
    ], ids=["tail_length", "tail_negative", "tail_increasing", "tail_k",
            "not_prime", "above_cap"])
    def test_validation_errors(self, build, error, message):
        with pytest.raises(error) as info:
            build()
        assert str(info.value) == message
