"""Record contracts, and an import path that leaves out dataclasses and inspect."""
import os
import pathlib
import subprocess
import sys
from types import MappingProxyType

import pytest

from stringydet.cli import OutputRecord
from stringydet.exactalg import ONE, q_pow
from stringydet.groth import PartitionTail
from stringydet.oracle import InvariantReport, PrimeField, RankCensus, UnsupportedPrime
from stringydet.stringy import HodgeTable, InvalidInput, ResolutionData, ZetaSeries

ROOT = pathlib.Path(__file__).resolve().parent.parent


def frozen_records():
    """Two equal, separately built copies of every frozen record."""
    def build():
        return [
            PartitionTail([2, 1], r=3, k=2),
            ResolutionData(strata=[(q_pow(2), [0]), (ONE, set())], discrepancies=[2]),
            PrimeField(5),
            RankCensus(p=2, r=1, s=1, counts=MappingProxyType({0: 1, 1: 1})),
            HodgeTable(diag={0: 1, 1: 1}),
            ZetaSeries(r=1, coefficients={0: ONE}, truncation_order=0),
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
    def test_equal_records_hash_equal(self):
        for a, b in frozen_records():
            assert a == b and a is not b
            if not isinstance(a, (RankCensus, HodgeTable, ZetaSeries)):  # hold a dict
                assert hash(a) == hash(b)
                assert len({a, b}) == 1

    def test_records_that_hold_a_dict_are_unhashable(self):
        for a, _ in frozen_records():
            if isinstance(a, (RankCensus, HodgeTable, ZetaSeries)):
                with pytest.raises(TypeError):
                    hash(a)

    def test_unequal_fields_compare_unequal(self):
        assert PartitionTail((1, 0), 3, 2) != PartitionTail((1, 0), 4, 2)
        assert PrimeField(3) != PrimeField(5)

    def test_assignment_raises(self):
        for a, _ in frozen_records():
            for name in a.__match_args__:
                with pytest.raises(AttributeError):
                    setattr(a, name, None)
            with pytest.raises(AttributeError):
                a.extra = 1

    def test_fields_are_normalised(self):
        assert PartitionTail([2, 1], 3, 2).entries == (2, 1)
        data = ResolutionData(strata=[(ONE, [0])], discrepancies=[3])
        assert data.strata == ((ONE, frozenset({0})),)
        assert data.discrepancies == (3,)

    def test_methods_and_repr(self):
        assert PartitionTail((2, 1), 3, 2).total() == 3
        assert RankCensus(2, 1, 1, MappingProxyType({0: 1, 1: 1})).total() == 2
        assert ZetaSeries(1, {}, 2).coefficient(2) == 0
        assert repr(PrimeField(3)) == "PrimeField(p=3)"

    @pytest.mark.parametrize("build,error,message", [
        (lambda: PartitionTail((1,), 3, 2), ValueError, "expected 2 entries, got 1"),
        (lambda: PartitionTail((1, -1), 3, 2), ValueError,
         "entries must be nonnegative integers"),
        (lambda: PartitionTail((1, 2), 3, 2), ValueError, "entries must be weakly decreasing"),
        (lambda: PartitionTail((1, 0), 1, 2), ValueError, "need 1 <= k <= r"),
        (lambda: ResolutionData(((ONE, ()),), (0,)), InvalidInput,
         "log discrepancies must be positive"),
        (lambda: ResolutionData(((ONE, (1,)),), (2,)), InvalidInput,
         "stratum refers to an unknown divisor index"),
        (lambda: PrimeField(9), UnsupportedPrime, "9 is not prime"),
        (lambda: PrimeField(11), UnsupportedPrime, "prime 11 above the cap 7"),
    ], ids=["tail_length", "tail_negative", "tail_increasing", "tail_k",
            "discrepancy", "divisor_index", "not_prime", "above_cap"])
    def test_validation_errors(self, build, error, message):
        with pytest.raises(error) as info:
            build()
        assert str(info.value) == message


class TestMutableRecords:
    def test_output_record_defaults_and_equality(self):
        a, b = OutputRecord(2, 1, "affine"), OutputRecord(r=2, k=1, variety="affine")
        assert a == b
        a.checks.append(["x", True, ""])
        assert b.checks == [] and a != b
        assert a.eulerNumber == "0" and a.nonNegative is True
        assert a != (2, 1, "affine")

    def test_output_record_is_unhashable(self):
        with pytest.raises(TypeError):
            hash(OutputRecord(2, 1, "affine"))

    def test_invariant_report(self):
        a, b = InvariantReport(), InvariantReport()
        a.record("gl(1)", True, "1")
        assert b.checks == [] and a != b
        b.record("gl(1)", True, "1")
        assert a == b and a.passed
        a.record("gl(2)", False)
        assert not a.passed
        assert InvariantReport(checks=[("x", True, "")]).checks == [("x", True, "")]
