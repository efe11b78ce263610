"""Tests for the finite-field brute-force oracle."""
import itertools
import tracemalloc
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from operator import add

import pytest
from hypothesis import given, strategies as st

from stringydet import groth, oracle
from stringydet.exactalg import ONE
from stringydet.groth import InvalidInput, class_gl, gauss_binomial
from stringydet.oracle import (
    BudgetExceeded,
    UnsupportedPrime,
    census_candidates,
    check_prime,
    rank_census,
    verify_classes,
)


def failures(report) -> list:
    """The names of the failing checks of a report, in order."""
    return [name for name, ok, _ in report.checks if not ok]


def rank_of_matrix(p: int, entries) -> int:
    """Rank over F_p by Gaussian elimination on a copy of the rows."""
    rows = [[x % p for x in row] for row in entries]
    if not rows:
        return 0
    ncols = len(rows[0])
    rank = 0
    col = 0
    for col in range(ncols):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = pow(rows[rank][col], p - 2, p)
        rows[rank] = [(x * inv) % p for x in rows[rank]]
        for i in range(len(rows)):
            if i != rank and rows[i][col]:
                f = rows[i][col]
                rows[i] = [(a - f * b) % p for a, b in zip(rows[i], rows[rank])]
        rank += 1
        if rank == len(rows):
            break
    return rank


def _tally_ranks(p: int, r: int, s: int) -> Counter:
    """Tally the ranks of all r x s matrices over F_p, rows chosen depth-first.

    A row raises the rank exactly when it lies outside the span of the rows
    above it. That span is kept as a set of vectors, shared by every matrix
    with the same prefix and by every row that generates it. The last row
    is only tested for membership, and each test is counted.
    """
    tally = Counter()
    mod_p = tuple(x % p for x in range(2 * p - 1)).__getitem__

    def descend(depth: int, span: set, rank: int) -> None:
        rows = itertools.product(range(p), repeat=s)
        if depth == r - 1:
            hits = Counter(map(span.__contains__, rows))
            tally[rank] += hits[True]
            tally[rank + 1] += hits[False]
            return
        larger = {}  # row outside the span -> the span it generates with it
        for row in rows:
            if row in span:
                descend(depth + 1, span, rank)
                continue
            grown = larger.get(row)
            if grown is None:
                grown, coset = set(span), span
                for _ in range(p - 1):
                    coset = {tuple(map(mod_p, map(add, a, row))) for a in coset}
                    grown |= coset
                larger.update(dict.fromkeys(grown - span, grown))
            descend(depth + 1, grown, rank + 1)

    if r == 0:
        tally[0] = 1
    else:
        descend(0, {(0,) * s}, 0)
    return tally


@lru_cache(maxsize=None)
def _reference_completions(p: int, s: int, rows_left: int, span: frozenset) -> tuple:
    """The census on tuple vectors: ways to append ``rows_left`` rows of F_p^s to rows
    spanning ``span``, by rank gained, with rows outside counted in classes by their span."""
    if rows_left == 0:
        return (1,)
    if rows_left == 1:
        return (len(span), p ** s - len(span))
    tally = [len(span) * n for n in _reference_completions(p, s, rows_left - 1, span)] + [0]
    for grown, size in _reference_classes_outside(p, s, span):
        for gained, n in enumerate(_reference_completions(p, s, rows_left - 1, grown), 1):
            tally[gained] += size * n
    return tuple(tally)


@lru_cache(maxsize=None)
def _reference_classes_outside(p: int, s: int, span: frozenset) -> tuple:
    """Rows outside ``span`` grouped by the span each generates with it, added by tuples."""
    mod_p = tuple(x % p for x in range(2 * p - 1)).__getitem__
    covered, classes = set(span), []
    for row in itertools.product(range(p), repeat=s):
        if row in covered:
            continue
        grown, coset = set(span), span
        for _ in range(p - 1):
            coset = {tuple(map(mod_p, map(add, a, row))) for a in coset}
            grown |= coset
        covered |= grown
        classes.append((frozenset(grown), len(grown) - len(span)))
    return tuple(classes)


def _reference_census(p: int, r: int, s: int) -> dict:
    tally = _reference_completions(p, s, r, frozenset({(0,) * s}))
    return {j: tally[j] for j in range(min(r, s) + 1)}


def _field_width(p: int) -> int:
    """Bits per packed entry: w = (2p - 2).bit_length() for the entry, one more for its guard."""
    return (2 * p - 2).bit_length() + 1


def _pack(p: int, digits) -> int:
    width = _field_width(p)
    return sum(d << width * i for i, d in enumerate(reversed(digits)))


def _unpack(p: int, s: int, row: int) -> tuple:
    width = _field_width(p)
    return tuple(row >> width * i & (1 << width) - 1 for i in reversed(range(s)))


def _masks(p: int, s: int) -> tuple:
    """The ``bias``, ``guards`` and w of a packed row of F_p^s, built field by field."""
    w = _field_width(p) - 1
    return (_pack(p, [2 ** w - p] * s), _pack(p, [2 ** w] * s), w)


def _clear_census_caches():
    for cache in (oracle._rows, oracle._row_count, oracle._classes_outside,
                  oracle._completions):
        cache.cache_clear()
    oracle._SPANS.clear()


class TestPrimeField:
    # the fields the oracle enumerates: F_p for a prime p up to the cap
    def test_accepts_small_primes(self):
        for p in (2, 3, 5, 7):
            check_prime(p)

    def test_rejects_composites(self):
        for n in (-3, 0, 1, 4, 6):
            with pytest.raises(UnsupportedPrime, match=f"^{n} is not prime$"):
                check_prime(n)

    def test_rejects_above_cap(self):
        for n in (8, 9, 11, 2 ** 61 - 1, 10 ** 400):
            with pytest.raises(UnsupportedPrime, match=f"^{n} is above the cap 7$"):
                check_prime(n)

    def test_candidates_and_verify_refuse_a_bad_prime_first(self):
        # before the exponent check, so an over-budget size does not hide a bad p
        for p, message in ((4, "4 is not prime"), (11, "11 is above the cap 7")):
            for refuse in (census_candidates, verify_classes):
                with pytest.raises(UnsupportedPrime, match=f"^{message}$"):
                    refuse(p, 3000)


class TestRank:
    def test_zero_matrix(self):
        assert rank_of_matrix(3, [[0, 0], [0, 0]]) == 0

    def test_identity(self):
        for r in range(1, 5):
            eye = [[int(i == j) for j in range(r)] for i in range(r)]
            assert rank_of_matrix(2, eye) == r

    def test_equal_rows_mod_2(self):
        assert rank_of_matrix(2, [[1, 1], [1, 1]]) == 1

    def test_reduction_mod_p(self):
        assert rank_of_matrix(2, [[2, 4], [6, 8]]) == 0

    def test_rectangular(self):
        assert rank_of_matrix(3, [[1, 2, 0], [2, 4, 0]]) == 1


class TestCensus:
    def test_2x2_mod_2(self):
        assert rank_census(2, 2, 2).counts == {0: 1, 1: 9, 2: 6}

    def test_3x3_mod_2(self):
        census = rank_census(2, 3, 3)
        assert sum(census.counts.values()) == 512
        assert census.counts[3] == 168 == class_gl(3).evaluate(2)

    def test_rank_zero_always_one(self):
        for p, r, s in ((2, 2, 3), (3, 1, 2), (5, 2, 2)):
            assert rank_census(p, r, s).counts[0] == 1

    def test_totals(self):
        for p, r, s in ((2, 2, 3), (3, 2, 2)):
            assert sum(rank_census(p, r, s).counts.values()) == p ** (r * s)

    def test_transpose_symmetry(self):
        # r x s and s x r walk different span lattices, so their agreement
        # is an independent check
        for p, r, s in ((2, 2, 3), (2, 4, 5), (3, 3, 4)):
            a = rank_census(p, r, s)
            b = rank_census(p, s, r)
            assert a.counts == {j: b.counts.get(j, 0) for j in a.counts}, (p, r, s)

    def test_budget_guard(self):
        with pytest.raises(BudgetExceeded):
            rank_census(2, 5, 6)

    @pytest.mark.parametrize("p,r,s", [(2, 200, 200), (7, 2000, 2000), (3, 0, 4)])
    def test_budget_decided_by_exponent(self, p, r, s):
        # p^(rs) has too many digits to print, or costs seconds to compute; the
        # bit length of the budget refuses it first (and 3^0 = 1 > budget 0)
        budget = 0 if r == 0 else 10 ** 8
        with pytest.raises(BudgetExceeded, match=f"^the {r} x {s} census alone has "
                                                 f"{p}\\^{r * s} candidates, above the "
                                                 f"budget {budget}$"):
            rank_census(p, r, s, budget)

    def test_negative_dimension_rejected(self):
        # a budget of 0 shows the shape is checked before the budget
        for r, s in ((-1, 3), (2, -1), (-1, -1)):
            with pytest.raises(InvalidInput, match=f"got r={r}, s={s}"):
                rank_census(2, r, s, budget=0)

    def test_counts_are_read_only(self):
        # every caller shares the cached census, so no caller may alter it
        with pytest.raises(TypeError):
            rank_census(2, 2, 2).counts[2] = 999
        assert rank_census(2, 2, 2).counts == {0: 1, 1: 9, 2: 6}
        assert failures(verify_classes(2, 2)) == []

    @pytest.mark.parametrize("p", [2, 3, 5, 7])
    def test_matches_elimination(self, p):
        # every r x s with r, s <= 4 and p^(rs) <= 20000, against one
        # Gaussian elimination per matrix
        for r, s in itertools.product(range(5), repeat=2):
            if p ** (r * s) > 20000:
                continue
            reference = Counter(
                rank_of_matrix(p, [flat[i * s:(i + 1) * s] for i in range(r)])
                for flat in itertools.product(range(p), repeat=r * s))
            counts = rank_census(p, r, s).counts
            assert list(counts) == list(range(min(r, s) + 1)), (r, s)
            assert counts == {j: reference[j] for j in counts}, (r, s)
            assert sum(counts.values()) == p ** (r * s), (r, s)

    @pytest.mark.parametrize("p,r,s", [(2, 4, 5), (2, 5, 4), (3, 3, 4), (5, 2, 4), (7, 2, 3)])
    def test_matches_depth_first_walk(self, p, r, s):
        # shapes beyond the elimination grid, against the walk that visits
        # every prefix of rows
        census = rank_census(p, r, s)
        reference = _tally_ranks(p, r, s)
        assert census.counts == {j: reference[j] for j in census.counts}
        assert sum(reference.values()) == sum(census.counts.values()) == p ** (r * s)

    @pytest.mark.parametrize("p,n", [(2, 5), (3, 4), (5, 3), (7, 3)])
    def test_matches_tuple_reference(self, p, n):
        # every shape up to n x n, against the census on tuple vectors that the
        # packed rows replaced
        for r, s in itertools.product(range(n + 1), repeat=2):
            assert rank_census(p, r, s).counts == _reference_census(p, r, s), (r, s)

    def test_warm_memos_match_cold(self):
        _clear_census_caches()
        rank_census(2, 4, 4)
        entries = oracle._completions.cache_info().currsize
        warm = rank_census(2, 3, 4)
        assert oracle._completions.cache_info().currsize == entries  # a lookup, nothing new
        with pytest.raises(TypeError):
            warm.counts[3] = 0
        _clear_census_caches()
        cold = rank_census(2, 3, 4)
        assert warm == cold
        assert dict(warm.counts) == {0: 1, 1: 105, 2: 1470, 3: 2520}

    def test_memos_are_keyed_by_prime_and_width(self):
        # a census of another prime or width, computed after the 2 x 4 x 4 one, must not
        # answer from its memos: each equals its value from cold caches
        shapes = ((3, 3, 4), (2, 4, 5), (2, 4, 3), (5, 2, 4))
        _clear_census_caches()
        rank_census(2, 4, 4)
        warm = {shape: rank_census(*shape) for shape in shapes}
        for shape in shapes:
            _clear_census_caches()
            assert warm[shape] == rank_census(*shape), shape


class TestPackedRows:
    @given(st.data())
    def test_sum_is_entrywise_mod_p(self, data):
        p = data.draw(st.sampled_from((2, 3, 5, 7)))
        s = data.draw(st.integers(0, 8))
        digits = st.tuples(*[st.integers(0, p - 1)] * s)
        a, b = data.draw(digits), data.draw(digits)
        total = tuple((x + y) % p for x, y in zip(a, b))
        packed = oracle._translate(p, {_pack(p, a)}, _pack(p, b), *_masks(p, s))
        assert packed == {_pack(p, total)}
        assert _unpack(p, s, packed.pop()) == total

    @pytest.mark.parametrize("p,s", [(p, s) for p in (2, 3, 5, 7) for s in range(9)
                                     if p ** s <= 2 ** 13])
    def test_rows(self, p, s):
        rows, bias, guards, w = oracle._rows(p, s)
        assert (bias, guards, w) == _masks(p, s)
        assert len(set(rows)) == p ** s and 0 in rows
        assert not any(row & guards for row in rows)
        assert rows == tuple(_pack(p, row) for row in itertools.product(range(p), repeat=s))

    def test_a_wrong_bias_fails_the_census(self, monkeypatch):
        # 2^w - p + 1 in the lowest field alone: an entry p - 1 there reads as >= p
        names = [name for name, _, _ in verify_classes(3, 3).checks]
        rows = oracle._rows

        def off_by_one(p, s):
            packed, bias, guards, w = rows(p, s)
            return packed, bias + 1, guards, w

        _clear_census_caches()
        monkeypatch.setattr(oracle, "_rows", lru_cache(maxsize=None)(off_by_one))
        try:
            shapes = list(itertools.product(range(4), repeat=2))
            wrong = {shape: rank_census(3, *shape).counts for shape in shapes}
            report = verify_classes(3, 3)
        finally:
            monkeypatch.undo()
            _clear_census_caches()
        assert any(wrong[shape] != _reference_census(3, *shape) for shape in shapes)
        assert failures(report)
        assert [name for name, _, _ in report.checks] == names

    def test_census_memory(self):
        # 2^26 matrices, within the default budget; a table of all sums of two rows
        # would have 2^26 entries
        _clear_census_caches()
        tracemalloc.start()
        try:
            census = rank_census(2, 2, 13)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
            _clear_census_caches()
        assert sum(census.counts.values()) == 2 ** 26
        assert peak < 6 * 10 ** 6

    @pytest.mark.parametrize("p", [2, 3])
    def test_one_object_per_subspace(self, p):
        # the p + 1 lines of F_p^2 each grow into the whole plane
        _clear_census_caches()
        assert not oracle._SPANS and not oracle._rows.cache_info().currsize
        lines = [span for span, _ in oracle._classes_outside(p, 2, frozenset({0}))]
        planes = [oracle._classes_outside(p, 2, line)[0][0] for line in lines]
        assert len(set(lines)) == p + 1
        assert planes[0] == set(oracle._rows(p, 2)[0])
        assert all(plane is planes[0] for plane in planes)


def subspaces(p: int, d: int, n: int) -> Fraction:
    """d-subspaces of F_p^n as ``verify_classes`` counts them: ordered bases over
    base changes, both read from the census."""
    return Fraction(rank_census(p, d, n).counts[d], rank_census(p, d, d).counts[d])


class TestSubspaces:
    def test_2_of_4_mod_2(self):
        assert subspaces(2, 2, 4) == 35 == gauss_binomial(2, 4).evaluate(2)

    def test_trivial_subspace(self):
        assert subspaces(3, 0, 4) == 1

    def test_lines_in_3_space_mod_3(self):
        assert subspaces(3, 1, 3) == 13 == (3 ** 3 - 1) // (3 - 1)

    def test_indivisible_base_count_fails_the_grassmannian_check(self, monkeypatch):
        # 210 ordered bases of planes in F_2^4 against a wrong count of 4 base
        # changes; a recorded check, not an assert, so it survives python -O
        census = oracle.rank_census

        def wrong(p, r, s, budget):
            if (p, r, s) == (2, 2, 2):
                return oracle.RankCensus({0: 1, 1: 11, 2: 4})
            return census(p, r, s, budget)

        monkeypatch.setattr(oracle, "rank_census", wrong)
        report = verify_classes(2, 4)
        assert failures(report)
        details = {name: (ok, text) for name, ok, text in report.checks}
        assert details["grassmannian(2,4) at q=2"] == (False, "class value 35 != count 105/2")
        assert details["grassmannian(1,4) at q=2"] == (True, "15")

    @pytest.fixture
    def zero_census(self, monkeypatch):
        """A census of the 1 x 1 matrices over F_2 that finds no invertible one: the lines
        of F_2^1 are then 0 ordered bases over 0 base changes."""
        census = oracle.rank_census
        names = [name for name, _, _ in verify_classes(2, 2).checks]

        def wrong(p, r, s, budget):
            if (p, r, s) == (2, 1, 1):
                return oracle.RankCensus({0: 2, 1: 0})
            return census(p, r, s, budget)

        monkeypatch.setattr(oracle, "rank_census", wrong)
        return names

    def test_zero_census_fails_the_grassmannian_check(self, zero_census):
        report = verify_classes(2, 2)
        assert [name for name, _, _ in report.checks] == zero_census
        details = {name: (ok, text) for name, ok, text in report.checks}
        assert details["grassmannian(1,1) at q=2"] == (False, "class value 1 != count 0/0")
        assert details["grassmannian(1,2) at q=2"] == (False, "class value 3 != count 1/0")

    def test_zero_census_makes_the_oracle_command_exit_1(self, zero_census, capsys):
        from stringydet.cli import EXIT_FAIL, main

        assert main(["oracle", "--p", "2", "--rmax", "2"]) == EXIT_FAIL
        out, err = capsys.readouterr()
        assert err == ""
        lines = out.splitlines()
        assert [line.split("  ")[1] for line in lines[1:]] == zero_census
        assert "FAIL  grassmannian(1,1) at q=2  (class value 1 != count 0/0)" in lines


class TestVerifyClasses:
    @pytest.mark.parametrize("p,r_max", [(2, 3), (3, 3), (2, 4), (5, 3), (2, 5), (3, 4), (7, 3)])
    def test_all_pass(self, p, r_max):
        report = verify_classes(p, r_max)
        assert failures(report) == []
        assert report.checks

    def test_every_disagreement_is_recorded(self, monkeypatch):
        names = [name for name, _, _ in verify_classes(2, 3).checks]
        monkeypatch.setattr(oracle, "class_gl",
                            lambda d: groth.class_gl(d) + ONE)
        report = verify_classes(2, 3)
        assert failures(report)
        assert [name for name, _, _ in report.checks] == names
        failed = [(name, details) for name, ok, details in report.checks if not ok]
        assert [name for name, _ in failed] == [f"gl({d}) at q=2" for d in (1, 2, 3)]
        assert failed[0][1] == "class value 2 != count 1"

    def test_each_stratum_class_is_built_once(self, monkeypatch):
        built = Counter()

        def counted(r, s, j):
            built[r, s, j] += 1
            return groth.rank_stratum_class(r, s, j)

        monkeypatch.setattr(oracle, "rank_stratum_class", counted)
        assert failures(verify_classes(2, 3)) == []
        assert sum(built.values()) == len(built) == 23
        assert set(built) == {(r, s, j) for r in range(1, 4) for s in range(1, 4)
                              for j in range(min(r, s) + 1)}

    def test_wrong_stratum_fails_exactly_its_dependents(self, monkeypatch):
        names = [name for name, _, _ in verify_classes(2, 3).checks]

        def off_by_one(r, s, j):
            cls = groth.rank_stratum_class(r, s, j)
            return cls + ONE if (r, s, j) == (2, 2, 1) else cls

        monkeypatch.setattr(oracle, "rank_stratum_class", off_by_one)
        report = verify_classes(2, 3)
        assert [name for name, _, _ in report.checks] == names
        failed = [(name, details) for name, ok, details in report.checks if not ok]
        assert failed == [("rank_stratum(2,2,1) at q=2", "class value 10 != count 9"),
                          ("rank_bounded(2,2,<= 1) at q=2", "class value 11 != count 10"),
                          ("rank_bounded(2,2,<= 2) at q=2", "class value 17 != count 16"),
                          ("rank_identity(2,2) at q=2", "class value 16 != count 17")]

    def test_budget_covers_every_census(self):
        # each census fits the budget alone, all of them together do not
        total = census_candidates(2, 3)
        assert total == 2 + 4 + 8 + 16 + 64 + 512
        assert max(2 ** (r * s) for r in range(1, 4) for s in range(r, 4)) < total - 1
        with pytest.raises(BudgetExceeded, match=str(total)):
            verify_classes(2, 3, budget=total - 1)
        assert failures(verify_classes(2, 3, budget=total)) == []

    def test_huge_run_is_refused_before_any_sum(self):
        # summing p^(rs) over 1 <= r <= s <= 3000 would take minutes
        with pytest.raises(BudgetExceeded, match=r"^the 3000 x 3000 census alone has "
                                                 r"5\^9000000 candidates"):
            census_candidates(5, 3000)
        with pytest.raises(BudgetExceeded, match="the 300 x 300 census alone"):
            verify_classes(2, 300)
        # the exponent bound is sharp enough to leave the exact sum in charge here
        assert census_candidates(3, 5, budget=10 ** 8) == 850833407379

    def test_point_identity_escalation(self):
        # a degree-D univariate identity checked at D+1 points is exact:
        # certify the rank identity symbolically from point counts
        from stringydet.exactalg import q_pow
        from stringydet.groth import rank_stratum_class
        r, k = 3, 2
        rhs = ONE
        for m in range(r - k, r):
            rhs = rhs + gauss_binomial(m, r) * rank_stratum_class(r - m, k, r - m)
        degree = max(q_pow(k * r).degree(), rhs.degree())
        points = range(2, 2 + degree + 2)
        assert all(rhs.evaluate(x) == x ** (k * r) for x in points)
        assert rhs == q_pow(k * r)
