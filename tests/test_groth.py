"""Tests for the building-block classes and the rank stratification."""
import ast
import inspect
import itertools
import json
import pathlib

from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, strategies as st

from stringydet.exactalg import (DivisionByZero, NotPolynomial, ONE, ZERO, LaurentPoly,
                                 _from_dense, q_pow)
from stringydet.groth import (
    InvalidInput,
    class_gl,
    factor_ratio,
    gauss_binomial,
    partition_tails,
    rank_stratum_class,
)
from stringydet import groth, oracle
from stringydet.stringy import orbit_measure

Q = q_pow(1)


def full_rank(p: int, r: int, s: int) -> int:
    """Full-rank r x s matrices over F_p, r <= s, as the oracle's census counts them."""
    return oracle.rank_census(p, r, s).counts[r]


def rank_strata_sum(r: int, k: int) -> LaurentPoly:
    """The classes of the r x k matrices of each rank, summed: q^{kr} by the rank identity.
    The strata are read through ``groth``, so an installed mutant is the one summed."""
    return sum(groth.rank_stratum_class(r, k, j) for j in range(k + 1))


def gauss_binomial_partition_sum(d: int, k: int) -> LaurentPoly:
    """The Gaussian binomial without division, the reference for gauss_binomial.

    Sums q^{|lambda|} over weakly increasing sequences
    0 <= l_1 <= ... <= l_d <= k - d.
    """
    terms = {}
    for lam in itertools.combinations_with_replacement(range(k - d + 1), d):
        e = sum(lam)
        terms[e] = terms.get(e, 0) + 1
    return LaurentPoly(terms)


def gauss_binomial_long_division(d: int, k: int) -> LaurentPoly:
    """The product formula with one dense long division, the other reference; its
    factor products are built by the sparse loop, not by the builder it checks."""
    num = factor_product_by_terms(range(k - d + 1, k + 1))
    return num.divide_exact(factor_product_by_terms(range(1, d + 1)))


def factor_product_by_terms(exponents, base: LaurentPoly = ONE) -> LaurentPoly:
    """base times the product of q^a - 1, one sparse shift and subtraction per factor:
    the reference for the dense core of factor_ratio."""
    result = base
    for a in exponents:
        result = result.shift(a) - result
    return result


coefficients = st.one_of(st.integers(-10 ** 20, 10 ** 20),
                         st.fractions(max_denominator=30))
laurent_polys = st.dictionaries(st.integers(-9, 12), coefficients, max_size=8).map(LaurentPoly)
int_polys = st.dictionaries(st.integers(-9, 12), st.integers(-10 ** 20, 10 ** 20),
                            max_size=8).map(LaurentPoly)
factor_exponents = st.lists(st.integers(1, 7), max_size=5)  # repeats included


def all_int(p: LaurentPoly) -> bool:
    return all(type(c) is int for c in p.terms.values())


def normalised(p: LaurentPoly) -> bool:
    """Every coefficient is an int, or a Fraction that is not integral."""
    return all(type(c) is int or c.denominator != 1 for c in p.terms.values())


class TestDenseCore:
    # the zero polynomial, negative orders, Fraction coefficients and repeated
    # exponents are all drawn
    @given(laurent_polys, st.lists(st.integers(0, 7), max_size=5))
    def test_product_matches_the_sparse_loop(self, base, exponents):
        product = factor_ratio(base, exponents)
        assert product == factor_product_by_terms(exponents, base)
        assert normalised(product)

    @given(laurent_polys, factor_exponents)
    def test_quotient_undoes_the_sparse_loop(self, base, exponents):
        quotient = factor_ratio(factor_product_by_terms(exponents, base), (), exponents)
        assert quotient == base
        assert normalised(quotient)

    @given(int_polys, factor_exponents)
    def test_int_inputs_give_int_outputs(self, base, exponents):
        product = factor_ratio(base, exponents)
        assert all_int(product)
        assert all_int(factor_ratio(product, (), exponents))

    @given(st.lists(coefficients, max_size=8), st.integers(-9, 9))
    def test_from_dense_takes_the_order(self, coeffs, low):
        p = _from_dense(coeffs, low)
        assert p == _from_dense(coeffs).shift(low)
        assert normalised(p)
        assert _from_dense([Fraction(4, 2), Fraction(1, 2)], low).terms == {
            low: 2, low + 1: Fraction(1, 2)}

    def test_zero_exponent_product_is_zero(self):
        assert factor_ratio(ONE, [0]) == ZERO
        assert factor_ratio(LaurentPoly({-1: Fraction(1, 3)}), [2, 0, 3]) == ZERO

    @pytest.mark.parametrize("call", [lambda: factor_ratio(ONE, [-1]),
                                      lambda: factor_ratio(ZERO, [2, -1]),
                                      lambda: factor_ratio(ZERO, (), [2, -1])],
                             ids=["product", "product_of_zero", "quotient_of_zero"])
    def test_negative_exponent_is_invalid_input(self, call):
        # padding a list by a negative length would misalign it, so it is refused,
        # also where the base is zero
        with pytest.raises(InvalidInput, match="exponents must be positive, got -1"):
            call()


class TestQFactorQuotient:
    @given(laurent_polys, factor_exponents)
    def test_undoes_the_product(self, base, exponents):
        num = factor_ratio(base, exponents)
        quotient = factor_ratio(num, (), exponents)
        assert quotient == num.divide_exact(factor_ratio(ONE, exponents))
        assert quotient == base

    @given(laurent_polys, factor_exponents)
    def test_agrees_with_divide_exact_on_any_input(self, num, exponents):
        try:
            want = num.divide_exact(factor_product_by_terms(exponents))
        except NotPolynomial:
            with pytest.raises(NotPolynomial):
                factor_ratio(num, (), exponents)
        else:
            assert factor_ratio(num, (), exponents) == want

    def test_non_divisible_input_raises(self):
        for exponents, num in [([2], Q), ([1], Q + 1), ([3], ONE), ([1, 1], Q - 1),
                               ([2, 3], factor_ratio(ONE, [2, 2]))]:
            with pytest.raises(NotPolynomial):
                factor_ratio(num, (), exponents)

    def test_zero_exponent_is_division_by_zero(self):
        for exponents, num in [([0], ONE), ([0], ZERO), ([2, 0], factor_ratio(ONE, [2]))]:
            with pytest.raises(DivisionByZero):
                factor_ratio(num, (), exponents)

    def test_negative_exponent_is_rejected(self):
        # q^{-1} - 1 = -q^{-1}(q - 1) would divide, but the exponents must be positive
        with pytest.raises(InvalidInput, match="exponents must be positive"):
            factor_ratio(Q - 1, (), [-1])

    def test_int_inputs_stay_int(self):
        quotient = factor_ratio(factor_ratio(ONE, [1, 2, 5]), (), [1, 2])
        assert quotient == factor_ratio(ONE, [5])
        assert all(type(c) is int for c in quotient.terms.values())


class TestQFactorProduct:
    def test_empty_product_is_the_base(self):
        assert factor_ratio(ONE, []) == ONE
        base = LaurentPoly({-2: Fraction(1, 2), 3: -7})
        assert factor_ratio(base, []) == base

    def test_base_times_the_factors(self):
        # against products of the factors built term by term
        base = LaurentPoly({-2: Fraction(1, 2), 0: 3, 3: -7})
        for exponents in ([1], [2, 3], [1, 1, 4], [3, 3]):
            want = base
            for a in exponents:
                want = want * LaurentPoly({a: 1, 0: -1})
            assert factor_ratio(base, exponents) == want, exponents
            assert factor_ratio(ONE, iter(exponents)) * base == want, exponents


class TestGeneralLinear:
    def test_empty_product(self):
        assert class_gl(0) == ONE

    def test_gl1(self):
        assert class_gl(1) == Q - 1

    def test_gl2_point_count(self):
        assert class_gl(2).evaluate(2) == full_rank(2, 2, 2)

    def test_matches_independent_tuples(self):
        for d in range(9):
            assert class_gl(d) == rank_stratum_class(d, d, d)


class TestGaussBinomial:
    def test_projective_space(self):
        for r in range(1, 6):
            assert gauss_binomial(1, r) == LaurentPoly({i: 1 for i in range(r)})

    def test_2_of_4(self):
        expected = LaurentPoly({0: 1, 1: 1, 2: 2, 3: 1, 4: 1})
        assert gauss_binomial(2, 4) == expected
        # oracle: ordered bases of the 2-dimensional subspaces of F_2^4, over base changes
        assert expected.evaluate(2) == Fraction(full_rank(2, 2, 4), full_rank(2, 2, 2)) == 35

    def test_2_of_3(self):
        assert gauss_binomial(2, 3) == LaurentPoly({0: 1, 1: 1, 2: 1})

    def test_methods_agree(self):
        for k in range(15):
            for d in range(k + 1):
                g = gauss_binomial(d, k)
                assert g == gauss_binomial_partition_sum(d, k), (d, k)
                assert g == gauss_binomial_long_division(d, k), (d, k)

    def test_large_cases(self):
        assert gauss_binomial(1, 300) == LaurentPoly({i: 1 for i in range(300)})
        assert gauss_binomial(1, 300) == gauss_binomial_long_division(1, 300)
        assert gauss_binomial(1, 300) == gauss_binomial_partition_sum(1, 300)
        g = gauss_binomial(20, 40)
        assert g == gauss_binomial_long_division(20, 40)
        assert g.evaluate(1) == comb(40, 20)

    def test_symmetry(self):
        for k in range(13):
            for d in range(k + 1):
                assert gauss_binomial(d, k) == gauss_binomial(k - d, k)

    def test_nonnegative_coefficients(self):
        for k in range(13):
            for d in range(k + 1):
                assert all(c > 0 for c in gauss_binomial(d, k).terms.values())

    def test_invalid_dimension(self):
        with pytest.raises(InvalidInput):
            gauss_binomial(3, 2)


class TestIndependentTuples:
    # the d-tuples of independent vectors in k-space: the rank-d d x k stratum
    def test_nonzero_vectors(self):
        for k in range(1, 6):
            assert rank_stratum_class(1, k, 1) == q_pow(k) - 1

    def test_full_square_is_gl(self):
        assert rank_stratum_class(2, 2, 2) == (q_pow(2) - Q) * (q_pow(2) - 1)
        assert rank_stratum_class(2, 2, 2) == class_gl(2)

    def test_pairs_in_3_space(self):
        assert rank_stratum_class(2, 3, 2).evaluate(2) == (8 - 1) * (8 - 2) == 42

    def test_empty_tuple(self):
        assert rank_stratum_class(0, 5, 0) == ONE


class TestFlagQuotient:
    # the flag quotient prod_j [G(c_j - c_{j-1}, c_j)] over the run ends c_j, as
    # orbit_measure builds it

    def test_projective_line(self):
        assert orbit_measure(2, 1, (0,)) == (ONE + Q) ** 2 * class_gl(1)

    def test_trivial_quotient(self):
        for r in range(1, 6):
            assert orbit_measure(r, r, (0,) * r) == class_gl(r)

    def test_full_flag_in_plane(self):
        # complete flags in a plane form a projective line; 3 flags over F_2
        measure = orbit_measure(2, 2, (1, 0)).shift(1)  # weight q^{-1}
        levi = class_gl(1) ** 2
        assert measure == (ONE + Q) ** 2 * levi
        nonzero = sum(1 for v in itertools.product(range(2), repeat=2) if v != (0, 0))
        flags = nonzero // (2 - 1)
        assert flags == 3
        assert measure.evaluate(2) == flags ** 2 * levi.evaluate(2)


class TestLevi:
    # the Levi factor prod_j [GL_{c_j - c_{j-1}}] over the blocks of the run ends

    def test_single_block(self):
        assert orbit_measure(1, 1, (0,)) == Q - 1

    def test_borel_levi(self):
        tail = (1, 0)
        assert orbit_measure(2, 2, tail) == (ONE + Q) ** 2 * (Q - 1) ** 2 * q_pow(-1)

    def test_mixed_blocks_point_count(self):
        # blocks (2, 1): [G(1, 3)]^2 [GL_2][GL_1], weight q^{-4}, counted over F_2
        measure = orbit_measure(3, 3, (1, 1, 0)).shift(4)
        lines = Fraction(full_rank(2, 1, 3), full_rank(2, 1, 1))
        assert measure.evaluate(2) == lines ** 2 * full_rank(2, 2, 2) * full_rank(2, 1, 1) \
            == 49 * 6 * 1


G = gauss_binomial


class TestCompositionOfPartition:
    # orbit_measure reads the run ends c_1 < ... < c_l = r of a tail, after r - k

    def test_repeated_parts(self):
        # run ends (2, 4, 5): blocks 2, 2, 1
        tail = (3, 3, 1, 1, 0)
        assert orbit_measure(5, 5, tail) == (G(2, 2) * G(2, 4) * G(1, 5)) ** 2 \
            * class_gl(2) ** 2 * class_gl(1) * q_pow(-24)

    def test_constant_zero_tail(self):
        # run ends (5,) after 2: one block 3
        tail = (0, 0, 0)
        assert orbit_measure(5, 3, tail) == G(3, 5) ** 2 * class_gl(3)

    def test_run_length_encoding(self):
        # run ends (2, 3) after 1: blocks 1, 1
        tail = (2, 1)
        assert orbit_measure(3, 2, tail) == (G(1, 2) * G(1, 3)) ** 2 \
            * class_gl(1) ** 2 * q_pow(-11)
        # run ends (3, 4) after 1: blocks 2, 1
        tail = (1, 1, 0)
        assert orbit_measure(4, 3, tail) == (G(2, 3) * G(1, 4)) ** 2 \
            * class_gl(2) * class_gl(1) * q_pow(-8)

    def test_tail_validation(self):
        with pytest.raises(InvalidInput, match="weakly decreasing"):
            orbit_measure(3, 2, (1, 2))
        with pytest.raises(InvalidInput, match="expected 2 entries, got 1"):
            orbit_measure(3, 2, (1,))

    def test_tail_must_fit_its_own_rank_bound(self):
        # a tail of length 3 indexes no orbit of rank bound 2, and a short tail
        # is refused before any entry is read
        with pytest.raises(InvalidInput, match="expected 2 entries, got 3"):
            orbit_measure(4, 2, (1, 0, 0))
        with pytest.raises(InvalidInput, match="expected 3 entries, got 2"):
            orbit_measure(5, 3, (2, 1))


class TestRankStrata:
    def test_rank_zero_is_point(self):
        assert rank_stratum_class(3, 2, 0) == ONE

    def test_2x2_rank_one_count(self):
        # oracle: exhaustive rank count of 2x2 matrices over F_2
        census = oracle.rank_census(2, 2, 2)
        assert rank_stratum_class(2, 2, 1).evaluate(2) == census.counts[1] == 9

    def test_full_rank_square_is_gl(self):
        assert rank_stratum_class(2, 2, 2) == class_gl(2)

    def test_invalid_rank(self):
        with pytest.raises(InvalidInput):
            rank_stratum_class(2, 3, 3)

    def test_complete_stratification(self):
        for r in range(1, 7):
            for s in range(r, 7):
                total = sum(rank_stratum_class(r, s, j) for j in range(r + 1))
                assert total == q_pow(r * s)


# -- the builds the one stratum builder replaced, kept as its references --

def times_step_reference(p: LaurentPoly, d: int, b: int, skipped=()) -> LaurentPoly:
    """The chain step b - d -> b as the orbit and zeta routes built it: p times q^a - 1
    for a in ``skipped`` and [GL_d][G(d, b)]^2 on one reduced factor list."""
    return factor_ratio(p, [*skipped, *range(b - d + 1, b + 1), *range(max(d, b - d) + 1, b + 1)],
                        range(1, min(d, b - d) + 1)).shift(d * (d - 1) // 2)


def recursion_step_reference(p: LaurentPoly, r: int, m: int) -> LaurentPoly:
    """The step m -> r as the recursion built it, unreduced: p (q^{m+1}-1)^2 ... (q^r-1)^2
    over (q-1) ... (q^{r-m}-1), times q^{(r-m)(r-m-1)/2}."""
    return factor_ratio(p, [*range(m + 1, r + 1)] * 2,
                        range(1, r - m + 1)).shift((r - m) * (r - m - 1) // 2)


def independent_tuples_by_shifts(d: int, k: int) -> LaurentPoly:
    """prod_{0 <= j < d} (q^k - q^j), one shift and subtraction per vector."""
    result = ONE
    for j in range(d):
        result = result.shift(k) - result.shift(j)
    return result


def stratum_by_product(r: int, s: int, j: int) -> LaurentPoly:
    """[G(r - j, r)] times the shift-loop [U(j, s)], two classes and one product."""
    return gauss_binomial(r - j, r) * independent_tuples_by_shifts(j, s)


class TestStratumBuilder:
    def test_matches_the_product_of_its_classes(self):
        for r, s in itertools.product(range(13), repeat=2):
            for j in range(min(r, s) + 1):
                assert rank_stratum_class(r, s, j) == stratum_by_product(r, s, j), (r, s, j)

    def test_square_strata_match_the_chain_and_recursion_steps(self):
        for b in range(13):
            for d in range(b + 1):
                want = rank_stratum_class(b, b, d)
                assert times_step_reference(ONE, d, b) == want, (b, d)
                assert recursion_step_reference(ONE, b, b - d) == want, (b, d)

    def test_independent_tuples_match_the_shift_loop(self):
        for k in range(13):
            for d in range(k + 1):
                want = independent_tuples_by_shifts(d, k)
                assert rank_stratum_class(d, k, d) == want, (d, k)

    @given(laurent_polys, st.integers(0, 12), st.integers(0, 12), st.integers(0, 12),
           st.lists(st.integers(1, 12), max_size=3))
    def test_base_and_extra_factors(self, base, r, s, j, times):
        j = min(j, r, s)
        got = rank_stratum_class(r, s, j, base, times)
        assert got == base * factor_ratio(ONE, times) * stratum_by_product(r, s, j)
        if r == s:
            assert got == times_step_reference(base, j, r, times)
            assert got == recursion_step_reference(factor_ratio(base, times), r, r - j)


# A wrong factor of the stratum builder, as (its text, the mutant's): a wrong power of q
# keeps every route's division exact, a wrong q^a - 1 does not, and a wrong divisor, one
# more q^2 - 1, fails the builder's own division.
WRONG_POWER = ("j * (j - 1) // 2", "j * (j + 1) // 2")
WRONG_FACTOR = ("range(s - j + 1, s + 1)", "range(s - j + 2, s + 1)")
WRONG_DIVISOR = ("range(1, e + 1)", "(*range(1, e + 1), 2)")


@pytest.fixture
def mutant_builder(monkeypatch):
    """Install a mutant of ``rank_stratum_class`` everywhere it is bound, with every
    cache that holds a value built from it cleared before and after."""
    from stringydet import groth, stringy

    caches = (stringy.grassmannian_subset_sum, stringy.grassmannian_recursive)

    def install(mutation):
        old, new = mutation
        text = inspect.getsource(groth.rank_stratum_class)
        assert text.count(old) == 1
        namespace = dict(vars(groth))
        exec(text.replace(old, new), namespace)
        for module in (groth, stringy, oracle):
            monkeypatch.setattr(module, "rank_stratum_class", namespace["rank_stratum_class"])
        for cache in caches:
            cache.cache_clear()

    yield install
    monkeypatch.undo()
    for cache in caches:
        cache.cache_clear()


def failing(checks, prefix: str) -> list:
    return [name for name, ok, _ in checks if name.startswith(prefix) and not ok]


class TestStratumBuilderMutation:
    def test_wrong_power_fails_the_census_and_every_route_that_uses_it(self, mutant_builder):
        from stringydet import report

        mutant_builder(WRONG_POWER)
        assert failing(oracle.verify_classes(2, 3).checks, "rank_stratum(")
        checks = report.suite_identities(4)
        for prefix in ("subset_sum_is_grassmannian(", "recursion_is_grassmannian(",
                       "rank_identity("):
            assert failing(checks, prefix), prefix
        details = {name: detail for name, _, detail in checks}
        assert details["rank_identity(4,2)"] == "first difference at q^0: route 1, reference 0"

    def test_wrong_factor_fails_the_census_and_stops_the_chain_sum(self, mutant_builder):
        from stringydet import report

        names = [name for name, _, _ in report.suite_identities(4)]
        mutant_builder(WRONG_FACTOR)
        assert failing(oracle.verify_classes(2, 3).checks, "rank_stratum(")
        assert rank_strata_sum(4, 2) != q_pow(8)
        # the chain sum's exact division fails: a failing check, and every other is listed
        checks = report.suite_identities(4)
        assert [name for name, _, _ in checks] == names
        for prefix in ("subset_sum_is_grassmannian(", "recursion_is_grassmannian(",
                       "rank_identity("):
            assert failing(checks, prefix), prefix
        details = {name: detail for name, _, detail in checks}
        assert details["subset_sum_is_grassmannian(4,2)"] == (
            "not a polynomial: not divisible by q^3 - 1")

    def test_wrong_factor_makes_each_command_exit_1_with_its_checks(self, mutant_builder,
                                                                   capsys):
        from stringydet import report
        from stringydet.cli import EXIT_FAIL, main

        names = [name for name, _, _ in report.suite_identities(3)]
        mutant_builder(WRONG_FACTOR)
        assert main(["compute", "--r", "4", "--k", "2", "--format", "json"]) == EXIT_FAIL
        out, err = capsys.readouterr()
        assert err == ""
        assert json.loads(out)["checks"] == [
            ["closed_equals_orbit_sum", False, "not a polynomial: not divisible by q^3 - 1"]]
        assert main(["verify", "--suite", "identities", "--rmax", "3"]) == EXIT_FAIL
        out, err = capsys.readouterr()
        assert err == ""
        assert [line.split()[1] for line in out.splitlines()] == names
        assert ("FAIL  recursion_is_grassmannian(3,2)  "
                "(not a polynomial: not divisible by q^2 - 1)") in out.splitlines()

    @pytest.mark.parametrize("argv", ["verify --suite identities --rmax 3",
                                      "verify --suite zeta --rmax 2", "oracle --p 2 --rmax 2"])
    def test_wrong_divisor_is_a_failing_check_of_each_suite(self, argv, mutant_builder, capsys):
        from stringydet.cli import EXIT_FAIL, EXIT_OK, main

        def check_names(out: str) -> list:
            return [line.split("  ")[1] for line in out.splitlines()
                    if line.startswith(("pass  ", "FAIL  "))]

        assert main(argv.split()) == EXIT_OK
        names = check_names(capsys.readouterr().out)
        mutant_builder(WRONG_DIVISOR)
        assert main(argv.split()) == EXIT_FAIL
        out, err = capsys.readouterr()
        assert err == ""
        assert names and check_names(out) == names
        assert "(not a polynomial: not divisible by q^2 - 1)" in out

    def test_wrong_divisor_fails_the_oracle_sums_that_hold_it(
            self, mutant_builder):
        mutant_builder(WRONG_DIVISOR)
        for name, ok, detail in oracle.verify_classes(2, 2).checks:
            if name.startswith(("gl(", "grassmannian(")):
                assert ok, name
            elif name.startswith(("rank_bounded(", "rank_identity(")):  # j = 0 fails in each
                assert detail == "not a polynomial: not divisible by q^2 - 1", name

    def test_wrong_divisor_ends_zeta_with_exit_1_and_leaves_the_orbits(self, mutant_builder,
                                                                       capsys):
        from stringydet.cli import EXIT_FAIL, EXIT_OK, main

        mutant_builder(WRONG_DIVISOR)
        assert main(["zeta", "--r", "2"]) == EXIT_FAIL
        assert capsys.readouterr() == ("", "error: not a polynomial: not divisible by q^2 - 1\n")
        # the orbit measures do not use the step builder
        assert main(["verify", "--suite", "orbits", "--rmax", "3"]) == EXIT_OK


class TestRankIdentity:
    def test_2_2_numeric(self):
        assert rank_strata_sum(2, 2) == q_pow(4)
        assert 2 ** 4 == 1 + 9 + 6

    def test_k_equal_one_telescope(self):
        for r in range(1, 8):
            assert rank_strata_sum(r, 1) == q_pow(r)

    def test_5_3(self):
        assert rank_strata_sum(5, 3) == q_pow(15)


def test_partition_tail_enumeration():
    tails = list(partition_tails(2, 2))
    assert sorted(tails) == [(0, 0), (1, 0), (1, 1), (2, 0), (2, 1), (2, 2)]
    for k in range(5):  # every weakly decreasing tuple once, the empty one at k = 0
        for cap in range(4):
            tails = list(partition_tails(k, cap))
            want = [t for t in itertools.product(range(cap + 1), repeat=k)
                    if all(a >= b for a, b in zip(t, t[1:]))]
            assert sorted(tails) == want, (k, cap)


def private_names(source: str, module: str = "groth") -> list:
    """The ``_`` names of the package module ``module`` that a module's source imports or
    reaches by attribute."""
    tree = ast.parse(source)
    modules = {module}  # the local names bound to the module
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module in (None, "stringydet"):
            modules |= {alias.asname or alias.name for alias in node.names
                        if alias.name == module}
        elif isinstance(node, ast.Import):
            modules |= {alias.asname for alias in node.names
                        if alias.name == f"stringydet.{module}" and alias.asname}
    reached = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[-1] == module:
            reached += [alias.name for alias in node.names if alias.name.startswith("_")]
        elif isinstance(node, ast.Attribute) and node.attr.startswith("_") and (
                isinstance(node.value, ast.Name) and node.value.id in modules
                or isinstance(node.value, ast.Attribute) and node.value.attr == module):
            reached.append(node.attr)
    return reached


def test_only_groth_uses_its_private_names():
    # factor_ratio is the one entry to the dense builder; the list helpers behind it
    # stay inside groth
    assert private_names("from .groth import InvalidInput, _dense") == ["_dense"]
    assert private_names("from . import groth as g\ng._x(groth._y)") == ["_x", "_y"]
    assert private_names("import stringydet.groth\nstringydet.groth._z") == ["_z"]
    assert private_names("from .stringy import _orbit_class\nstringy._a") == []
    package = pathlib.Path(oracle.__file__).parent
    reached = {path.name: private_names(path.read_text())
               for path in sorted(package.glob("*.py")) if path.name != "groth.py"}
    assert "stringy.py" in reached
    assert {name: names for name, names in reached.items() if names} == {}


def test_only_groth_and_rational_use_private_kernel_names():
    # the kernel's coefficient helpers (_norm, _dense, _from_dense, _raw, _coerce) stay
    # behind LaurentPoly and factor_ratio; rational goes with the rational layer
    assert private_names("from .exactalg import ONE, _norm", "exactalg") == ["_norm"]
    assert private_names("from . import exactalg\nexactalg._raw({})", "exactalg") == ["_raw"]
    package = pathlib.Path(oracle.__file__).parent
    reached = {path.name: private_names(path.read_text(), "exactalg")
               for path in sorted(package.glob("*.py")) if path.name != "exactalg.py"}
    assert reached["groth.py"] and "stringy.py" in reached
    assert {name: names for name, names in reached.items()
            if names and name not in ("groth.py", "rational.py")} == {}


def unused_public_names(defining: dict, referring: list) -> list:
    """The public functions and classes, as ``module.name``, and the public methods, as
    ``module.Class.name``, of the ``defining`` sources (module name -> source) that no
    source in ``referring`` reaches: a function or class by a name, an import or an
    attribute, a method by an attribute. A string of dotted identifiers reaches its last
    part, as a name looked up by name: ``report.VARIETIES`` and ``tracer.METHODS``."""
    names, attrs = set(), set()
    for source in referring:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.alias):
                names.add(node.name.split(".")[-1])
            elif isinstance(node, ast.Attribute):
                attrs.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str) and all(
                    part.isidentifier() for part in node.value.split(".")):
                attrs.add(node.value.split(".")[-1])
    unused = []
    for module, source in defining.items():
        for node in ast.parse(source).body:
            if (isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")
                    and node.name not in names | attrs):
                unused.append(f"{module}.{node.name}")
            if isinstance(node, ast.ClassDef):
                unused += [f"{module}.{node.name}.{item.name}" for item in node.body
                           if isinstance(item, ast.FunctionDef)
                           and not item.name.startswith("_") and item.name not in attrs]
    return unused


def test_every_public_name_is_used_by_the_program_or_the_benchmark():
    defining = {"m": "def f(): pass\ndef _g(): pass\nclass C:\n"
                     "    def run(self): pass\n    def __len__(self): return 0\n"}
    assert unused_public_names(defining, []) == ["m.f", "m.C", "m.C.run"]
    assert unused_public_names(defining, ["from m import f\nx = C\ny.run()"]) == []
    assert unused_public_names(defining, ["run(f, C)"]) == ["m.C.run"]  # a method: attributes
    assert unused_public_names(defining, ['T = {"m.f": {"C": "run"}}']) == []
    assert unused_public_names(defining, ['"f is C.run, see"']) == ["m.f", "m.C", "m.C.run"]
    package = pathlib.Path(oracle.__file__).parent
    paths = [*sorted(package.glob("*.py")), *sorted((package.parents[1] / "bench").glob("*.py"))]
    sources = {path: path.read_text() for path in paths}
    # rational.py goes with the rational layer, so its own names are not asked after
    defining = {path.stem: source for path, source in sources.items()
                if path.parent == package and path.name != "rational.py"}
    assert "tracer" in {path.stem for path in sources} and "cli" in defining
    assert unused_public_names(defining, list(sources.values())) == []


def call_graph(sources) -> dict:
    """Function name -> the names of the sources' functions that its body names, by a name
    or an attribute, calls and references alike. Methods and nested functions are keyed by
    their bare names, and the defs of one name share their edges, so the graph can only
    over-reach."""
    defs = {}
    for source in sources:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.FunctionDef):
                defs.setdefault(node.name, []).append(node)
    return {name: {node.id if isinstance(node, ast.Name) else node.attr
                   for body in bodies for node in ast.walk(body)
                   if isinstance(node, (ast.Name, ast.Attribute))} & defs.keys() - {name}
            for name, bodies in defs.items()}


def reached(graph: dict, start: str) -> set:
    seen, todo = set(), [start]
    while todo:
        new = graph[todo.pop()] - seen
        seen |= new
        todo += new
    return seen


def test_shared_code_pins():
    graph = call_graph(["def f():\n    g()\ndef g():\n    return h.k\ndef k(): pass\n"
                        "def h():\n    def k(): f\n"])
    assert graph == {"f": {"g"}, "g": {"h", "k"}, "k": {"f"}, "h": {"f"}}  # a nested body too
    assert reached(graph, "k") == {"f", "g", "h", "k"}
    package = pathlib.Path(oracle.__file__).parent
    graph = call_graph(path.read_text() for path in sorted(package.glob("*.py")))
    # the orbit measures share the class builders with the chain sums, never their step
    assert {"gauss_binomial", "class_gl"} <= reached(graph, "_orbit_class")
    assert "rank_stratum_class" in reached(graph, "grassmannian_subset_sum")
    assert "rank_stratum_class" not in reached(graph, "_orbit_class")
    # the printed log discrepancies feed the resolution route
    assert "log_discrepancies" in reached(graph, "stringy_e_from_resolution")
