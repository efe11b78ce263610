"""Tests for the stringy E-function routes and the zeta series."""
import itertools
from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, strategies as st

from stringydet import stringy
from stringydet.exactalg import ONE, ZERO, LaurentPoly, NotPolynomial, q_pow
from stringydet.groth import (class_gl, factor_ratio, gauss_binomial, partition_tails,
                              rank_stratum_class)
from stringydet.stringy import (
    InvalidInput,
    grassmannian_recursive,
    grassmannian_subset_sum,
    hodge_table,
    log_discrepancies,
    non_negative,
    orbit_measure,
    orbit_tail_degree_bound,
    stringy_e_affine,
    stringy_e_affine_from_orbits,
    stringy_e_from_resolution,
    stringy_e_projective,
    stringy_e_projective_from_orbits,
    truncated_orbit_sum,
    zeta_closed_expansion,
    zeta_coefficient_direct,
)

from test_groth import gauss_binomial_partition_sum, laurent_polys

Q = q_pow(1)


class TestDiscrepancies:
    def test_3_2(self):
        assert log_discrepancies(3, 2) == [(0, 6), (1, 2)]

    def test_k_equal_one(self):
        for r in range(2, 9):
            assert log_discrepancies(r, 1) == [(0, r)]

    def test_5_3(self):
        assert log_discrepancies(5, 3) == [(0, 15), (1, 8), (2, 3)]

    def test_all_canonical(self):
        for r in range(2, 9):
            for k in range(1, r):
                assert all(a >= 2 for _, a in log_discrepancies(r, k))

    def test_invalid(self):
        with pytest.raises(InvalidInput):
            log_discrepancies(3, 3)


class TestAffine:
    def test_2_1_orbit_sum(self):
        assert stringy_e_affine_from_orbits(2, 1) == q_pow(2) + q_pow(3)

    def test_point_case(self):
        assert stringy_e_affine_from_orbits(3, 0) == ONE
        assert stringy_e_affine(3, 0) == ONE

    def test_3_2_routes_agree(self):
        assert stringy_e_affine_from_orbits(3, 2) == stringy_e_affine(3, 2) \
            == LaurentPoly({6: 1, 7: 1, 8: 1})

    def test_closed_forms(self):
        assert stringy_e_affine(2, 1) == q_pow(2) * (ONE + Q)
        assert stringy_e_affine(4, 2) == q_pow(8) * gauss_binomial_partition_sum(2, 4)

    def test_dimension_and_leading_term(self):
        for r in range(2, 7):
            for k in range(1, r):
                p = stringy_e_affine(r, k)
                assert p.degree() == k * (2 * r - k)
                assert p.leading_coeff() == 1


class TestGrassmannianRoutes:
    def test_rank_one_closed_form(self):
        for r in range(2, 9):
            assert grassmannian_subset_sum(r, 1) == gauss_binomial(1, r)
            assert grassmannian_recursive(r, 1) == gauss_binomial(1, r)

    def test_corank_one(self):
        for k in range(1, 7):
            assert grassmannian_subset_sum(k + 1, k) == gauss_binomial(k, k + 1)

    def test_2_4(self):
        expected = LaurentPoly({0: 1, 1: 1, 2: 2, 3: 1, 4: 1})
        assert grassmannian_subset_sum(4, 2) == expected
        assert grassmannian_recursive(4, 2) == expected


def subset_sum_numerator(r, k):
    """Brute-force oracle: the orbit sum over all 2^{k-1} index subsets I of
    {r-k+1, ..., r-1}, over the common denominator prod_i (q^{i(i-r+k)} - 1).

    A subset term is prod over surviving indices i of [GL_d][G(d, i)]^2,
    d = i - previous surviving index (from r - k), times the denominators
    of the excluded indices.
    """
    dens = {i: q_pow(i * (i - r + k)) - 1 for i in range(r - k + 1, r + 1)}
    common = ONE
    for den in dens.values():
        common = common * den
    total = ZERO
    middle = range(r - k + 1, r)
    for size in range(len(middle) + 1):
        for excluded in itertools.combinations(middle, size):
            term = ONE
            prev = r - k
            for i in range(r - k + 1, r + 1):
                if i in excluded:
                    term = term * dens[i]
                else:
                    d = i - prev
                    g = gauss_binomial(d, i)
                    term = term * class_gl(d) * g * g
                    prev = i
            total = total + term
    return total, common


class TestChainSum:
    @given(laurent_polys, st.integers(0, 9), st.integers(0, 9),
           st.lists(st.integers(1, 12), max_size=3))
    def test_step_matches_its_class(self, p, d, extra, skipped):
        # the step b - d -> b applied on one coefficient list, against the product of
        # p and [GL_d][G(d, b)]^2 built from the class builders
        b = d + extra
        want = p * class_gl(d) * gauss_binomial(d, b) ** 2 * factor_ratio(ONE, skipped)
        assert rank_stratum_class(b, b, d, p, skipped) == want

    def test_matches_subset_enumeration(self):
        for r in range(2, 8):
            for k in range(1, r):
                num, common = subset_sum_numerator(r, k)
                assert grassmannian_subset_sum(r, k) * common == num, (r, k)


class TestProjective:
    @given(st.integers(0, 40), laurent_polys)
    def test_ladder_matches_the_dense_product(self, n, p):
        assert factor_ratio(p, [n], [1]) == LaurentPoly({i: 1 for i in range(n)}) * p

    def test_product_of_lines(self):
        assert stringy_e_projective(2, 1) == LaurentPoly({0: 1, 1: 2, 2: 1})
        assert stringy_e_projective_from_orbits(2, 1) == LaurentPoly({0: 1, 1: 2, 2: 1})

    def test_3_1(self):
        plane = LaurentPoly({0: 1, 1: 1, 2: 1})
        assert stringy_e_projective(3, 1) == plane * plane

    def test_3_2_routes_agree(self):
        assert stringy_e_projective_from_orbits(3, 2) == stringy_e_projective(3, 2)

    def test_affine_projective_relation(self):
        for r in range(2, 7):
            for k in range(1, r):
                lhs = stringy_e_projective(r, k) * q_pow(k * r) * (Q - 1)
                rhs = (q_pow(k * r) - 1) * stringy_e_affine(r, k)
                assert lhs == rhs

    def test_dimension_and_leading_term(self):
        for r in range(2, 7):
            for k in range(1, r):
                p = stringy_e_projective(r, k)
                assert p.degree() == k * (2 * r - k) - 1
                assert p.leading_coeff() == 1


class TestHodgeAndEuler:
    def test_product_of_lines_table(self):
        diag = hodge_table(stringy_e_projective(2, 1))
        assert diag == {0: 1, 1: 2, 2: 1}
        assert non_negative(diag)

    def test_constant(self):
        assert hodge_table(ONE) == {0: 1}

    def test_diagonal_is_sorted(self):
        diag = hodge_table(LaurentPoly({5: 2, 0: 1, 3: -4}))
        assert list(diag.items()) == [(0, 1), (3, -4), (5, 2)]
        assert not non_negative(diag)
        assert non_negative({}) and non_negative({0: 0})

    def test_a_diagonal_that_holds_minus_one_is_negative(self):
        # kills the ">= -1" mutant of non_negative's bound; ">= 1" differs from ">= 0" only on
        # a zero entry, which no Hodge diagonal holds (hodge_table keeps the nonzero terms), so
        # in the program it is an equivalent mutant
        assert not non_negative(hodge_table(LaurentPoly({0: 1, 1: -1, 2: 1})))
        assert not non_negative({3: -1})

    def test_nonnegativity_grid(self):
        for r in range(2, 11):
            for k in range(1, r):
                assert non_negative(hodge_table(stringy_e_projective(r, k)))

    def test_negative_exponent_rejected(self):
        with pytest.raises(InvalidInput):
            hodge_table(q_pow(-1))

    def test_non_integer_coefficient_rejected(self):
        with pytest.raises(InvalidInput):
            hodge_table(LaurentPoly({0: 1, 1: Fraction(1, 2)}))
        assert type(hodge_table(LaurentPoly({1: Fraction(4, 2)}))[1]) is int

    def test_euler_numbers(self):
        for r in range(2, 11):
            for k in range(1, r):
                assert stringy_e_affine(r, k).evaluate(1) == comb(r, k)
                assert stringy_e_projective(r, k).evaluate(1) == k * r * comb(r, k)
        assert ONE.evaluate(1) == 1

    def test_euler_is_the_value_at_one_on_the_table_grid(self):
        # the sum of the diagonal, the Euler number that is printed, against evaluate(1)
        for r in range(2, 14):
            for k in range(1, r):
                for p, count in ((stringy_e_affine(r, k), comb(r, k)),
                                 (stringy_e_projective(r, k), k * r * comb(r, k))):
                    euler = sum(hodge_table(p).values())
                    assert euler == p.evaluate(1) == count, (r, k)
                    assert type(euler) is int, (r, k)

    @given(laurent_polys)
    def test_euler_is_the_value_at_one(self, p):
        # the sum of the coefficients, an int when it is integral
        total = Fraction(sum(p.terms.values()))
        euler = p.evaluate(1)
        assert euler == total
        assert type(euler) is (int if total.denominator == 1 else Fraction)

    def test_integral_fraction_sum_is_an_int(self):
        for p in (LaurentPoly({-2: Fraction(1, 2), 3: Fraction(1, 2)}),
                  LaurentPoly({0: Fraction(1, 3), 1: Fraction(2, 3), 4: 5}),
                  LaurentPoly({1: Fraction(1, 2), 2: Fraction(-1, 2)})):
            euler = p.evaluate(1)
            assert euler == sum(p.terms.values()) and type(euler) is int, p


def batyrev_sum(strata, discrepancies):
    """Batyrev's formula over explicit strata, the reference of the chain-sum route:
    sum_I E(stratum_I) prod_{i in I} (q - 1)/(q^{a_i} - 1) over the common denominator
    prod_i (q^{a_i} - 1), for strata given as (E-polynomial, set I of divisor indices)."""
    total = ZERO
    for e_poly, idx in strata:
        total = total + factor_ratio(
            e_poly, [1 if i in idx else a for i, a in enumerate(discrepancies)])
    return factor_ratio(total, (), discrepancies)


def rank_one_resolution_data(r):
    """Hand-built data of the rank <= 1 locus, one blowup of the origin: off the
    divisor (q^r - 1)^2/(q - 1), and the exceptional P^{r-1} x P^{r-1}, with the single
    log discrepancy r."""
    ladder = factor_ratio(ONE, [r], [1])  # [P^{r-1}]
    return ((factor_ratio(ladder, [r]), frozenset()),
            (ladder * ladder, frozenset({0}))), (r,)


def resolution_strata(r, k, variety):
    """The 2^k strata E_I^o of the k-step blowup resolution, with the paper's log
    discrepancies (k - i)(r - i): the rank-k stratum for I empty, and for
    I = {i_1 < ... < i_m} the rank-i_1 stratum times the projectivised collineations of
    exact ranks i_{l+1} - i_l on (r - i_l)-spaces, i_{m+1} = k. The projective variety
    keeps the strata off the origin, 0 not in I."""
    def rank_class(n, j):  # the n x n matrices of rank exactly j
        return class_gl(j) * gauss_binomial(j, n) ** 2

    strata = []
    for size in range(k + 1):
        for idx in itertools.combinations(range(k), size):
            if variety == "projective" and 0 in idx:
                continue
            e_poly = rank_class(r, idx[0] if idx else k)
            for lo, hi in zip(idx, (*idx[1:], k)):
                e_poly = factor_ratio(e_poly * rank_class(r - lo, hi - lo), (), [1])
            strata.append((e_poly, frozenset(idx)))
    return strata, [(k - i) * (r - i) for i in range(k)]


def wrong_discrepancy(monkeypatch, at):
    """Add 1 to the log discrepancy a_at that ``stringy`` reads, where there is one."""
    monkeypatch.setattr(stringy, "log_discrepancies", lambda r, k: [
        (i, a + (i == at)) for i, a in log_discrepancies(r, k)])


class TestResolutionRoute:
    def test_smooth_case_identity(self):
        p = q_pow(2) + 3 * Q
        assert batyrev_sum(((p, frozenset()),), (2,)) == p

    def test_rank_one_r2_data(self):
        strata = ((LaurentPoly({3: 1, 2: 1, 1: -1, 0: -1}), frozenset()),
                  (LaurentPoly({2: 1, 1: 2, 0: 1}), frozenset({0})))
        assert rank_one_resolution_data(2) == (strata, (2,))
        assert batyrev_sum(strata, (2,)) == q_pow(2) + q_pow(3)

    def test_rank_one_general(self):
        for r in range(2, 9):
            via_resolution = stringy_e_from_resolution(r, 1, "affine")
            assert via_resolution == batyrev_sum(*rank_one_resolution_data(r))
            assert via_resolution == q_pow(r) * gauss_binomial(1, r)
            assert via_resolution == stringy_e_affine(r, 1)

    def test_matches_the_strata_sum(self):
        for r in range(2, 7):
            for k in range(1, r):
                strata, discrepancies = resolution_strata(r, k, "affine")
                assert len(strata) == 2 ** k
                assert stringy_e_from_resolution(r, k, "affine") \
                    == batyrev_sum(strata, discrepancies), (r, k)
                strata, discrepancies = resolution_strata(r, k, "projective")
                assert stringy_e_from_resolution(r, k, "projective") \
                    == factor_ratio(batyrev_sum(strata, discrepancies), (), [1]), (r, k)

    def test_nonpolynomial_surfaces(self, monkeypatch):
        with pytest.raises(NotPolynomial):
            batyrev_sum(((ONE, frozenset({0})),), (3,))
        cases = 0
        for at in range(6):
            wrong_discrepancy(monkeypatch, at)
            for r in range(2, 8):
                for k in range(at + 1, r):
                    with pytest.raises(NotPolynomial):
                        stringy_e_from_resolution(r, k, "affine")
                    cases += 1
        assert cases == 56  # every a_i of every 1 <= k < r <= 7

    def test_the_projective_sum_reads_every_a_i_but_a_0(self, monkeypatch):
        # the projective variety has no node 0
        for at in range(4):
            wrong_discrepancy(monkeypatch, at)
            for r in range(2, 7):
                for k in range(at + 1, r):
                    try:
                        value = stringy_e_from_resolution(r, k, "projective")
                    except NotPolynomial:
                        value = None
                    assert (value == stringy_e_projective(r, k)) == (at == 0), (at, r, k)

    def test_bad_variety(self):
        with pytest.raises(InvalidInput):
            stringy_e_from_resolution(3, 1, "conic")

    def test_the_origin_needs_no_blowup(self):
        # k = 0: the affine variety is the origin, one stratum with no discrepancy; the
        # projective one is empty and refused
        for r in range(1, 6):
            assert log_discrepancies(r, 0) == []
            assert stringy_e_from_resolution(r, 0, "affine") == ONE == stringy_e_affine(r, 0)
            with pytest.raises(InvalidInput) as raised:
                stringy_e_from_resolution(r, 0, "projective")
            assert str(raised.value) == f"need 1 <= k <= r-1, got r={r}, k=0"


def block_structure_measure(r, k, tail):
    """The orbit measure by the block structure of the tail, the oracle of orbit_measure.

    The run lengths of the tail form a composition of k; its cumulative list
    r-k = c_0 < ... < c_l = r gives [flag quotient] = prod_j [G(c_j - c_{j-1}, c_j)]
    and [Levi] = prod_j [GL_{c_j - c_{j-1}}], and the measure is
    [flag quotient]^2 [Levi] q^{-sum (2i-1) lambda_i}.
    """
    blocks = [len(list(run)) for _, run in itertools.groupby(tail)]
    cumulative = list(itertools.accumulate(blocks, initial=r - k))
    flag = levi = ONE
    for prev, cur in zip(cumulative, cumulative[1:]):
        flag = flag * gauss_binomial(cur - prev, cur)
        levi = levi * class_gl(cur - prev)
    weight = sum((2 * i - 1) * lam for i, lam in zip(range(r - k + 1, r + 1), tail))
    return flag * flag * levi * q_pow(-weight)


class TestOrbitSums:
    def test_measure_matches_block_structure(self):
        cases = 0
        for r in range(1, 7):
            for k in range(1, r + 1):
                for tail in partition_tails(k, 3):
                    assert orbit_measure(r, k, tail) == block_structure_measure(r, k, tail), \
                        (r, k, tail)
                    cases += 1
        assert cases == 455  # sum over k of (7 - k) C(k + 3, 3)

    def test_measure_zero_tail_r2(self):
        m = orbit_measure(2, 1, (0,))
        assert m == (ONE + Q) ** 2 * (Q - 1)

    def test_measure_general_tail_r2(self):
        for lam in (1, 2, 5):
            m = orbit_measure(2, 1, (lam,))
            assert m == (ONE + Q) ** 2 * (Q - 1) * q_pow(-3 * lam)

    def test_measure_all_zero_tail(self):
        for r, k in ((3, 2), (4, 2), (5, 3)):
            m = orbit_measure(r, k, (0,) * k)
            assert m == gauss_binomial(k, r) ** 2 * class_gl(k)

    def test_cap_zero_truncation(self):
        for r, k in ((3, 2), (4, 2)):
            assert truncated_orbit_sum(r, k, 0, "affine") \
                == gauss_binomial(k, r) ** 2 * class_gl(k)

    def test_r2_partial_sums_are_geometric(self):
        for cap in range(4):
            expected = ZERO
            base = (ONE + Q) ** 2 * (Q - 1)
            for m in range(cap + 1):
                expected = expected + base * q_pow(-2 * m)
            assert truncated_orbit_sum(2, 1, cap, "affine") == expected

    def test_stabilization_to_closed_form(self):
        for r, k in ((2, 1), (3, 1), (3, 2), (4, 2)):
            closed = stringy_e_affine(r, k)
            cap = 8
            bound = orbit_tail_degree_bound(r, k, cap)
            partial = truncated_orbit_sum(r, k, cap, "affine")
            assert {e: c for e, c in partial.terms.items() if e > bound} \
                == {e: c for e, c in closed.terms.items() if e > bound}

    def test_projective_stabilization(self):
        for r, k in ((2, 1), (3, 2)):
            target = stringy_e_projective(r, k) * (Q - 1)
            cap = 8
            bound = orbit_tail_degree_bound(r, k, cap)
            partial = truncated_orbit_sum(r, k, cap, "projective")
            assert {e: c for e, c in partial.terms.items() if e > bound} \
                == {e: c for e, c in target.terms.items() if e > bound}

    def test_projective_truncation_pins_the_last_entry_to_zero(self):
        partial = truncated_orbit_sum(3, 2, 2, "projective")
        assert partial == LaurentPoly({-4: 1, -3: 2, -2: 2, 0: -3, 1: -3, 2: -2,
                                       6: 1, 7: 1, 8: 1})
        for r, k, cap in ((3, 1, 3), (3, 2, 2), (4, 3, 2), (5, 2, 3)):
            pinned = ZERO
            for tail in partition_tails(k, cap):
                if tail[-1] == 0:
                    pinned = pinned + orbit_measure(r, k, tail).shift((r - k) * sum(tail))
            assert truncated_orbit_sum(r, k, cap, "projective") == pinned, (r, k, cap)

    def test_bound_matches_class_degrees(self):
        # oracle: the largest degree of prod [G(b, c)]^2 [GL_b] over all
        # block structures (compositions of k), from the polynomials themselves
        for r in range(2, 9):
            for k in range(1, r):
                max_class_deg = 0
                for cuts in itertools.product((False, True), repeat=k - 1):
                    cumulative = [r - k] + [r - k + j + 1 for j, cut in enumerate(cuts)
                                            if cut] + [r]
                    cls = ONE
                    for prev, cur in zip(cumulative, cumulative[1:]):
                        g = gauss_binomial(cur - prev, cur)
                        cls = cls * g * g * class_gl(cur - prev)
                    max_class_deg = max(max_class_deg, cls.degree())
                for cap in range(6):
                    assert orbit_tail_degree_bound(r, k, cap) \
                        == max_class_deg - (r - k + 1) * (cap + 1), (r, k, cap)

    def test_bound_is_reached_by_an_omitted_tail(self):
        # the bound is tight: the omitted tail (cap + 1, 0, ..., 0), weighted as the
        # truncated sum weights it, has exactly that degree
        cases = 0
        for r in range(2, 8):
            for k in range(1, r):
                for cap in range(6):
                    tail = (cap + 1,) + (0,) * (k - 1)
                    term = orbit_measure(r, k, tail).shift((r - k) * (cap + 1))
                    assert term.degree() == orbit_tail_degree_bound(r, k, cap), (r, k, cap)
                    cases += 1
        assert cases == 126

    def test_bound_decreases_in_cap(self):
        bounds = [orbit_tail_degree_bound(3, 2, cap) for cap in range(6)]
        assert bounds == sorted(bounds, reverse=True)


class TestZeta:
    def test_rank_one_space(self):
        for n in range(6):
            assert zeta_coefficient_direct(1, n) == (Q - 1) * q_pow(-n)

    def test_zero_order_coefficient_is_gl(self):
        for r in range(1, 5):
            assert zeta_coefficient_direct(r, 0) == class_gl(r)
            assert zeta_closed_expansion(r, 0) == (class_gl(r),)

    def test_r2_n1_single_partition(self):
        # lambda = (1, 0): flag quotient (1+q), Levi (q-1)^2, weight q^{-1}
        expected = (ONE + Q) ** 2 * (Q - 1) ** 2 * q_pow(-1)
        assert zeta_coefficient_direct(2, 1) == expected

    def test_routes_agree(self):
        for r in (1, 2, 3, 4, 5):
            series = zeta_closed_expansion(r, 6)
            assert series == tuple(zeta_coefficient_direct(r, n) for n in range(7))

    def test_closed_expansion_matches_the_two_pass_expansion(self):
        for r in range(1, 8):
            for order in range(14):
                assert zeta_closed_expansion(r, order) == two_pass_expansion(r, order), (r, order)

    def test_closed_expansion_builds_only_the_steps_it_uses(self, monkeypatch):
        # a step is applied only to a path term that fits the truncation: at r = 30,
        # order 2, the steps 0 -> 1 and 0 -> 2, then 0, 1 (twice) and 2 -> 30, of the
        # 465 steps a -> b
        steps = []

        def counted(r, s, j, *args):
            steps.append((s - j, s))
            return rank_stratum_class(r, s, j, *args)

        monkeypatch.setattr(stringy, "rank_stratum_class", counted)
        series = zeta_closed_expansion(30, 2)
        assert sorted(steps) == [(0, 1), (0, 2), (0, 30), (1, 30), (1, 30), (2, 30)]
        assert series == tuple(zeta_coefficient_direct(30, n) for n in range(3))

    def test_out_of_range_coefficient(self):
        # the series holds T^0 ... T^order and nothing beyond
        assert len(zeta_closed_expansion(2, 3)) == 4
        with pytest.raises(IndexError):
            zeta_closed_expansion(2, 3)[4]


def two_pass_expansion(r, order):
    """Reference for the closed zeta expansion: each level first collects the path terms
    that reach it, then expands 1/(q^{b^2} T^{-b} - 1) term by term, one shift for each
    power of the geometric series."""
    top = order + r
    paths = {0: {0: ONE}}
    for b in range(1, r + 1):
        # a path short of r still needs a last step of T-degree >= r
        limit = top if b == r else order
        reached = {}
        for a in range(b):
            for t, c in paths[a].items():
                if t + b <= limit:  # else no arrival at b fits the truncation
                    reached[t] = reached.get(t, ZERO) + rank_stratum_class(b, b, b - a, c)
        arrived = {}
        for t, c in reached.items():
            for j in range(1, (limit - t) // b + 1):
                t_new = t + b * j
                arrived[t_new] = arrived.get(t_new, ZERO) + c.shift(-b * b * j)
        paths[b] = arrived
    return tuple(paths[r].get(n + r, ZERO).shift(r * r) for n in range(order + 1))


class TestInputValidation:
    def test_bad_rank_bound(self):
        with pytest.raises(InvalidInput):
            stringy_e_affine(2, 2)

    def test_projective_needs_positive_k(self):
        with pytest.raises(InvalidInput):
            stringy_e_projective(2, 0)

    def test_ok(self):
        stringy_e_projective(3, 2)
        stringy_e_affine(1, 0)
