"""Acceptance suite: one test per acceptance criterion, zero tolerance.

Every check is an exact equality of polynomials, integers, or rationals.
Each test prints a single pass line on success (run pytest with -s to see
them); any failure is an assertion error naming the offending case.
"""
import random
from fractions import Fraction
from math import comb

from stringydet.exactalg import LaurentPoly, RationalFn, q_pow
from stringydet.groth import (
    gauss_binomial,
    rank_stratum_class,
)
from stringydet.oracle import rank_census, verify_classes
from stringydet.stringy import (
    grassmannian_recursive,
    grassmannian_subset_sum,
    hodge_table,
    non_negative,
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

from test_groth import gauss_binomial_partition_sum, rank_strata_sum
from test_stringy import batyrev_sum, rank_one_resolution_data

Q = q_pow(1)


def _report(n, text):
    print(f"PASS criterion {n}: {text}")


def test_criterion_1_main_theorem():
    cases = 0
    for r in range(2, 7):
        for k in range(1, r):
            assert stringy_e_affine_from_orbits(r, k) \
                == q_pow(k * r) * gauss_binomial(k, r), (r, k)
            cases += 1
    assert cases == 15
    _report(1, f"affine orbit sum equals q^(kr)*[G(k,r)] for {cases} cases, r <= 6")


def test_criterion_2_projective_theorem():
    for r in range(2, 7):
        for k in range(1, r):
            ladder = LaurentPoly({i: 1 for i in range(k * r)})
            assert stringy_e_projective_from_orbits(r, k) \
                == ladder * gauss_binomial(k, r), (r, k)
    for r in range(2, 11):
        for k in range(1, r):
            coeffs = stringy_e_projective(r, k).terms.values()
            assert all(c >= 0 for c in coeffs), (r, k)
    _report(2, "projective orbit sum matches closed form (r <= 6); "
               "all coefficients nonnegative up to r = 10")


def test_criterion_3_euler_numbers():
    for r in range(2, 11):
        for k in range(1, r):
            assert stringy_e_affine(r, k).evaluate(1) == comb(r, k), (r, k)
            assert stringy_e_projective(r, k).evaluate(1) == k * r * comb(r, k), (r, k)
    _report(3, "Euler numbers are C(r,k) affine and k*r*C(r,k) projective, r <= 10")


def test_criterion_4_recursion_identity():
    for r in range(2, 9):
        for k in range(1, r):
            g = gauss_binomial(k, r)
            assert grassmannian_subset_sum(r, k) == g, (r, k)
            assert grassmannian_recursive(r, k) == g, (r, k)
    _report(4, "subset sum and recursion both reproduce the Gaussian binomial, r <= 8")


def test_criterion_5_rank_identity():
    for r in range(1, 9):
        for k in range(1, r + 1):
            assert rank_strata_sum(r, k) == q_pow(k * r), (r, k)
    for p, r in ((2, 2), (2, 3), (3, 2), (3, 3), (2, 4)):
        census = rank_census(p, r, r)
        for k in range(1, r + 1):
            lhs = p ** (k * r)
            rhs = 1 + sum(gauss_binomial(m, r).evaluate(p)
                          * rank_stratum_class(r - m, k, r - m).evaluate(p)
                          for m in range(r - k, r))
            assert lhs == rhs, (p, r, k)
        # the census itself confirms the stratification behind the identity
        assert sum(census.counts.values()) == p ** (r * r)
        assert census.counts[0] == 1
    _report(5, "rank identity holds symbolically (r <= 8) and numerically "
               "(p in {2,3}, r <= 3; p=2, r=4)")


def test_criterion_6_resolution_route():
    cases = 0
    for r in range(2, 9):
        assert stringy_e_from_resolution(r, 1, "affine") \
            == batyrev_sum(*rank_one_resolution_data(r)), r
        for k in range(1, r):
            ladder = LaurentPoly({i: 1 for i in range(k * r)})
            assert stringy_e_from_resolution(r, k, "affine") \
                == q_pow(k * r) * gauss_binomial(k, r), (r, k)
            assert stringy_e_from_resolution(r, k, "projective") \
                == ladder * gauss_binomial(k, r), (r, k)
            cases += 1
    assert cases == 28
    _report(6, "Batyrev's formula on the k-step resolution reproduces q^(kr)*[G(k,r)] and "
               "its projective form for 1 <= k < r <= 8, and the one-blowup data at k = 1")


def test_criterion_7_orbit_convergence():
    for r, k in ((2, 1), (3, 1), (3, 2), (4, 2)):
        closed = stringy_e_affine(r, k)
        for cap in range(13):
            bound = orbit_tail_degree_bound(r, k, cap)
            partial = truncated_orbit_sum(r, k, cap, "affine")
            stable = {e: c for e, c in partial.terms.items() if e > bound}
            expect = {e: c for e, c in closed.terms.items() if e > bound}
            assert stable == expect, (r, k, cap)
        # once the bound clears exponent 0, all closed-form coefficients match
        assert orbit_tail_degree_bound(r, k, 12) < 0, (r, k)
    _report(7, "truncated orbit sums stabilize to the closed form above the "
               "derived tail bound, caps up to 12")


def test_criterion_8_zeta_consistency():
    for r in (1, 2, 3):
        series = zeta_closed_expansion(r, 6)
        for n, coefficient in enumerate(series):
            assert coefficient == zeta_coefficient_direct(r, n), (r, n)
        assert len(series) == 7
    _report(8, "closed zeta expansion matches direct partition sums, "
               "r in {1,2,3}, order 6")


def test_criterion_9_oracle_certification():
    for p, r_max in ((2, 4), (3, 3), (5, 2), (2, 5), (5, 3), (3, 4)):
        failed = [name for name, ok, _ in verify_classes(p, r_max).checks if not ok]
        assert failed == [], (p, r_max)
    _report(9, "finite-field point counts certify every class formula for "
               "(p, r_max) in {(2,4), (3,3), (5,2), (2,5), (5,3), (3,4)}")


def _random_poly(rng):
    n_terms = rng.randrange(0, 5)
    return LaurentPoly({rng.randrange(-5, 7):
                        Fraction(rng.randrange(-4, 5), rng.randrange(1, 4))
                        for _ in range(n_terms)})


def test_criterion_10_kernel_properties():
    rng = random.Random(20240817)
    cases = 0
    for _ in range(2500):
        a, b, c = _random_poly(rng), _random_poly(rng), _random_poly(rng)
        assert a + b == b + a
        assert (a + b) + c == a + (b + c)
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        cases += 5
    for _ in range(1500):
        p, d = _random_poly(rng), _random_poly(rng)
        if d.is_zero():
            continue
        assert RationalFn(p * d, d).to_poly() == p
        f = RationalFn(p, d)
        assert RationalFn(f.num, f.den) == f
        cases += 2
    for _ in range(1500):
        a, b = _random_poly(rng), _random_poly(rng)
        x = Fraction(rng.randrange(1, 7), rng.randrange(1, 5))
        assert (a * b).evaluate(x) == a.evaluate(x) * b.evaluate(x)
        cases += 1
    assert cases >= 10 ** 4
    for k in range(13):
        for d in range(k + 1):
            assert gauss_binomial(d, k) == gauss_binomial_partition_sum(d, k)
            assert gauss_binomial(d, k) == gauss_binomial(k - d, k)
    _report(10, f"{cases} randomized kernel cases plus Gaussian binomial "
                "dual-method agreement and symmetry for d <= k <= 12")


def test_north_star_corank_one_r12():
    # exactness at the size of north-star win 2, not its timing
    for closed_form, orbit_route in ((stringy_e_affine, stringy_e_affine_from_orbits),
                                     (stringy_e_projective, stringy_e_projective_from_orbits)):
        closed = closed_form(12, 11)
        assert orbit_route(12, 11) == closed, closed_form.__name__
        assert non_negative(hodge_table(closed)), closed_form.__name__
    _report("r = 12", "corank-one orbit sums equal the closed forms on both "
                      "varieties, with nonnegative Hodge numbers")
