"""Kernel tests: Laurent polynomials and rational functions."""
import random
from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, strategies as st

from stringydet.exactalg import (
    DivisionByZero,
    EvalAtZeroWithNegativeExponent,
    LaurentPoly,
    NotPolynomial,
    ONE,
    RationalFn,
    ZERO,
    _coerce,
    laurent_gcd,
    q_pow,
)

Q = q_pow(1)


def fraction_product(a: dict, b: dict) -> dict:
    """Schoolbook product over Fraction: the oracle for the kernel's ``*``."""
    out = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            out[e1 + e2] = out.get(e1 + e2, Fraction(0)) + Fraction(c1) * Fraction(c2)
    return {e: c for e, c in out.items() if c != 0}


def long_division(num: list, den: list):
    """Dense long division over Fraction (coefficient lists, low first)."""
    num = [Fraction(c) for c in num]
    den = [Fraction(c) for c in den]
    quot = [Fraction(0)] * max(len(num) - len(den) + 1, 0)
    for i in range(len(num) - 1, len(den) - 2, -1):
        t = num[i] / den[-1]
        quot[i - len(den) + 1] = t
        for j, d in enumerate(den):
            num[i - len(den) + 1 + j] -= t * d
    while num and num[-1] == 0:
        num.pop()
    return quot, num


def fraction_divide_exact(num: LaurentPoly, den: LaurentPoly) -> dict:
    """The oracle for ``divide_exact``: long division over Fraction after
    clearing q-powers; raises NotPolynomial on a nonzero remainder."""
    if num.is_zero():
        return {}

    def dense(p):
        return [p.terms.get(e, 0) for e in range(p.order(), p.degree() + 1)]

    quot, rem = long_division(dense(num), dense(den))
    if rem:
        raise NotPolynomial("nonzero remainder")
    low = num.order() - den.order()
    return {low + i: c for i, c in enumerate(quot) if c != 0}


class TestArithmetic:
    def test_difference_of_squares(self):
        assert (Q - 1) * (Q + 1) == q_pow(2) - 1

    def test_additive_identity(self):
        p = LaurentPoly({-2: 3, 0: Fraction(1, 2), 5: -1})
        assert p + ZERO == p

    def test_square_matches_convolution_oracle(self):
        p = ONE + Q
        assert (p * p).terms == fraction_product({0: 1, 1: 1}, {0: 1, 1: 1})

    def test_zero_coefficients_pruned(self):
        p = LaurentPoly({3: 1}) - LaurentPoly({3: 1})
        assert p.is_zero()
        assert p.terms == {}

    def test_power(self):
        assert (Q + 1) ** 3 == LaurentPoly({0: 1, 1: 3, 2: 3, 3: 1})

    def test_power_multiplication_count(self, monkeypatch):
        # square only while bits remain: n = 1, 2, 5 cost 0, 1, 3 products
        calls = []
        mul = LaurentPoly.__mul__

        def counted(self, other):
            calls.append(1)
            return mul(self, other)

        monkeypatch.setattr(LaurentPoly, "__mul__", counted)
        for n, products in ((0, 0), (1, 0), (2, 1), (5, 3)):
            calls.clear()
            assert ((Q + 1) ** n).terms == {k: comb(n, k) for k in range(n + 1)}
            assert len(calls) == products, n

    def test_bool_exponent_rejected(self):
        with pytest.raises(TypeError):
            LaurentPoly({True: 1})


class TestEvaluation:
    def test_coefficient_sum_at_one(self):
        assert (q_pow(2) + q_pow(3)).evaluate(1) == 2

    def test_invertible_2x2_count_at_two(self):
        # oracle: exhaustive count of invertible 2x2 matrices over F_2
        import itertools
        count = 0
        for a, b, c, d in itertools.product(range(2), repeat=4):
            if (a * d - b * c) % 2:
                count += 1
        p = q_pow(4) - q_pow(3) - q_pow(2) + q_pow(1)
        assert p.evaluate(2) == count == 6

    def test_negative_exponent(self):
        assert q_pow(-1).evaluate(2) == Fraction(1, 2)

    def test_eval_at_zero_with_negative_exponent_raises(self):
        with pytest.raises(EvalAtZeroWithNegativeExponent):
            q_pow(-1).evaluate(0)


class TestRationalFn:
    def test_telescoping_factor(self):
        f = RationalFn(q_pow(2) - 1, Q - 1)
        assert f.num == Q + 1
        assert f.den == ONE

    def test_self_quotient_is_one(self):
        p = q_pow(3) + 2 * Q - 1
        f = RationalFn(p, p)
        assert f.num == ONE and f.den == ONE

    def test_cubic_division_matches_long_division_oracle(self):
        # (q^3 + q^2 - q - 1)/(q - 1)
        quot, rem = long_division([-1, -1, 1, 1], [-1, 1])
        assert rem == []
        expected = LaurentPoly({i: c for i, c in enumerate(quot)})
        assert RationalFn(LaurentPoly({3: 1, 2: 1, 1: -1, 0: -1}), Q - 1).to_poly() \
            == expected == LaurentPoly({2: 1, 1: 2, 0: 1})

    def test_zero_denominator_raises(self):
        with pytest.raises(DivisionByZero):
            RationalFn(ONE, ZERO)

    def test_geometric_series_quotient(self):
        assert RationalFn(q_pow(4) - 1, Q - 1).to_poly() \
            == LaurentPoly({0: 1, 1: 1, 2: 1, 3: 1})

    def test_non_divisible_raises(self):
        with pytest.raises(NotPolynomial):
            RationalFn(q_pow(2) + 1, Q + 1).to_poly()

    def test_unit_normalization(self):
        f = RationalFn(q_pow(3), 2 * q_pow(2) - 2 * q_pow(1))
        assert f.den.order() == 0
        assert f.den.leading_coeff() == 1

    def test_normalization_idempotent(self):
        f = RationalFn(q_pow(2) + 1, q_pow(3) - Q + 1)
        again = RationalFn(f.num, f.den)
        assert again == f


small_fraction = st.fractions(min_value=-5, max_value=5, max_denominator=6)
laurent = st.dictionaries(st.integers(-6, 8), small_fraction, max_size=6).map(LaurentPoly)
nonzero_laurent = laurent.filter(lambda p: not p.is_zero())


@given(laurent, laurent, laurent)
def test_ring_axioms(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


@given(laurent, nonzero_laurent)
def test_gcd_reduction_round_trip(p, d):
    assert RationalFn(p * d, d).to_poly() == p


@given(laurent, laurent, st.fractions(max_denominator=4).filter(lambda x: x != 0))
def test_specialization_homomorphism(a, b, x):
    assert (a * b).evaluate(x) == a.evaluate(x) * b.evaluate(x)
    assert (a + b).evaluate(x) == a.evaluate(x) + b.evaluate(x)


@given(nonzero_laurent, nonzero_laurent)
def test_gcd_divides_both(a, b):
    g = laurent_gcd(a, b)
    a.divide_exact(g)
    b.divide_exact(g)


# -- the int kernel against the Fraction oracles ------------------------------

big_int = st.integers(-2 ** 70, 2 ** 70)
coefficient = st.one_of(st.integers(-5, 5), big_int, small_fraction)
mixed_terms = st.dictionaries(st.integers(-6, 8), coefficient, max_size=8)
alternating_terms = st.tuples(
    st.integers(-4, 4), st.lists(st.integers(1, 2 ** 64), min_size=1, max_size=12),
).map(lambda t: {t[0] + i: (-1) ** i * c for i, c in enumerate(t[1])})
operand_terms = st.one_of(mixed_terms, alternating_terms)
divisor = st.one_of(
    operand_terms.map(LaurentPoly).filter(lambda p: not p.is_zero()),
    st.sampled_from([2 * Q - 2, 3 * q_pow(2) - 1, Q - 1, q_pow(-2) * (q_pow(3) - 1),
                     LaurentPoly({1: Fraction(1, 2), 0: 1}), -Q + 4]),
)


@given(operand_terms, operand_terms)
def test_product_matches_fraction_schoolbook(a, b):
    assert (LaurentPoly(a) * LaurentPoly(b)).terms == fraction_product(a, b)


@given(operand_terms, divisor)
def test_exact_quotient_matches_fraction_long_division(p, d):
    p = LaurentPoly(p)
    assert (p * d).divide_exact(d).terms == fraction_divide_exact(p * d, d) == p.terms


@given(operand_terms, divisor)
def test_any_quotient_agrees_with_fraction_long_division(n, d):
    n = LaurentPoly(n)
    try:
        expected = fraction_divide_exact(n, d)
    except NotPolynomial:
        with pytest.raises(NotPolynomial):
            n.divide_exact(d)
    else:
        assert n.divide_exact(d).terms == expected


def test_non_divisible_pair_raises():
    n, d = q_pow(2) + 1, 2 * Q - 2
    with pytest.raises(NotPolynomial):
        fraction_divide_exact(n, d)
    with pytest.raises(NotPolynomial):
        n.divide_exact(d)


# -- coefficient types: int when integral, Fraction otherwise, never float ----

int_laurent = st.dictionaries(st.integers(-6, 8), big_int, max_size=8).map(LaurentPoly)
int_polynomial = st.dictionaries(st.integers(0, 8), big_int, max_size=8).map(LaurentPoly)


def _all_int(p: LaurentPoly) -> bool:
    return all(type(c) is int for c in p.terms.values())


def _canonical(p: LaurentPoly) -> bool:
    return all(type(c) is (int if c.denominator == 1 else Fraction)
               for c in p.terms.values())


@given(int_laurent, int_laurent, big_int, int_polynomial, st.integers(-5, 5))
def test_integer_inputs_give_int_coefficients(a, b, c, p, x):
    assert _all_int(a + b) and _all_int(a - b) and _all_int(a * b)
    assert _all_int(a.scale(c))
    if not b.is_zero():
        assert _all_int((a * b).divide_exact(b))
    assert type(p.evaluate(x)) is int


@given(operand_terms, operand_terms, coefficient, st.fractions(max_denominator=4))
def test_mixed_inputs_give_canonical_coefficients(a, b, c, x):
    a, b = LaurentPoly(a), LaurentPoly(b)
    assert _canonical(a) and _canonical(a + b) and _canonical(a * b)
    assert _canonical(a.scale(c))
    if not b.is_zero():
        assert _canonical((a * b).divide_exact(b))
        assert _canonical(laurent_gcd(a, b))
        f = RationalFn(a, b)
        assert _canonical(f.num) and _canonical(f.den)
    if x != 0:
        value = a.evaluate(x)
        assert type(value) is (int if value.denominator == 1 else Fraction)


def test_integral_fractions_become_ints():
    assert LaurentPoly({0: Fraction(6, 2)}).terms == {0: 3}
    assert type(LaurentPoly({0: Fraction(6, 2)}).terms[0]) is int
    half = LaurentPoly({1: Fraction(1, 2)})
    assert type((half + half).terms[1]) is int
    assert type((half * (2 * Q)).terms[2]) is int
    assert type((2 * Q).scale(Fraction(1, 2)).terms[1]) is int
    assert type(half.evaluate(2)) is int
    assert type(q_pow(-1).evaluate(1)) is int
    assert type(LaurentPoly({0: True}).terms[0]) is int


def test_floats_are_rejected():
    with pytest.raises(TypeError):
        LaurentPoly({0: 1.0})
    with pytest.raises(TypeError):
        Q.scale(0.5)
    with pytest.raises(TypeError):
        Q.evaluate(2.0)


def test_monic_gcd_of_integer_inputs_has_no_float():
    g = laurent_gcd(2 * Q - 2, 4 * q_pow(2) - 4)
    assert g == Q - 1 and _all_int(g)
    f = RationalFn(q_pow(3), 2 * q_pow(2) - 2 * Q)
    assert f.num.terms == {2: Fraction(1, 2)} and _all_int(f.den)


def _cyclotomic_product(exponents) -> LaurentPoly:
    out = ONE
    for a in exponents:
        out = out * (q_pow(a) - 1)
    return out


def test_gcd_degree_128_dense_times_cyclotomic():
    # a dense integer polynomial times factors q^a - 1, against another such
    # product: the shape whose remainders grew without bound before they
    # were made monic
    dense = LaurentPoly({i: (-1) ** i * (7919 * i % 1048573 + 1) for i in range(65)})
    left = dense * _cyclotomic_product([1, 2, 3, 5, 7, 9, 11, 12, 14])
    right = _cyclotomic_product([2, 3, 4, 6, 7, 8, 10, 11, 12, 13, 15, 16, 16, 5])
    assert left.degree() == right.degree() == 128
    g = laurent_gcd(left, right)
    assert g.leading_coeff() == 1
    assert g.degree() >= 6
    left_cofactor = left.divide_exact(g)
    right_cofactor = right.divide_exact(g)
    assert laurent_gcd(left_cofactor, right_cofactor) == ONE


scalar = st.one_of(st.integers(-3, 3), st.fractions(min_value=-3, max_value=3,
                                                    max_denominator=2))
small_laurent = st.dictionaries(st.integers(-1, 1), scalar, max_size=2).map(LaurentPoly)


def _built_from_fractions(p: LaurentPoly) -> LaurentPoly:
    return LaurentPoly({e: Fraction(c) for e, c in p.terms.items()})


hashable_value = st.one_of(
    scalar,
    scalar.map(Fraction),
    scalar.map(lambda c: LaurentPoly({0: c})),
    scalar.map(lambda c: LaurentPoly({0: Fraction(c)})),
    small_laurent,
    small_laurent.map(_built_from_fractions),
    small_laurent.map(RationalFn),
    st.tuples(small_laurent, nonzero_laurent).map(lambda pd: RationalFn(pd[0] * pd[1], pd[1])),
    st.tuples(small_laurent, st.sampled_from([Q - 1, Q + 1, 2 * Q])).map(
        lambda pd: RationalFn(*pd)),
)


@given(hashable_value, hashable_value)
def test_equal_values_hash_equal(a, b):
    if a == b:
        assert hash(a) == hash(b)


def test_constants_share_a_set_slot():
    three = LaurentPoly({0: 3})
    assert len({three, 3, Fraction(3), RationalFn(three), LaurentPoly({0: Fraction(6, 2)})}) == 1
    assert len({ZERO, 0, RationalFn(ZERO), LaurentPoly({0: Fraction(0)})}) == 1
    linear = LaurentPoly({1: 3, 0: -1})
    assert len({linear, LaurentPoly({1: Fraction(6, 2), 0: Fraction(-1)}),
                RationalFn(linear), RationalFn(2 * linear, LaurentPoly({0: Fraction(4, 2)}))}) == 1



# -- equality as it was when both classes tested isinstance(x, (int, Fraction)) --

def reference_coerce(x) -> LaurentPoly:
    if isinstance(x, LaurentPoly):
        return x
    if isinstance(x, (int, Fraction)):
        return LaurentPoly({0: x})
    raise TypeError(f"cannot coerce {type(x).__name__} to LaurentPoly")


def reference_poly_eq(self, other):
    if isinstance(other, (int, Fraction)):
        other = reference_coerce(other)
    if not isinstance(other, LaurentPoly):
        return NotImplemented
    return self.terms == other.terms


def reference_rational_eq(self, other):
    if isinstance(other, (int, Fraction, LaurentPoly)):
        other = RationalFn(reference_coerce(other))
    if not isinstance(other, RationalFn):
        return NotImplemented
    return self.num == other.num and self.den == other.den


def _comparisons(value, x) -> tuple:
    """``value == x`` and ``x == value``, through Python's whole protocol."""
    return value == x, x == value


any_operand = st.one_of(
    st.integers(-3, 3), st.booleans(), st.integers(-3, 3).map(Fraction),
    st.integers(-3, 3).map(lambda n: Fraction(2 * n + 1, 2)), st.floats(-3, 3),
    st.text(max_size=2), st.none(), small_laurent, small_laurent.map(RationalFn))


@given(st.one_of(small_laurent, small_laurent.map(RationalFn)), any_operand)
def test_equality_matches_the_isinstance_reference(value, x):
    cls = type(value)
    reference = reference_poly_eq if cls is LaurentPoly else reference_rational_eq
    actual = _comparisons(value, x)
    current = cls.__eq__
    cls.__eq__ = reference  # a class attribute set later leaves __hash__ as it is
    try:
        expected = _comparisons(value, x)
    finally:
        cls.__eq__ = current
    assert actual == expected
    if actual[0]:
        assert hash(value) == hash(x)


@given(any_operand)
def test_coercion_matches_the_isinstance_reference(x):
    try:
        expected = reference_coerce(x)
    except TypeError:
        with pytest.raises(TypeError):
            _coerce(x)
    else:
        assert _coerce(x) == expected

def test_immutability():
    p = q_pow(2)
    with pytest.raises(AttributeError):
        p._terms = {}
    t = p.terms
    t[99] = 5
    assert p == q_pow(2)


def test_rational_layer_is_one_copy_reached_through_exactalg():
    from stringydet import exactalg, rational
    from stringydet.exactalg import RationalFn as imported
    assert exactalg.RationalFn is rational.RationalFn is imported
    assert exactalg.laurent_gcd is rational.laurent_gcd
    with pytest.raises(AttributeError, match="'stringydet.exactalg' has no attribute 'nosuch'"):
        exactalg.nosuch
    assert not hasattr(exactalg, "nosuch")
