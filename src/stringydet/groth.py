"""Grothendieck-ring classes of the building-block varieties.

Everything is a polynomial (or Laurent polynomial) in ``q``, the class of
the affine line: general linear groups, Grassmannians, tuples of
independent vectors, flag-variety quotients and Levi factors, and the
rank stratification of matrix space.
"""
from __future__ import annotations

import itertools
from collections import namedtuple
from functools import lru_cache

from .exactalg import (DivisionByZero, LaurentPoly, NotPolynomial, ONE, ZERO, _dense,
                       _from_dense, q_pow)


class InvalidDimension(ValueError):
    """Subspace dimension exceeds the ambient dimension."""


class MalformedCumulativeList(ValueError):
    """Cumulative index list is not strictly increasing up to the rank."""


class InvalidRank(ValueError):
    """Rank outside the range allowed by the matrix shape."""


class Composition(namedtuple("Composition", "blocks")):
    """An ordered tuple of positive block sizes summing to ``rank``."""

    __slots__ = ()

    def __new__(cls, blocks):
        blocks = tuple(blocks)
        if not all(isinstance(b, int) and b >= 1 for b in blocks):
            raise ValueError("blocks must be positive integers")
        return super().__new__(cls, blocks)

    @property
    def rank(self) -> int:
        return sum(self.blocks)

    def cumulative(self, offset: int = 0) -> tuple:
        """Indices (offset, offset+a_1, offset+a_1+a_2, ...)."""
        out = [offset]
        for b in self.blocks:
            out.append(out[-1] + b)
        return tuple(out)


class PartitionTail(namedtuple("PartitionTail", "entries r k")):
    """The finite tail of an orbit partition: weakly decreasing, length k.

    The context (r, k) fixes the implicit infinite prefix of length r - k.
    """

    __slots__ = ()

    def __new__(cls, entries, r, k):
        entries = tuple(entries)
        if len(entries) != k:
            raise ValueError(f"expected {k} entries, got {len(entries)}")
        if any(not isinstance(e, int) or e < 0 for e in entries):
            raise ValueError("entries must be nonnegative integers")
        if any(entries[i] < entries[i + 1] for i in range(len(entries) - 1)):
            raise ValueError("entries must be weakly decreasing")
        if not 1 <= k <= r:
            raise ValueError("need 1 <= k <= r")
        return super().__new__(cls, entries, r, k)

    def total(self) -> int:
        return sum(self.entries)


def partition_tails(r: int, k: int, cap: int, last_zero: bool = False):
    """All PartitionTails in context (r, k) with entries <= cap.

    With ``last_zero`` only tails whose final entry is 0 are produced.
    """
    last_range = 1 if last_zero else cap + 1
    for rest in itertools.combinations_with_replacement(range(cap + 1), k - 1):
        for last in range(min(last_range, rest[0] + 1 if rest else last_range)):
            yield PartitionTail(tuple(reversed(rest)) + (last,), r, k)


def q_factor_product(exponents, base: LaurentPoly = ONE) -> LaurentPoly:
    """``base`` times the product of q^a - 1 over the exponents a, in order."""
    result = base
    for a in exponents:
        result = result.shift(a) - result
    return result


def q_factor_quotient(exponents, num: LaurentPoly) -> LaurentPoly:
    """``num`` over the product of q^a - 1 for a in exponents, the inverse of
    ``q_factor_product``; NotPolynomial if that is not exact. Per factor it is one
    bottom-up pass Q_e = Q_{e-a} - num_e (a running sum per residue class mod a,
    over 1 - q^a, the sign restored at the end), whose top a coefficients must vanish."""
    exponents = list(exponents)
    for a in exponents:
        if a == 0:
            raise DivisionByZero("q^0 - 1 is the zero polynomial")
        if a < 0:
            raise ValueError(f"exponents must be positive, got {a}")
    if num.is_zero():
        return ZERO
    coeffs = _dense(num)
    for a in exponents:
        for j in range(min(a, len(coeffs))):
            coeffs[j::a] = itertools.accumulate(coeffs[j::a])
        top = max(len(coeffs) - a, 0)
        if any(coeffs[top:]):
            raise NotPolynomial(f"not divisible by q^{a} - 1")
        del coeffs[top:]
    if len(exponents) % 2:
        coeffs = [-c for c in coeffs]
    return _from_dense(coeffs).shift(num.order())


@lru_cache(maxsize=None)
def class_gl(d: int) -> LaurentPoly:
    """Class of GL_d: q^{d(d-1)/2} (q^d - 1)(q^{d-1} - 1) ... (q - 1)."""
    if d < 0:
        raise InvalidDimension("d must be nonnegative")
    return q_factor_product(range(1, d + 1)).shift(d * (d - 1) // 2)


@lru_cache(maxsize=None)
def gauss_binomial(d: int, k: int) -> LaurentPoly:
    """The Gaussian binomial: class of d-dimensional subspaces of k-space.

    Evaluates prod_{j=1}^{d} (q^{j+k-d} - 1)/(q^j - 1), d = min(d, k - d), one factor
    at a time: step j leaves [j+k-d choose j], so every division is exact.
    """
    if d < 0 or k < 0 or d > k:
        raise InvalidDimension(f"need 0 <= d <= k, got d={d}, k={k}")
    d = min(d, k - d)
    result = ONE
    for j in range(1, d + 1):
        result = q_factor_quotient([j], q_factor_product([j + k - d], result))
    return result


@lru_cache(maxsize=None)
def class_independent_tuples(d: int, k: int) -> LaurentPoly:
    """Class of d-tuples of linearly independent vectors in k-space."""
    if d < 0 or k < 0 or d > k:
        raise InvalidDimension(f"need 0 <= d <= k, got d={d}, k={k}")
    result = ONE
    for j in range(d):
        result = result.shift(k) - result.shift(j)
    return result


def class_flag_quotient(r: int, cumulative) -> LaurentPoly:
    """Class of GL_r modulo a block-parabolic: product of Grassmannians.

    ``cumulative`` is the strictly increasing index list i_0 < ... < i_l = r;
    the result is prod_j [G(i_j - i_{j-1}, i_j)].
    """
    cumulative = tuple(cumulative)
    if len(cumulative) < 1 or cumulative[-1] != r or cumulative[0] < 0:
        raise MalformedCumulativeList(f"bad cumulative list {cumulative} for r={r}")
    if any(cumulative[i] >= cumulative[i + 1] for i in range(len(cumulative) - 1)):
        raise MalformedCumulativeList(f"not strictly increasing: {cumulative}")
    result = ONE
    for prev, cur in zip(cumulative, cumulative[1:]):
        result = result * gauss_binomial(cur - prev, cur)
    return result


def class_levi(blocks: Composition) -> LaurentPoly:
    """Class of a Levi factor: product of GL classes over the block sizes."""
    result = ONE
    for b in blocks.blocks:
        result = result * class_gl(b)
    return result


def composition_of_partition(tail: PartitionTail):
    """Block structure of the equal-value runs of a partition tail.

    Returns (Composition, cumulative list) where the cumulative indices are
    prefixed by the offset r - k coming from the infinite part. A trailing
    run of zeros forms its own block.
    """
    blocks = []
    run = 1
    for prev, cur in zip(tail.entries, tail.entries[1:]):
        if cur == prev:
            run += 1
        else:
            blocks.append(run)
            run = 1
    blocks.append(run)
    comp = Composition(tuple(blocks))
    return comp, comp.cumulative(offset=tail.r - tail.k)


def rank_stratum_class(r: int, s: int, j: int) -> LaurentPoly:
    """Class of r x s matrices of rank exactly j: [G(r-j, r)] * [U(j, s)]."""
    if not 0 <= j <= min(r, s):
        raise InvalidRank(f"need 0 <= j <= min(r, s), got j={j}")
    return gauss_binomial(r - j, r) * class_independent_tuples(j, s)


def rank_identity_check(r: int, k: int) -> bool:
    """q^{kr} = 1 + sum_{m=r-k}^{r-1} [G(m, r)] [U(r-m, k)], exactly."""
    if not 1 <= k <= r:
        raise InvalidRank(f"need 1 <= k <= r, got r={r}, k={k}")
    total = ONE
    for m in range(r - k, r):
        total = total + gauss_binomial(m, r) * class_independent_tuples(r - m, k)
    return total == q_pow(k * r)
