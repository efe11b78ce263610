"""Grothendieck-ring classes of the building-block varieties.

Everything is a polynomial (or Laurent polynomial) in ``q``, the class of
the affine line: general linear groups, Grassmannians, and the rank
stratification of matrix space, whose rank-d d x k stratum is the d-tuples of
independent vectors in k-space.

The errors that end a command live here too, where every layer can raise them
and ``cli`` can catch them without loading the layer that raises.
"""
import itertools
from functools import lru_cache
from operator import sub

from .exactalg import (DivisionByZero, LaurentPoly, NotPolynomial, ONE, ZERO, _dense,
                       _from_dense)


class InvalidInput(ValueError):
    """Parameters outside the supported range of a route or a command."""


class UnsupportedPrime(InvalidInput):
    """The field size is not a prime, or is above the enumeration cap."""


class BudgetExceeded(ValueError):
    """Requested enumeration would exceed the candidate budget."""


def partition_tails(k: int, cap: int):
    """All weakly decreasing k-tuples of entries in 0..cap, the finite tails of
    the orbit partitions of rank bound k."""
    for c in itertools.combinations_with_replacement(range(cap + 1), k):
        yield tuple(reversed(c))


def _times_factors(coeffs: list, exponents) -> list:
    """The coefficient list ``coeffs`` times q^a - 1 for each exponent a, one subtraction each."""
    for a in exponents:
        if a < 0:
            raise InvalidInput(f"exponents must be positive, got {a}")
        coeffs = list(map(sub, [0] * a + coeffs, coeffs + [0] * a))
    return coeffs


def _over_factors(coeffs: list, exponents) -> list:
    """``coeffs``, consumed, over q^a - 1 for each exponent a: per factor a running sum per
    residue class mod a (over 1 - q^a), whose top a entries must vanish, else NotPolynomial."""
    exponents = list(exponents)
    for a in exponents:
        if a == 0:
            raise DivisionByZero("q^0 - 1 is the zero polynomial")
        if a < 0:
            raise InvalidInput(f"exponents must be positive, got {a}")
    for a in exponents:
        for j in range(min(a, len(coeffs))):
            coeffs[j::a] = itertools.accumulate(coeffs[j::a])
        top = max(len(coeffs) - a, 0)
        if any(coeffs[top:]):
            raise NotPolynomial(f"not divisible by q^{a} - 1")
        del coeffs[top:]
    return [-c for c in coeffs] if len(exponents) % 2 else coeffs


def factor_ratio(p: LaurentPoly, times, over=()) -> LaurentPoly:
    """``p`` times q^a - 1 for a in ``times``, over q^a - 1 for a in ``over``, on one list;
    NotPolynomial if a division is not exact."""
    coeffs = _over_factors(_times_factors(_dense(p), times), over)
    return ZERO if p.is_zero() else _from_dense(coeffs, p.order())


@lru_cache(maxsize=None)
def class_gl(d: int) -> LaurentPoly:
    """Class of GL_d: q^{d(d-1)/2} (q^d - 1)(q^{d-1} - 1) ... (q - 1)."""
    if d < 0:
        raise InvalidInput("d must be nonnegative")
    return factor_ratio(ONE, range(1, d + 1)).shift(d * (d - 1) // 2)


@lru_cache(maxsize=None)
def gauss_binomial(d: int, k: int) -> LaurentPoly:
    """The Gaussian binomial: class of d-dimensional subspaces of k-space,
    prod_{j=1}^{e} (q^{j+k-e} - 1)/(q^j - 1) with e = min(d, k - d), on one list."""
    if d < 0 or k < 0 or d > k:
        raise InvalidInput(f"need 0 <= d <= k, got d={d}, k={k}")
    e = min(d, k - d)
    return factor_ratio(ONE, range(k - e + 1, k + 1), range(1, e + 1))


def rank_stratum_class(r: int, s: int, j: int, base: LaurentPoly = ONE,
                       times=()) -> LaurentPoly:
    """``base`` times q^a - 1 for a in ``times`` and the class of the r x s matrices of rank
    exactly j, [G(j, r)][U(j, s)] = q^{j(j-1)/2} prod_{s-j < i <= s} (q^i - 1) [G(j, r)],
    with e = min(j, r - j) divisions for [G(j, r)]. For r = s = b it is [GL_j][G(j, b)]^2,
    the class of a chain step b - j -> b; for r = j it is the j-tuples of independent
    vectors in s-space."""
    if not 0 <= j <= min(r, s):
        raise InvalidInput(f"need 0 <= j <= min(r, s), got j={j}")
    e = min(j, r - j)
    return factor_ratio(base, [*times, *range(s - j + 1, s + 1), *range(r - e + 1, r + 1)],
                        range(1, e + 1)).shift(j * (j - 1) // 2)
