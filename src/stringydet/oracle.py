"""Brute-force verification over small prime fields.

Every class polynomial, specialized at q = p, must equal an exhaustive
count over the p-element field: invertible matrices, subspaces, rank
strata, all from one depth-first rank census for every prime. Enumeration
is deterministic, so any failure is reproducible; a budget guard over all
censuses of a run rejects infeasible sizes before anything is enumerated.
"""
from __future__ import annotations

import itertools
from collections import Counter, namedtuple
from operator import add
from types import MappingProxyType

from .groth import (InvalidRank, class_gl, class_independent_tuples, gauss_binomial,
                    rank_stratum_class)

DEFAULT_BUDGET = 2 * 10 ** 8
PRIME_CAP = 7


class BudgetExceeded(ValueError):
    """Requested enumeration would exceed the candidate budget."""


class MismatchFound(AssertionError):
    """A class polynomial disagreed with an exhaustive count."""


class UnsupportedPrime(ValueError):
    """The field size is not a prime, or is above the enumeration cap."""


class PrimeField(namedtuple("PrimeField", "p")):
    """The field with p elements, p a small prime."""

    __slots__ = ()

    def __new__(cls, p):
        if p < 2 or any(p % d == 0 for d in range(2, int(p ** 0.5) + 1)):
            raise UnsupportedPrime(f"{p} is not prime")
        if p > PRIME_CAP:
            raise UnsupportedPrime(f"prime {p} above the cap {PRIME_CAP}")
        return super().__new__(cls, p)


class RankCensus(namedtuple("RankCensus", "p r s counts")):
    """Counts of r x s matrices over F_p bucketed by exact rank, read-only."""

    __slots__ = ()

    def total(self) -> int:
        return sum(self.counts.values())


class InvariantReport:
    """Aggregated pass/fail verdicts from a verification run."""

    def __init__(self, checks=None):
        self.checks = [] if checks is None else checks

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.checks == other.checks

    def record(self, name: str, passed: bool, details: str = "") -> None:
        self.checks.append((name, passed, details))

    @property
    def passed(self) -> bool:
        return all(ok for _, ok, _ in self.checks)


def _check_budget(candidates: int, budget: int) -> None:
    if candidates > budget:
        raise BudgetExceeded(f"{candidates} candidates exceed the budget {budget}")


_census_cache: dict = {}


def rank_census(p: int, r: int, s: int, budget: int = DEFAULT_BUDGET) -> RankCensus:
    """Exhaustive rank histogram of all p^{rs} matrices, shared by every caller."""
    PrimeField(p)
    if r < 0 or s < 0:
        raise InvalidRank(f"need r >= 0 and s >= 0, got r={r}, s={s}")
    _check_budget(p ** (r * s), budget)
    cached = _census_cache.get((p, r, s))
    if cached is not None:
        return cached
    tally = _tally_ranks(p, r, s)
    counts = MappingProxyType({j: tally[j] for j in range(min(r, s) + 1)})
    census = RankCensus(p=p, r=r, s=s, counts=counts)
    _census_cache[(p, r, s)] = census
    return census


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


def count_invertible(p: int, d: int, budget: int = DEFAULT_BUDGET) -> int:
    """Number of invertible d x d matrices over F_p, by enumeration."""
    census = rank_census(p, d, d, budget)
    return census.counts[d]


def count_subspaces(p: int, d: int, n: int, budget: int = DEFAULT_BUDGET) -> int:
    """Number of d-dimensional subspaces of F_p^n, by enumeration.

    Counts rank-d d x n matrices (ordered bases) and divides by the
    number of invertible d x d matrices (bases per subspace), both counted
    exhaustively.
    """
    PrimeField(p)
    if d < 0 or n < 0:
        raise InvalidRank(f"need d >= 0 and n >= 0, got d={d}, n={n}")
    if d == 0:
        return 1
    if d > n:
        return 0
    bases = rank_census(p, d, n, budget).counts[d]
    changes = count_invertible(p, d, budget)
    if bases % changes:
        raise MismatchFound(f"{bases} ordered bases of {d}-subspaces of F_{p}^{n} "
                            f"are not a multiple of {changes} base changes")
    return bases // changes


def census_candidates(p: int, r_max: int) -> int:
    """Matrices enumerated by ``verify_classes(p, r_max)``: all r x s, 1 <= r <= s <= r_max."""
    return sum(p ** (r * s) for r in range(1, r_max + 1) for s in range(r, r_max + 1))


def verify_classes(p: int, r_max: int, budget: int = DEFAULT_BUDGET) -> InvariantReport:
    """Point-count every class formula against exhaustive enumeration.

    Checks, for all feasible sizes up to r_max: GL classes against full-rank
    counts, Gaussian binomials against subspace counts, rank-stratum classes
    against the census, cumulative rank-bounded counts, and the total-space
    rank identity. Every comparison is recorded, disagreements included;
    the budget is checked against all censuses before any is enumerated.
    """
    PrimeField(p)
    _check_budget(census_candidates(p, r_max), budget)
    report = InvariantReport()

    def check(name: str, expected, actual) -> None:
        if expected == actual:
            report.record(name, True, f"{expected}")
        else:
            report.record(name, False, f"class value {expected} != count {actual}")

    censuses = {}
    for r in range(1, r_max + 1):
        for s in range(r, r_max + 1):
            censuses[(r, s)] = rank_census(p, r, s, budget)

    for d in range(1, r_max + 1):
        check(f"gl({d}) at q={p}",
              class_gl(d).evaluate(p),
              censuses[(d, d)].counts[d])

    for k in range(1, r_max + 1):
        for d in range(0, k + 1):
            check(f"grassmannian({d},{k}) at q={p}",
                  gauss_binomial(d, k).evaluate(p),
                  count_subspaces(p, d, k, budget))
            check(f"independent_tuples({d},{k}) at q={p}",
                  class_independent_tuples(d, k).evaluate(p),
                  censuses[(d, k)].counts[d] if d else 1)

    for r in range(1, r_max + 1):
        for s in range(r, r_max + 1):
            census = censuses[(r, s)]
            for j in range(0, r + 1):
                check(f"rank_stratum({r},{s},{j}) at q={p}",
                      rank_stratum_class(r, s, j).evaluate(p),
                      census.counts[j])
            for k in range(0, r + 1):
                bounded = sum(census.counts[j] for j in range(k + 1))
                cls = sum(rank_stratum_class(r, s, j).evaluate(p) for j in range(k + 1))
                check(f"rank_bounded({r},{s},<= {k}) at q={p}", cls, bounded)

    for r in range(1, r_max + 1):
        for k in range(1, r + 1):
            lhs = p ** (k * r)
            rhs = 1 + sum(gauss_binomial(m, r).evaluate(p)
                          * class_independent_tuples(r - m, k).evaluate(p)
                          for m in range(r - k, r))
            check(f"rank_identity({r},{k}) at q={p}", lhs, rhs)

    return report

