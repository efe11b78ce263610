"""Brute-force verification over small prime fields.

Every class polynomial, specialized at q = p, must equal an exhaustive
count over the p-element field: invertible matrices, subspaces, rank
strata. Enumeration is deterministic (row-major over matrix entries) so
any failure is reproducible; a budget guard rejects infeasible sizes
instead of hanging.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from .groth import class_gl, class_independent_tuples, gauss_binomial, rank_stratum_class

DEFAULT_BUDGET = 2 * 10 ** 8


class BudgetExceeded(ValueError):
    """Requested enumeration would exceed the candidate budget."""


class MismatchFound(AssertionError):
    """A class polynomial disagreed with an exhaustive count."""


class UnsupportedPrime(ValueError):
    """The field size is not a prime, or is above the enumeration cap."""


@dataclass(frozen=True)
class PrimeField:
    """The field with p elements, p a small prime."""

    p: int
    cap: int = 7

    def __post_init__(self):
        p = self.p
        if p < 2 or any(p % d == 0 for d in range(2, int(p ** 0.5) + 1)):
            raise UnsupportedPrime(f"{p} is not prime")
        if p > self.cap:
            raise UnsupportedPrime(f"prime {p} above the cap {self.cap}")


@dataclass(frozen=True)
class RankCensus:
    """Counts of r x s matrices over F_p bucketed by exact rank."""

    p: int
    r: int
    s: int
    counts: dict

    def total(self) -> int:
        return sum(self.counts.values())


@dataclass
class InvariantReport:
    """Aggregated pass/fail verdicts from a verification run."""

    checks: list = field(default_factory=list)

    def record(self, name: str, passed: bool, details: str = "") -> None:
        self.checks.append((name, passed, details))

    @property
    def passed(self) -> bool:
        return all(ok for _, ok, _ in self.checks)


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


def _check_budget(candidates: int, budget: int) -> None:
    if candidates > budget:
        raise BudgetExceeded(f"{candidates} candidates exceed the budget {budget}")


_census_cache: dict = {}


def rank_census(p: int, r: int, s: int, budget: int = DEFAULT_BUDGET) -> RankCensus:
    """Exhaustive rank histogram of all p^{rs} matrices."""
    PrimeField(p)
    _check_budget(p ** (r * s), budget)
    cached = _census_cache.get((p, r, s))
    if cached is not None:
        return cached
    counts = {j: 0 for j in range(min(r, s) + 1)}
    if p == 2:
        _census_mod2(r, s, counts)
    else:
        for flat in itertools.product(range(p), repeat=r * s):
            rows = [flat[i * s:(i + 1) * s] for i in range(r)]
            counts[rank_of_matrix(p, rows)] += 1
    census = RankCensus(p=p, r=r, s=s, counts=counts)
    _census_cache[(p, r, s)] = census
    return census


def _census_mod2(r: int, s: int, counts: dict) -> None:
    """Tally ranks of all binary r x s matrices, rows packed as bitmasks.

    Rows are chosen depth-first so the elimination of a shared prefix is
    done once; pivots[b] holds the reduced row with leading bit b.
    """
    pivots = [0] * s

    def descend(depth: int, rank: int) -> None:
        if depth == r:
            counts[rank] += 1
            return
        for row in range(1 << s):
            while row:
                known = pivots[row.bit_length() - 1]
                if not known:
                    break
                row ^= known
            if row:
                bit = row.bit_length() - 1
                pivots[bit] = row
                descend(depth + 1, rank + 1)
                pivots[bit] = 0
            else:
                descend(depth + 1, rank)

    descend(0, 0)


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


def verify_classes(p: int, r_max: int, budget: int = DEFAULT_BUDGET) -> InvariantReport:
    """Point-count every class formula against exhaustive enumeration.

    Checks, for all feasible sizes up to r_max: GL classes against full-rank
    counts, Gaussian binomials against subspace counts, rank-stratum classes
    against the census, cumulative rank-bounded counts, and the total-space
    rank identity. Raises MismatchFound at the first disagreement.
    """
    PrimeField(p)
    report = InvariantReport()

    def check(name: str, expected, actual) -> None:
        if expected != actual:
            raise MismatchFound(f"{name}: class value {expected} != count {actual}")
        report.record(name, True, f"{expected}")

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
                  _count_independent(p, d, k, budget))

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


def _count_independent(p: int, d: int, k: int, budget: int) -> int:
    """Count d-tuples of independent vectors in F_p^k, exhaustively."""
    if d == 0:
        return 1
    return rank_census(p, d, k, budget).counts[d]
