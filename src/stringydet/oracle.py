"""Brute-force verification over small prime fields.

Every class polynomial, specialized at q = p, must equal an exhaustive count
over the p-element field: invertible matrices, subspaces, rank strata, all
from one rank census for every prime. The census counts row classes memoised
on (rows left, span), never matrices one by one, and no class formula enters
it. A row is one int with a guarded bit field per entry, two rows add mod p in
a few int operations, and each subspace is one interned frozenset of rows.
Enumeration is deterministic, so any failure is reproducible; a budget guard
over all censuses of a run rejects infeasible sizes before anything is enumerated.
"""
import itertools
from collections import namedtuple
from functools import lru_cache
from math import gcd
from types import MappingProxyType

from .groth import (BudgetExceeded, InvalidInput, UnsupportedPrime, class_gl, compare,
                    gauss_binomial, rank_stratum_class)

DEFAULT_BUDGET = 2 * 10 ** 8
PRIME_CAP = 7
_SPANS = {}  # every span the census has grown, one frozenset per subspace for all memos


class RankCensus(namedtuple("RankCensus", "counts")):
    """Counts of r x s matrices over F_p bucketed by exact rank, read-only."""

    __slots__ = ()


class InvariantReport(namedtuple("InvariantReport", "checks")):
    """The (name, ok, details) verdicts of a verification run, read-only."""

    __slots__ = ()


def check_prime(p: int) -> None:
    """UnsupportedPrime unless p is a prime up to ``PRIME_CAP``; the cap comes
    first, so a huge p is refused before any division."""
    if p > PRIME_CAP:
        raise UnsupportedPrime(f"{p} is above the cap {PRIME_CAP}")
    if p < 2 or any(p % d == 0 for d in range(2, p)):
        raise UnsupportedPrime(f"{p} is not prime")


def _check_exponent(p: int, r: int, s: int, budget: int) -> None:
    """BudgetExceeded, before any power is taken, if the r x s census alone is over
    the budget by its exponent: p^n >= 2^(n (bits of p - 1)) for n = rs."""
    if r * s * (p.bit_length() - 1) >= budget.bit_length():
        raise BudgetExceeded(f"the {r} x {s} census alone has {p}^{r * s} candidates, "
                             f"above the budget {budget}")


def check_budget(candidates: int, budget: int) -> None:
    if candidates > budget:
        raise BudgetExceeded(f"{candidates} candidates exceed the budget {budget}")


def rank_census(p: int, r: int, s: int, budget: int = DEFAULT_BUDGET) -> RankCensus:
    """Rank histogram of all p^{rs} matrices.

    Counts row classes memoised on (rows left, span), not matrices one by one,
    so a repeated census is one memo lookup after its budget check.
    Every count is the size of an enumerated set; nothing from ``groth`` enters.
    """
    check_prime(p)
    if r < 0 or s < 0:
        raise InvalidInput(f"need r >= 0 and s >= 0, got r={r}, s={s}")
    _check_exponent(p, r, s, budget)
    check_budget(p ** (r * s), budget)
    tally = _completions(p, s, r, frozenset({0}))
    return RankCensus(MappingProxyType({j: tally[j] for j in range(min(r, s) + 1)}))


@lru_cache(maxsize=None)
def _row_count(p: int, s: int) -> int:
    """The number of rows of F_p^s, counted, not stored: for r = 1, p^s may reach the budget."""
    return sum(1 for _ in itertools.product(range(p), repeat=s))


@lru_cache(maxsize=None)
def _completions(p: int, s: int, rows_left: int, span: frozenset) -> tuple:
    """Ways to append ``rows_left`` rows of F_p^s to rows spanning ``span``, by rank gained.

    A row raises the rank exactly when it lies outside the span. The rows
    outside are counted in classes by the span they generate, except the last
    row. Neither r nor the rows above matter, so every census of p, s shares it.
    """
    if rows_left == 0:
        return (1,)
    if rows_left == 1:
        return (len(span), _row_count(p, s) - len(span))
    tally = [len(span) * n for n in _completions(p, s, rows_left - 1, span)] + [0]
    for grown, size in _classes_outside(p, s, span):
        for gained, n in enumerate(_completions(p, s, rows_left - 1, grown), 1):
            tally[gained] += size * n
    return tuple(tally)


@lru_cache(maxsize=None)
def _rows(p: int, s: int) -> tuple:
    """Every row of F_p^s in ``itertools.product`` order, as an int with a field of w + 1 bits
    per entry, w = (2p - 2).bit_length(), whose top bit is a guard; then ``bias``, 2^w - p in
    every field, ``guards``, every guard bit, and w: the masks of ``_translate``."""
    w = (2 * p - 2).bit_length()
    ones, rows = sum(1 << (w + 1) * i for i in range(s)), [0]
    for _ in range(s):
        rows = [row << (w + 1) | d for row in rows for d in range(p)]
    return tuple(rows), (2 ** w - p) * ones, ones << w, w


def _translate(p: int, vectors, row: int, bias: int, guards: int, w: int) -> set:
    """Each vector a plus ``row`` mod p, with no p^(2s) table: t = a + row has every entry at
    most 2p - 2 < 2^w, so no carry crosses a field, and t + bias sets a guard iff its entry >= p."""
    return {t - p * (((t + bias) & guards) >> w) for t in (a + row for a in vectors)}


@lru_cache(maxsize=None)
def _classes_outside(p: int, s: int, span: frozenset) -> tuple:
    """Rows outside ``span`` grouped by the span each generates with it, interned in ``_SPANS``."""
    rows, *masks = _rows(p, s)
    covered, classes = set(span), []
    for row in rows:
        if row in covered:
            continue
        grown, coset = set(span), span
        for _ in range(p - 1):
            coset = _translate(p, coset, row, *masks)
            grown |= coset
        covered |= grown
        grown = frozenset(grown)
        classes.append((_SPANS.setdefault(grown, grown), len(grown) - len(span)))
    return tuple(classes)


def census_candidates(p: int, r_max: int, budget: int = DEFAULT_BUDGET) -> int:
    """Matrices enumerated by ``verify_classes(p, r_max)``: all r x s, 1 <= r <= s <= r_max.
    UnsupportedPrime unless ``check_prime(p)`` passes; BudgetExceeded, before any power
    is summed, if the r_max x r_max census alone is over the budget by its exponent."""
    check_prime(p)
    if r_max > 0:
        _check_exponent(p, r_max, r_max, budget)
    return sum(p ** (r * s) for r in range(1, r_max + 1) for s in range(r, r_max + 1))


def verify_classes(p: int, r_max: int, budget: int = DEFAULT_BUDGET) -> InvariantReport:
    """Point-count every class formula against exhaustive enumeration.

    Checks, for all feasible sizes up to r_max: GL classes against full-rank
    counts, Gaussian binomials against subspace counts (ordered bases over base
    changes, both read from the census), independent d-tuples in k-space (the
    rank-d d x k stratum) and every rank-stratum class against the census,
    cumulative rank-bounded counts, and the total-space rank identity. Each check
    is one ``compare`` of the class value at q = p, the route, with the count, the
    reference, which a pass prints. Every comparison is recorded, disagreements
    included, a census that leaves a fraction or reads 0/0 and a class whose exact
    division fails among them: it fails every check whose value holds it. The
    budget is checked against all censuses before any is enumerated. Each census
    is read once and each class built once, inside the first check that reads it.
    """
    check_budget(census_candidates(p, r_max, budget), budget)
    sizes = range(1, r_max + 1)
    counts = {(r, s): rank_census(p, r, s, budget).counts for r in sizes for s in sizes if r <= s}
    checks = []

    @lru_cache(maxsize=None)
    def at_p(build, *args) -> int:  # a class at q = p, built by the first check that reads it
        return build(*args).evaluate(p)

    def bounded(r: int, s: int, k: int) -> int:  # the r x s matrices of rank <= k
        return sum(at_p(rank_stratum_class, r, s, j) for j in range(k + 1))

    def check(name: str, route, count) -> None:
        checks.append(compare(f"{name} at q={p}", route, lambda: count, f"{count}"))

    for d in sizes:
        check(f"gl({d})", lambda: at_p(class_gl, d), counts[d, d][d])
    for k in sizes:
        for d in range(0, k + 1):
            # ordered bases over base changes in lowest terms; a wrong census may
            # leave a fraction, written n/m, or read 0/0, which no class value equals
            bases, changes = (counts[d, k][d], counts[d, d][d]) if d else (1, 1)
            g = gcd(bases, changes) or 1
            check(f"grassmannian({d},{k})", lambda: at_p(gauss_binomial, d, k),
                  bases // g if g == changes else f"{bases // g}/{changes // g}")
            check(f"independent_tuples({d},{k})",
                  lambda: at_p(rank_stratum_class, d, k, d) if d else 1, bases)
    for (r, s), census in counts.items():
        for j, count in census.items():
            check(f"rank_stratum({r},{s},{j})", lambda: at_p(rank_stratum_class, r, s, j), count)
        for k, count in enumerate(itertools.accumulate(census.values())):
            check(f"rank_bounded({r},{s},<= {k})", lambda: bounded(r, s, k), count)
    # r x k, not k x r: the identity sums the strata of the shape it names
    for r in sizes:
        for k in range(1, r + 1):
            check(f"rank_identity({r},{k})", lambda: bounded(r, k, k), p ** (k * r))
    return InvariantReport(checks)
