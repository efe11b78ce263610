"""Stringy invariants of rank-bounded square-matrix varieties.

The variety of r x r matrices of rank <= k (and its projectivization)
admits several routes to its stringy E-function:

* a closed form, q^{kr} times a Gaussian binomial;
* an orbit subset-sum assembled from geometric series of orbit measures;
* a recursion on the normalized subset sum: the orbit chain sum with the same steps
  and start, divided at every level, so not independent of the orbit route;
* Batyrev's formula on the k-step blowup resolution, a chain sum over the printed
  log discrepancies: under i -> r - i its steps and denominators are the orbit chain
  sum's, so it is not independent of the orbit route, but it checks the discrepancies;
* truncated orbit sums whose coefficients stabilize to the closed form
  above a tail-degree bound, which is a closed integer formula.

The sum over the 2^{k-1} index subsets of the orbit route is computed as a
sum over chains of surviving indices, with O(k^2) steps, over a common
denominator; the polynomial is extracted by exact division. All routes are
computed exactly and compared coefficient by coefficient. The motivic zeta
function of the determinant hypersurface (k = r - 1) is also provided, in
two forms that are checked against each other: the same chain sum expanded
in T, and direct sums over partitions.
"""
from functools import lru_cache, reduce
from operator import mul

from .exactalg import LaurentPoly, ONE, ZERO
from .groth import (InvalidInput, class_gl, factor_ratio, gauss_binomial, partition_tails,
                    rank_stratum_class)


def _check_rk(r: int, k: int, k_min: int = 0) -> None:
    if r < 1 or not k_min <= k <= r - 1:
        raise InvalidInput(f"need {k_min} <= k <= r-1, got r={r}, k={k}")


# -- discrepancies ----------------------------------------------------------

def log_discrepancies(r: int, k: int):
    """Log discrepancies (i, (k-i)(r-i)) of the k-step blowup resolution; none for k = 0,
    the origin, which needs no blowup."""
    _check_rk(r, k)
    return [(i, (k - i) * (r - i)) for i in range(k)]


# -- chain sums ---------------------------------------------------------------

@lru_cache(maxsize=None)
def grassmannian_subset_sum(r: int, k: int) -> LaurentPoly:
    """The normalized orbit sum over index subsets; equals [G(k, r)].

    The sum over the 2^{k-1} subsets I of {r-k+1, ..., r-1} of

    prod_{i surviving} [GL_d][G(d, i)]^2 / (q^{i(i-r+k)} - 1),

    d = i - previous surviving index (starting from r - k), is a sum over
    the chains r-k = s_0 < ... < s_m = r of surviving indices. Over the
    common denominator prod_i (q^{i(i-r+k)} - 1) a step a -> b carries
    [GL_{b-a}][G(b-a, b)]^2, the class of the rank b-a b x b matrices, times the
    denominators of the skipped indices a < i < b, so the numerator is a path
    sum over O(k^2) steps, and exact division extracts the polynomial. Both
    orbit routes of the stringy E-function are multiples of this one value.
    """
    _check_rk(r, k)
    start = r - k

    def skipped(lo: int, hi: int) -> list:
        # the denominator exponents of the indices lo < i < hi
        return [i * (i - start) for i in range(lo + 1, hi)]

    paths = {start: ONE}
    for b in range(start + 1, r + 1):
        paths[b] = sum((rank_stratum_class(b, b, b - a, paths[a], skipped(a, b))
                        for a in range(start, b)), ZERO)
    return factor_ratio(paths[r], (), skipped(start, r + 1))


@lru_cache(maxsize=None)
def grassmannian_recursive(r: int, k: int) -> LaurentPoly:
    """The same value by the recursion in the rank bound; equals [G(k, r)].

    Splits off the second-largest surviving index m and reduces to the
    (k + m - r, m) case, dividing everything by q^{kr} - 1. The term
    m = r - k, where no index survives below r, is the boundary term:
    its reduced case (0, r - k) is 1.
    """
    _check_rk(r, k)
    if k == 0:
        return ONE

    total = ZERO
    for m in range(r - k, r):
        # times [GL_{r-m}][G(r-m, r)]^2, the step m -> r of the chain sum
        total = total + rank_stratum_class(r, r, r - m, grassmannian_recursive(m, k + m - r))
    return factor_ratio(total, (), [k * r])


# -- stringy E-functions ----------------------------------------------------

def stringy_e_affine(r: int, k: int) -> LaurentPoly:
    """Closed form: q^{kr} * [G(k, r)]."""
    _check_rk(r, k)
    return gauss_binomial(k, r).shift(k * r)


def stringy_e_affine_from_orbits(r: int, k: int) -> LaurentPoly:
    """Orbit-sum route: q^{kr} times the subset sum."""
    return grassmannian_subset_sum(r, k).shift(k * r)


def stringy_e_projective(r: int, k: int) -> LaurentPoly:
    """Closed form: (1 + q + ... + q^{kr-1}) * [G(k, r)], that is (q^{kr} - 1)/(q - 1)
    times it, a running sum of the coefficients."""
    _check_rk(r, k, k_min=1)
    return factor_ratio(gauss_binomial(k, r), [k * r], [1])


def stringy_e_projective_from_orbits(r: int, k: int) -> LaurentPoly:
    """Orbit-sum route with the last partition entry pinned to zero.

    Pinning the final geometric variable to 0 replaces the q^{kr}/(q^{kr}-1)
    factor of the affine sum by (q^{kr}-1); with the global 1/(q-1)
    projective measure factor that is 1 + q + ... + q^{kr-1} times the
    subset sum.
    """
    _check_rk(r, k, k_min=1)
    return factor_ratio(grassmannian_subset_sum(r, k), [k * r], [1])


# -- Hodge and Euler numbers -------------------------------------------------

def hodge_table(p: LaurentPoly) -> dict:
    """The diagonal stringy Hodge numbers {p: h^{p,p}} of a polynomial stringy E-function,
    its int coefficients in increasing p: the degree is the last key and the stringy Euler
    number, E_st(1, 1), is the sum of the values. Off-diagonal entries vanish because
    every class in play is a polynomial in q = uv."""
    if not p.is_polynomial():
        raise InvalidInput("stringy Hodge numbers need a polynomial")
    diag = {}
    for exp, c in sorted(p.terms.items()):
        if type(c) is not int:
            raise InvalidInput(f"non-integer coefficient {c} at q^{exp}")
        diag[exp] = c
    return diag


def non_negative(diag: dict) -> bool:
    """Whether every Hodge number of a diagonal is >= 0."""
    return min(diag.values(), default=0) >= 0


# -- resolution route ---------------------------------------------------------

def stringy_e_from_resolution(r: int, k: int, variety: str) -> LaurentPoly:
    """Batyrev's formula sum_I [E_I^o] prod_{i in I} (q - 1)/(q^{a_i} - 1) on the k-step
    blowup, with the a_i of ``log_discrepancies(r, k)``. E_I^o, I = {i_1 < ... < i_m}, is
    the rank-i_1 stratum times projectivised collineations of ranks i_{l+1} - i_l on
    (r - i_l)-spaces, i_{m+1} = k, whose 1/(q - 1) cancel the q - 1. Over prod_i
    (q^{a_i} - 1) that is a path sum to node k: a path starts at b with the rank-b
    stratum, steps i -> b with [GL_{b-i}][G(b-i, r-i)]^2 and carries the factor of each
    node it skips. The projective variety drops the strata over the origin, so node 0
    and with it a_0, and divides by q - 1 too; it needs k >= 1. For k = 0 the affine sum
    is the origin's one stratum, 1.
    """
    if variety not in ("affine", "projective"):
        raise InvalidInput(f"unknown variety {variety!r}")
    first = int(variety == "projective")  # the first node: 1 where the origin is dropped
    _check_rk(r, k, k_min=first)
    a = [a_i for _, a_i in log_discrepancies(r, k)]
    paths = {}
    for b in range(first, k + 1):
        paths[b] = sum((rank_stratum_class(r - i, r - i, b - i, paths[i], a[i + 1:b])
                        for i in range(first, b)), rank_stratum_class(r, r, b, ONE, a[first:b]))
    return factor_ratio(paths[k], (), a[first:] + [1] * first)


# -- orbit measures and truncated sums ----------------------------------------

def orbit_measure(r: int, k: int, tail: tuple) -> LaurentPoly:
    """Motivic measure of the arc orbit indexed by a partition tail, k weakly
    decreasing nonnegative ints lambda_{r-k+1} >= ... >= lambda_r:

    [flag quotient]^2 * [Levi] * q^{-sum (2i-1) lambda_i}, where the class
    depends on the tail only through the ends r-k < c_1 < ... < c_l = r of
    its runs of equal entries (a trailing run of zeros is a run).
    """
    if len(tail) != k:
        raise InvalidInput(f"expected {k} entries, got {len(tail)}")
    if any(not isinstance(e, int) or e < 0 for e in tail):
        raise InvalidInput("entries must be nonnegative integers")
    if any(tail[i] < tail[i + 1] for i in range(k - 1)):
        raise InvalidInput("entries must be weakly decreasing")
    if not 1 <= k <= r:
        raise InvalidInput("need 1 <= k <= r")
    ends = tuple(r - k + j for j in range(1, k + 1) if j == k or tail[j - 1] != tail[j])
    expo = -sum((2 * i - 1) * e for i, e in zip(range(r - k + 1, r + 1), tail))
    return _orbit_class(r - k, ends).shift(expo)


@lru_cache(maxsize=None)
def _orbit_class(start: int, ends: tuple) -> LaurentPoly:
    """prod [G(b, c)]^2 [GL_b] over the blocks b = c - c' of the run ends c, c' the
    previous end (first ``start``): [flag quotient]^2 * [Levi], shared by every tail
    with these run ends."""
    blocks = [(c - prev, c) for prev, c in zip((start, *ends), ends)]
    flag = reduce(mul, (gauss_binomial(b, c) for b, c in blocks))
    return flag * flag * reduce(mul, (class_gl(b) for b, _ in blocks))


def truncated_orbit_sum(r: int, k: int, cap: int, variant: str = "affine") -> LaurentPoly:
    """Partial orbit sum over tails with entries <= cap.

    Each tail contributes orbit_measure * q^{(r-k) * |tail|}. For the
    projective variant the last entry is pinned to 0 and the global
    1/(q - 1) factor is left to the caller, so partial sums stay Laurent
    polynomials. Coefficients stabilize as the cap grows.
    """
    _check_rk(r, k, k_min=1)
    if variant not in ("affine", "projective"):
        raise InvalidInput(f"unknown variant {variant!r}")
    total = ZERO
    tails = (((*tail, 0) for tail in partition_tails(k - 1, cap)) if variant == "projective"
             else partition_tails(k, cap))
    for tail in tails:
        total = total + orbit_measure(r, k, tail).shift((r - k) * sum(tail))
    return total


def orbit_tail_degree_bound(r: int, k: int, cap: int) -> int:
    """Upper bound on exponents any omitted tail (entry > cap) can touch.

    Every omitted tail has first entry >= cap + 1 and all weight exponents
    (r - k - 2i + 1) are <= -(r - k + 1), so its term degree is at most the
    class degree minus (r-k+1)(cap+1). For every block structure
    r-k = c_0 < ... < c_l = r with blocks b_j = c_j - c_{j-1}, the class
    prod_j [G(b_j, c_j)]^2 [GL_{b_j}] has degree
    sum_j (2 b_j (c_j - b_j) + b_j^2) = sum_j (c_j^2 - c_{j-1}^2) = k(2r - k).
    """
    _check_rk(r, k, k_min=1)
    return k * (2 * r - k) - (r - k + 1) * (cap + 1)


# -- motivic zeta function of the determinant ---------------------------------

def zeta_coefficient_direct(r: int, n: int) -> LaurentPoly:
    """Coefficient of T^n by direct summation over full partitions of n.

    Uses the full-rank specialization of the orbit measure (all entries
    finite, offset 0): sum over lambda_1 >= ... >= lambda_r >= 0 with
    |lambda| = n of [flag quotient]^2 [Levi] q^{-sum (2i-1) lambda_i}.
    """
    if r < 1 or n < 0:
        raise InvalidInput("need r >= 1 and n >= 0")
    total = ZERO
    for tail in partition_tails(r, n):
        if sum(tail) == n:
            total = total + orbit_measure(r, r, tail)
    return total


def zeta_closed_expansion(r: int, order: int) -> tuple:
    """Expand the closed subset-sum form of the zeta function to T^order: the
    coefficients of T^0, ..., T^order.

    Z(T) = q^{r^2} T^{-r} sum over chains 0 = s_0 < ... < s_m = r of
    prod over steps a -> b of [GL_d][G(d, b)]^2 / (q^{b^2} T^{-b} - 1),
    d = b - a: the chain sum of the orbit routes with offset 0. Partial paths
    carry their T-degree, truncated at order + r. The factor of b expands as
    sum_{j>=1} q^{-b^2 j} T^{b j}, so the paths that end at b in T-degree t
    sum to P_b(t) = q^{-b^2} (R_b(t - b) + P_b(t - b)), where
    R_b(t) = sum_{a<b} [GL_d][G(d, b)]^2 P_a(t) are the first arrivals: one
    pass over t sums the geometric series as it goes.
    """
    if r < 1 or order < 0:
        raise InvalidInput("need r >= 1 and order >= 0")
    top = order + r
    paths = [{0: ONE}]
    for b in range(1, r + 1):
        # a path short of r still needs a last step of T-degree >= r
        limit = top if b == r else order
        arrived = {}
        for t in range(limit - b + 1):  # the T-degree before the step
            firsts = [rank_stratum_class(b, b, b - a, path[t])
                      for a, path in enumerate(paths) if t in path]
            if firsts or t in arrived:
                arrived[t + b] = sum(firsts, arrived.get(t, ZERO)).shift(-b * b)
        paths.append(arrived)
    return tuple(paths[r].get(n + r, ZERO).shift(r * r) for n in range(order + 1))
