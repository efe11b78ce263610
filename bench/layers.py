"""Single-layer probes, each run in a fresh process by ``run.py``.

    python3 bench/layers.py micro SEED          kernel microbenchmarks
    python3 bench/layers.py cold-build          class builders from cold caches
    python3 bench/layers.py subset-sum R K      one orbit subset sum
    python3 bench/layers.py census P R S        one exhaustive rank census
    python3 bench/layers.py baseline ROW        one row of the reference table

Each prints one JSON object.  Results are compared with the closed forms of
``checks.py``; a wrong result exits 1.

Microbenchmark inputs come from ``random.Random(SEED)``: dense polynomials
with every coefficient from q^0 to q^d present, integer magnitudes in
[1, 2^20] and alternating signs, the shape of the routes' class products.
Divisors and gcd operands are products of factors q^a - 1 with a in [1, 16],
as in the closed forms and the orbit-sum denominators.  The gcd operands
share a degree-64 factor; a dense operand is left out, because its rational
remainders grow so fast that one call takes seconds at degree 128.
"""
from __future__ import annotations

import json
import random
import statistics
import sys
import time

from stringydet import exactalg, groth, oracle, stringy

import checks

PROBE_SECONDS = 0.3   # least time spent on each microbenchmark row


def _dense(rng: random.Random, degree: int) -> exactalg.LaurentPoly:
    return exactalg.LaurentPoly({i: (-1) ** i * rng.randint(1, 2 ** 20)
                                 for i in range(degree + 1)})


def _cyclotomic_product(rng: random.Random, degree: int) -> exactalg.LaurentPoly:
    out = exactalg.ONE
    while degree:
        a = min(rng.randint(1, 16), degree)
        out = out * (exactalg.q_pow(a) - 1)
        degree -= a
    return out


def _median_us(call, expected) -> float:
    """Median microseconds per call, over batches of at least a millisecond.

    The first, checked call is a sample too; a call slower than
    PROBE_SECONDS is timed once.
    """
    start = time.perf_counter()
    if call() != expected:
        raise SystemExit("microbenchmark result is wrong")
    once = time.perf_counter() - start
    batch = max(1, int(1e-3 / max(once, 1e-9)))
    samples = [once] if batch == 1 else []
    while sum(samples) * batch < PROBE_SECONDS:
        start = time.perf_counter()
        for _ in range(batch):
            call()
        samples.append((time.perf_counter() - start) / batch)
    return statistics.median(samples) * 1e6


def micro(seed: int) -> dict:
    rng = random.Random(seed)
    out = {}
    for degree in (16, 128, 512):
        a, b = _dense(rng, degree), _dense(rng, degree)
        want = {}
        for e1, c1 in a.terms.items():  # integer schoolbook reference, untimed
            for e2, c2 in b.terms.items():
                want[e1 + e2] = want.get(e1 + e2, 0) + int(c1) * int(c2)
        out[f"mul_d{degree}_us"] = _median_us(lambda: a * b, exactalg.LaurentPoly(want))
    divisor, quotient = _cyclotomic_product(rng, 128), _dense(rng, 128)
    dividend = divisor * quotient
    out["divide_exact_d256_us"] = _median_us(lambda: dividend.divide_exact(divisor), quotient)
    common = _cyclotomic_product(rng, 64)
    left = common * _cyclotomic_product(rng, 64)
    right = common * _cyclotomic_product(rng, 64)
    g = exactalg.laurent_gcd(left, right)
    if left.divide_exact(g) * g != left or right.divide_exact(g) * g != right \
            or g.degree() < common.degree():
        raise SystemExit("gcd microbenchmark result is wrong")
    out["gcd_d128_us"] = _median_us(lambda: exactalg.laurent_gcd(left, right), g)
    return out


def cold_build() -> dict:
    """Time of every class_gl(d) and gauss_binomial(d, n), n <= 20, from cold caches."""
    groth.class_gl.cache_clear()
    groth.gauss_binomial.cache_clear()
    start = time.perf_counter()
    for n in range(21):
        groth.class_gl(n)
        for d in range(n + 1):
            groth.gauss_binomial(d, n)
    seconds = time.perf_counter() - start
    for n in range(21):
        for d in range(n + 1):
            want = dict(enumerate(checks.box_partitions(d, n - d)))
            if {e: int(c) for e, c in groth.gauss_binomial(d, n).terms.items()} != \
                    {e: c for e, c in want.items() if c}:
                raise SystemExit(f"gauss_binomial({d}, {n}) is wrong")
    return {"seconds": seconds}


def subset_sum(r: int, k: int) -> dict:
    start = time.perf_counter()
    result = stringy.grassmannian_subset_sum(r, k)
    seconds = time.perf_counter() - start
    want = {j: c for j, c in enumerate(checks.box_partitions(k, r - k)) if c}
    if {e: int(c) for e, c in result.terms.items()} != want:
        raise SystemExit(f"grassmannian_subset_sum({r}, {k}) is wrong")
    return {"seconds": seconds}


def census(p: int, r: int, s: int) -> dict:
    start = time.perf_counter()
    result = oracle.rank_census(p, r, s)
    seconds = time.perf_counter() - start
    want = {j: checks.rank_stratum(p, r, s, j) for j in range(min(r, s) + 1)}
    if dict(result.counts) != want:
        raise SystemExit(f"rank_census({p}, {r}, {s}) is wrong")
    return {"seconds": seconds, "matrices_per_s": p ** (r * s) / seconds}


# The seed baseline table: label, callable.
BASELINE = [
    ("grassmannian_subset_sum(9, 8)", lambda: stringy.grassmannian_subset_sum(9, 8)),
    ("stringy_e_affine_from_orbits(10, 9)", lambda: stringy.stringy_e_affine_from_orbits(10, 9)),
    ("stringy_e_projective_from_orbits(10, 9)",
     lambda: stringy.stringy_e_projective_from_orbits(10, 9)),
    ("grassmannian_recursive(10, 9)", lambda: stringy.grassmannian_recursive(10, 9)),
    ("orbit_tail_degree_bound(8, 7, 5)", lambda: stringy.orbit_tail_degree_bound(8, 7, 5)),
    ("rank_census(3, 3, 4)", lambda: oracle.rank_census(3, 3, 4)),
    ("rank_census(2, 4, 5)", lambda: oracle.rank_census(2, 4, 5)),
    ("rank_census(2, 5, 5)", lambda: oracle.rank_census(2, 5, 5)),
    ("verify_classes(3, 3)", lambda: oracle.verify_classes(3, 3)),
]


def baseline(row: int) -> dict:
    label, call = BASELINE[row]
    start = time.perf_counter()
    call()
    return {"label": label, "seconds": time.perf_counter() - start, "rows": len(BASELINE)}


def main(argv) -> int:
    command, args = argv[0], [int(a) for a in argv[1:]]
    probes = {"micro": micro, "cold-build": cold_build, "subset-sum": subset_sum,
              "census": census, "baseline": baseline}
    print(json.dumps(probes[command](*args)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
