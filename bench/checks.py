"""Output checkers for the benchmark.

Every expected value is computed here from a closed formula or an integer
count, with no code shared with ``stringydet``:

* ``compute`` and ``table``: the coefficient of q^j in [G(k, r)] is the number
  of partitions of j into at most k parts, each at most r - k.  The affine
  E-function is q^{kr} [G(k, r)], the projective one (1 + ... + q^{kr-1})
  [G(k, r)]; the Euler numbers are C(r, k) and k r C(r, k).
* ``zeta``: the coefficient of T^n is q^{r^2} prod_{i=1..r} (1 - q^{-i})
  h_n(q^{-1}, ..., q^{-r}) (Igusa's formula for the determinant).
* ``oracle``: every printed value is a closed count over F_p.
* ``verify``: no check fails and the passing checks name every (r, k) of the
  grid.

``check(argv, exit_code, stdout)`` raises ``CheckFailed`` on any mismatch.
Fields and lines these checkers do not know are ignored, so that additions to
the output formats do not read as wrong answers.
"""
from __future__ import annotations

import json
import re
from math import comb, prod


class CheckFailed(Exception):
    """An output disagrees with the independently computed value."""


# -- closed forms ---------------------------------------------------------------

def box_partitions(k: int, m: int) -> list:
    """counts[j] = number of partitions of j into at most k parts, each <= m."""
    top = k * m
    # ways[c][s]: partitions into exactly c parts (parts <= the current size) of s
    ways = [[0] * (top + 1) for _ in range(k + 1)]
    ways[0][0] = 1
    for size in range(1, m + 1):
        for c in range(1, k + 1):  # ascending c lets a size repeat
            row, prev = ways[c], ways[c - 1]
            for s in range(size, top + 1):
                row[s] += prev[s - size]
    return [sum(ways[c][s] for c in range(k + 1)) for s in range(top + 1)]


def stringy_e(r: int, k: int, variety: str) -> dict:
    """Exponent -> coefficient of the stringy E-function, zero terms dropped."""
    gauss = box_partitions(k, r - k)
    if variety == "affine":
        out = {k * r + j: c for j, c in enumerate(gauss)}
    else:
        out = {}
        for j, c in enumerate(gauss):
            for i in range(k * r):
                out[i + j] = out.get(i + j, 0) + c
    return {e: c for e, c in out.items() if c}


def euler_number(r: int, k: int, variety: str) -> int:
    return comb(r, k) if variety == "affine" else k * r * comb(r, k)


def dimension(r: int, k: int, variety: str) -> int:
    return k * (2 * r - k) - (variety == "projective")


def zeta_coefficient(r: int, n: int) -> dict:
    """Exponent -> coefficient of T^n in Igusa's zeta function of det on r x r."""
    base = {r * r: 1}
    for i in range(1, r + 1):  # times (1 - q^{-i})
        nxt = dict(base)
        for e, c in base.items():
            nxt[e - i] = nxt.get(e - i, 0) - c
        base = nxt
    # h_n(q^{-1}, ..., q^{-r}): multisets of n values in 1..r, weight q^{-sum}
    ways = [[0] * (n * r + 1) for _ in range(n + 1)]
    ways[0][0] = 1
    for value in range(1, r + 1):
        for c in range(1, n + 1):
            row, prev = ways[c], ways[c - 1]
            for s in range(value, n * r + 1):
                row[s] += prev[s - value]
    out = {}
    for e, c in base.items():
        for s, w in enumerate(ways[n]):
            if w:
                out[e - s] = out.get(e - s, 0) + c * w
    return {e: c for e, c in out.items() if c}


def gl_count(p: int, d: int) -> int:
    return prod(p ** d - p ** i for i in range(d))


def independent_tuples(p: int, d: int, k: int) -> int:
    return prod(p ** k - p ** i for i in range(d))


def gaussian_binomial(p: int, d: int, k: int) -> int:
    num = prod(p ** (k - i) - 1 for i in range(d))
    den = prod(p ** (i + 1) - 1 for i in range(d))
    if num % den:
        raise ArithmeticError("Gaussian binomial is not an integer")
    return num // den


def rank_stratum(p: int, r: int, s: int, j: int) -> int:
    """Number of r x s matrices over F_p of rank exactly j."""
    num = prod((p ** r - p ** i) * (p ** s - p ** i) for i in range(j))
    den = prod(p ** j - p ** i for i in range(j))
    if num % den:
        raise ArithmeticError("rank stratum count is not an integer")
    return num // den


def oracle_expected(p: int, rmax: int) -> dict:
    """Check name -> value for every check of ``oracle --p p --rmax rmax``."""
    out = {}
    for d in range(1, rmax + 1):
        out[f"gl({d}) at q={p}"] = gl_count(p, d)
    for k in range(1, rmax + 1):
        for d in range(k + 1):
            out[f"grassmannian({d},{k}) at q={p}"] = gaussian_binomial(p, d, k)
            out[f"independent_tuples({d},{k}) at q={p}"] = independent_tuples(p, d, k)
    for r in range(1, rmax + 1):
        for s in range(r, rmax + 1):
            strata = [rank_stratum(p, r, s, j) for j in range(r + 1)]
            if sum(strata) != p ** (r * s):
                raise ArithmeticError("rank strata do not partition the matrices")
            for j, count in enumerate(strata):
                out[f"rank_stratum({r},{s},{j}) at q={p}"] = count
            for k in range(r + 1):
                out[f"rank_bounded({r},{s},<= {k}) at q={p}"] = sum(strata[:k + 1])
    for r in range(1, rmax + 1):
        for k in range(1, r + 1):
            out[f"rank_identity({r},{k}) at q={p}"] = p ** (k * r)
    return out


# -- per-subcommand checkers ------------------------------------------------------

def _options(argv) -> dict:
    opts = {}
    for flag, value in zip(argv[1::2], argv[2::2]):
        opts[flag.lstrip("-")] = value
    return opts


def _expect(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


def _poly(pairs) -> dict:
    out = {}
    for exp, coeff in pairs:
        _expect(isinstance(exp, int), f"exponent {exp!r} is not an integer")
        _expect(exp not in out, f"exponent {exp} repeated")
        out[exp] = int(coeff)
    return out


def _first_difference(got: dict, want: dict) -> str:
    for e in sorted(set(got) | set(want)):
        if got.get(e, 0) != want.get(e, 0):
            return f"q^{e}: got {got.get(e, 0)}, expected {want.get(e, 0)}"
    return "no difference"


def _check_e_function(where: str, r: int, k: int, variety: str, coefficients) -> dict:
    got = _poly(coefficients)
    want = stringy_e(r, k, variety)
    _expect(got == want, f"{where}: stringy E differs at {_first_difference(got, want)}")
    return got


def check_compute(argv, stdout: str) -> None:
    opts = _options(argv)
    r, k, variety = int(opts["r"]), int(opts["k"]), opts.get("variety", "affine")
    rec = json.loads(stdout)
    where = f"compute r={r} k={k} {variety}"
    _expect((rec["r"], rec["k"], rec["variety"]) == (r, k, variety), f"{where}: wrong header")
    poly = _check_e_function(where, r, k, variety, rec["stringyE"])
    _expect(max(poly) == dimension(r, k, variety), f"{where}: wrong degree")
    _expect(rec["hodgeDiagonal"] == {str(e): c for e, c in poly.items()},
            f"{where}: Hodge diagonal differs from the E-function")
    _expect(int(rec["eulerNumber"]) == euler_number(r, k, variety), f"{where}: wrong Euler number")
    _expect(rec["nonNegative"] is True, f"{where}: not reported non-negative")
    want_disc = [[i, (k - i) * (r - i)] for i in range(k)]
    _expect(rec["discrepancies"] == want_disc, f"{where}: wrong log discrepancies")
    _expect(rec["checks"] and all(c[1] is True for c in rec["checks"]),
            f"{where}: a cross-check did not pass")


def check_table(argv, stdout: str) -> None:
    opts = _options(argv)
    rmax = int(opts["rmax"])
    _expect(opts.get("format") == "json", "table checker reads JSON output only")
    chosen = opts.get("variety", "affine")
    varieties = ["affine", "projective"] if chosen == "both" else [chosen]
    rows = json.loads(stdout)
    grid = [(r, k, v) for r in range(2, rmax + 1) for k in range(1, r) for v in varieties]
    _expect([(row["r"], row["k"], row["variety"]) for row in rows] == grid,
            "table rows do not cover the (r, k, variety) grid in order")
    for (r, k, variety), row in zip(grid, rows):
        where = f"table r={r} k={k} {variety}"
        poly = _check_e_function(where, r, k, variety, row["coefficients"])
        dim = dimension(r, k, variety)
        _expect(row["dim"] == dim and row["degree"] == dim == max(poly),
                f"{where}: wrong dim or degree")
        _expect(int(row["euler"]) == euler_number(r, k, variety), f"{where}: wrong Euler number")
        _expect(row["nonneg"] is True, f"{where}: not reported non-negative")


def check_zeta(argv, stdout: str) -> None:
    opts = _options(argv)
    r, order = int(opts["r"]), int(opts.get("order", 4))
    doc = json.loads(stdout)
    _expect((doc["r"], doc["order"]) == (r, order), "zeta: wrong header")
    coeffs = doc["coefficients"]
    _expect(sorted(coeffs, key=int) == [str(n) for n in range(order + 1)],
            "zeta: coefficients do not cover T^0 .. T^order")
    for n in range(order + 1):
        got = _poly(coeffs[str(n)])
        want = zeta_coefficient(r, n)
        _expect(got == want, f"zeta r={r} T^{n}: {_first_difference(got, want)}")


_CHECK_LINE = re.compile(r"^(pass|FAIL)\s+(\S.*?)(?:\s+\((.*)\))?$")


def _check_lines(stdout: str) -> list:
    """(status, name, details) of every pass/FAIL line; other lines are skipped."""
    out = []
    for line in stdout.splitlines():
        m = _CHECK_LINE.match(line.strip())
        if m:
            out.append(m.groups())
    _expect(all(status == "pass" for status, _, _ in out), "a check reports FAIL")
    return out


def check_oracle(argv, stdout: str) -> None:
    opts = _options(argv)
    p, rmax = int(opts["p"]), int(opts["rmax"])
    got = {}
    for _, name, value in _check_lines(stdout):
        _expect(name not in got, f"oracle: {name} printed twice")
        got[name] = int(value)
    want = oracle_expected(p, rmax)
    _expect(set(got) == set(want), "oracle: the checks do not cover the (p, r, s) grid")
    for name, value in want.items():
        _expect(got[name] == value, f"oracle: {name} printed {got[name]}, count is {value}")


_IDENTITY_KINDS = ("affine_theorem", "projective_theorem", "subset_sum_is_grassmannian",
                   "recursion_is_grassmannian", "rank_identity", "euler_affine",
                   "euler_projective", "nonnegativity")


def verify_grid(suite: str, rmax: int) -> set:
    """Names (with any cap argument dropped) that a passing verify run prints."""
    names = set()
    if suite in ("identities", "all"):
        for r in range(2, rmax + 1):
            names.update(f"{kind}({r},{k})" for kind in _IDENTITY_KINDS for k in range(1, r))
            names.add(f"rank_one_resolution({r})")
    if suite in ("orbits", "all"):
        for r in range(2, min(rmax, 4) + 1):
            for k in range(1, r):
                names.add(f"orbit_convergence_affine({r},{k})")
                names.add(f"orbit_convergence_projective({r},{k})")
    return names


def check_verify(argv, stdout: str) -> None:
    opts = _options(argv)
    suite, rmax = opts.get("suite", "all"), int(opts.get("rmax", 5))
    _expect(suite in ("identities", "orbits"), f"no grid known for verify suite {suite!r}")
    seen = {re.sub(r",cap=\d+\)$", ")", name) for _, name, _ in _check_lines(stdout)}
    missing = verify_grid(suite, rmax) - seen
    _expect(not missing, f"verify {suite}: no passing check for {sorted(missing)[:3]}")


CHECKERS = {
    "compute": check_compute,
    "table": check_table,
    "zeta": check_zeta,
    "oracle": check_oracle,
    "verify": check_verify,
}


def check(argv, exit_code: int, stdout: str) -> None:
    """Raise CheckFailed unless ``stringy-det argv`` produced a correct result."""
    _expect(exit_code == 0, f"exit code {exit_code}")
    try:
        CHECKERS[argv[0]](list(argv), stdout)
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        raise CheckFailed(f"{argv[0]}: malformed output ({type(exc).__name__}: {exc})") from exc
