"""Command-line front end: compute invariants, verify identities, emit tables.

Exit statuses: 0 success, 1 verification failure, 2 usage error (a malformed
command line, a bad argument, or a grid that holds no check), 3 enumeration
budget exceeded. ``-h`` or ``--help`` prints the usage read from ``COMMANDS``.

A command loads only the layers it runs: ``stringy`` for the routes, ``oracle``
for the counts over F_p and ``json`` for JSON output are imported where used.
The errors that end a command are ``groth``'s ``InvalidInput`` (exit 2) and
``BudgetExceeded`` (exit 3), so ``main`` maps each to its exit status whichever
layer raised it. A disagreement never ends a command: it is a failing check.
"""
from __future__ import annotations

import getopt
import sys
from math import comb
from types import SimpleNamespace

from .exactalg import LaurentPoly
from .groth import (BudgetExceeded, InvalidInput, gauss_binomial, q_factor_product,
                    rank_identity_check)

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3
_ORACLE_RMAX = 4  # the largest r of the oracle suite, whose censuses grow as p^(r^2)

# The closed form and the orbit route of each variety, by name in ``stringy``:
# looked up at call time, so a wrapped or patched route is the one that runs.
VARIETIES = {
    "affine": ("stringy_e_affine", "stringy_e_affine_from_orbits"),
    "projective": ("stringy_e_projective", "stringy_e_projective_from_orbits"),
}


def _routes(variety: str) -> list:
    from . import stringy
    return [getattr(stringy, name) for name in VARIETIES[variety]]


def _poly_pairs(p: LaurentPoly) -> list:
    return [[exp, str(c)] for exp, c in sorted(p.terms.items())]


def _render_uv(pairs: list) -> str:
    """Render the [exponent, "coeff"] pairs of a polynomial in q as a polynomial in (uv)."""
    parts = []
    for exp, c in pairs:
        coeff = "" if c == "1" else c
        if exp == 0:
            parts.append(c)
        elif exp == 1:
            parts.append(f"{coeff}(uv)")
        else:
            parts.append(f"{coeff}(uv)^{{{exp}}}")
    return " + ".join(parts) or "0"


def _compare(name: str, route: LaurentPoly, reference: LaurentPoly,
             details: str = "") -> tuple:
    """A check that two routes agree; a failure names the lowest differing coefficient."""
    if route == reference:
        return name, True, details
    e = (route - reference).order()
    return name, False, (f"first difference at q^{e}: route {route.terms.get(e, 0)}, "
                         f"reference {reference.terms.get(e, 0)}")


def compute_record(r: int, k: int, variety: str) -> dict:
    """Compute and compare both routes of a variety; the first validates (r, k).
    ``compute --format json`` prints the record, JSON-native: coefficients are
    decimal strings and each check is a list."""
    from . import stringy
    closed, summed = (route(r, k) for route in _routes(variety))
    table = stringy.hodge_table(closed)
    return {
        "r": r, "k": k, "variety": variety, "stringyE": _poly_pairs(closed),
        "hodgeDiagonal": {str(p): v for p, v in table.diag.items()},
        "eulerNumber": str(stringy.stringy_euler(closed)), "nonNegative": table.non_negative,
        "discrepancies": [[i, a] for i, a in stringy.log_discrepancies(r, k)] if k else [],
        "checks": [list(_compare("closed_equals_orbit_sum", summed, closed,
                                 "exact polynomial comparison of the two routes"))],
    }


def _record_text(record: dict) -> str:
    poly = " + ".join(f"{c}*q^{e}" for e, c in record["stringyE"])
    lines = [
        f"r={record['r']} k={record['k']} variety={record['variety']}",
        f"stringy E = {poly}",
        f"euler = {record['eulerNumber']}  nonnegative = {record['nonNegative']}",
        f"discrepancies = {record['discrepancies']}",
    ]
    for name, ok, _ in record["checks"]:
        lines.append(f"check {name}: {'pass' if ok else 'FAIL'}")
    return "\n".join(lines)


# -- verification suites ------------------------------------------------------

def suite_identities(rmax: int) -> list:
    """The identity checks; each (r, k) computes its two closed forms once."""
    from . import stringy
    checks = []
    for r in range(2, rmax + 1):
        closed = {}
        for k in range(1, r):
            for variety in VARIETIES:
                closed_form, orbit_route = _routes(variety)
                closed[variety, k] = closed_form(r, k)
                checks.append(_compare(f"{variety}_theorem({r},{k})",
                                       orbit_route(r, k), closed[variety, k]))
            g = gauss_binomial(k, r)
            checks.append(_compare(f"subset_sum_is_grassmannian({r},{k})",
                                   stringy.grassmannian_subset_sum(r, k), g))
            checks.append(_compare(f"recursion_is_grassmannian({r},{k})",
                                   stringy.grassmannian_recursive(r, k), g))
            checks.append((f"rank_identity({r},{k})", rank_identity_check(r, k), ""))
            euler_a, euler_p = (stringy.stringy_euler(closed[v, k]) for v in VARIETIES)
            checks.append((f"euler_affine({r},{k})", euler_a == comb(r, k), ""))
            checks.append((f"euler_projective({r},{k})", euler_p == k * r * comb(r, k), ""))
            checks.append((f"nonnegativity({r},{k})",
                           stringy.hodge_table(closed["projective", k]).non_negative, ""))
        checks.append(_compare(f"rank_one_resolution({r})",
                               stringy.stringy_e_from_resolution(
                                   stringy.rank_one_resolution_data(r)),
                               closed["affine", 1]))
    return checks


def suite_orbits(rmax: int) -> list:
    from . import stringy
    checks = []
    rmax = _clamp("orbits", rmax, 4)
    pairs = [(r, k) for r in range(2, rmax + 1) for k in range(1, r)]
    for r, k in pairs:
        cap = k * (2 * r - k) // (r - k + 1)  # the least cap whose bound is negative
        bound = stringy.orbit_tail_degree_bound(r, k, cap)
        for variety in VARIETIES:
            closed = _routes(variety)[0](r, k)
            if variety == "projective":
                # the truncated projective sum leaves the 1/(q - 1) factor out
                closed = q_factor_product([1], closed)
            partial = stringy.truncated_orbit_sum(r, k, cap, variety)
            stable = {e: c for e, c in partial.terms.items() if e > bound}
            expect = {e: c for e, c in closed.terms.items() if e > bound}
            checks.append((f"orbit_convergence_{variety}({r},{k},cap={cap})",
                           stable == expect, f"stable above exponent {bound}"))
    return checks


def suite_zeta(rmax: int, order: int) -> list:
    from . import stringy
    checks = []
    for r in range(1, _clamp("zeta", rmax, 3) + 1):
        series = stringy.zeta_closed_expansion(r, order)
        ok = all(c == stringy.zeta_coefficient_direct(r, n) for n, c in enumerate(series))
        checks.append((f"zeta_consistency(r={r},order={order})", ok, ""))
    return checks


def suite_oracle(p: int, rmax: int, budget: int) -> list:
    from . import oracle
    return oracle.verify_classes(p, _clamp("oracle", rmax, _ORACLE_RMAX), budget).checks


def _clamp(suite: str, rmax: int, cap: int) -> int:
    """The rmax a suite runs with; says so on stderr when it is lowered."""
    if rmax > cap:
        print(f"note: the {suite} suite runs up to r = {cap}, not --rmax {rmax}",
              file=sys.stderr)
    return min(rmax, cap)


def _print_checks(checks: list) -> bool:
    all_ok = True
    for name, ok, details in checks:
        status = "pass" if ok else "FAIL"
        suffix = f"  ({details})" if details else ""
        print(f"{status}  {name}{suffix}")
        all_ok = all_ok and ok
    return all_ok


# -- table rendering ----------------------------------------------------------

def table_rows(rmax: int, varieties) -> list:
    from . import stringy
    rows = []
    for r in range(2, rmax + 1):
        for k in range(1, r):
            for variety in varieties:
                poly = _routes(variety)[0](r, k)
                dim = k * (2 * r - k) - (variety == "projective")
                table = stringy.hodge_table(poly)
                rows.append({
                    "r": r,
                    "k": k,
                    "variety": variety,
                    "dim": dim,
                    "degree": poly.degree(),
                    "euler": str(stringy.stringy_euler(poly)),
                    "nonneg": table.non_negative,
                    "coefficients": _poly_pairs(poly),
                })
    return rows


def _render_table(rows: list, fmt: str) -> str:
    if fmt == "json":
        import json
        # one compact row object per line: without indent, json takes its C encoder
        return "[\n" + ",\n".join(json.dumps(row) for row in rows) + "\n]"
    if fmt == "csv":
        lines = ["r,k,variety,dim,degree,euler,nonneg,coefficients"]
        for row in rows:
            coeffs = ";".join(f"{e}:{c}" for e, c in row["coefficients"])
            lines.append(f"{row['r']},{row['k']},{row['variety']},{row['dim']},"
                         f"{row['degree']},{row['euler']},{row['nonneg']},{coeffs}")
        return "\n".join(lines)
    if fmt == "latex":
        lines = [r"\begin{tabular}{lllll}",
                 r"$r$ & $k$ & variety & $E_{st}$ & Euler \\ \hline"]
        for row in rows:
            lines.append(f"{row['r']} & {row['k']} & {row['variety']} & "
                         f"${_render_uv(row['coefficients'])}$ & {row['euler']} \\\\")
        lines.append(r"\end{tabular}")
        return "\n".join(lines)
    raise ValueError(f"unknown format {fmt!r}")


# -- argument parsing ---------------------------------------------------------

REQUIRED = object()  # the default of a flag that must be given
# command -> flag -> (int, or the tuple of its choices; its default, or REQUIRED)
COMMANDS = {
    "compute": {"r": (int, REQUIRED), "k": (int, REQUIRED),
                "variety": (tuple(VARIETIES), "affine"), "format": (("json", "text"), "text")},
    "verify": {"suite": (("identities", "oracle", "orbits", "zeta", "all"), "all"),
               "rmax": (int, 5), "p": (int, 2), "order": (int, 4), "budget": (int, None)},
    "table": {"rmax": (int, REQUIRED), "format": (("json", "csv", "latex"), "csv"),
              "variety": (("affine", "projective", "both"), "affine")},
    "zeta": {"r": (int, REQUIRED), "order": (int, 4), "format": (("json", "text"), "text")},
    "oracle": {"p": (int, REQUIRED), "rmax": (int, REQUIRED), "budget": (int, None)},
}


def _usage(*commands: str) -> str:
    """One usage line per command, read from ``COMMANDS``."""
    def spec(flag, kind, default):
        text = f"--{flag} " + ("N" if kind is int else "{" + ",".join(kind) + "}")
        return text if default is REQUIRED else f"[{text}]"
    return "\n".join(f"usage: stringy-det {command} " + " ".join(
        spec(flag, *rule) for flag, rule in COMMANDS[command].items()) for command in commands)


def parse_args(argv) -> SimpleNamespace | None:
    """The command and its flags, checked against ``COMMANDS``; None once ``-h`` or
    ``--help`` has printed the usage. A malformed ``argv`` raises ``InvalidInput``."""
    if argv and argv[0] in ("-h", "--help"):
        print(_usage(*COMMANDS))
        return None
    if not argv or argv[0] not in COMMANDS:
        got = f"unknown command {argv[0]!r}" if argv else "no command"
        raise InvalidInput(f"{got}: choose from {', '.join(COMMANDS)}")
    command, flags = argv[0], COMMANDS[argv[0]]
    try:  # getopt takes --flag=value, unique prefixes and values such as -1
        opts, stray = getopt.getopt(argv[1:], "h", [f"{flag}=" for flag in flags] + ["help"])
    except getopt.GetoptError as exc:
        raise InvalidInput(str(exc)) from None
    if any(opt in ("-h", "--help") for opt, _ in opts):
        print(_usage(command))
        return None
    if stray:
        raise InvalidInput(f"unrecognized arguments: {' '.join(stray)}")
    args = {flag: default for flag, (_, default) in flags.items()}
    for opt, value in opts:  # in order, so the last of a repeated flag wins
        flag = opt[2:]
        kind = flags[flag][0]
        try:  # int() and tuple.index() both raise ValueError on a bad value
            args[flag] = int(value) if kind is int else kind[kind.index(value)]
        except ValueError:
            expected = "an integer" if kind is int else "one of " + ", ".join(kind)
            raise InvalidInput(f"--{flag} must be {expected}, got {value!r}") from None
    missing = [f"--{flag}" for flag, value in args.items() if value is REQUIRED]
    if missing:
        raise InvalidInput(f"missing required flags: {', '.join(missing)}")
    return SimpleNamespace(command=command, **args)


def main(argv=None) -> int:
    try:
        args = parse_args(sys.argv[1:] if argv is None else argv)
        if args is None:
            return EXIT_OK
        for flag in ("budget", "order"):
            if (getattr(args, flag, None) or 0) < 0:
                raise InvalidInput(f"--{flag} must be nonnegative, got {getattr(args, flag)}")
        if args.command == "oracle" or getattr(args, "suite", None) in ("oracle", "all"):
            from . import oracle
            oracle.check_prime(args.p)
            if args.budget is None:
                args.budget = oracle.DEFAULT_BUDGET
            if args.command == "verify":  # refused before any suite runs
                n = oracle.census_candidates(args.p, min(args.rmax, _ORACLE_RMAX), args.budget)
                oracle.check_budget(n, args.budget)
        if args.command == "compute":
            record = compute_record(args.r, args.k, args.variety)
            if args.format == "json":
                import json
                print(json.dumps(record, indent=2, sort_keys=True))
            else:
                print(_record_text(record))
            return EXIT_OK if all(ok for _, ok, _ in record["checks"]) else EXIT_FAIL

        if args.command == "verify":
            checks = []
            if args.suite in ("identities", "all"):
                checks += suite_identities(args.rmax)
            if args.suite in ("orbits", "all"):
                checks += suite_orbits(args.rmax)
            if args.suite in ("zeta", "all"):
                checks += suite_zeta(args.rmax, args.order)
            if args.suite in ("oracle", "all"):
                checks += suite_oracle(args.p, args.rmax, args.budget)
            if not checks:
                raise InvalidInput(f"no check to run: --suite {args.suite} --rmax {args.rmax}")
            return EXIT_OK if _print_checks(checks) else EXIT_FAIL

        if args.command == "table":
            if args.rmax < 2:
                raise InvalidInput(f"no row to tabulate: --rmax {args.rmax}")
            varieties = (["affine", "projective"] if args.variety == "both"
                         else [args.variety])
            print(_render_table(table_rows(args.rmax, varieties), args.format))
            return EXIT_OK

        if args.command == "zeta":
            from . import stringy
            series = stringy.zeta_closed_expansion(args.r, args.order)
            if args.format == "json":
                import json
                payload = {str(n): _poly_pairs(c) for n, c in enumerate(series)}
                print(json.dumps({"r": args.r, "order": args.order,
                                  "coefficients": payload}, indent=2))
            else:
                for n, c in enumerate(series):
                    print(f"T^{n}: {c}")
            return EXIT_OK

        if args.command == "oracle":
            if args.rmax < 1:
                raise InvalidInput(f"no check to run: --rmax {args.rmax}")
            print("estimated candidates: "
                  f"{oracle.census_candidates(args.p, args.rmax, args.budget)}")
            report = oracle.verify_classes(args.p, args.rmax, args.budget)
            return EXIT_OK if _print_checks(report.checks) else EXIT_FAIL

    except InvalidInput as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except BudgetExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET

    return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
