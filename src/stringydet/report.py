"""The route commands' records, suites of checks and tables, loaded by ``cli`` only
for the commands that run the routes. Every check is one ``groth.compare``, and
``groth`` and ``stringy`` are called through their modules, so a wrapped or patched
function is the one that runs."""
from functools import cache
from math import comb

from . import groth, stringy
from .exactalg import LaurentPoly, ZERO, q_pow

# Each invariant checked per (r, k): its reference and the routes checked against it, by
# check name, each a call (r, k) -> polynomial that looks its function up at run time.
ROUTES = {
    "affine": (lambda r, k: stringy.stringy_e_affine(r, k), {
        "affine_theorem": lambda r, k: stringy.stringy_e_affine_from_orbits(r, k),
        "resolution_affine": lambda r, k: stringy.stringy_e_from_resolution(r, k, "affine")}),
    "projective": (lambda r, k: stringy.stringy_e_projective(r, k), {
        "projective_theorem": lambda r, k: stringy.stringy_e_projective_from_orbits(r, k),
        "resolution_projective": lambda r, k: (
            stringy.stringy_e_from_resolution(r, k, "projective"))}),
    "grassmannian": (lambda r, k: groth.gauss_binomial(k, r), {
        "subset_sum_is_grassmannian": lambda r, k: stringy.grassmannian_subset_sum(r, k),
        "recursion_is_grassmannian": lambda r, k: stringy.grassmannian_recursive(r, k)}),
    "rank_identity": (lambda r, k: q_pow(k * r), {"rank_identity": lambda r, k: sum(
        groth.rank_stratum_class(r, k, j) for j in range(k + 1))}),
}


def _render_uv(diag: dict) -> str:
    """Render a Hodge diagonal, a polynomial in q, as a polynomial in (uv)."""
    parts = []
    for exp, c in diag.items():
        coeff = "" if c == 1 else c
        if exp == 0:
            parts.append(str(c))
        elif exp == 1:
            parts.append(f"{coeff}(uv)")
        else:
            parts.append(f"{coeff}(uv)^{{{exp}}}")
    return " + ".join(parts) or "0"


def _route_checks(invariant: str, r: int, k: int) -> tuple:
    """The reference of an invariant at (r, k), a call that builds it once unless its build
    fails, and the check of each route against it."""
    build, routes = ROUTES[invariant]
    reference = cache(lambda: build(r, k))
    return reference, [groth.compare(f"{name}({r},{k})", lambda: route(r, k), reference)
                       for name, route in routes.items()]


def compute_record(r: int, k: int, variety: str) -> dict:
    """A variety's closed form, which validates (r, k), and the checks of its routes.
    ``compute --format json`` prints the record, JSON-native: coefficients are
    decimal strings and each check is a list."""
    closed, checks = _route_checks(variety, r, k)
    diag = stringy.hodge_table(closed())  # a failed division here ends the command
    return {
        "r": r, "k": k, "variety": variety, "stringyE": [[p, str(h)] for p, h in diag.items()],
        "hodgeDiagonal": {str(p): h for p, h in diag.items()},
        "eulerNumber": str(sum(diag.values())), "nonNegative": stringy.non_negative(diag),
        "discrepancies": [[i, a] for i, a in stringy.log_discrepancies(r, k)],
        "checks": [list(check) for check in checks],
    }


def _record_text(record: dict) -> str:
    poly = " + ".join(f"{c}*q^{e}" for e, c in record["stringyE"])
    lines = [
        f"r={record['r']} k={record['k']} variety={record['variety']}",
        f"stringy E = {poly}",
        f"euler = {record['eulerNumber']}  nonnegative = {record['nonNegative']}",
        f"discrepancies = {record['discrepancies']}",
    ]
    lines += [f"check {name}: {'pass' if ok else 'FAIL'}" for name, ok, _ in record["checks"]]
    return "\n".join(lines)


# -- verification suites ------------------------------------------------------
# Each runs up to the rmax it is given; ``cli`` lowers --rmax to a suite's cap.

def suite_identities(rmax: int) -> list:
    """The routes of every invariant of ``ROUTES``, and the Euler numbers and the sign read
    off the closed forms' Hodge diagonals; each (r, k) builds each reference once."""
    checks = []
    for r in range(2, rmax + 1):
        closed = {}
        for k in range(1, r):
            for invariant in ROUTES:
                closed[invariant, k], routed = _route_checks(invariant, r, k)
                checks += routed
            for variety, count in (("affine", comb(r, k)), ("projective", k * r * comb(r, k))):
                checks.append(groth.compare(f"euler_{variety}({r},{k})", lambda: count, lambda: (
                    sum(stringy.hodge_table(closed[variety, k]()).values()))))
            checks.append(groth.compare(  # the negative part of the projective diagonal
                f"nonnegativity({r},{k})", lambda: ZERO, lambda: LaurentPoly({e: h for e, h in (
                    stringy.hodge_table(closed["projective", k]()).items()) if h < 0})))
        checks.append(groth.compare(f"rank_one_resolution({r})", lambda: (
            stringy.stringy_e_from_resolution(r, 1, "affine")), closed["affine", 1]))
    return checks


def suite_orbits(rmax: int) -> list:
    def above(p: LaurentPoly, bound: int) -> LaurentPoly:  # where a truncated sum is stable
        return LaurentPoly({e: c for e, c in p.terms.items() if e > bound})

    checks = []
    for r, k in [(r, k) for r in range(2, rmax + 1) for k in range(1, r)]:
        cap = k * (2 * r - k) // (r - k + 1)  # the least cap whose bound is negative
        bound = stringy.orbit_tail_degree_bound(r, k, cap)
        for variety in ("affine", "projective"):
            times = [1] * (variety == "projective")  # the projective sum leaves 1/(q - 1) out
            checks.append(groth.compare(
                f"orbit_convergence_{variety}({r},{k},cap={cap})",
                lambda: above(stringy.truncated_orbit_sum(r, k, cap, variety), bound),
                lambda: above(groth.factor_ratio(ROUTES[variety][0](r, k), times), bound),
                f"stable above exponent {bound}"))
    return checks


def suite_zeta(rmax: int, order: int) -> list:
    return [groth.compare(f"zeta_consistency(r={r},order={order})",
                          lambda: stringy.zeta_closed_expansion(r, order), lambda: tuple(
                              stringy.zeta_coefficient_direct(r, n) for n in range(order + 1)))
            for r in range(1, rmax + 1)]


# -- rendering: tables and JSON ------------------------------------------------

def table_rows(rmax: int, varieties):
    """The rows of ``table``, one at a time: each carries the Hodge diagonal of its closed
    form as its coefficients and reads its degree, Euler number and sign off it."""
    for r in range(2, rmax + 1):
        for k in range(1, r):
            for variety in varieties:
                diag = stringy.hodge_table(ROUTES[variety][0](r, k))
                yield {"r": r, "k": k, "variety": variety,
                       "dim": k * (2 * r - k) - (variety == "projective"),
                       "degree": next(reversed(diag)), "euler": str(sum(diag.values())),
                       "nonneg": stringy.non_negative(diag), "coefficients": diag}


def _render_table(rows, fmt: str):
    """The text of ``table`` in chunks, one per row with the head on the first, so that
    rows are computed, rendered and written one at a time."""
    if fmt == "json":
        # json.dumps(row), the diagonal as [exponent, "coefficient"] pairs, one row per line:
        # the only strings are a variety name and decimal integers, so nothing needs escaping
        head, sep, tail = "[\n", ",\n", "\n]\n"

        def line(row):
            coeffs = ", ".join(f'[{e}, "{c}"]' for e, c in row["coefficients"].items())
            return (f'{{"r": {row["r"]}, "k": {row["k"]}, "variety": "{row["variety"]}", '
                    f'"dim": {row["dim"]}, "degree": {row["degree"]}, '
                    f'"euler": "{row["euler"]}", '
                    f'"nonneg": {"true" if row["nonneg"] else "false"}, '
                    f'"coefficients": [{coeffs}]}}')
    elif fmt == "csv":
        head, sep, tail = "r,k,variety,dim,degree,euler,nonneg,coefficients\n", "\n", "\n"

        def line(row):
            coeffs = ";".join(f"{e}:{c}" for e, c in row["coefficients"].items())
            return (f"{row['r']},{row['k']},{row['variety']},{row['dim']},"
                    f"{row['degree']},{row['euler']},{row['nonneg']},{coeffs}")
    elif fmt == "latex":
        head = (r"\begin{tabular}{lllll}" "\n"
                r"$r$ & $k$ & variety & $E_{st}$ & Euler \\ \hline" "\n")
        sep, tail = "\n", "\n" r"\end{tabular}" "\n"

        def line(row):
            return (f"{row['r']} & {row['k']} & {row['variety']} & "
                    f"${_render_uv(row['coefficients'])}$ & {row['euler']} " r"\\")
    else:
        raise ValueError(f"unknown format {fmt!r}")
    for row in rows:
        yield head + line(row)
        head = sep
    yield tail


def _json(value, indent: str = "\n") -> str:
    """``json.dumps(value, indent=2, sort_keys=True)`` for ``compute``'s record: dicts, lists,
    ints, bools and strings that need no escaping; ``indent`` starts each line of its level."""
    if not isinstance(value, (dict, list)):  # a str, an int, or a bool: True is true
        return f'"{value}"' if isinstance(value, str) else str(value).lower()
    inner = indent + "  "
    if isinstance(value, dict):
        body, ends = [f'"{key}": {_json(v, inner)}' for key, v in sorted(value.items())], "{}"
    else:
        body, ends = [_json(v, inner) for v in value], "[]"
    return ends[0] + inner + ("," + inner).join(body) + indent + ends[1] if body else ends


def _render_zeta(r: int, order: int, series):
    """``zeta``'s ``json.dumps(..., indent=2)`` in chunks: head with T^0, each T^n, tail. A
    coefficient's [exponent, "coefficient"] pairs are written with one format string."""
    head = f'{{\n  "r": {r},\n  "order": {order},\n  "coefficients": {{'
    for n, c in enumerate(series):
        pairs = ",".join(f'\n      [\n        {e},\n        "{a}"\n      ]'
                         for e, a in sorted(c.terms.items()))
        yield f'{head}\n    "{n}": ' + (f"[{pairs}\n    ]" if pairs else "[]")
        head = ","
    yield "\n  }\n}\n"
