"""The route commands' records, suites of checks and tables, loaded by ``cli`` only
for the commands that run the routes. ``groth`` and ``stringy`` are called through
their modules, so a wrapped or patched function is the one that runs."""
from math import comb

from . import groth, stringy
from .exactalg import LaurentPoly, NotPolynomial, q_pow

# The closed form and the orbit route of each variety, by name in ``stringy``:
# looked up at call time, so a wrapped or patched route is the one that runs.
VARIETIES = {
    "affine": ("stringy_e_affine", "stringy_e_affine_from_orbits"),
    "projective": ("stringy_e_projective", "stringy_e_projective_from_orbits"),
}


def _routes(variety: str) -> list:
    return [getattr(stringy, name) for name in VARIETIES[variety]]


def _poly_pairs(p: LaurentPoly) -> list:
    return [[exp, str(c)] for exp, c in sorted(p.terms.items())]


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


def _compare(name: str, route, reference, details: str = "") -> tuple:
    """The one comparison of every polynomial check: ``route()`` against a polynomial or a
    series in T, a tuple of them; a failure names its first differing coefficient or division."""
    try:
        value = route()
    except NotPolynomial as exc:
        return name, False, f"not a polynomial: {exc}"
    if value == reference:
        return name, True, details
    at = ""
    if isinstance(reference, tuple):
        if len(value) != len(reference):  # a shared prefix may agree
            n = min(len(value), len(reference))
            return name, False, f"route {'has an extra' if len(value) > n else 'is missing'} T^{n}"
        n = [a == b for a, b in zip(value, reference)].index(False)
        at, value, reference = f"T^{n} ", value[n], reference[n]
    e = (value - reference).order()
    return name, False, (f"first difference at {at}q^{e}: route {value.terms.get(e, 0)}, "
                         f"reference {reference.terms.get(e, 0)}")


def compute_record(r: int, k: int, variety: str) -> dict:
    """Compute and compare both routes of a variety; the first validates (r, k).
    ``compute --format json`` prints the record, JSON-native: coefficients are
    decimal strings and each check is a list."""
    closed_form, orbit_route = _routes(variety)
    closed = closed_form(r, k)
    diag = stringy.hodge_table(closed)
    return {
        "r": r, "k": k, "variety": variety, "stringyE": [[p, str(h)] for p, h in diag.items()],
        "hodgeDiagonal": {str(p): h for p, h in diag.items()},
        "eulerNumber": str(sum(diag.values())), "nonNegative": stringy.non_negative(diag),
        "discrepancies": [[i, a] for i, a in stringy.log_discrepancies(r, k)] if k else [],
        "checks": [list(_compare("closed_equals_orbit_sum", lambda: orbit_route(r, k), closed,
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
# Each runs up to the rmax it is given; ``cli`` lowers --rmax to a suite's cap.

def suite_identities(rmax: int) -> list:
    """The identity checks; each (r, k) computes its two closed forms once."""
    checks = []
    for r in range(2, rmax + 1):
        closed = {}
        for k in range(1, r):
            for variety in VARIETIES:
                closed_form, orbit_route = _routes(variety)
                closed[variety, k] = closed_form(r, k)
                checks.append(_compare(f"{variety}_theorem({r},{k})",
                                       lambda: orbit_route(r, k), closed[variety, k]))
                checks.append(_compare(f"resolution_{variety}({r},{k})", lambda: (
                    stringy.stringy_e_from_resolution(r, k, variety)), closed[variety, k]))
            g = groth.gauss_binomial(k, r)
            checks.append(_compare(f"subset_sum_is_grassmannian({r},{k})",
                                   lambda: stringy.grassmannian_subset_sum(r, k), g))
            checks.append(_compare(f"recursion_is_grassmannian({r},{k})",
                                   lambda: stringy.grassmannian_recursive(r, k), g))
            checks.append(_compare(f"rank_identity({r},{k})", lambda: sum(
                groth.rank_stratum_class(r, k, j) for j in range(k + 1)), q_pow(k * r)))
            for variety, count in (("affine", comb(r, k)), ("projective", k * r * comb(r, k))):
                try:  # a closed form with no Hodge diagonal fails the checks read off it
                    diag, why = stringy.hodge_table(closed[variety, k]), ""
                except groth.InvalidInput as exc:
                    diag, why = None, str(exc)
                checks.append((f"euler_{variety}({r},{k})",
                               diag is not None and sum(diag.values()) == count, why))
            checks.append((f"nonnegativity({r},{k})",  # of the projective diagonal
                           diag is not None and stringy.non_negative(diag), why))
        checks.append(_compare(f"rank_one_resolution({r})", lambda: (
            stringy.stringy_e_from_resolution(r, 1, "affine")), closed["affine", 1]))
    return checks


def suite_orbits(rmax: int) -> list:
    def above(p: LaurentPoly, bound: int) -> LaurentPoly:  # where a truncated sum is stable
        return LaurentPoly({e: c for e, c in p.terms.items() if e > bound})

    checks = []
    pairs = [(r, k) for r in range(2, rmax + 1) for k in range(1, r)]
    for r, k in pairs:
        cap = k * (2 * r - k) // (r - k + 1)  # the least cap whose bound is negative
        bound = stringy.orbit_tail_degree_bound(r, k, cap)
        for variety in VARIETIES:
            closed = _routes(variety)[0](r, k)
            if variety == "projective":
                # the truncated projective sum leaves the 1/(q - 1) factor out
                closed = groth.factor_ratio(closed, [1])
            checks.append(_compare(
                f"orbit_convergence_{variety}({r},{k},cap={cap})",
                lambda: above(stringy.truncated_orbit_sum(r, k, cap, variety), bound),
                above(closed, bound), f"stable above exponent {bound}"))
    return checks


def suite_zeta(rmax: int, order: int) -> list:
    checks = []
    for r in range(1, rmax + 1):
        direct = tuple(stringy.zeta_coefficient_direct(r, n) for n in range(order + 1))
        checks.append(_compare(f"zeta_consistency(r={r},order={order})",
                               lambda: stringy.zeta_closed_expansion(r, order), direct))
    return checks


# -- rendering: tables and JSON ------------------------------------------------

def table_rows(rmax: int, varieties):
    """The rows of ``table``, one at a time: each carries the Hodge diagonal of its closed
    form as its coefficients and reads its degree, Euler number and sign off it."""
    for r in range(2, rmax + 1):
        for k in range(1, r):
            for variety in varieties:
                diag = stringy.hodge_table(_routes(variety)[0](r, k))
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
    """``json.dumps(value, indent=2, sort_keys=True)`` for dicts, lists, ints, bools and
    strings that need no escaping; ``indent`` starts each line of the value's own level."""
    if not isinstance(value, (dict, list)):  # a str, an int, or a bool: True is true
        return f'"{value}"' if isinstance(value, str) else str(value).lower()
    inner = indent + "  "
    if isinstance(value, dict):
        body, ends = [f'"{key}": {_json(v, inner)}' for key, v in sorted(value.items())], "{}"
    else:
        body, ends = [_json(v, inner) for v in value], "[]"
    return ends[0] + inner + ("," + inner).join(body) + indent + ends[1] if body else ends


def _render_zeta(r: int, order: int, series):
    """``zeta``'s ``json.dumps(..., indent=2)`` in chunks: head with T^0, each T^n, tail."""
    head, inner = f'{{\n  "r": {r},\n  "order": {order},\n  "coefficients": {{', "\n    "
    for n, c in enumerate(series):
        yield f'{head}{inner}"{n}": {_json(_poly_pairs(c), inner)}'
        head = ","
    yield "\n  }\n}\n"
