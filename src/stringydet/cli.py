"""Command-line front end: compute invariants, verify identities, emit tables.

Exit statuses: 0 success, 1 verification failure, a failed exact division or a closed
stdout, 2 usage error (a malformed command line, a bad argument, or a grid that holds no
check), 3 enumeration budget exceeded. ``-h`` or ``--help`` prints the usage of ``COMMANDS``.

A command loads only the layers it runs: ``report`` and ``stringy`` for the
routes and ``oracle`` for the counts over F_p. No command loads ``json``:
``report`` writes the JSON of ``compute``, ``zeta`` and ``table`` itself.
The errors that end a command are ``groth``'s ``InvalidInput`` (exit 2) and
``BudgetExceeded`` (exit 3), so ``main`` maps each to its exit status whichever
layer raised it. A disagreement never ends a command: it is a failing check.
"""
import sys
from types import SimpleNamespace

from .groth import BudgetExceeded, InvalidInput, NotPolynomial

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3
_ORBITS_RMAX = 4  # the largest r of the orbits suite
_ZETA_RMAX = 3  # the largest r of the zeta suite
_ORACLE_RMAX = 4  # the largest r of the oracle suite, whose censuses grow as p^(r^2)


def _clamp(suite: str, rmax: int, cap: int) -> int:
    """The rmax a suite runs with; says so on stderr when it is lowered."""
    if rmax > cap:
        print(f"note: the {suite} suite runs up to r = {cap}, not --rmax {rmax}",
              file=sys.stderr)
    return min(rmax, cap)


def _print_checks(checks: list) -> bool:
    lines = []
    for name, ok, details in checks:
        suffix = f"  ({details})" if details else ""
        lines.append(f"{'pass' if ok else 'FAIL'}  {name}{suffix}\n")
    sys.stdout.write("".join(lines))
    return all(ok for _, ok, _ in checks)


# -- argument parsing ---------------------------------------------------------

REQUIRED = object()  # the default of a flag that must be given
# command -> flag -> (int, or the tuple of its choices; its default, or REQUIRED)
COMMANDS = {
    "compute": {"r": (int, REQUIRED), "k": (int, REQUIRED),
                "variety": (("affine", "projective"), "affine"),
                "format": (("json", "text"), "text")},
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


def _read_flags(args: list, flags) -> tuple:
    """``getopt.getopt(args, "h", [f"{flag}=" for flag in flags] + ["help"])``, error
    wording and all, without the ``gettext`` that ``getopt`` loads."""
    opts, i = [], 0
    while i < len(args) and args[i].startswith("-") and args[i] != "-":
        arg, i = args[i], i + 1
        if arg == "--":
            break
        if not arg.startswith("--"):  # -h, -hh, ...
            unknown = arg[1:].replace("h", "")
            if unknown:
                raise InvalidInput(f"option -{unknown[0]} not recognized")
            opts += [("-h", "")] * (len(arg) - 1)
            continue
        name, eq, value = arg[2:].partition("=")
        matches = [flag for flag in (*flags, "help") if flag.startswith(name)]
        if len(matches) != 1 and name not in matches:
            problem = "not a unique prefix" if matches else "not recognized"
            raise InvalidInput(f"option --{name} {problem}")
        flag = name if name in matches else matches[0]
        if flag == "help" and eq:
            raise InvalidInput("option --help must not have an argument")
        if flag != "help" and not eq:
            if i == len(args):
                raise InvalidInput(f"option --{flag} requires argument")
            value, i = args[i], i + 1
        opts.append((f"--{flag}", value))
    return opts, args[i:]


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
    opts, stray = _read_flags(argv[1:], flags)
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
            if args.budget is None:
                args.budget = oracle.DEFAULT_BUDGET
            rmax = args.rmax if args.command == "oracle" else min(args.rmax, _ORACLE_RMAX)
            n = oracle.census_candidates(args.p, rmax, args.budget)  # refuses a bad p first
            if args.command == "oracle":
                if args.rmax < 1:
                    raise InvalidInput(f"no check to run: --rmax {args.rmax}")
                print(f"estimated candidates: {n}")
            oracle.check_budget(n, args.budget)  # before any census or suite runs
        if args.command != "oracle" and getattr(args, "suite", None) != "oracle":
            from . import report  # every command but the oracle's runs the routes
        if args.command == "compute":
            record = report.compute_record(args.r, args.k, args.variety)
            if args.format == "json":
                print(report._json(record))
            else:
                print(report._record_text(record))
            return EXIT_OK if all(ok for _, ok, _ in record["checks"]) else EXIT_FAIL

        if args.command == "verify":
            checks = []
            if args.suite in ("identities", "all"):
                checks += report.suite_identities(args.rmax)
            if args.suite in ("orbits", "all"):
                checks += report.suite_orbits(_clamp("orbits", args.rmax, _ORBITS_RMAX))
            if args.suite in ("zeta", "all"):
                checks += report.suite_zeta(_clamp("zeta", args.rmax, _ZETA_RMAX), args.order)
            if args.suite in ("oracle", "all"):
                rmax = _clamp("oracle", args.rmax, _ORACLE_RMAX)
                checks += oracle.verify_classes(args.p, rmax, args.budget).checks
            if not checks:
                raise InvalidInput(f"no check to run: --suite {args.suite} --rmax {args.rmax}")
            return EXIT_OK if _print_checks(checks) else EXIT_FAIL

        if args.command == "table":
            if args.rmax < 2:
                raise InvalidInput(f"no row to tabulate: --rmax {args.rmax}")
            varieties = (["affine", "projective"] if args.variety == "both"
                         else [args.variety])
            rows = report.table_rows(args.rmax, varieties)
            sys.stdout.writelines(report._render_table(rows, args.format))
            return EXIT_OK

        if args.command == "zeta":
            from . import stringy
            series = stringy.zeta_closed_expansion(args.r, args.order)
            if args.format == "json":
                sys.stdout.writelines(report._render_zeta(args.r, args.order, series))
            else:
                for n, c in enumerate(series):
                    print(f"T^{n}: {c}")
            return EXIT_OK

        if args.command == "oracle":
            checks = oracle.verify_classes(args.p, args.rmax, args.budget).checks
            return EXIT_OK if _print_checks(checks) else EXIT_FAIL

    except InvalidInput as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except BudgetExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except NotPolynomial as exc:
        print(f"error: not a polynomial: {exc}", file=sys.stderr)
        return EXIT_FAIL
    except BrokenPipeError:  # stdout's reader left; the exit's flush goes to devnull
        import os
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_FAIL

    return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
