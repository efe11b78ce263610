"""A command loads only the layers it runs, checked in fresh processes.

In-process tests have every module loaded already, so a command that lost an
import it needs, or kept one it does not, only shows in a cold interpreter.
``-S`` leaves out ``site``, whose imports would hide the program's own.
"""
import ast
import os
import pathlib
import subprocess
import sys

import pytest

from stringydet import groth, stringy

ROOT = pathlib.Path(__file__).resolve().parent.parent
ENV = dict(os.environ, PYTHONPATH=str(ROOT / "src"))

# Runs ``stringy-det argv``; the last line on stderr is the exit status and every
# module loaded.
PROBE = ("import sys\n"
         "from stringydet.cli import main\n"
         "status = main(sys.argv[1:])\n"
         "print(status, *sorted(sys.modules), file=sys.stderr)")

STRINGY_COMMANDS = [
    "compute --r 3 --k 2", "compute --r 3 --k 2 --variety projective --format json",
    "zeta --r 3", "zeta --r 3 --format json",
    "table --rmax 3", "table --rmax 3 --variety both --format json",
    "verify --suite identities --rmax 3", "verify --suite orbits --rmax 3",
    "verify --suite zeta --rmax 3",
]
ORACLE_COMMANDS = ["oracle --p 2 --rmax 2", "verify --suite oracle --p 3 --rmax 2"]


def cold(*argv: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "-S", "-m", "stringydet.cli", *argv], cwd=ROOT,
                          env=ENV, capture_output=True, text=True, timeout=60)


def loaded(argv: str, expected_status: str = "0") -> set:
    """Modules loaded by ``stringy-det argv`` in a fresh process, by default a
    successful one."""
    proc = subprocess.run([sys.executable, "-S", "-c", PROBE, *argv.split()], cwd=ROOT,
                          env=ENV, capture_output=True, text=True, timeout=60)
    status, *modules = proc.stderr.splitlines()[-1].split()
    assert status == expected_status, proc.stderr
    return set(modules)


def test_package_root_loads_no_submodule():
    code = "import sys, stringydet; print(*sorted(sys.modules))"
    proc = subprocess.run([sys.executable, "-S", "-c", code], cwd=ROOT, env=ENV,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert [m for m in proc.stdout.split() if m.startswith("stringydet")] == ["stringydet"]


@pytest.mark.parametrize("argv", STRINGY_COMMANDS + ORACLE_COMMANDS + [
    "--help", "-h", "compute --help", "oracle -h"])
def test_no_command_loads_argparse_or_locale(argv):
    # the command line is read by getopt; argparse would bring locale and shutil
    assert not {"argparse", "locale", "shutil"} & loaded(argv)


@pytest.mark.parametrize("argv", STRINGY_COMMANDS)
def test_route_commands_leave_out_the_oracle(argv):
    modules = loaded(argv)
    assert "stringydet.stringy" in modules
    assert "stringydet.oracle" not in modules


@pytest.mark.parametrize("argv", ORACLE_COMMANDS)
def test_oracle_commands_leave_out_stringy_and_json(argv):
    modules = loaded(argv)
    assert "stringydet.oracle" in modules
    assert not {"stringydet.report", "stringydet.stringy", "json"} & modules


@pytest.mark.parametrize("argv,status", [
    *((argv, "0") for argv in STRINGY_COMMANDS + ORACLE_COMMANDS + [
        "verify --suite all --rmax 2", "--help", "zeta -h"]),
    ("compute --r 2", "2"), ("table --rmax 3 --format xml", "2"), ("oracle --p 4 --rmax 2", "2"),
])
def test_no_command_loads_fractions_or_getopt(argv, status):
    # values stay integral and the command line is read without getopt, whose
    # gettext, like fractions' decimal, would cost each process about a millisecond;
    # annotations resolve as they are defined, so no module needs __future__ or
    # numbers; ``report`` writes every JSON itself, so no command needs json; no
    # command builds a rational function, takes a gcd or divides by more than
    # q^a - 1, so none compiles ``rational``
    forbidden = {"fractions", "decimal", "getopt", "gettext", "__future__", "numbers", "json",
                 "stringydet.rational"}
    assert not forbidden & loaded(argv, status)


def test_report_does_not_import_cli():
    # under ``python -m``, cli is __main__: importing stringydet.cli would compile
    # and run it a second time
    names = set()
    for node in ast.walk(ast.parse((ROOT / "src" / "stringydet" / "report.py").read_text())):
        if isinstance(node, ast.Import):
            names |= {alias.name for alias in node.names}
        elif isinstance(node, ast.ImportFrom):
            names |= {node.module or "", *(alias.name for alias in node.names)}
    assert {"groth", "stringy"} <= names
    assert not any(name.split(".")[-1] == "cli" for name in names)


TABLE_FIRST_LINES = {"json": b"[\n", "csv": b"r,k,variety,dim,degree,euler,nonneg,coefficients\n",
                     "latex": b"\\begin{tabular}{lllll}\n"}


@pytest.mark.parametrize("fmt", TABLE_FIRST_LINES)
def test_closed_stdout_ends_quietly(fmt):
    # a table larger than a pipe holds (the csv, the smallest, is 107 KB): the
    # reader leaves after the first line
    with subprocess.Popen([sys.executable, "-m", "stringydet.cli", "table", "--rmax", "16",
                           "--variety", "both", "--format", fmt], cwd=ROOT, env=ENV,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
        assert proc.stdout.readline() == TABLE_FIRST_LINES[fmt]
        proc.stdout.close()
        assert proc.wait(timeout=60) == 1
        assert proc.stderr.read() == b""


def test_invalid_input_has_one_class():
    assert stringy.InvalidInput is groth.InvalidInput


def test_oracle_default_budget():
    proc = cold("oracle", "--p", "3", "--rmax", "5")
    assert proc.returncode == 3
    assert proc.stdout == "estimated candidates: 850833407379\n"
    assert proc.stderr == "error: 850833407379 candidates exceed the budget 200000000\n"


def test_oracle_without_a_check_is_a_usage_error():
    proc = cold("oracle", "--p", "2", "--rmax", "0")
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr == "error: no check to run: --rmax 0\n"
