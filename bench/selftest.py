"""Self-test of the output checkers in ``checks.py``.

    python3 bench/selftest.py

For each checker, runs the CLI of the checkout on a small input, requires the
checker to accept the real output, then alters one coefficient, count or check
line and requires the checker to reject it.  Exits 0 when every case behaves.
"""
from __future__ import annotations

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import checks

ROOT = Path(__file__).resolve().parent.parent
ENV = dict(os.environ, PYTHONPATH=str(ROOT / "src"))


def _bump_pair(pairs: list, index: int) -> None:
    pairs[index][1] = str(int(pairs[index][1]) + 1)


def alter_compute(text: str) -> str:
    rec = json.loads(text)
    _bump_pair(rec["stringyE"], len(rec["stringyE"]) // 2)
    return json.dumps(rec)


def alter_table(text: str) -> str:
    rows = json.loads(text)
    _bump_pair(rows[-1]["coefficients"], 1)
    return json.dumps(rows)


def alter_zeta(text: str) -> str:
    doc = json.loads(text)
    last = str(doc["order"])
    _bump_pair(doc["coefficients"][last], 0)
    return json.dumps(doc)


def alter_count(text: str) -> str:
    """Add one to the last count printed in parentheses."""
    head, value, tail = re.match(r"(?s)(.*\()(-?\d+)(\).*)", text).groups()
    return f"{head}{int(value) + 1}{tail}"


def drop_last_check(text: str) -> str:
    lines = text.rstrip("\n").splitlines()
    return "\n".join(lines[:-1]) + "\n"


def fail_first_check(text: str) -> str:
    return text.replace("pass", "FAIL", 1)


CASES = [
    (("compute", "--r", "5", "--k", "3", "--variety", "projective", "--format", "json"),
     [alter_compute]),
    (("compute", "--r", "4", "--k", "2", "--variety", "affine", "--format", "json"),
     [alter_compute]),
    (("table", "--rmax", "5", "--variety", "both", "--format", "json"), [alter_table]),
    (("zeta", "--r", "3", "--order", "4", "--format", "json"), [alter_zeta]),
    (("oracle", "--p", "3", "--rmax", "2"), [alter_count, fail_first_check, drop_last_check]),
    (("verify", "--suite", "identities", "--rmax", "4"), [drop_last_check, fail_first_check]),
    (("verify", "--suite", "orbits", "--rmax", "4"), [drop_last_check, fail_first_check]),
]


def main() -> int:
    ok = True
    for op, alterations in CASES:
        proc = subprocess.run([sys.executable, "-m", "stringydet.cli", *op], env=ENV,
                              cwd=ROOT, capture_output=True, text=True, timeout=120)
        name = " ".join(op)
        try:
            checks.check(op, proc.returncode, proc.stdout)
            print(f"accepts real output: {name}")
        except checks.CheckFailed as exc:
            ok = False
            print(f"REJECTS REAL OUTPUT: {name}: {exc}")
        for alter in alterations:
            try:
                checks.check(op, proc.returncode, alter(proc.stdout))
                ok = False
                print(f"ACCEPTS ALTERED OUTPUT ({alter.__name__}): {name}")
            except checks.CheckFailed as exc:
                print(f"rejects {alter.__name__}: {name}: {exc}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
